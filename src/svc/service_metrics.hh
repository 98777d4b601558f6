/**
 * @file
 * Operational metrics for the online allocation service.
 *
 * Counts churn (admits/departs/updates), queries and epochs, tracks
 * an epoch-latency histogram (power-of-two microsecond buckets), and
 * aggregates the per-epoch SI/EF property-check and incremental
 * self-check outcomes so a long-running service surfaces fairness
 * regressions as metrics rather than silent drift.
 *
 * Every value lives in an obs::MetricsRegistry owned by this object:
 * the legacy STATS key=value dump (printMetrics), the Prometheus and
 * JSON METRICS expositions, and MetricsSnapshot all read the same
 * registry, so they can never disagree. Journal and recovery
 * counters are mirrored into the registry (setJournal/setRecovery)
 * before any read, keeping one source of truth.
 */

#ifndef REF_SVC_SERVICE_METRICS_HH
#define REF_SVC_SERVICE_METRICS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "obs/metrics.hh"
#include "pool/pool_tree.hh"
#include "svc/journal.hh"

namespace ref::svc {

struct EpochResult;

/** Immutable copy of the metrics at one instant. */
struct MetricsSnapshot
{
    std::uint64_t admits = 0;
    std::uint64_t departs = 0;
    std::uint64_t updates = 0;
    std::uint64_t queries = 0;
    std::uint64_t rejected = 0;  //!< Commands that threw FatalError.
    std::uint64_t epochs = 0;
    std::uint64_t enforcementUpdates = 0;  //!< Epochs that re-enforced.
    std::uint64_t hysteresisHolds = 0;     //!< Epochs held by hysteresis.
    std::uint64_t siViolations = 0;
    std::uint64_t efViolations = 0;
    std::uint64_t selfCheckFailures = 0;
    std::uint64_t poolCreates = 0;  //!< POOL CREATEs accepted.
    std::uint64_t poolAssigns = 0;  //!< POOL ASSIGNs accepted.
    std::uint64_t pools = 0;        //!< Live pools (root included).

    /**
     * Epoch latency histogram: bucket b counts epochs that took
     * < 2^b microseconds (the last bucket is unbounded).
     */
    static constexpr std::size_t kLatencyBuckets = 16;
    std::array<std::uint64_t, kLatencyBuckets> latencyBuckets{};
    /** 0 until the first epoch (the registry histogram keeps a
     *  sentinel internally so the true first minimum is recorded). */
    std::uint64_t latencyMinNs = 0;
    std::uint64_t latencyMaxNs = 0;
    std::uint64_t latencyTotalNs = 0;

    /** Durability counters (all zero for a memory-only service). */
    JournalStats journal;
    /** How construction-time recovery went. */
    RecoveryInfo recovery;

    /** Mean epoch latency in nanoseconds; 0 before the first epoch. */
    double meanLatencyNs() const
    {
        return epochs == 0
                   ? 0.0
                   : static_cast<double>(latencyTotalNs) /
                         static_cast<double>(epochs);
    }
};

/**
 * Render the snapshot as deterministic-order "key=value" lines
 * (latency values are inherently run-dependent; everything else is
 * reproducible for a scripted session).
 */
void printMetrics(std::ostream &os, const MetricsSnapshot &snapshot);

/** Thread-safe metrics sink backed by an obs::MetricsRegistry. */
class ServiceMetrics
{
  public:
    ServiceMetrics();

    void recordAdmit() { admits_.add(); }
    void recordDepart() { departs_.add(); }
    void recordUpdate() { updates_.add(); }
    void recordQuery() { queries_.add(); }
    void recordRejected() { rejected_.add(); }
    void recordPoolCreate() { poolCreates_.add(); }
    void recordPoolAssign() { poolAssigns_.add(); }
    void recordEpoch(const EpochResult &result);

    /** Labelled series beyond this many pools are not exported
     *  (counts and the first pools still are). */
    static constexpr std::size_t kMaxPoolGauges = 256;

    /**
     * Publish per-pool gauges for the first kMaxPoolGauges pools of
     * @p tree: ref_pool_agents/ref_pool_weight labelled
     * {pool="<path>"} and ref_pool_share additionally labelled by
     * resource. @p fractions holds every pool's share fractions as
     * PoolTree::poolShareFractions(std::vector<double> &) lays them
     * out. Pools are append-only and never change path or weight, so
     * a pool's gauges are registered, and its weight set, the first
     * time it is published; later calls store numbers only. Pool
     * paths need no label-escaping: the tree rejects '"', '\', '{',
     * '}' and '=' at validation.
     */
    void setPoolGauges(const pool::PoolTree &tree,
                       std::span<const double> fractions);

    /**
     * Forget the per-pool gauge handles, for a tree that replaced
     * the published one: its pools may sit at other creation
     * indices. Their series stay in the registry.
     */
    void resetPoolGauges();

    /** Mirror the journal's counters into the registry (gauges,
     *  absolute values) so expositions include durability state. */
    void setJournal(const JournalStats &stats);

    /** Mirror recovery info into the registry. */
    void setRecovery(const RecoveryInfo &info);

    /** Current fairness margins/drift as scrapeable gauges. */
    void setFairnessGauges(double si_margin, double ef_margin,
                           double l1_drift);

    MetricsSnapshot snapshot() const;

    /** The backing registry, for the METRICS expositions. */
    const obs::MetricsRegistry &registry() const { return registry_; }

  private:
    obs::MetricsRegistry registry_;

    obs::Counter &admits_;
    obs::Counter &departs_;
    obs::Counter &updates_;
    obs::Counter &queries_;
    obs::Counter &rejected_;
    obs::Counter &epochs_;
    obs::Counter &enforcementUpdates_;
    obs::Counter &hysteresisHolds_;
    obs::Counter &siViolations_;
    obs::Counter &efViolations_;
    obs::Counter &selfCheckFailures_;
    obs::Counter &poolCreates_;
    obs::Counter &poolAssigns_;
    obs::Gauge &pools_;
    obs::Histogram &latencyUs_;  //!< Legacy 16-bucket STATS shape.
    obs::Histogram &latencyNs_;  //!< ns min/max/sum source of truth.

    obs::Gauge &journalEnabled_;
    obs::Gauge &journalRecords_;
    obs::Gauge &journalBytes_;
    obs::Gauge &journalFsyncs_;
    obs::Gauge &journalAppendErrors_;
    obs::Gauge &journalDegraded_;
    obs::Gauge &journalDegradedSkipped_;
    obs::Gauge &journalReopens_;
    obs::Gauge &journalSnapshots_;
    obs::Gauge &journalSnapshotFailures_;
    obs::Gauge &journalCommitted_;
    obs::Gauge &journalPending_;

    obs::Gauge &recoveryOutcome_;
    obs::Gauge &recoverySnapshotLoaded_;
    obs::Gauge &recoveryGeneration_;
    obs::Gauge &recoveryReplayedRecords_;
    obs::Gauge &recoveryTruncatedBytes_;

    obs::Gauge &fairnessSiMargin_;
    obs::Gauge &fairnessEfMargin_;
    obs::Gauge &fairnessL1Drift_;
    obs::Gauge &efRowsScanned_;

    /** ref_pool_agents per published pool, in creation order. */
    std::vector<obs::Gauge *> poolAgentGauges_;
    /** ref_pool_share per published pool and resource, pool-major. */
    std::vector<obs::Gauge *> poolShareGauges_;
};

} // namespace ref::svc

#endif // REF_SVC_SERVICE_METRICS_HH
