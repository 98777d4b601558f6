/**
 * @file
 * Thread-safe facade over the online REF runtime.
 *
 * Writers (admit/depart/update/tick) serialize on one mutex; readers
 * never take it. Every tick publishes an immutable ServiceSnapshot
 * behind a shared_ptr swapped under a tiny pointer lock, so queries
 * cost one refcounted pointer copy and proceed concurrently with the
 * next epoch's reallocation (copy-on-write: old snapshots stay valid
 * for readers still holding them).
 *
 * With a journal directory configured (svc/journal.hh), every
 * accepted mutation and tick is appended to a CRC32-framed
 * write-ahead log after it is applied, and construction first
 * recovers whatever a previous process left behind: snapshot
 * restore, wal replay through the exact same tree/driver code
 * paths, tail truncation on torn frames, then a fresh compaction so
 * the new process starts on its own generation. Journal IO errors
 * degrade gracefully — the service keeps serving, skipped records
 * are counted, and journaling resumes through a resync snapshot
 * once the disk recovers.
 */

#ifndef REF_SVC_ALLOCATION_SERVICE_HH
#define REF_SVC_ALLOCATION_SERVICE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/fairness_series.hh"
#include "pool/pool_tree.hh"
#include "svc/enforcement_bridge.hh"
#include "svc/epoch_driver.hh"
#include "svc/journal.hh"
#include "svc/replication.hh"
#include "svc/service_metrics.hh"
#include "svc/snapshot.hh"

namespace ref::svc {

/** Service-wide configuration. */
struct ServiceConfig
{
    core::SystemCapacity capacity =
        core::SystemCapacity::cacheAndBandwidthExample();
    EpochConfig epoch;
    /** L2 ways available to the enforcement bridge. */
    unsigned associativity = 16;
    /** Derive enforcement artifacts each enforced epoch (requires
     *  the 2-resource bandwidth+cache convention). */
    bool buildEnforcement = true;
    /** Durability; journal.directory empty keeps the service
     *  memory-only. */
    JournalConfig journal;
    /**
     * Both modes keep agents in one pool::PoolTree; a flat service's
     * tree holds only the root. Pooled mode accepts POOL commands
     * (COHORT is flat-only), keeps epochs O(changed paths) because
     * ticks never publish a dense allocation, answers QUERY from the
     * live tree instead of the epoch snapshot, and must run with
     * enforcement off (incompatible with lazy shares).
     */
    bool pooled = false;
};

/** Immutable view of the service after some epoch. */
struct ServiceSnapshot
{
    std::uint64_t epoch = 0;
    std::vector<std::string> agents;  //!< Allocation-row order.
    /** Admission seq of each row. Empty in a snapshot restored from
     *  disk: seqs do not outlive the process that assigned them. */
    std::vector<std::uint64_t> seqs;
    core::Allocation allocation;
    /** Enforcement artifacts of the last *enforced* epoch (carried
     *  forward unchanged across hysteresis holds). */
    EnforcementPlan enforcement;
    /** Last epoch's property-check outcomes. */
    bool propertiesChecked = false;
    core::PropertyCheck sharingIncentives;
    core::PropertyCheck envyFreeness;

    /** Row of @p name, or agents.size() when absent. */
    std::size_t indexOf(const std::string &name) const;
};

/** Exposition formats served by the METRICS command. */
enum class MetricsFormat
{
    Prometheus,
    Json,
};

/** Long-lived allocation service: pool tree + epochs + metrics. */
class AllocationService
{
  public:
    /**
     * With config.journal enabled, recovers the journal directory's
     * state before accepting traffic. Throws FatalError when the
     * directory holds a corrupt snapshot or state written for a
     * different capacity configuration.
     */
    explicit AllocationService(ServiceConfig config = {});

    /** @name Churn (validated; throws FatalError on bad input). */
    ///@{
    void admit(const std::string &name,
               const linalg::Vector &elasticities);
    void depart(const std::string &name);
    void update(const std::string &name,
                const linalg::Vector &elasticities);
    ///@}

    /**
     * Advance one epoch, publish a fresh snapshot. The rows (names,
     * seqs, allocation) move into that snapshot, so the returned
     * result holds none: read them from snapshot().
     */
    EpochResult tick();

    /** @name Pooled mode (throw unless config.pooled). */
    ///@{
    /** Create a pool (idempotent for an identical weight). */
    void createPool(const std::string &path, double weight);
    /** Move an agent into a pool. */
    void assignPool(const std::string &name,
                    const std::string &path);
    /** Agent @p name's live shares (current tree, not the published
     *  snapshot — pooled ticks never materialize allocations). */
    linalg::Vector agentShares(const std::string &name) const;
    /** Owning pool path of @p name. */
    std::string agentPool(const std::string &name) const;
    /** All pools in creation order (root first). */
    std::vector<pool::PoolView> pools() const;
    /** Capacity fraction held by the subtree at @p path. */
    linalg::Vector poolShareFractions(const std::string &path) const;
    std::size_t poolCount() const;
    ///@}

    bool pooled() const { return config_.pooled; }

    /** @name Fairness cohorts (flat mode only).
     *
     * A cohort is an observability-only label in the pool tree's
     * agent record: each checked epoch additionally appends one
     * labelled fairness sample per cohort, whose SI margin is the
     * minimum over the cohort's members (vs the equal split) and
     * whose EF margin is the minimum over the cohort's members
     * against the whole population. Both come out of the epoch's own
     * SI/EF checks over the reported elasticities, so a cohort of
     * every agent reads exactly the "_total" margins. This is how
     * the adversary fleet reads honest-agent damage separately from
     * the liars' own series. Labels are not
     * journaled, not replicated, and excluded from stateHash();
     * departure drops the departing agent's label. */
    ///@{
    /** Label @p name (must be live). Throws FatalError on a pooled
     *  service, an unknown agent, or a malformed label. */
    void setCohort(const std::string &name,
                   const std::string &label);
    /** True when at least one live agent carries a label. */
    bool hasCohorts() const;
    ///@}

    /**
     * Current snapshot (never null; epoch 0 snapshot before the
     * first tick). Safe to call concurrently with everything.
     */
    std::shared_ptr<const ServiceSnapshot> snapshot() const;

    /** Service metrics, journal/durability counters included. */
    MetricsSnapshot metrics() const;

    /**
     * Write the full metrics registry in the requested exposition
     * format. Journal and recovery counters are refreshed into the
     * registry first, so this always agrees with metrics()/STATS.
     */
    void writeMetrics(std::ostream &os, MetricsFormat format) const;

    /** Per-epoch fairness time series (ticks only, never replay). */
    const obs::FairnessSeries &fairnessSeries() const
    {
        return series_;
    }

    /** Count a command rejected at the protocol layer. */
    void noteRejected() { metrics_.recordRejected(); }

    /** Count a query served from the snapshot. */
    void noteQuery() { metrics_.recordQuery(); }

    /** How construction-time recovery went. */
    const RecoveryInfo &recovery() const { return recovery_; }

    /** Flush + fsync the journal now (shutdown/signal path). */
    void syncJournal();

    /**
     * Group-commit ack barrier: make every appended journal record
     * durable before client replies leave the process. One barrier
     * covers every record appended since the last — the transport
     * calls this once per flush pass, amortizing the fsync across
     * all connections' batched replies.
     */
    void journalBarrier();

    /** @name Replication (see svc/replication.hh, src/repl). */
    ///@{
    /**
     * Attach the shipping sink. Every journaled record is handed to
     * it, encoded, in WAL order, under the write mutex. Must be set
     * before traffic; pass nullptr to detach.
     */
    void setReplicationSink(ReplicationSink *sink);

    /**
     * Apply one shipped record through the live mutation paths —
     * exactly the wal-replay code, so a follower's state is
     * bit-identical to the primary's by the same argument as crash
     * recovery. The record is re-journaled locally (the follower
     * keeps its own durable history) and re-shipped to any chained
     * sink. Returns the post-apply stateHash() for a Tick record
     * (computed once, under the same lock, and handed to the
     * chained sink too), 0 for any other record.
     */
    std::uint32_t applyShipped(const JournalRecord &record);

    /**
     * Replace the entire service state with @p state (snapshot
     * resync): reset the tree/driver, restore, and — when
     * journaling — compact so the adopted state is durable under a
     * fresh local generation.
     */
    void adoptState(const ServiceState &state);

    /**
     * CRC32 of the full encoded service state with the generation
     * zeroed: generations are process-local (a follower runs its
     * own), everything else must match the primary bit for bit.
     */
    std::uint32_t stateHash() const;

    /**
     * Encode the full state for a snapshot resync, atomically with
     * the sink's head sequence (@p atSeq): records after atSeq are
     * exactly the ones not reflected in the returned state, so a
     * subscriber resumes from atSeq with no gap and no repeat.
     */
    std::string captureReplicationSnapshot(std::uint64_t &atSeq) const;

    /**
     * Promotion: the follower stops replaying and starts serving.
     * Compacts onto a fresh generation so the promoted history is
     * distinguishable from the dead primary's.
     */
    void promote();
    ///@}

    std::size_t liveAgents() const;
    const ServiceConfig &config() const { return config_; }

  private:
    void publish(std::shared_ptr<const ServiceSnapshot> next);
    /** Build + publish the post-tick snapshot (tick and replay),
     *  moving @p result's rows into it. Returns the snapshot. */
    std::shared_ptr<const ServiceSnapshot>
    publishEpochLocked(EpochResult &result);
    /** Recover snapshot + wal from the journal directory. */
    void recoverLocked();
    /** Restore @p state into tree/driver + publish. */
    void restoreStateLocked(const ServiceState &state);
    /** Drop all live state: fresh tree/driver/snapshot. */
    void resetRuntimeLocked();
    /** CRC32 of the encoded state, generation zeroed. */
    std::uint32_t stateHashLocked() const;
    /** Apply one replayed wal record through the normal paths. */
    void applyRecordLocked(const JournalRecord &record);
    /** Journal one accepted record; handles degraded mode. A tick
     *  ships @p tickHash when given, else stateHashLocked() when
     *  the sink wants it, else 0. */
    void journalAppendLocked(
        const JournalRecord &record,
        std::optional<std::uint32_t> tickHash = std::nullopt);
    /** Write snapshot generation+1, then restart the wal on it. */
    bool compactLocked();
    /** Full service state for a snapshot. */
    ServiceState captureStateLocked() const;
    /** Mirror live journal/recovery state into the registry. */
    void refreshRegistryLocked() const;
    /** Append the epoch's fairness sample (and one per cohort) and
     *  update the gauges; @p current holds the epoch's rows. */
    void recordFairnessLocked(const ServiceSnapshot &previous,
                              const ServiceSnapshot &current,
                              const EpochResult &result);
    /** Pooled variant: global + per-pool labelled samples, with
     *  drift computed over pool share fractions (O(pools), never
     *  O(agents), and no string built or looked up once a pool has
     *  been seen). */
    void recordPooledFairnessLocked(const EpochResult &result);

    ServiceConfig config_;
    mutable std::mutex writeMutex_;  //!< Serializes churn and ticks.
    /** Every live agent; root-only in flat mode. */
    pool::PoolTree tree_;
    EpochDriver driver_;  //!< Points at tree_.
    mutable ServiceMetrics metrics_;
    obs::FairnessSeries series_;
    /** Last epoch's per-pool share fractions, pool-major in
     *  creation order (pools are append-only), for pooled drift. */
    std::vector<double> lastPoolShares_;
    /** Each pool's fairness sub-series, in creation order. */
    std::vector<obs::FairnessSeries::Label> poolLabels_;

    std::unique_ptr<Journal> journal_;  //!< Null when disabled.
    RecoveryInfo recovery_;
    std::uint64_t generation_ = 0;  //!< Current snapshot generation.
    ReplicationSink *sink_ = nullptr;  //!< Shipping edge; unowned.

    mutable std::mutex snapshotMutex_;  //!< Guards the pointer only.
    std::shared_ptr<const ServiceSnapshot> snapshot_;
};

} // namespace ref::svc

#endif // REF_SVC_ALLOCATION_SERVICE_HH
