/**
 * @file
 * Epoch clock for the online allocation service.
 *
 * REF's closed form is cheap enough to rerun every scheduling epoch
 * (the paper's strategy-proofness-in-the-large argument assumes
 * exactly this dynamic setting). The driver owns the monotonic epoch
 * counter: each tick() builds the epoch's dense rows once from the
 * pool tree's incremental state (allocation, names, admission seqs,
 * elasticities and one log table; see pool::DenseRows), optionally
 * verifies them against a from-scratch recompute, runs the SI/EF
 * property checks over those same rows, and — in flat mode — decides
 * via a configurable hysteresis threshold whether the change is large
 * enough to justify re-programming enforcement (way partitions and
 * WFQ weights are not free to install).
 *
 * Across epochs the driver keeps two things keyed by admission seq:
 * the enforced rows' seqs, so hysteresis compares names only when
 * the seqs differ, and the EF check's hull order, from which the
 * next check over the same seqs starts its sort. Each tick records
 * the wall time of its phases in EpochResult::phases.
 */

#ifndef REF_SVC_EPOCH_DRIVER_HH
#define REF_SVC_EPOCH_DRIVER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fairness.hh"
#include "pool/pool_tree.hh"

namespace ref::svc {

/**
 * Pooled ticks skip the SI/EF property checks above this population
 * (the checks read the dense rows of every live agent, and
 * materializing them is exactly the full-population cost pooled mode
 * exists to avoid) and when any pool carries a non-unit weight
 * (weighted trees intentionally favour heavy pools, so the flat
 * equal-split baselines no longer apply).
 */
inline constexpr std::size_t kPooledPropertyCheckCap = 1024;

/** Epoch policy knobs. */
struct EpochConfig
{
    /**
     * Reallocation hysteresis: when the same agent set is live and
     * every share moved by less than this relative amount since the
     * last enforced allocation, keep the old enforcement (the epoch
     * still advances and the new allocation is still published to
     * queries). 0 re-enforces every epoch.
     */
    double hysteresis = 0.0;
    /**
     * Verify each epoch's incremental state: the tree's three-way
     * denominator self-check and, in flat mode, the dense allocation
     * bit-for-bit against ProportionalElasticityMechanism run from
     * scratch (the soak and property tests run with this on).
     */
    bool verifyIncremental = false;
    /** Run the SI and EF property checks each epoch. */
    bool checkProperties = true;
    /** Tolerances for the property checks. */
    core::FairnessTolerance tolerance{1e-6, 1e-6, 1e-9};
};

/** Where one tick's wall time went, phase by phase. */
struct TickPhases
{
    /** @name Filled by EpochDriver::tick(). */
    ///@{
    /** The dense rows: allocation, names, seqs and logs. */
    std::chrono::nanoseconds allocate{0};
    /** verifyIncremental's tree self-check and scratch compare. */
    std::chrono::nanoseconds selfCheck{0};
    std::chrono::nanoseconds sharingIncentives{0};
    std::chrono::nanoseconds envyFreeness{0};
    std::chrono::nanoseconds hysteresis{0};
    ///@}
    /** @name Filled by AllocationService::tick(). */
    ///@{
    /** Drift against the last snapshot and the fairness-series
     *  append. */
    std::chrono::nanoseconds drift{0};
    /** Snapshot publish, enforcement plan included. */
    std::chrono::nanoseconds publish{0};
    ///@}
};

/** One cohort's minimum SI/EF slacks, from the epoch's own checks. */
struct CohortCheck
{
    std::string label;
    std::uint64_t agents = 0;
    double siSlack = 0.0;
    /** +inf when no member has a rival (a population of one). */
    double efSlack = 0.0;
};

/** Outcome of one epoch tick. */
struct EpochResult
{
    std::uint64_t epoch = 0;
    /** True for a pooled tick: agentNames/allocation stay empty
     *  (nothing dense is published) and liveAgents/pools carry the
     *  scale. */
    bool pooled = false;
    /** Live population (equals agentNames.size() when not pooled). */
    std::uint64_t liveAgents = 0;
    /** Pool count including the root (pooled ticks only). */
    std::uint64_t pools = 0;
    /** Live agents this epoch, admission order (allocation rows).
     *  Empty on pooled ticks. */
    std::vector<std::string> agentNames;
    /** Admission seq of each agentNames row, ascending. Empty on
     *  pooled ticks. */
    std::vector<std::uint64_t> agentSeqs;
    /** The epoch's allocation (empty when no agents are live and on
     *  pooled ticks, which never publish the dense matrix). */
    core::Allocation allocation;
    /** False when hysteresis kept the previous enforcement. */
    bool enforcementChanged = false;
    /** Largest relative per-share change vs the enforced allocation;
     *  +inf when the agent set changed. */
    double maxRelativeChange = 0.0;
    /** Self-check outcome; true when verification is off or passed. */
    bool incrementalMatchesScratch = true;
    /** SI/EF results (left defaulted when checks are off or no
     *  agents are live). */
    core::PropertyCheck sharingIncentives;
    core::PropertyCheck envyFreeness;
    /** Rows the EF check evaluated pair by pair (0 when unchecked). */
    core::EnvyCheckStats envyWork;
    /** Per cohort, in label order, when the properties were checked
     *  and some agent is labelled. */
    std::vector<CohortCheck> cohorts;
    bool propertiesChecked = false;
    /** Wall time spent computing this tick. */
    std::chrono::nanoseconds latency{0};
    TickPhases phases;
};

/** Monotonic epoch clock driving per-epoch reallocation. */
class EpochDriver
{
  public:
    /**
     * @param tree Live-agent state; must outlive the driver.
     * @param pooled Flat mode (false) publishes the dense allocation
     *        every tick and applies hysteresis. Pooled mode never
     *        publishes it (shares are computed lazily per query), so
     *        the per-epoch cost is O(pools), not O(population); the
     *        property checks then run only for small unweighted
     *        populations (see kPooledPropertyCheckCap).
     */
    explicit EpochDriver(pool::PoolTree &tree, EpochConfig config = {},
                         bool pooled = false);

    /** Advance one epoch and reallocate. */
    EpochResult tick();

    /** Epochs completed so far. */
    std::uint64_t epoch() const { return epoch_; }

    const EpochConfig &config() const { return config_; }

    /** The allocation enforcement currently runs (for hysteresis). */
    const core::Allocation &enforced() const { return enforced_; }

    /** Agents of the enforced allocation, admission order. */
    const std::vector<std::string> &enforcedNames() const
    {
        return enforcedNames_;
    }

    /** Epoch whose tick last re-programmed enforcement. */
    std::uint64_t lastEnforcedEpoch() const
    {
        return lastEnforcedEpoch_;
    }

    /**
     * Recovery only: restore the epoch clock and the hysteresis
     * baseline exactly as a snapshot captured them, so the first
     * post-recovery tick takes the same enforce-vs-hold branch a
     * never-crashed service would.
     */
    void restore(std::uint64_t epoch,
                 std::uint64_t last_enforced_epoch,
                 core::Allocation enforced,
                 std::vector<std::string> enforced_names);

  private:
    /** Flat mode: enforce or hold @p result against enforced_. */
    void applyHysteresis(EpochResult &result);

    pool::PoolTree *tree_;
    EpochConfig config_;
    bool pooled_;
    std::uint64_t epoch_ = 0;
    std::uint64_t lastEnforcedEpoch_ = 0;
    core::Allocation enforced_;
    std::vector<std::string> enforcedNames_;
    /**
     * Seqs of enforcedNames_ when known. Equal seqs are the same
     * admissions and so the same names; empty after restore(),
     * since seqs do not outlive the process that assigned them.
     */
    std::vector<std::uint64_t> enforcedSeqs_;
    /** The EF check's hull order of the last checked epoch, and the
     *  seqs of its rows: the next check over the same seqs starts
     *  its sort from that order. */
    std::vector<std::size_t> hullOrder_;
    std::vector<std::uint64_t> hullSeqs_;
    /** The dense rows, refilled in place: fresh buffers every tick
     *  made glibc trim the heap top and fault it back in. */
    pool::DenseRows rows_;
};

} // namespace ref::svc

#endif // REF_SVC_EPOCH_DRIVER_HH
