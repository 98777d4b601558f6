/**
 * @file
 * Hierarchical fair-share pool tree.
 *
 * The tree is the service's only agent store. A flat service is a
 * root-only tree: every agent sits in "/", every gain is 1.0, and
 * the allocation is REF's closed form (Eq. 13) over the whole
 * population. A pooled service applies REF recursively: pools form a
 * weighted tree
 * rooted at "/", every agent lives in exactly one pool, and an
 * agent's claim on resource r is its re-scaled elasticity (Eq. 12)
 * multiplied by the product of its ancestor pools' weights (the
 * pool's "gain"). Resource r is then divided in proportion to these
 * effective claims — the flat REF closed form (Eq. 13) over the
 * effective values:
 *
 *     share_i[r] = eff_i[r] / D[r] * C_r,
 *     eff_i[r]   = gain(pool(i)) * rescaled_i[r],
 *     D[r]       = sum_j eff_j[r].
 *
 * With all-unit weights every gain is exactly 1.0 and IEEE-754
 * multiplication by 1.0 is exact, so eff_i == rescaled_i bit for bit
 * and the pooled allocation is bit-identical to the flat solve.
 *
 * Incrementality: every tree node keeps the per-resource ExactSum of
 * the effective claims in its subtree, and the agents live in one
 * name-keyed map. An admit / update / depart / re-assign therefore
 * touches one map entry plus the root-to-leaf path — O(depth x
 * resources) ExactSum operations, independent of the population.
 * Because ExactSums hold the exact real sum as non-overlapping
 * partials, the incrementally maintained root sums round to the very
 * same double as one from-scratch sum over all agents, in any order —
 * the property selfCheck() asserts (incremental root vs scratch
 * rebuild) plus a bitwise dense-allocation compare.
 *
 * A flat service may also label agents with a cohort. The label is
 * telemetry only: it lives in the agent's record, leaves with the
 * agent, and is never persisted, hashed or counted as churn.
 */

#ifndef REF_POOL_POOL_TREE_HH
#define REF_POOL_POOL_TREE_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/agent.hh"
#include "core/allocation.hh"
#include "core/fairness.hh"
#include "core/resource.hh"
#include "util/exact_sum.hh"

namespace ref::pool {

/** Canonical path of the root pool. */
inline constexpr const char *kRootPath = "/";

/** Maximum pool-tree depth (segments below the root). */
inline constexpr std::size_t kMaxPoolDepth = 16;

/** Maximum length of a pool path in characters. */
inline constexpr std::size_t kMaxPoolPathLength = 256;

/** One cohort label's live members, and its id (label order) in
 *  the last allocateDense(DenseRows &). */
struct Cohort
{
    std::size_t members = 0;
    mutable std::uint32_t id = 0;
};

/** Cohort labels in label order. */
using CohortMap = std::map<std::string, Cohort>;

/** One agent resident in the pool tree. */
struct PooledAgent
{
    std::string name;
    /** Reported elasticities, as admitted/updated. */
    linalg::Vector elasticities;
    /** Re-scaled to unit sum (Eq. 12). */
    linalg::Vector rescaled;
    /** gain(pool) * rescaled — the values the ExactSums hold. */
    linalg::Vector effective;
    std::uint64_t admittedEpoch = 0;
    /** Global admission sequence number (dense-allocation order). */
    std::uint64_t seq = 0;
    /** Node id of the owning pool. */
    std::uint32_t pool = 0;
    /** Cohort label and its members; null when unlabelled. */
    const CohortMap::value_type *cohort = nullptr;
};

/**
 * One dense epoch: every live agent as one row, in admission order,
 * with everything the SI and EF checks read, so they share one log
 * table instead of re-deriving it per row.
 */
struct DenseRows
{
    core::Allocation allocation;
    std::vector<std::string> names;
    /** Admission sequence numbers, strictly ascending. */
    std::vector<std::uint64_t> seqs;
    /** N x R reported elasticities, row-major. */
    std::vector<double> elasticities;
    /** log x_ir of every allocated amount. */
    core::BundleLogs logs;
    /** Cohort id per row (core::kNoLabel when unlabelled); empty
     *  while no live agent carries a label. */
    std::vector<std::uint32_t> labels;
    /** Per cohort id, in label order: the label and its members. */
    std::vector<std::pair<std::string, std::size_t>> cohorts;

    /** The rows as the fairness checks read them (every a0 is 1). */
    core::AgentRows view() const
    {
        return {&allocation, &logs, names.data(), elasticities.data(),
                nullptr, labels.empty() ? nullptr : labels.data(),
                cohorts.size()};
    }

    /** The rows as agents, for the from-scratch mechanism. */
    core::AgentList agentList() const;
};

/** Read-only view of one pool for snapshots, metrics and QUERY. */
struct PoolView
{
    std::string path;
    double weight = 1.0;
    /** Product of weights from the root down to this pool. */
    double gain = 1.0;
    /** Live agents in this pool's whole subtree. */
    std::uint64_t agents = 0;
    /** Live agents directly resident in this pool. */
    std::uint64_t directAgents = 0;
    std::uint64_t createdEpoch = 0;
};

/**
 * Weighted pool tree with per-node exact subtree denominators.
 *
 * Not thread-safe on its own; the AllocationService facade
 * serializes mutation.
 */
class PoolTree
{
  public:
    explicit PoolTree(core::SystemCapacity capacity);

    // The admission-order index points into the agent map, and each
    // agent at its cohort's entry: map nodes survive a move but not a
    // copy.
    PoolTree(const PoolTree &) = delete;
    PoolTree &operator=(const PoolTree &) = delete;
    PoolTree(PoolTree &&) = default;
    PoolTree &operator=(PoolTree &&) = default;

    /**
     * Create a pool at @p path ("a" or "a/b"; the parent must already
     * exist, the root "/" always does). Creating an existing pool
     * with the identical weight is a no-op (idempotent, so racing
     * clients and journal replays converge); a differing weight
     * throws. Weights are fixed at creation. Throws FatalError on
     * malformed paths, unknown parents, non-positive / non-finite
     * weights, or excessive depth.
     */
    void createPool(const std::string &path, double weight,
                    std::uint64_t epoch = 0);

    bool hasPool(const std::string &path) const;

    /** Number of pools, including the root. */
    std::size_t poolCount() const { return nodes_.size(); }

    /** Deepest pool level (root = 0). */
    std::size_t maxDepth() const { return maxDepth_; }

    /**
     * Admit an agent into @p poolPath (default: the root). Throws
     * FatalError when the name is empty, contains whitespace or is
     * already registered, when the elasticity vector has the wrong
     * width or any non-positive or non-finite entry (which would
     * otherwise poison every agent's share with NaN), or when the
     * pool does not exist.
     */
    void admit(const std::string &name,
               const linalg::Vector &elasticities,
               const std::string &poolPath = kRootPath,
               std::uint64_t epoch = 0);

    /** Replace an agent's elasticities. Throws when unknown. */
    void update(const std::string &name,
                const linalg::Vector &elasticities);

    /** Move an agent to @p poolPath. Throws when either is unknown. */
    void assign(const std::string &name, const std::string &poolPath);

    /** Remove an agent, and its cohort label. Throws when unknown. */
    void depart(const std::string &name);

    /** Label agent @p name with cohort @p label, replacing any other
     *  (telemetry, not churn). Throws when the agent is unknown. */
    void setCohort(const std::string &name, const std::string &label);

    /** True while some live agent carries a cohort label. */
    bool hasCohorts() const { return !cohorts_.empty(); }

    std::size_t size() const { return agents_.size(); }
    bool empty() const { return agents_.empty(); }
    bool contains(const std::string &name) const;

    /** Live agent @p name. Throws when unknown. */
    const PooledAgent &agent(const std::string &name) const;

    /** Owning pool path of @p name. Throws when unknown. */
    const std::string &poolOf(const std::string &name) const;

    /** Path of the pool with node id @p node (PooledAgent::pool). */
    const std::string &poolPath(std::uint32_t node) const
    {
        return nodes_[node].path;
    }

    const core::SystemCapacity &capacity() const { return capacity_; }

    /**
     * Incrementally maintained root denominator D[r] — the correctly
     * rounded sum of every live agent's effective claim.
     */
    double denominator(std::size_t r) const;

    /**
     * Agent @p name's current share of each resource, computed lazily
     * from its effective claim and the root denominators: O(R), no
     * dense allocation. @pre the agent exists.
     */
    linalg::Vector sharesOf(const std::string &name) const;

    /**
     * Fraction of each resource's capacity held collectively by the
     * subtree rooted at @p path. @pre pool exists; zero vector while
     * the tree is empty.
     */
    linalg::Vector poolShareFractions(const std::string &path) const;

    /**
     * Every pool's share fractions at once, pool-major in creation
     * order: @p out gets poolCount() x R values, pool p's at
     * [p * R, (p + 1) * R), each bit-equal to poolShareFractions of
     * its path. The root denominators are rounded once for all
     * pools. All zero while the tree is empty.
     */
    void poolShareFractions(std::vector<double> &out) const;

    /** Live agents in the subtree of pool @p node. */
    std::uint64_t poolAgents(std::uint32_t node) const
    {
        return nodes_[node].agentsInSubtree;
    }

    /** Configured weight of pool @p node. */
    double poolWeight(std::uint32_t node) const
    {
        return nodes_[node].weight;
    }

    /** All pools in creation order (root first). */
    std::vector<PoolView> pools() const;

    /** Live agents sorted by admission sequence. O(N). */
    std::vector<const PooledAgent *> denseOrder() const;

    /**
     * Dense N x R allocation over all live agents in admission
     * order. Small-population and test use. @pre !empty().
     */
    core::Allocation allocateDense() const;

    /**
     * The dense epoch record: the allocation above plus each row's
     * name, seq and reported elasticities (and, while any agent is
     * labelled, its cohort id) from the same O(N) walk, then one
     * log x_ir per amount. Flat epochs and the pooled property checks
     * read it; it holds no AgentList (see DenseRows::agentList).
     * @pre !empty().
     */
    void allocateDense(DenseRows &rows) const;

    /**
     * The tree-wide bit-identity invariant: per resource, the
     * incremental root subtree sum and a from-scratch rebuild over
     * every agent must round to the same double, and the dense
     * allocation from the incremental sums must equal the one from
     * the rebuilt sums bitwise. O(N) — verification only.
     */
    bool selfCheck() const;

    /** True when every pool's gain is exactly 1.0 (unweighted). */
    bool allUnitGains() const;

    /** Total admits + departs + updates + assigns + pool creates. */
    std::uint64_t churnEvents() const { return churnEvents_; }

    /** Recovery only: restore the lifetime churn counter. */
    void restoreChurnEvents(std::uint64_t events)
    {
        churnEvents_ = events;
    }

  private:
    struct Node
    {
        std::string path;
        std::uint32_t parent = 0;
        double weight = 1.0;
        double gain = 1.0;
        std::uint32_t depth = 0;
        std::uint64_t createdEpoch = 0;
        std::uint64_t agentsInSubtree = 0;
        std::uint64_t directAgents = 0;
        /** Per-resource exact sums of every descendant's effective. */
        std::vector<ExactSum> subtree;
    };

    void validateAgent(const std::string &name,
                       const linalg::Vector &elasticities) const;
    static void validatePath(const std::string &path);
    /** Node id for @p path; throws when the pool does not exist. */
    std::uint32_t resolve(const std::string &path) const;
    PooledAgent &entryOf(const std::string &name);
    /** Drop @p agent from its cohort, erasing an emptied label. */
    void leaveCohort(PooledAgent &agent);
    /** Add (+1) or take away (-1) one agent resident in @p pool: its
     *  @p effective claims and its head count, along root..pool. */
    void applyAlongPath(std::uint32_t pool,
                        const linalg::Vector &effective, int direction);
    linalg::Vector effectiveFor(const linalg::Vector &rescaled,
                                std::uint32_t pool) const;
    /** The root denominators D[r], each checked positive; throws
     *  FatalError while the tree is empty. */
    std::vector<double> denominators() const;
    /**
     * allocateDense() over the given per-resource denominators; a
     * non-null @p rows also receives the names, seqs and
     * elasticities (not the allocation or the logs).
     */
    core::Allocation allocateWith(
        const std::vector<double> &denominators,
        DenseRows *rows = nullptr) const;

    core::SystemCapacity capacity_;
    std::vector<Node> nodes_;  //!< Creation order; nodes_[0] is "/".
    std::unordered_map<std::string, std::uint32_t> nodeIndex_;
    std::unordered_map<std::string, PooledAgent> agents_;
    /** Labels some live agent carries; see setCohort. */
    CohortMap cohorts_;
    /**
     * Every agent's (seq, entry) in ascending seq, so the dense walk
     * reads one contiguous array instead of chasing map nodes. A
     * departed agent leaves a null entry until the holes outnumber
     * the live agents, when they are compacted away.
     */
    std::vector<std::pair<std::uint64_t, const PooledAgent *>> order_;
    std::size_t holes_ = 0;
    std::size_t maxDepth_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t churnEvents_ = 0;
};

} // namespace ref::pool

#endif // REF_POOL_POOL_TREE_HH
