/**
 * @file
 * Game-theoretic fairness checks: sharing incentives (SI),
 * envy-freeness (EF), and Pareto efficiency (PE), per paper
 * Sections 3.1-3.3 and the feasibility conditions of Eq. 11.
 */

#ifndef REF_CORE_FAIRNESS_HH
#define REF_CORE_FAIRNESS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/agent.hh"
#include "core/allocation.hh"

namespace ref::core {

/** Outcome of one property check. */
struct PropertyCheck
{
    bool satisfied = false;
    /**
     * Worst slack over all constraints of the property, measured in
     * log-utility units: positive means the tightest constraint
     * holds with room to spare; negative measures the violation.
     */
    double worstSlack = 0;
    /** Human-readable description of the tightest constraint. */
    std::string binding;
};

/** Results of all fairness checks for one allocation. */
struct FairnessReport
{
    PropertyCheck sharingIncentives;
    PropertyCheck envyFreeness;
    PropertyCheck paretoEfficiency;
    PropertyCheck capacity;

    /** The game-theoretic definition of fair: EF and PE [37]. */
    bool fair() const
    {
        return envyFreeness.satisfied && paretoEfficiency.satisfied;
    }

    /** All of SI, EF, PE and capacity hold. */
    bool allHold() const
    {
        return sharingIncentives.satisfied && fair() &&
               capacity.satisfied;
    }
};

/** Tolerances for the fairness checks. */
struct FairnessTolerance
{
    /** Slack allowed on SI/EF comparisons, in log-utility units. */
    double utility = 1e-6;
    /** Relative mismatch allowed between agents' MRS values for PE. */
    double mrs = 1e-6;
    /** Relative capacity slack. */
    double capacity = 1e-9;
};

/**
 * log x_jr of every bundle of one allocation, taken once and read by
 * both the SI and the EF check. A bundle holding a zero amount is
 * worth -inf to every agent and keeps no logs past it, exactly as
 * CobbDouglasUtility::logValue returns before its later resources; a
 * negative (or NaN) amount met first makes logValue throw, and the
 * lowest such bundle is remembered.
 */
class BundleLogs
{
  public:
    BundleLogs() = default;
    explicit BundleLogs(const Allocation &allocation);

    /** Lowest bundle logValue rejects; the bundle count when none. */
    std::size_t firstRejected() const { return firstRejected_; }

    double log(std::size_t j, std::size_t r) const
    {
        return logs_[j * resources_ + r];
    }

    /**
     * log u(x_j) for an agent with elasticities @p alphas (one per
     * resource) and log(a0) @p log_scale: logValue's expression,
     * log(a0) + sum_r a_r log x_jr summed left to right, so the
     * result is bit-identical to it.
     */
    double value(const double *alphas, double log_scale,
                 std::size_t j) const;

  private:
    std::size_t resources_ = 0;
    std::vector<double> logs_;
    std::vector<char> worthless_;
    std::size_t firstRejected_ = 0;
};

/** Label id of an unlabelled row. */
inline constexpr std::uint32_t kNoLabel = 0xffffffffu;

/**
 * One allocation's agents as rows: the input the SI and EF checks
 * read. Row i's utility is a0_i * prod_r x_r^alpha_ir and its bundle
 * is allocation row i. Every pointer is borrowed; @p logs must be
 * the BundleLogs of @p allocation.
 */
struct AgentRows
{
    const Allocation *allocation = nullptr;
    const BundleLogs *logs = nullptr;
    /** Row names, for the binding text. */
    const std::string *names = nullptr;
    /** agents x resources elasticities, row-major. */
    const double *elasticities = nullptr;
    /** log a0 per row; null when every a0 is 1. */
    const double *logScales = nullptr;
    /** Label id per row (a cohort), below labelCount or kNoLabel;
     *  null when no row is labelled. */
    const std::uint32_t *labels = nullptr;
    std::size_t labelCount = 0;
};

/**
 * Check SI for every agent (Eq. 3): each agent weakly prefers its
 * bundle to the equal split C/N. One multiply-add pass over the
 * shared logs; log(C_r/N) is taken once. A non-null @p label_slack
 * receives one entry per label id: the minimum slack over the
 * label's rows (+inf for a label no row carries).
 */
PropertyCheck checkSharingIncentives(
    const AgentRows &rows, const SystemCapacity &capacity,
    const FairnessTolerance &tol = {},
    std::vector<double> *label_slack = nullptr);

/** checkSharingIncentives over an AgentList (builds the rows). */
PropertyCheck checkSharingIncentives(
    const AgentList &agents, const SystemCapacity &capacity,
    const Allocation &allocation, const FairnessTolerance &tol = {});

/** Work done by one EF check; never part of its result. */
struct EnvyCheckStats
{
    /** Rows i whose pairs (i, j) were evaluated one by one. */
    std::size_t rowsScanned = 0;
};

/**
 * Check EF for every ordered pair (Section 3.2): agent i weakly
 * prefers its own bundle to agent j's.
 *
 * Returns exactly what checkEnvyFreenessPairwise returns, bit for
 * bit: the minimum slack, the first (i, j) in row-major order that
 * reaches it, and whether any pair breaks the tolerance. Logs are
 * taken once per bundle. For two resources (the paper's cache and
 * bandwidth) an exact upper-hull query finds each agent's most
 * envied bundle in O(log N), and only the rows whose slack could be
 * the minimum are evaluated pair by pair, so a REF allocation costs
 * O(N log N). Other resource counts, zero or non-finite amounts and
 * N < 2 evaluate every row (see DESIGN.md). A non-null @p stats
 * receives the work done.
 *
 * The hull filter sorts the bundles by (log x_j0, log x_j1, j). A
 * non-null @p hull_order carries that order from one check to the
 * next over the same rows: when it holds a permutation of the rows
 * the sort starts from it (an insertion sort with a budget of
 * N log2 N moves, then std::sort), and it receives this check's
 * order, or nothing when the filter did not run. The result is the
 * same either way.
 *
 * A non-null @p label_slack receives, per label id, the pairwise
 * loop's minimum over the pairs (i, j) whose row i carries the label
 * (+inf when there is none): the filter then also keeps every row
 * that could hold a label's minimum.
 */
PropertyCheck checkEnvyFreeness(
    const AgentRows &rows, const FairnessTolerance &tol = {},
    EnvyCheckStats *stats = nullptr,
    std::vector<std::size_t> *hull_order = nullptr,
    std::vector<double> *label_slack = nullptr);

/** checkEnvyFreeness over an AgentList (builds the rows). */
PropertyCheck checkEnvyFreeness(
    const AgentList &agents, const Allocation &allocation,
    const FairnessTolerance &tol = {}, EnvyCheckStats *stats = nullptr);

/**
 * The O(N^2) definition of checkEnvyFreeness, one logValue call per
 * ordered pair: the oracle the fast check is tested against.
 */
PropertyCheck checkEnvyFreenessPairwise(
    const AgentList &agents, const Allocation &allocation,
    const FairnessTolerance &tol = {});

/**
 * Check PE (Section 3.3). For interior allocations under
 * Cobb-Douglas, PE holds iff (a) every resource is fully allocated
 * and (b) all agents' marginal rates of substitution agree for every
 * resource pair (the contract-curve tangency condition, Eq. 10).
 * Allocations that zero out some agent-resource amount are PE only
 * in degenerate corners; we report them as not PE, matching the
 * paper's observation that such corners are never selected.
 */
PropertyCheck checkParetoEfficiency(
    const AgentList &agents, const SystemCapacity &capacity,
    const Allocation &allocation, const FairnessTolerance &tol = {});

/** Check per-resource capacity: sum_i x_ir <= C_r. */
PropertyCheck checkCapacity(
    const SystemCapacity &capacity, const Allocation &allocation,
    const FairnessTolerance &tol = {});

/** Run all four checks. */
FairnessReport checkFairness(
    const AgentList &agents, const SystemCapacity &capacity,
    const Allocation &allocation, const FairnessTolerance &tol = {});

} // namespace ref::core

#endif // REF_CORE_FAIRNESS_HH
