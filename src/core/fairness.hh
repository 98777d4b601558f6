/**
 * @file
 * Game-theoretic fairness checks: sharing incentives (SI),
 * envy-freeness (EF), and Pareto efficiency (PE), per paper
 * Sections 3.1-3.3 and the feasibility conditions of Eq. 11.
 */

#ifndef REF_CORE_FAIRNESS_HH
#define REF_CORE_FAIRNESS_HH

#include <cstddef>
#include <string>

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
 * Check SI for every agent (Eq. 3): each agent weakly prefers its
 * bundle to the equal split C/N.
 */
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
 */
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
