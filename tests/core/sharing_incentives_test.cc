/**
 * Differential tests: checkSharingIncentives over rows (one shared
 * log table, log(C_r/N) taken once) must return exactly what the
 * row-by-row logValue loop returns — the same satisfied bit, the same
 * worstSlack bits and the same binding text — and raise the same
 * error on a bundle logValue rejects.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fairness.hh"
#include "core/proportional_elasticity.hh"
#include "util/logging.hh"
#include "test_names.hh"

namespace {

using namespace ref::core;

/**
 * The SI check as it was written before the rows existed: two
 * logValue calls per agent, the binding formatted at every new
 * running minimum. Kept verbatim as the oracle.
 */
PropertyCheck
logValueLoop(const AgentList &agents, const SystemCapacity &capacity,
             const Allocation &allocation,
             const FairnessTolerance &tol = {})
{
    const Vector equal_share = capacity.equalShare(agents.size());

    PropertyCheck check;
    check.worstSlack = std::numeric_limits<double>::infinity();
    check.satisfied = true;
    for (std::size_t i = 0; i < agents.size(); ++i) {
        const auto &utility = agents[i].utility();
        const double own = utility.logValue(allocation.agentShare(i));
        const double split = utility.logValue(equal_share);
        const double slack = own - split;
        if (slack < check.worstSlack) {
            check.worstSlack = slack;
            std::ostringstream detail;
            detail << "agent '" << agents[i].name()
                   << "' vs equal split (log-utility slack " << slack
                   << ")";
            check.binding = detail.str();
        }
        if (slack < -tol.utility)
            check.satisfied = false;
    }
    return check;
}

void
expectSameCheck(const PropertyCheck &rows, const PropertyCheck &oracle)
{
    EXPECT_EQ(rows.satisfied, oracle.satisfied);
    EXPECT_EQ(std::memcmp(&rows.worstSlack, &oracle.worstSlack,
                          sizeof(double)),
              0)
        << "rows " << rows.worstSlack << " oracle " << oracle.worstSlack;
    EXPECT_EQ(rows.binding, oracle.binding);
}

/** Unit-scale agents: the rows built by hand, as a dense epoch does. */
PropertyCheck
checkOverRows(const AgentList &agents, const SystemCapacity &capacity,
              const Allocation &allocation,
              const FairnessTolerance &tol)
{
    std::vector<std::string> names;
    std::vector<double> elasticities;
    for (const Agent &agent : agents) {
        EXPECT_EQ(agent.utility().scale(), 1.0);
        names.push_back(agent.name());
        for (const double alpha : agent.utility().elasticities())
            elasticities.push_back(alpha);
    }
    const BundleLogs logs(allocation);
    const AgentRows rows{&allocation, &logs, names.data(),
                         elasticities.data(), nullptr};
    return checkSharingIncentives(rows, capacity, tol);
}

/** The adapter, the hand-built rows (unit scales) and the oracle. */
void
expectMatchesOracle(const AgentList &agents,
                    const SystemCapacity &capacity,
                    const Allocation &allocation,
                    const FairnessTolerance &tol = {})
{
    const PropertyCheck oracle =
        logValueLoop(agents, capacity, allocation, tol);
    expectSameCheck(
        checkSharingIncentives(agents, capacity, allocation, tol),
        oracle);
    bool unit = true;
    for (const Agent &agent : agents)
        unit = unit && agent.utility().scale() == 1.0;
    if (unit)
        expectSameCheck(
            checkOverRows(agents, capacity, allocation, tol), oracle);
}

/** Elasticities drawn from [lo, hi) and rounded to four decimals. */
AgentList
randomAgents(std::size_t n, std::size_t resources, std::uint32_t seed,
             double scale = 1.0)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> draw(0.05, 1.0);
    AgentList agents;
    for (std::size_t i = 0; i < n; ++i) {
        Vector alphas(resources);
        for (std::size_t r = 0; r < resources; ++r)
            alphas[r] = std::round(draw(rng) * 1e4) / 1e4;
        agents.emplace_back(ref::test::indexedName('a', i),
                            CobbDouglasUtility(scale, alphas));
    }
    return agents;
}

SystemCapacity
capacityFor(std::size_t resources)
{
    Vector capacities(resources);
    for (std::size_t r = 0; r < resources; ++r)
        capacities[r] = 12.0 * static_cast<double>(r + 1);
    return SystemCapacity::fromCapacities(capacities);
}

Allocation
refAllocation(const AgentList &agents, const SystemCapacity &capacity)
{
    return ProportionalElasticityMechanism().allocate(agents, capacity);
}

TEST(SharingIncentivesRows, MatchesLogValueLoopOnRefPopulations)
{
    const SystemCapacity capacity = capacityFor(2);
    for (const std::size_t n : {1u, 2u, 3u, 1024u}) {
        for (const std::uint32_t seed : {1u, 2u, 3u}) {
            const AgentList agents = randomAgents(n, 2, seed * 17 + n);
            expectMatchesOracle(agents, capacity,
                                refAllocation(agents, capacity));
        }
    }
}

TEST(SharingIncentivesRows, MatchesLogValueLoopForOneAndThreeResources)
{
    for (const std::size_t resources : {1u, 3u}) {
        const SystemCapacity capacity = capacityFor(resources);
        for (const std::size_t n : {1u, 7u, 200u}) {
            const AgentList agents =
                randomAgents(n, resources, 40 + n + resources);
            expectMatchesOracle(agents, capacity,
                                refAllocation(agents, capacity));
        }
    }
}

TEST(SharingIncentivesRows, MatchesLogValueLoopOnViolations)
{
    // Arbitrary bundles: some agents fall below the equal split, and
    // a loose tolerance flips the satisfied bit but not the minimum.
    const SystemCapacity capacity = capacityFor(2);
    for (const std::uint32_t seed : {5u, 6u, 7u}) {
        const std::size_t n = 3 + seed * 11 % 90;
        const AgentList agents = randomAgents(n, 2, seed);
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> amount(0.01, 20.0);
        Allocation lopsided(n, 2);
        for (std::size_t i = 0; i < n; ++i)
            lopsided.setAgentShare(i, {amount(rng), amount(rng)});
        expectMatchesOracle(agents, capacity, lopsided);
        FairnessTolerance loose;
        loose.utility = 50.0;
        expectMatchesOracle(agents, capacity, lopsided, loose);
    }
}

TEST(SharingIncentivesRows, MatchesLogValueLoopWithZeroShares)
{
    const SystemCapacity capacity = capacityFor(2);
    const AgentList agents = randomAgents(5, 2, 9);
    Allocation allocation = refAllocation(agents, capacity);
    allocation.setAgentShare(1, {0.0, 3.0});
    allocation.setAgentShare(3, {0.0, -1.0});  // Zero first: no throw.
    expectMatchesOracle(agents, capacity, allocation);

    // Every bundle worthless: each slack is -inf, the first binds.
    Allocation empty(2, 2);
    const AgentList pair = randomAgents(2, 2, 10);
    expectMatchesOracle(pair, capacity, empty);
}

TEST(SharingIncentivesRows, MatchesLogValueLoopWithNonUnitScale)
{
    const SystemCapacity capacity = capacityFor(2);
    for (const double scale : {0.25, 3.0, 1e6}) {
        const AgentList agents = randomAgents(64, 2, 11, scale);
        expectMatchesOracle(agents, capacity,
                            refAllocation(agents, capacity));
    }
    AgentList mixed = randomAgents(30, 2, 12);
    mixed.emplace_back("big", CobbDouglasUtility(50.0, {0.4, 0.6}));
    mixed.emplace_back("small", CobbDouglasUtility(0.01, {0.7, 0.3}));
    expectMatchesOracle(mixed, capacity, refAllocation(mixed, capacity));
}

TEST(SharingIncentivesRows, NegativeShareThrowsTheSameError)
{
    const SystemCapacity capacity = capacityFor(2);
    const AgentList agents = randomAgents(4, 2, 13);
    Allocation allocation = refAllocation(agents, capacity);
    allocation.at(2, 1) = -0.5;
    allocation.at(3, 0) = -2.0;
    std::string rows;
    std::string oracle;
    try {
        checkSharingIncentives(agents, capacity, allocation);
    } catch (const ref::FatalError &error) {
        rows = error.what();
    }
    try {
        logValueLoop(agents, capacity, allocation);
    } catch (const ref::FatalError &error) {
        oracle = error.what();
    }
    EXPECT_FALSE(rows.empty());
    EXPECT_EQ(rows, oracle);
}

} // namespace
