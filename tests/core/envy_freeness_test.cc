/**
 * Differential tests: the near-linear checkEnvyFreeness must return
 * exactly what the pairwise definition returns — the same satisfied
 * bit, the same worstSlack bits and the same binding pair — on REF
 * populations, on arbitrary allocations and on degenerate corners.
 */

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fairness.hh"
#include "core/proportional_elasticity.hh"
#include "util/logging.hh"

namespace {

using namespace ref::core;

void
expectSameCheck(const PropertyCheck &fast, const PropertyCheck &oracle)
{
    EXPECT_EQ(fast.satisfied, oracle.satisfied);
    EXPECT_EQ(std::memcmp(&fast.worstSlack, &oracle.worstSlack,
                          sizeof(double)),
              0)
        << "fast " << fast.worstSlack << " oracle "
        << oracle.worstSlack;
    EXPECT_EQ(fast.binding, oracle.binding);
}

/** Fast and pairwise agree; returns the fast check's work. */
EnvyCheckStats
expectMatchesOracle(const AgentList &agents,
                    const Allocation &allocation,
                    const FairnessTolerance &tol = {})
{
    EnvyCheckStats stats;
    const PropertyCheck fast =
        checkEnvyFreeness(agents, allocation, tol, &stats);
    expectSameCheck(fast, checkEnvyFreenessPairwise(agents, allocation,
                                                    tol));
    expectSameCheck(checkEnvyFreeness(agents, allocation, tol), fast);
    return stats;
}

/** Elasticities drawn from [lo, hi) and rounded to four decimals. */
AgentList
randomAgents(std::size_t n, std::size_t resources, std::uint32_t seed,
             double lo = 0.05, double hi = 1.0, double scale = 1.0)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> draw(lo, hi);
    AgentList agents;
    for (std::size_t i = 0; i < n; ++i) {
        Vector alphas(resources);
        for (std::size_t r = 0; r < resources; ++r)
            alphas[r] = std::round(draw(rng) * 1e4) / 1e4;
        agents.emplace_back("a" + std::to_string(i),
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
refAllocation(const AgentList &agents, std::size_t resources)
{
    return ProportionalElasticityMechanism().allocate(
        agents, capacityFor(resources));
}

TEST(EnvyFreenessFast, MatchesPairwiseOnRefPopulations)
{
    for (const std::size_t n : {1u, 2u, 3u, 64u, 1024u}) {
        for (const std::uint32_t seed : {1u, 2u, 3u}) {
            const AgentList agents = randomAgents(n, 2, seed * 31 + n);
            const EnvyCheckStats stats =
                expectMatchesOracle(agents, refAllocation(agents, 2));
            if (n == 1024) {
                EXPECT_LT(stats.rowsScanned, 64u)
                    << "the hull filter should leave few rows";
            }
        }
    }
}

TEST(EnvyFreenessFast, MatchesPairwiseOnLopsidedAllocations)
{
    // Arbitrary non-REF bundles: envy is real and the minimum can sit
    // in any row.
    for (const std::uint32_t seed : {11u, 12u, 13u, 14u, 15u}) {
        const std::size_t n = 2 + seed * 13 % 300;
        const AgentList agents = randomAgents(n, 2, seed);
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> amount(0.01, 20.0);
        Allocation lopsided(n, 2);
        for (std::size_t i = 0; i < n; ++i)
            lopsided.setAgentShare(i, {amount(rng), amount(rng)});
        expectMatchesOracle(agents, lopsided);
        FairnessTolerance loose;
        loose.utility = 5.0;
        expectMatchesOracle(agents, lopsided, loose);
    }
}

TEST(EnvyFreenessFast, MatchesPairwiseWithZeroShares)
{
    const AgentList agents = randomAgents(6, 2, 5);
    Allocation allocation(6, 2);
    allocation.setAgentShare(0, {24.0, 0.0});
    allocation.setAgentShare(1, {0.0, 12.0});
    allocation.setAgentShare(2, {0.0, 0.0});
    allocation.setAgentShare(3, {1.0, 2.0});
    allocation.setAgentShare(4, {0.0, -1.0});  // Zero first: no throw.
    allocation.setAgentShare(5, {3.0, 1.0});
    expectMatchesOracle(agents, allocation);

    // Only worthless bundles: every slack is the both-worthless 0.
    Allocation corner(2, 2);
    corner.setAgentShare(0, {24.0, 0.0});
    corner.setAgentShare(1, {0.0, 12.0});
    const AgentList pair = randomAgents(2, 2, 6);
    const PropertyCheck check = checkEnvyFreeness(pair, corner);
    EXPECT_TRUE(check.satisfied);
    EXPECT_EQ(check.worstSlack, 0.0);
    expectMatchesOracle(pair, corner);
}

TEST(EnvyFreenessFast, TiesResolveToTheFirstPair)
{
    // Duplicate agents get duplicate bundles, and agents with
    // proportional elasticities rescale to the same bundle: many
    // pairs reach the minimum, and the binding must be the first.
    AgentList agents;
    for (int i = 0; i < 40; ++i) {
        const double k = 1.0 + i % 4;
        const Vector alphas = i % 3 == 0 ? Vector{0.3 * k, 0.6 * k}
                              : i % 3 == 1 ? Vector{0.5, 0.5}
                                           : Vector{0.2 * k, 0.7};
        agents.emplace_back("d" + std::to_string(i),
                            CobbDouglasUtility(alphas));
    }
    expectMatchesOracle(agents, refAllocation(agents, 2));

    // The same bundle handed out twice to otherwise random agents.
    const AgentList random = randomAgents(50, 2, 8);
    Allocation allocation = refAllocation(random, 2);
    allocation.setAgentShare(7, allocation.agentShare(30));
    allocation.setAgentShare(12, allocation.agentShare(30));
    expectMatchesOracle(random, allocation);
}

TEST(EnvyFreenessFast, MatchesPairwiseOnGridBundles)
{
    // Bundles on a small integer grid: many share an x, a y, or both,
    // which is where the hull passes must drop dominated points.
    for (const std::uint32_t seed : {21u, 22u, 23u}) {
        const std::size_t n = 150;
        const AgentList agents = randomAgents(n, 2, seed);
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> cell(1, 5);
        Allocation grid(n, 2);
        for (std::size_t i = 0; i < n; ++i)
            grid.setAgentShare(i, {static_cast<double>(cell(rng)),
                                   static_cast<double>(cell(rng))});
        expectMatchesOracle(agents, grid);
    }
}

TEST(EnvyFreenessFast, RoundingNearTiesKeepTheOraclesPair)
{
    // Bundles a few ulps apart and agents with equal or nearly equal
    // elasticities: slacks are rounding noise, so the computed minimum
    // can sit in a row whose exactly best rival does not give it. The
    // filter's rounding margin must keep that row.
    std::mt19937_64 rng(99);
    for (int trial = 0; trial < 1500; ++trial) {
        const std::size_t n = 2 + rng() % 60;
        const double base0 = 1 + static_cast<double>(rng() % 1000) / 100;
        const double base1 = 1 + static_cast<double>(rng() % 1000) / 100;
        AgentList agents;
        Allocation allocation(n, 2);
        for (std::size_t i = 0; i < n; ++i) {
            double alpha0 = 0.3 + static_cast<double>(rng() % 3) *
                                      3e-17 * (trial % 2);
            double alpha1 = 0.7;
            if (trial % 3 == 0) {
                alpha0 = 0.1 + static_cast<double>(rng() % 5) * 0.2;
                alpha1 = 1 - alpha0;
            }
            agents.emplace_back("a" + std::to_string(i),
                                CobbDouglasUtility({alpha0, alpha1}));
            double amount0 = base0;
            double amount1 = base1;
            for (int k = static_cast<int>(rng() % 7); k > 0; --k)
                amount0 = std::nextafter(amount0,
                                         rng() % 2 ? 100.0 : 0.0);
            for (int k = static_cast<int>(rng() % 7); k > 0; --k)
                amount1 = std::nextafter(amount1,
                                         rng() % 2 ? 100.0 : 0.0);
            allocation.setAgentShare(i, {amount0, amount1});
        }
        expectMatchesOracle(agents, allocation);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "trial " << trial;
            return;
        }
    }
}

TEST(EnvyFreenessFast, MatchesPairwiseWithNonUnitScale)
{
    for (const double scale : {0.25, 3.0, 1e6}) {
        const AgentList agents = randomAgents(64, 2, 9, 0.05, 1.0, scale);
        expectMatchesOracle(agents, refAllocation(agents, 2));
    }
    // Mixed scales in one population.
    AgentList mixed = randomAgents(30, 2, 10);
    mixed.emplace_back("big", CobbDouglasUtility(50.0, {0.4, 0.6}));
    mixed.emplace_back("small", CobbDouglasUtility(0.01, {0.7, 0.3}));
    expectMatchesOracle(mixed, refAllocation(mixed, 2));
}

TEST(EnvyFreenessFast, MatchesPairwiseAcrossWideMagnitudes)
{
    AgentList agents;
    agents.emplace_back("tiny0", CobbDouglasUtility({1e-9, 2e-9}));
    agents.emplace_back("huge0", CobbDouglasUtility({1e9, 3e9}));
    agents.emplace_back("tiny1", CobbDouglasUtility({3e-9, 1e-9}));
    agents.emplace_back("huge1", CobbDouglasUtility({2e9, 1e9}));
    agents.emplace_back("mid", CobbDouglasUtility({0.5, 0.5}));
    expectMatchesOracle(agents, refAllocation(agents, 2));

    std::mt19937 rng(12);
    std::uniform_real_distribution<double> exponent(-9.0, 9.0);
    AgentList wide;
    for (int i = 0; i < 200; ++i)
        wide.emplace_back("w" + std::to_string(i),
                          CobbDouglasUtility({std::pow(10.0, exponent(rng)),
                                              std::pow(10.0, exponent(rng))}));
    expectMatchesOracle(wide, refAllocation(wide, 2));
}

TEST(EnvyFreenessFast, OtherResourceCountsScanEveryRow)
{
    for (const std::size_t resources : {1u, 3u}) {
        const AgentList agents = randomAgents(50, resources, 13);
        const EnvyCheckStats stats = expectMatchesOracle(
            agents, refAllocation(agents, resources));
        EXPECT_EQ(stats.rowsScanned, 50u);
    }
}

TEST(EnvyFreenessFast, NegativeShareThrowsTheSameError)
{
    const AgentList agents = randomAgents(4, 2, 14);
    Allocation allocation = refAllocation(agents, 2);
    allocation.at(2, 1) = -0.5;
    allocation.at(3, 0) = -2.0;
    std::string fast;
    std::string oracle;
    try {
        checkEnvyFreeness(agents, allocation);
    } catch (const ref::FatalError &error) {
        fast = error.what();
    }
    try {
        checkEnvyFreenessPairwise(agents, allocation);
    } catch (const ref::FatalError &error) {
        oracle = error.what();
    }
    EXPECT_FALSE(fast.empty());
    EXPECT_EQ(fast, oracle);
}

} // namespace
