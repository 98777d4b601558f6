/**
 * Differential tests: the near-linear checkEnvyFreeness must return
 * exactly what the pairwise definition returns — the same satisfied
 * bit, the same worstSlack bits and the same binding pair — on REF
 * populations, on arbitrary allocations and on degenerate corners.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fairness.hh"
#include "core/proportional_elasticity.hh"
#include "util/logging.hh"
#include "test_names.hh"

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
        agents.emplace_back(ref::test::indexedName('d', i),
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
            agents.emplace_back(ref::test::indexedName('a', i),
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
        wide.emplace_back(ref::test::indexedName('w', i),
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

/** REF over @p alphas (N x 2, row-major), with the rows' logs. */
struct RefRows
{
    std::vector<std::string> names;
    std::vector<double> alphas;
    Allocation allocation;
    BundleLogs logs;

    explicit RefRows(const std::vector<double> &elasticities)
        : alphas(elasticities)
    {
        AgentList agents;
        for (std::size_t i = 0; i < alphas.size() / 2; ++i) {
            names.push_back(ref::test::indexedName('a', i));
            agents.emplace_back(
                names.back(),
                CobbDouglasUtility({alphas[2 * i], alphas[2 * i + 1]}));
        }
        allocation = refAllocation(agents, 2);
        logs = BundleLogs(allocation);
    }

    AgentRows view() const
    {
        return {&allocation, &logs, names.data(), alphas.data(),
                nullptr};
    }
};

TEST(EnvyFreenessFast, WarmStartedSortMatchesColdUnderChurn)
{
    // Each step updates a few agents, so the last order is nearly
    // sorted and the insertion sort finishes within its budget. Step
    // 20 redraws every agent: about N^2 / 4 keys are out of place,
    // far past the N log2 N budget, so the sort falls back to
    // std::sort midway. Warm and cold checks must agree throughout.
    const std::size_t n = 1024;
    std::mt19937 rng(2026);
    std::uniform_real_distribution<double> draw(0.05, 0.95);
    const auto elasticity = [&] {
        return std::round(draw(rng) * 1e4) / 1e4;
    };
    std::vector<double> alphas(2 * n);
    for (double &alpha : alphas)
        alpha = elasticity();
    std::vector<std::size_t> warm_order;
    for (int step = 0; step < 40; ++step) {
        const std::size_t updates = step == 20 ? n : 1 + rng() % 16;
        for (std::size_t u = 0; u < updates; ++u) {
            const std::size_t i = updates == n ? u : rng() % n;
            alphas[2 * i] = elasticity();
            alphas[2 * i + 1] = elasticity();
        }
        const RefRows rows(alphas);
        EnvyCheckStats warm_stats;
        EnvyCheckStats cold_stats;
        std::vector<std::size_t> cold_order;
        const PropertyCheck warm = checkEnvyFreeness(
            rows.view(), {}, &warm_stats, &warm_order);
        const PropertyCheck cold = checkEnvyFreeness(
            rows.view(), {}, &cold_stats, &cold_order);
        expectSameCheck(warm, cold);
        EXPECT_EQ(warm_stats.rowsScanned, cold_stats.rowsScanned)
            << "step " << step;
        EXPECT_EQ(warm_order, cold_order) << "step " << step;
        ASSERT_EQ(warm_order.size(), n);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "step " << step;
            return;
        }
    }
}

TEST(EnvyFreenessFast, UnusableHullOrderStartsCold)
{
    const AgentList agents = randomAgents(40, 2, 31);
    std::vector<double> alphas;
    for (const Agent &agent : agents)
        for (const double alpha : agent.utility().elasticities())
            alphas.push_back(alpha);
    const RefRows rows(alphas);
    const PropertyCheck oracle =
        checkEnvyFreenessPairwise(agents, rows.allocation);
    // Another population's order, a repeated row, an unknown row:
    // none is a permutation of these rows, so the sort runs cold.
    std::vector<std::size_t> shorter(39);
    std::vector<std::size_t> repeated(40, 3);
    std::vector<std::size_t> unknown(40);
    for (std::size_t k = 0; k < 40; ++k)
        unknown[k] = k + 1;
    for (std::vector<std::size_t> *order :
         {&shorter, &repeated, &unknown}) {
        expectSameCheck(checkEnvyFreeness(rows.view(), {}, nullptr, order),
                        oracle);
        ASSERT_EQ(order->size(), 40u);
        std::vector<std::size_t> sorted = *order;
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t k = 0; k < 40; ++k)
            EXPECT_EQ(sorted[k], k);
    }

    // Three resources never run the hull filter: no order comes back.
    std::vector<std::size_t> order(40);
    const AgentList wide = randomAgents(40, 3, 32);
    std::vector<std::string> names;
    std::vector<double> wide_alphas;
    for (const Agent &agent : wide) {
        names.push_back(agent.name());
        for (const double alpha : agent.utility().elasticities())
            wide_alphas.push_back(alpha);
    }
    const Allocation allocation = refAllocation(wide, 3);
    const BundleLogs logs(allocation);
    checkEnvyFreeness(AgentRows{&allocation, &logs, names.data(),
                                wide_alphas.data(), nullptr},
                      {}, nullptr, &order);
    EXPECT_TRUE(order.empty());
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
