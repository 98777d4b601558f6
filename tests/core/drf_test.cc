#include "core/drf.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"
#include "test_names.hh"

namespace {

using namespace ref::core;

TEST(Drf, ReproducesGhodsiNsdiExample)
{
    // The canonical DRF example: 9 CPUs and 18 GB; user A demands
    // (1 CPU, 4 GB) per task, user B (3 CPU, 1 GB). DRF gives A
    // three tasks and B two: dominant shares 2/3 each.
    const SystemCapacity capacity({{"cpu", "", 9.0},
                                   {"memory", "GB", 18.0}});
    std::vector<LeontiefAgent> agents;
    agents.emplace_back("A", LeontiefUtility({1.0, 4.0}));
    agents.emplace_back("B", LeontiefUtility({3.0, 1.0}));

    const auto result = allocateDrf(agents, capacity);
    EXPECT_NEAR(result.tasksGranted[0], 3.0, 1e-9);
    EXPECT_NEAR(result.tasksGranted[1], 2.0, 1e-9);
    EXPECT_NEAR(result.dominantShares[0], 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(result.dominantShares[1], 2.0 / 3.0, 1e-9);
    // A holds (3, 12), B holds (6, 2).
    EXPECT_NEAR(result.allocation.at(0, 0), 3.0, 1e-9);
    EXPECT_NEAR(result.allocation.at(0, 1), 12.0, 1e-9);
    EXPECT_NEAR(result.allocation.at(1, 0), 6.0, 1e-9);
    EXPECT_NEAR(result.allocation.at(1, 1), 2.0, 1e-9);
}

TEST(Drf, EqualDemandsSplitEqually)
{
    const SystemCapacity capacity =
        SystemCapacity::fromCapacities({10.0, 20.0});
    std::vector<LeontiefAgent> agents;
    for (int i = 0; i < 4; ++i) {
        agents.emplace_back(ref::test::indexedName('t', i),
                            LeontiefUtility({1.0, 2.0}));
    }
    const auto result = allocateDrf(agents, capacity);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(result.allocation.at(i, 0), 2.5, 1e-9);
        EXPECT_NEAR(result.allocation.at(i, 1), 5.0, 1e-9);
    }
}

TEST(Drf, AllocationIsFeasibleAndSaturatesSomeResource)
{
    const SystemCapacity capacity =
        SystemCapacity::fromCapacities({7.0, 13.0, 5.0});
    std::vector<LeontiefAgent> agents;
    agents.emplace_back("a", LeontiefUtility({1.0, 2.0, 0.2}));
    agents.emplace_back("b", LeontiefUtility({0.5, 3.0, 1.0}));
    agents.emplace_back("c", LeontiefUtility({2.0, 0.5, 0.3}));
    const auto result = allocateDrf(agents, capacity);
    EXPECT_TRUE(result.allocation.feasible(capacity, 1e-9));
    const auto totals = result.allocation.totals();
    bool saturated = false;
    for (std::size_t r = 0; r < 3; ++r) {
        saturated = saturated ||
                    totals[r] >= capacity.capacity(r) * (1 - 1e-9);
    }
    EXPECT_TRUE(saturated);
}

TEST(Drf, MultiRoundProgressiveFilling)
{
    // Agent A uses only resource 0; agents B and C use only
    // resource 1. When resource 1 saturates, B and C freeze but A
    // keeps filling resource 0 (two filling rounds).
    const SystemCapacity capacity =
        SystemCapacity::fromCapacities({10.0, 10.0});
    std::vector<LeontiefAgent> agents;
    agents.emplace_back("A", LeontiefUtility({1.0, 0.0}));
    agents.emplace_back("B", LeontiefUtility({0.0, 1.0}));
    agents.emplace_back("C", LeontiefUtility({0.0, 1.0}));
    const auto result = allocateDrf(agents, capacity);
    // B and C split resource 1 at dominant share 0.5; A then takes
    // all of resource 0.
    EXPECT_NEAR(result.allocation.at(0, 0), 10.0, 1e-9);
    EXPECT_NEAR(result.allocation.at(1, 1), 5.0, 1e-9);
    EXPECT_NEAR(result.allocation.at(2, 1), 5.0, 1e-9);
    EXPECT_NEAR(result.dominantShares[0], 1.0, 1e-9);
}

TEST(Drf, EnvyFreeInLeontiefSense)
{
    // No agent values another's bundle more than its own.
    const SystemCapacity capacity =
        SystemCapacity::fromCapacities({9.0, 18.0});
    std::vector<LeontiefAgent> agents;
    agents.emplace_back("A", LeontiefUtility({1.0, 4.0}));
    agents.emplace_back("B", LeontiefUtility({3.0, 1.0}));
    const auto result = allocateDrf(agents, capacity);
    for (std::size_t i = 0; i < agents.size(); ++i) {
        const double own = agents[i].utility().value(
            result.allocation.agentShare(i));
        for (std::size_t j = 0; j < agents.size(); ++j) {
            const double other = agents[i].utility().value(
                result.allocation.agentShare(j));
            EXPECT_GE(own + 1e-9, other)
                << "agent " << i << " envies " << j;
        }
    }
}

TEST(Drf, SharingIncentivesInLeontiefSense)
{
    const SystemCapacity capacity =
        SystemCapacity::fromCapacities({9.0, 18.0});
    std::vector<LeontiefAgent> agents;
    agents.emplace_back("A", LeontiefUtility({1.0, 4.0}));
    agents.emplace_back("B", LeontiefUtility({3.0, 1.0}));
    const auto result = allocateDrf(agents, capacity);
    const Vector equal_split = capacity.equalShare(2);
    for (std::size_t i = 0; i < agents.size(); ++i) {
        EXPECT_GE(agents[i].utility().value(
                      result.allocation.agentShare(i)) +
                      1e-9,
                  agents[i].utility().value(equal_split));
    }
}

TEST(Drf, DominantShareHelper)
{
    const SystemCapacity capacity =
        SystemCapacity::fromCapacities({10.0, 20.0});
    const LeontiefUtility u({2.0, 1.0});
    // One task: 2/10 = 0.2 of resource 0, 1/20 = 0.05 of resource 1.
    EXPECT_NEAR(dominantShare(u, 1.0, capacity), 0.2, 1e-12);
    EXPECT_NEAR(dominantShare(u, 3.0, capacity), 0.6, 1e-12);
}

TEST(Drf, RejectsBadInput)
{
    const SystemCapacity capacity =
        SystemCapacity::fromCapacities({1.0, 1.0});
    EXPECT_THROW(allocateDrf({}, capacity), ref::FatalError);
    std::vector<LeontiefAgent> wrong;
    wrong.emplace_back("x", LeontiefUtility({1.0}));
    EXPECT_THROW(allocateDrf(wrong, capacity), ref::FatalError);
}

} // namespace
