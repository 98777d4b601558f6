#include "svc/enforcement_bridge.hh"

#include <gtest/gtest.h>

#include "pool/pool_tree.hh"
#include "sched/wfq.hh"
#include "util/logging.hh"

namespace {

using namespace ref;

core::SystemCapacity
exampleCapacity()
{
    return core::SystemCapacity::cacheAndBandwidthExample();
}

TEST(EnforcementBridge, TranslatesSharesIntoWaysAndWeights)
{
    pool::PoolTree tree(exampleCapacity());
    tree.admit("user1", {0.6, 0.4});
    tree.admit("user2", {0.2, 0.8});
    const auto allocation = tree.allocateDense();

    const auto plan = svc::buildEnforcementPlan(
        {"user1", "user2"}, allocation, exampleCapacity(), 16);

    ASSERT_EQ(plan.agents.size(), 2u);
    ASSERT_TRUE(plan.hasPartition);
    // user1: 18/24 GB/s and 4/12 MB; user2 the complement.
    EXPECT_NEAR(plan.wfqWeights[0], 0.75, 1e-12);
    EXPECT_NEAR(plan.wfqWeights[1], 0.25, 1e-12);
    EXPECT_EQ(plan.partition.ways[0] + plan.partition.ways[1], 16u);
    // 1/3 of 16 ways rounds to 5, 2/3 to 11.
    EXPECT_EQ(plan.partition.ways[0], 5u);
    EXPECT_EQ(plan.partition.ways[1], 11u);

    // The weights are directly consumable by the WFQ arbiter.
    sched::WfqScheduler arbiter(plan.wfqWeights);
    EXPECT_EQ(arbiter.flows(), 2u);
}

TEST(EnforcementBridge, EmptyAllocationYieldsEmptyPlan)
{
    const auto plan = svc::buildEnforcementPlan(
        {}, core::Allocation(), exampleCapacity(), 16);
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.hasPartition);
}

TEST(EnforcementBridge, MoreAgentsThanWaysFallsBackToSharedCache)
{
    pool::PoolTree tree(exampleCapacity());
    std::vector<std::string> names;
    for (int i = 0; i < 6; ++i) {
        names.push_back("agent" + std::to_string(i));
        tree.admit(names.back(), {0.5, 0.5});
    }
    const auto plan = svc::buildEnforcementPlan(
        names, tree.allocateDense(), exampleCapacity(), 4);
    EXPECT_FALSE(plan.hasPartition);
    EXPECT_FALSE(plan.partitionNote.empty());
    // Bandwidth is still shaped.
    ASSERT_EQ(plan.wfqWeights.size(), 6u);
    for (double weight : plan.wfqWeights)
        EXPECT_NEAR(weight, 1.0 / 6.0, 1e-12);
}

TEST(EnforcementBridge, RejectsNonPairCapacity)
{
    const auto capacity =
        core::SystemCapacity::fromCapacities({1.0, 2.0, 3.0});
    EXPECT_THROW(svc::buildEnforcementPlan({}, core::Allocation(),
                                           capacity, 16),
                 FatalError);
}

TEST(EnforcementBridge, RejectsShapeMismatch)
{
    pool::PoolTree tree(exampleCapacity());
    tree.admit("a", {0.6, 0.4});
    EXPECT_THROW(svc::buildEnforcementPlan({"a", "phantom"},
                                           tree.allocateDense(),
                                           exampleCapacity(), 16),
                 FatalError);
}

} // namespace
