#include "svc/epoch_driver.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace {

using namespace ref;
using svc::EpochConfig;
using svc::EpochDriver;

/** A flat service's store: a root-only pool tree. */
pool::PoolTree
rootOnlyTree()
{
    return pool::PoolTree(
        core::SystemCapacity::cacheAndBandwidthExample());
}

TEST(EpochDriver, EpochCounterIsMonotonic)
{
    auto tree = rootOnlyTree();
    tree.admit("a", {0.6, 0.4});
    EpochDriver driver(tree);
    EXPECT_EQ(driver.tick().epoch, 1u);
    EXPECT_EQ(driver.tick().epoch, 2u);
    EXPECT_EQ(driver.epoch(), 2u);
}

TEST(EpochDriver, ChecksPropertiesEachEpoch)
{
    auto tree = rootOnlyTree();
    tree.admit("a", {0.6, 0.4});
    tree.admit("b", {0.2, 0.8});
    EpochDriver driver(tree);
    const auto result = driver.tick();
    ASSERT_TRUE(result.propertiesChecked);
    EXPECT_TRUE(result.sharingIncentives.satisfied);
    EXPECT_TRUE(result.envyFreeness.satisfied);
    EXPECT_TRUE(result.incrementalMatchesScratch);
}

TEST(EpochDriver, SelfCheckPassesUnderChurn)
{
    auto tree = rootOnlyTree();
    EpochConfig config;
    config.verifyIncremental = true;
    EpochDriver driver(tree, config);
    tree.admit("a", {0.6, 0.4});
    driver.tick();
    tree.admit("b", {0.2, 0.8});
    tree.update("a", {0.3, 0.7});
    const auto result = driver.tick();
    EXPECT_TRUE(result.incrementalMatchesScratch);
}

TEST(EpochDriver, HysteresisHoldsSmallChanges)
{
    auto tree = rootOnlyTree();
    tree.admit("a", {0.6, 0.4});
    tree.admit("b", {0.2, 0.8});
    EpochConfig config;
    config.hysteresis = 0.05;
    EpochDriver driver(tree, config);

    // First epoch always enforces.
    EXPECT_TRUE(driver.tick().enforcementChanged);

    // No churn: nothing moved, enforcement holds.
    auto result = driver.tick();
    EXPECT_FALSE(result.enforcementChanged);
    EXPECT_EQ(result.maxRelativeChange, 0.0);

    // A tiny preference nudge stays inside the 5% band.
    tree.update("a", {0.6005, 0.3995});
    result = driver.tick();
    EXPECT_FALSE(result.enforcementChanged);
    EXPECT_GT(result.maxRelativeChange, 0.0);
    EXPECT_LT(result.maxRelativeChange, 0.05);

    // A big swing crosses it.
    tree.update("a", {0.1, 0.9});
    result = driver.tick();
    EXPECT_TRUE(result.enforcementChanged);
}

TEST(EpochDriver, AgentChurnAlwaysReenforces)
{
    auto tree = rootOnlyTree();
    tree.admit("a", {0.6, 0.4});
    EpochConfig config;
    config.hysteresis = 0.5;  // Generous band...
    EpochDriver driver(tree, config);
    driver.tick();
    tree.admit("b", {0.6, 0.4});
    // ...but a new agent changes the allocation shape, so the old
    // enforcement cannot be kept regardless of the band.
    const auto result = driver.tick();
    EXPECT_TRUE(result.enforcementChanged);
}

TEST(EpochDriver, IdleSystemTicksCleanly)
{
    auto tree = rootOnlyTree();
    EpochDriver driver(tree);
    const auto result = driver.tick();
    EXPECT_EQ(result.epoch, 1u);
    EXPECT_TRUE(result.agentNames.empty());
    EXPECT_EQ(result.allocation.agents(), 0u);
    EXPECT_FALSE(result.propertiesChecked);
    EXPECT_TRUE(result.incrementalMatchesScratch);
}

TEST(EpochDriver, DepartToEmptyDropsEnforcement)
{
    auto tree = rootOnlyTree();
    tree.admit("a", {0.6, 0.4});
    EpochDriver driver(tree);
    driver.tick();
    tree.depart("a");
    const auto result = driver.tick();
    EXPECT_TRUE(result.enforcementChanged);
    EXPECT_EQ(driver.enforced().agents(), 0u);
}

TEST(EpochDriver, RejectsNegativeHysteresis)
{
    auto tree = rootOnlyTree();
    EpochConfig config;
    config.hysteresis = -0.1;
    EXPECT_THROW(EpochDriver(tree, config), FatalError);
}

TEST(EpochDriver, PooledTicksPublishNothingDense)
{
    auto tree = rootOnlyTree();
    tree.createPool("p", 1.0);
    tree.admit("a", {0.6, 0.4}, "p");
    tree.admit("b", {0.2, 0.8});
    EpochConfig config;
    config.verifyIncremental = true;
    EpochDriver driver(tree, config, /*pooled=*/true);

    // Small and unweighted: the dense stage runs for SI/EF only.
    auto result = driver.tick();
    EXPECT_TRUE(result.pooled);
    EXPECT_EQ(result.liveAgents, 2u);
    EXPECT_EQ(result.pools, 2u);
    EXPECT_TRUE(result.agentNames.empty());
    EXPECT_EQ(result.allocation.agents(), 0u);
    ASSERT_TRUE(result.propertiesChecked);
    EXPECT_TRUE(result.sharingIncentives.satisfied);
    EXPECT_TRUE(result.envyFreeness.satisfied);
    EXPECT_TRUE(result.incrementalMatchesScratch);
    EXPECT_FALSE(result.enforcementChanged);
    EXPECT_EQ(driver.enforced().agents(), 0u);

    // A weighted pool turns the flat SI/EF baselines off.
    tree.createPool("heavy", 2.0);
    tree.assign("a", "heavy");
    result = driver.tick();
    EXPECT_FALSE(result.propertiesChecked);
    EXPECT_TRUE(result.incrementalMatchesScratch);
}

} // namespace
