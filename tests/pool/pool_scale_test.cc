/**
 * @file
 * Pool-tree scale soak: the 100k-agent cousin of the million-agent
 * socket bench (scripts/bench_pool_scale.sh), small enough for
 * ctest. Two claims:
 *
 *  - the tree's ExactSum self-check (incremental root vs scratch
 *    rebuild, plus the bitwise dense compare)
 *    holds at 100k agents across 64 pools, and
 *  - pooled TICK latency is bounded and sublinear in the population:
 *    a tick re-aggregates only changed root-to-leaf paths, so 100x
 *    the agents must cost well under 100x the tick time.
 */

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pool/pool_tree.hh"
#include "svc/allocation_service.hh"
#include "test_names.hh"

namespace {

using namespace ref;

constexpr std::size_t kPools = 64;

std::string
poolName(std::size_t index)
{
    return test::indexedName('p', index);
}

TEST(PoolScale, SelfCheckHoldsAtHundredThousandAgents)
{
    pool::PoolTree tree(
        core::SystemCapacity::fromCapacities({24.0, 12.0}));
    for (std::size_t j = 0; j < kPools; ++j)
        tree.createPool(poolName(j), 1.0);

    std::mt19937 rng(1234);
    std::uniform_real_distribution<double> elasticity(0.05, 1.0);
    constexpr std::size_t kAgents = 100000;
    for (std::size_t i = 0; i < kAgents; ++i)
        tree.admit(test::indexedName('a', i),
                   {elasticity(rng), elasticity(rng)},
                   poolName(i % kPools));
    ASSERT_EQ(tree.size(), kAgents);

    // Shuffle a slice around so the incremental state reflects
    // updates and moves, not just a pristine admit sequence.
    for (std::size_t i = 0; i < 1000; ++i) {
        const std::string name = test::indexedName('a', rng() % kAgents);
        if (i % 3 == 0)
            tree.assign(name, poolName(rng() % kPools));
        else
            tree.update(name, {elasticity(rng), elasticity(rng)});
    }
    EXPECT_TRUE(tree.selfCheck());
}

/** Median per-tick latency of a pooled service at @p population. */
std::uint64_t
medianTickNs(std::size_t population)
{
    svc::ServiceConfig config;
    config.pooled = true;
    config.buildEnforcement = false;
    // Measure the epoch itself, not the O(N) verification passes.
    config.epoch.checkProperties = false;
    config.epoch.verifyIncremental = false;
    svc::AllocationService service(config);

    for (std::size_t j = 0; j < kPools; ++j)
        service.createPool(poolName(j), 1.0);
    std::mt19937 rng(42);
    std::uniform_real_distribution<double> elasticity(0.05, 1.0);
    std::vector<std::string> names;
    names.reserve(population);
    for (std::size_t i = 0; i < population; ++i) {
        names.push_back(test::indexedName('a', i));
        service.admit(names.back(),
                      {elasticity(rng), elasticity(rng)});
        service.assignPool(names.back(), poolName(i % kPools));
    }
    service.tick();  // Warm-up: fold the admit burst.

    std::vector<std::uint64_t> latencies;
    for (int t = 0; t < 30; ++t) {
        // A fixed-size churn window between ticks: the tick's work
        // is the changed paths, identical at every population.
        for (int u = 0; u < 32; ++u)
            service.update(names[rng() % names.size()],
                           {elasticity(rng), elasticity(rng)});
        const svc::EpochResult result = service.tick();
        EXPECT_TRUE(result.pooled);
        EXPECT_EQ(result.liveAgents, population);
        latencies.push_back(
            static_cast<std::uint64_t>(result.latency.count()));
    }
    std::sort(latencies.begin(), latencies.end());
    return latencies[latencies.size() / 2];
}

TEST(PoolScale, TickLatencyIsBoundedAndSublinearInPopulation)
{
    const std::uint64_t small = medianTickNs(1000);
    const std::uint64_t big = medianTickNs(100000);

    // 100x the agents: linear scaling would be ~100x the latency.
    // Demand well under that, with a floor so a fast machine's noisy
    // microsecond baseline cannot fail the run, and enough slack for
    // sanitizer builds (both sides slow down together, so the ratio
    // is what matters).
    const std::uint64_t baseline =
        std::max<std::uint64_t>(small, 50000);
    EXPECT_LE(big, 25 * baseline)
        << "tick p50 " << small << "ns at 1k agents vs " << big
        << "ns at 100k agents";
}

} // namespace
