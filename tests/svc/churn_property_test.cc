/**
 * Property test for a flat service's incremental allocation (a
 * root-only pool tree): after ANY sequence of admits, departs and
 * updates, allocateDense() must be byte-identical to the
 * from-scratch ProportionalElasticityMechanism recompute, and the
 * allocation must satisfy the REF fairness properties. Randomized
 * but fully deterministic (fixed seeds).
 */

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fairness.hh"
#include "core/proportional_elasticity.hh"
#include "pool/pool_tree.hh"

namespace {

using namespace ref;
using pool::PoolTree;

class ChurnModel
{
  public:
    explicit ChurnModel(std::uint32_t seed)
        : tree_(core::SystemCapacity::cacheAndBandwidthExample()),
          rng_(seed)
    {
    }

    PoolTree &tree() { return tree_; }

    /** Apply one random admit/depart/update. */
    void step()
    {
        std::uniform_real_distribution<double> elasticity(0.05, 4.0);
        std::uniform_int_distribution<int> action(0, 9);
        const int roll = action(rng_);
        // Bias toward admission so the population grows, but keep
        // departures frequent enough to exercise the subtract path.
        if (live_.empty() || roll < 5) {
            const std::string name =
                "agent" + std::to_string(nextId_++);
            tree_.admit(name, {elasticity(rng_), elasticity(rng_)});
            live_.push_back(name);
        } else if (roll < 8) {
            std::uniform_int_distribution<std::size_t> pick(
                0, live_.size() - 1);
            tree_.update(live_[pick(rng_)],
                         {elasticity(rng_), elasticity(rng_)});
        } else {
            std::uniform_int_distribution<std::size_t> pick(
                0, live_.size() - 1);
            const std::size_t victim = pick(rng_);
            tree_.depart(live_[victim]);
            live_.erase(live_.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        }
    }

    bool empty() const { return live_.empty(); }

  private:
    PoolTree tree_;
    std::mt19937 rng_;
    std::vector<std::string> live_;
    std::uint64_t nextId_ = 0;
};

/**
 * The tree's dense allocation against the closed form run from
 * scratch over the same agents, exact double compare.
 */
void
expectMatchesScratch(const PoolTree &tree)
{
    ASSERT_TRUE(tree.selfCheck());
    core::AgentList agents;
    const core::Allocation incremental =
        tree.allocateDense(nullptr, &agents);
    const core::Allocation scratch =
        core::ProportionalElasticityMechanism().allocate(
            agents, tree.capacity());
    ASSERT_EQ(incremental.agents(), scratch.agents());
    ASSERT_EQ(incremental.resources(), scratch.resources());
    for (std::size_t i = 0; i < incremental.agents(); ++i)
        for (std::size_t r = 0; r < incremental.resources(); ++r)
            // Exact comparison on purpose — "close" is not enough.
            ASSERT_EQ(incremental.at(i, r), scratch.at(i, r))
                << "agent " << i << " resource " << r;
}

TEST(ChurnProperty, IncrementalMatchesScratchAfterAnyChurn)
{
    for (std::uint32_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
        ChurnModel model(seed);
        for (int step = 0; step < 400; ++step) {
            model.step();
            if (model.empty())
                continue;
            expectMatchesScratch(model.tree());
        }
    }
}

TEST(ChurnProperty, AllocationsStayFairUnderChurn)
{
    const core::FairnessTolerance tolerance{1e-6, 1e-6, 1e-9};
    ChurnModel model(2026);
    for (int step = 0; step < 200; ++step) {
        model.step();
        if (model.empty())
            continue;
        const auto &tree = model.tree();
        core::AgentList agents;
        const auto allocation = tree.allocateDense(nullptr, &agents);
        const auto si = core::checkSharingIncentives(
            agents, tree.capacity(), allocation, tolerance);
        EXPECT_TRUE(si.satisfied) << "step " << step << ": "
                                  << si.binding;
        const auto ef = core::checkEnvyFreeness(agents, allocation,
                                                tolerance);
        EXPECT_TRUE(ef.satisfied) << "step " << step << ": "
                                  << ef.binding;
        // The near-linear check must be the pairwise one, bit for bit.
        const auto pairwise = core::checkEnvyFreenessPairwise(
            agents, allocation, tolerance);
        EXPECT_EQ(ef.satisfied, pairwise.satisfied) << "step " << step;
        EXPECT_EQ(std::memcmp(&ef.worstSlack, &pairwise.worstSlack,
                              sizeof(double)),
                  0)
            << "step " << step;
        EXPECT_EQ(ef.binding, pairwise.binding) << "step " << step;
    }
}

// The extreme case for an accumulator: agents whose elasticities span
// many orders of magnitude, interleaved with departures of the large
// contributors. A naive running sum loses the small agents' bits;
// the exact accumulator must not.
TEST(ChurnProperty, WideMagnitudeChurnStaysExact)
{
    PoolTree tree(core::SystemCapacity::cacheAndBandwidthExample());
    tree.admit("tiny0", {1e-9, 2e-9});
    tree.admit("huge0", {1e9, 3e9});
    tree.admit("tiny1", {3e-9, 1e-9});
    tree.admit("huge1", {2e9, 1e9});
    expectMatchesScratch(tree);

    tree.depart("huge0");
    tree.depart("huge1");
    // Only the tiny agents remain; any absorbed bits would surface
    // here as a divergence from the scratch recompute.
    expectMatchesScratch(tree);

    tree.admit("huge2", {5e8, 5e8});
    tree.update("tiny0", {2e-9, 4e-9});
    tree.depart("huge2");
    expectMatchesScratch(tree);
}

} // namespace
