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

    /** Live names in admission order. */
    const std::vector<std::string> &live() const { return live_; }

  private:
    PoolTree tree_;
    std::mt19937 rng_;
    std::vector<std::string> live_;
    std::uint64_t nextId_ = 0;
};

/**
 * The tree's dense rows against the tree itself: one row per live
 * agent in admission order, with its name, seq and reported
 * elasticities.
 */
void
expectRowsMatchTree(const PoolTree &tree, const pool::DenseRows &rows,
                    const std::vector<std::string> &live)
{
    ASSERT_EQ(rows.names, live);
    ASSERT_EQ(rows.seqs.size(), live.size());
    ASSERT_EQ(rows.allocation.agents(), live.size());
    const std::size_t resources = tree.capacity().count();
    ASSERT_EQ(rows.elasticities.size(), live.size() * resources);
    for (std::size_t i = 0; i < live.size(); ++i) {
        const pool::PooledAgent &agent = tree.agent(live[i]);
        EXPECT_EQ(rows.seqs[i], agent.seq) << live[i];
        if (i > 0) {
            EXPECT_LT(rows.seqs[i - 1], rows.seqs[i]);
        }
        for (std::size_t r = 0; r < resources; ++r)
            EXPECT_EQ(rows.elasticities[i * resources + r],
                      agent.elasticities[r])
                << live[i];
    }
}

/**
 * The tree's dense allocation against the closed form run from
 * scratch over the same agents, exact double compare.
 */
void
expectMatchesScratch(const PoolTree &tree)
{
    ASSERT_TRUE(tree.selfCheck());
    pool::DenseRows rows;
    tree.allocateDense(rows);
    const core::Allocation &incremental = rows.allocation;
    const core::Allocation scratch =
        core::ProportionalElasticityMechanism().allocate(
            rows.agentList(), tree.capacity());
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
            pool::DenseRows rows;
            model.tree().allocateDense(rows);
            expectRowsMatchTree(model.tree(), rows, model.live());
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
        pool::DenseRows rows;
        tree.allocateDense(rows);
        const core::AgentList agents = rows.agentList();
        const core::Allocation &allocation = rows.allocation;
        const auto si = core::checkSharingIncentives(
            agents, tree.capacity(), allocation, tolerance);
        // The rows the epoch reads give the AgentList checks' bits.
        const auto si_rows = core::checkSharingIncentives(
            rows.view(), tree.capacity(), tolerance);
        EXPECT_EQ(std::memcmp(&si.worstSlack, &si_rows.worstSlack,
                              sizeof(double)),
                  0)
            << "step " << step;
        EXPECT_EQ(si.binding, si_rows.binding) << "step " << step;
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
        const auto ef_rows =
            core::checkEnvyFreeness(rows.view(), tolerance);
        EXPECT_EQ(std::memcmp(&ef.worstSlack, &ef_rows.worstSlack,
                              sizeof(double)),
                  0)
            << "step " << step;
        EXPECT_EQ(ef.binding, ef_rows.binding) << "step " << step;
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
