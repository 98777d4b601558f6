/**
 * Property test for a flat service's incremental allocation (a
 * root-only pool tree): after ANY sequence of admits, departs and
 * updates, allocateDense() must be byte-identical to the
 * from-scratch ProportionalElasticityMechanism recompute, and the
 * allocation must satisfy the REF fairness properties. Agents also
 * join, change and leave cohorts along the way: the rows must carry
 * each agent's label, and each cohort's SI/EF minima must equal a
 * pairwise loop over its members. Randomized but fully deterministic
 * (fixed seeds).
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
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
          rng_(seed), labelRng_(seed + 1)
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
            cohorts_.erase(live_[victim]);
            live_.erase(live_.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        }
        // Labels draw from their own stream, so the churn above is
        // the same with or without them.
        const std::size_t label = labelRng_() % 6;
        if (label < 3 && !live_.empty()) {
            const std::string &name = live_[labelRng_() % live_.size()];
            const char *labels[] = {"gold", "silver", "bronze"};
            tree_.setCohort(name, labels[label]);
            cohorts_[name] = labels[label];
        }
    }

    bool empty() const { return live_.empty(); }

    /** Live names in admission order. */
    const std::vector<std::string> &live() const { return live_; }

    /** Live agent -> cohort label, for labelled agents. */
    const std::map<std::string, std::string> &cohorts() const
    {
        return cohorts_;
    }

  private:
    PoolTree tree_;
    std::mt19937 rng_;
    std::mt19937 labelRng_;
    std::vector<std::string> live_;
    std::map<std::string, std::string> cohorts_;
    std::uint64_t nextId_ = 0;
};

/**
 * The tree's dense rows against the tree itself: one row per live
 * agent in admission order, with its name, seq, reported
 * elasticities and cohort.
 */
void
expectRowsMatchTree(const PoolTree &tree, const pool::DenseRows &rows,
                    const std::vector<std::string> &live,
                    const std::map<std::string, std::string> &cohorts)
{
    // Label ids follow label order; each label lists its members.
    std::map<std::string, std::size_t> members;
    for (const auto &[name, label] : cohorts)
        ++members[label];
    ASSERT_EQ(rows.cohorts.size(), members.size());
    std::size_t id = 0;
    for (const auto &[label, count] : members) {
        EXPECT_EQ(rows.cohorts[id].first, label);
        EXPECT_EQ(rows.cohorts[id].second, count);
        ++id;
    }
    ASSERT_EQ(rows.labels.size(), cohorts.empty() ? 0 : live.size());
    for (std::size_t i = 0; i < rows.labels.size(); ++i) {
        const auto found = cohorts.find(live[i]);
        if (found == cohorts.end())
            EXPECT_EQ(rows.labels[i], core::kNoLabel) << live[i];
        else
            EXPECT_EQ(rows.cohorts.at(rows.labels[i]).first,
                      found->second)
                << live[i];
    }

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
            expectRowsMatchTree(model.tree(), rows, model.live(),
                                model.cohorts());
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
        std::vector<double> ef_labels;
        const auto ef_rows = core::checkEnvyFreeness(
            rows.view(), tolerance, nullptr, nullptr, &ef_labels);
        EXPECT_EQ(std::memcmp(&ef.worstSlack, &ef_rows.worstSlack,
                              sizeof(double)),
                  0)
            << "step " << step;
        EXPECT_EQ(ef.binding, ef_rows.binding) << "step " << step;

        // Each cohort's minima against the pairwise loop over its
        // members and the reported elasticities.
        std::vector<double> si_labels;
        core::checkSharingIncentives(rows.view(), tree.capacity(),
                                     tolerance, &si_labels);
        constexpr double kInf = std::numeric_limits<double>::infinity();
        std::vector<double> si_oracle(rows.cohorts.size(), kInf);
        std::vector<double> ef_oracle(rows.cohorts.size(), kInf);
        const linalg::Vector equal =
            tree.capacity().equalShare(agents.size());
        for (std::size_t i = 0; i < rows.labels.size(); ++i) {
            if (rows.labels[i] == core::kNoLabel)
                continue;
            const auto &utility = agents[i].utility();
            const double own =
                utility.logValue(allocation.agentShare(i));
            si_oracle[rows.labels[i]] =
                std::min(si_oracle[rows.labels[i]],
                         own - utility.logValue(equal));
            for (std::size_t j = 0; j < agents.size(); ++j)
                if (j != i)
                    ef_oracle[rows.labels[i]] = std::min(
                        ef_oracle[rows.labels[i]],
                        own - utility.logValue(allocation.agentShare(j)));
        }
        ASSERT_EQ(si_labels.size(), si_oracle.size());
        ASSERT_EQ(ef_labels.size(), ef_oracle.size());
        for (std::size_t k = 0; k < si_oracle.size(); ++k) {
            EXPECT_EQ(std::memcmp(&si_labels[k], &si_oracle[k],
                                  sizeof(double)),
                      0)
                << "step " << step << " cohort " << k;
            EXPECT_EQ(std::memcmp(&ef_labels[k], &ef_oracle[k],
                                  sizeof(double)),
                      0)
                << "step " << step << " cohort " << k;
        }
    }
    EXPECT_FALSE(model.cohorts().empty());
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
