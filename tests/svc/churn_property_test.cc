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
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fairness.hh"
#include "core/proportional_elasticity.hh"
#include "pool/pool_tree.hh"
#include "svc/allocation_service.hh"
#include "svc/snapshot.hh"

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
        const pool::AgentRef agent = tree.agent(live[i]);
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

/**
 * The same agents driven through a service across the agent store's
 * compaction boundary (departed agents leave holes in the admission
 * order until a compaction closes them), then carried into other
 * services by snapshot resync (adoptState), which keep churning in
 * lock step with the original.
 */
class ServiceBoundaryChurn
{
  public:
    explicit ServiceBoundaryChurn(bool pooled) : pooled_(pooled)
    {
        config_.pooled = pooled;
        config_.buildEnforcement = false;
        config_.epoch.verifyIncremental = true;
        if (pooled)
            pools_ = {{"a", 2.0}, {"a/b", 0.5}, {"c", 1.0}};
        services_.push_back(
            std::make_unique<svc::AllocationService>(config_));
        for (const auto &[path, weight] : pools_)
            services_.front()->createPool(path, weight);
    }

    std::size_t live() const { return live_.size(); }

    /** A new service that adopts the first one's state. */
    void adopt()
    {
        std::uint64_t seq = 0;
        const svc::ServiceState state = svc::decodeServiceState(
            services_.front()->captureReplicationSnapshot(seq));
        services_.push_back(
            std::make_unique<svc::AllocationService>(config_));
        services_.back()->adoptState(state);
    }

    void admit(std::uint32_t seed)
    {
        Expected agent{"agent" + std::to_string(nextId_++),
                       elasticitiesFor(seed), pathFor(seed)};
        for (auto &service : services_) {
            service->admit(agent.name, agent.elasticities);
            if (agent.pool != pool::kRootPath)
                service->assignPool(agent.name, agent.pool);
        }
        live_.push_back(std::move(agent));
    }

    void update(std::size_t i, std::uint32_t seed)
    {
        Expected &agent = live_[i % live_.size()];
        agent.elasticities = elasticitiesFor(seed);
        for (auto &service : services_)
            service->update(agent.name, agent.elasticities);
    }

    void assign(std::size_t i, std::uint32_t seed)
    {
        if (!pooled_)
            return;
        Expected &agent = live_[i % live_.size()];
        agent.pool = pathFor(seed);
        for (auto &service : services_)
            service->assignPool(agent.name, agent.pool);
    }

    void depart(std::size_t i)
    {
        const auto at = live_.begin() +
                        static_cast<std::ptrdiff_t>(i % live_.size());
        for (auto &service : services_)
            service->depart(at->name);
        live_.erase(at);
    }

    /**
     * TICK every service. Each must pass its self-check and hold the
     * same state hash; a flat one publishes the live agents in
     * strictly ascending seq, a pooled one answers each agent's pool;
     * and every share equals, bit for bit, a fresh tree's that
     * admitted the same agents in admission order.
     */
    void verify()
    {
        pool::PoolTree fresh(config_.capacity);
        for (const auto &[path, weight] : pools_)
            fresh.createPool(path, weight);
        for (const Expected &agent : live_)
            fresh.admit(agent.name, agent.elasticities, agent.pool);
        const core::Allocation want =
            live_.empty() ? core::Allocation() : fresh.allocateDense();

        for (auto &service : services_) {
            const svc::EpochResult result = service->tick();
            ASSERT_TRUE(result.incrementalMatchesScratch);
            ASSERT_EQ(service->liveAgents(), live_.size());
            EXPECT_EQ(service->stateHash(),
                      services_.front()->stateHash());
            if (pooled_) {
                for (const Expected &agent : live_) {
                    EXPECT_EQ(service->agentPool(agent.name),
                              agent.pool);
                    const linalg::Vector shares =
                        service->agentShares(agent.name);
                    const linalg::Vector expected =
                        fresh.sharesOf(agent.name);
                    for (std::size_t r = 0; r < shares.size(); ++r)
                        EXPECT_EQ(shares[r], expected[r])
                            << agent.name;
                }
                continue;
            }
            const auto published = service->snapshot();
            ASSERT_EQ(published->agents.size(), live_.size());
            for (std::size_t i = 0; i < live_.size(); ++i)
                EXPECT_EQ(published->agents[i], live_[i].name);
            ASSERT_EQ(published->seqs.size(), live_.size());
            for (std::size_t i = 1; i < published->seqs.size(); ++i)
                EXPECT_LT(published->seqs[i - 1], published->seqs[i]);
            if (live_.empty())
                continue;
            ASSERT_EQ(published->allocation.agents(), want.agents());
            for (std::size_t i = 0; i < want.agents(); ++i)
                for (std::size_t r = 0; r < want.resources(); ++r)
                    ASSERT_EQ(published->allocation.at(i, r),
                              want.at(i, r))
                        << "agent " << i << " resource " << r;
        }
    }

  private:
    struct Expected
    {
        std::string name;
        linalg::Vector elasticities;
        std::string pool;
    };

    std::string pathFor(std::uint32_t seed) const
    {
        if (pools_.empty())
            return pool::kRootPath;
        const std::size_t pick = seed % (pools_.size() + 1);
        return pick == pools_.size() ? std::string(pool::kRootPath)
                                     : pools_[pick].first;
    }

    static linalg::Vector elasticitiesFor(std::uint32_t seed)
    {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> draw(0.05, 4.0);
        return {draw(rng), draw(rng)};
    }

    bool pooled_;
    svc::ServiceConfig config_;
    std::vector<std::pair<std::string, double>> pools_;
    std::vector<std::unique_ptr<svc::AllocationService>> services_;
    std::vector<Expected> live_;  //!< Admission order.
    std::uint64_t nextId_ = 0;
};

void
serviceChurnAcrossCompaction(bool pooled)
{
    ServiceBoundaryChurn churn(pooled);
    std::uint32_t seed = 100;
    for (int i = 0; i < 40; ++i)
        churn.admit(seed++);
    ASSERT_NO_FATAL_FAILURE(churn.verify());

    // Through the boundary: front, back and middle in turn.
    for (int d = 0; d < 28; ++d) {
        const std::size_t live = churn.live();
        churn.depart(d % 3 == 0 ? 0 : d % 3 == 1 ? live - 1 : live / 2);
        ASSERT_NO_FATAL_FAILURE(churn.verify()) << "depart " << d;
    }
    // A follower resyncs from the compacted store, then both churn.
    churn.adopt();
    ASSERT_NO_FATAL_FAILURE(churn.verify());
    for (int op = 0; op < 30; ++op) {
        switch (op % 3) {
        case 0:
            churn.admit(seed++);
            break;
        case 1:
            churn.update(static_cast<std::size_t>(op) * 7, seed++);
            break;
        default:
            churn.assign(static_cast<std::size_t>(op) * 5, seed++);
            break;
        }
        ASSERT_NO_FATAL_FAILURE(churn.verify()) << "op " << op;
    }
    // Every store crosses the boundary again; a second follower
    // adopts mid-way.
    for (int d = 0; d < 20; ++d) {
        churn.depart(static_cast<std::size_t>(d) * 11);
        if (d % 4 == 0)
            churn.admit(seed++);
        if (d == 10)
            churn.adopt();
        ASSERT_NO_FATAL_FAILURE(churn.verify()) << "second " << d;
    }
}

TEST(ChurnProperty, CompactionBoundaryFlatSurvivesAdoptState)
{
    serviceChurnAcrossCompaction(false);
}

TEST(ChurnProperty, CompactionBoundaryPooledSurvivesAdoptState)
{
    serviceChurnAcrossCompaction(true);
}

} // namespace
