/**
 * @file
 * Pool-tree unit and property tests.
 *
 * The load-bearing claim: with all-unit weights, a pool tree under
 * arbitrary churn (admits, updates, departs, re-assigns, pool
 * creates) allocates BIT-IDENTICALLY to the flat REF closed form over
 * the same agents — checked against ProportionalElasticityMechanism
 * directly and through the tree's own ExactSum self-check.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/proportional_elasticity.hh"
#include "pool/pool_tree.hh"
#include "util/logging.hh"

namespace {

using namespace ref;
using pool::PoolTree;

core::SystemCapacity
capacity()
{
    return core::SystemCapacity::fromCapacities({24.0, 12.0});
}

/** Bitwise equality of two allocations, cell by cell. */
void
expectBitwiseEqual(const core::Allocation &a,
                   const core::Allocation &b)
{
    ASSERT_EQ(a.agents(), b.agents());
    ASSERT_EQ(a.resources(), b.resources());
    for (std::size_t i = 0; i < a.agents(); ++i)
        for (std::size_t r = 0; r < a.resources(); ++r)
            EXPECT_EQ(a.at(i, r), b.at(i, r))
                << "agent " << i << " resource " << r;
}

TEST(PoolTree, RootExistsAndNestedCreationNeedsParents)
{
    PoolTree tree(capacity());
    EXPECT_TRUE(tree.hasPool(pool::kRootPath));
    EXPECT_EQ(tree.poolCount(), 1u);

    tree.createPool("a", 1.0);
    tree.createPool("a/b", 1.0, /*epoch=*/3);
    EXPECT_TRUE(tree.hasPool("a/b"));
    EXPECT_EQ(tree.poolCount(), 3u);
    EXPECT_EQ(tree.maxDepth(), 2u);

    // Idempotent re-create with the identical weight...
    tree.createPool("a", 1.0);
    EXPECT_EQ(tree.poolCount(), 3u);
    // ...but a differing weight is a configuration conflict.
    EXPECT_THROW(tree.createPool("a", 2.0), FatalError);
    // The parent must exist first.
    EXPECT_THROW(tree.createPool("ghost/child", 1.0), FatalError);

    const auto views = tree.pools();
    ASSERT_EQ(views.size(), 3u);
    EXPECT_EQ(views[0].path, pool::kRootPath);
    EXPECT_EQ(views[2].path, "a/b");
    EXPECT_EQ(views[2].createdEpoch, 3u);
}

TEST(PoolTree, PathValidationRejectsMalformedAndReservedNames)
{
    PoolTree tree(capacity());
    for (const std::string bad :
         {"", "/a", "a/", "a//b", "has space", "com,ma", "qu\"ote",
          "back\\slash", "br{ace", "br}ace", "eq=ual", "_total"})
        EXPECT_THROW(tree.createPool(bad, 1.0), FatalError) << bad;

    // "/" is the ever-present root: re-creating it with its weight
    // is the usual idempotent no-op, any other weight conflicts.
    tree.createPool(pool::kRootPath, 1.0);
    EXPECT_THROW(tree.createPool(pool::kRootPath, 2.0), FatalError);

    EXPECT_THROW(tree.createPool("w", 0.0), FatalError);
    EXPECT_THROW(tree.createPool("w", -1.0), FatalError);
    EXPECT_THROW(tree.createPool("w", 1.0 / 0.0), FatalError);

    // Depth cap: a chain one past kMaxPoolDepth must throw.
    std::string path = "d";
    for (std::size_t depth = 1; depth <= pool::kMaxPoolDepth;
         ++depth) {
        tree.createPool(path, 1.0);
        path += "/d";
    }
    EXPECT_THROW(tree.createPool(path, 1.0), FatalError);

    // Length cap.
    EXPECT_THROW(
        tree.createPool(std::string(pool::kMaxPoolPathLength + 1,
                                    'x'),
                        1.0),
        FatalError);
}

TEST(PoolTree, AgentErrorPathsMatchFlatSemantics)
{
    PoolTree tree(capacity());
    tree.createPool("p", 1.0);
    tree.admit("a", {0.6, 0.4}, "p");
    EXPECT_THROW(tree.admit("a", {0.5, 0.5}), FatalError);
    EXPECT_THROW(tree.admit("b", {0.5, 0.5}, "ghost"), FatalError);
    EXPECT_THROW(tree.update("ghost", {0.5, 0.5}), FatalError);
    EXPECT_THROW(tree.depart("ghost"), FatalError);
    EXPECT_THROW(tree.assign("ghost", "p"), FatalError);
    EXPECT_THROW(tree.assign("a", "ghost"), FatalError);
    EXPECT_THROW(tree.poolOf("ghost"), FatalError);
    EXPECT_THROW(tree.agent("ghost"), FatalError);
    EXPECT_EQ(tree.poolOf("a"), "p");
    EXPECT_EQ(tree.size(), 1u);
}

/*
 * A flat service's store is a root-only tree, which computes REF's
 * closed form. The cases below were first written against the
 * separate flat store the service used to keep; they keep its suite
 * name, AgentRegistry, so their test ids stay stable.
 */

PoolTree
exampleTree()
{
    return PoolTree(core::SystemCapacity::cacheAndBandwidthExample());
}

TEST(AgentRegistry, AdmitAllocateMatchesPaperExample)
{
    // The paper's two-agent example: 18/4 and 6/8 of 24 GB/s, 12 MB.
    auto tree = exampleTree();
    tree.admit("user1", {0.6, 0.4});
    tree.admit("user2", {0.2, 0.8});
    const auto allocation = tree.allocateDense();
    EXPECT_NEAR(allocation.at(0, 0), 18.0, 1e-12);
    EXPECT_NEAR(allocation.at(0, 1), 4.0, 1e-12);
    EXPECT_NEAR(allocation.at(1, 0), 6.0, 1e-12);
    EXPECT_NEAR(allocation.at(1, 1), 8.0, 1e-12);
}

TEST(AgentRegistry, IncrementalIsBitIdenticalToScratch)
{
    auto tree = exampleTree();
    tree.admit("a", {0.61, 0.39});
    tree.admit("b", {0.17, 0.83});
    tree.admit("c", {0.5, 0.5});
    tree.depart("b");
    tree.admit("d", {0.9, 0.1});
    tree.update("c", {0.33, 0.67});

    // Names, seqs and elasticities ride the same admission-order
    // walk as the allocation's rows.
    pool::DenseRows rows;
    tree.allocateDense(rows);
    const std::vector<std::string> &names = rows.names;
    EXPECT_EQ(names, (std::vector<std::string>{"a", "c", "d"}));
    EXPECT_EQ(rows.seqs, (std::vector<std::uint64_t>{0, 2, 3}));
    const core::AgentList agents = rows.agentList();
    ASSERT_EQ(agents.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(agents[i].name(), names[i]);
    // Exact double equality on purpose: the incremental path must
    // not drift from the from-scratch mechanism.
    expectBitwiseEqual(
        rows.allocation,
        core::ProportionalElasticityMechanism().allocate(
            agents, tree.capacity()));
}

TEST(AgentRegistry, DepartPreservesAdmissionOrder)
{
    auto tree = exampleTree();
    tree.admit("a", {0.6, 0.4});
    tree.admit("b", {0.2, 0.8});
    tree.admit("c", {0.5, 0.5});
    tree.depart("b");
    ASSERT_EQ(tree.size(), 2u);
    pool::DenseRows rows;
    tree.allocateDense(rows);
    EXPECT_EQ(rows.names, (std::vector<std::string>{"a", "c"}));
    EXPECT_FALSE(tree.contains("b"));
}

TEST(AgentRegistry, RejectsDuplicateAndUnknownNames)
{
    auto tree = exampleTree();
    tree.admit("a", {0.6, 0.4});
    EXPECT_THROW(tree.admit("a", {0.5, 0.5}), FatalError);
    EXPECT_THROW(tree.depart("ghost"), FatalError);
    EXPECT_THROW(tree.update("ghost", {0.5, 0.5}), FatalError);
    EXPECT_THROW(tree.admit("", {0.5, 0.5}), FatalError);
    EXPECT_THROW(tree.admit("two words", {0.5, 0.5}), FatalError);
    EXPECT_THROW(tree.admit("tab\tname", {0.5, 0.5}), FatalError);
    EXPECT_EQ(tree.size(), 1u);
}

TEST(AgentRegistry, RejectsWrongResourceCount)
{
    auto tree = exampleTree();
    EXPECT_THROW(tree.admit("a", {0.6}), FatalError);
    EXPECT_THROW(tree.admit("a", {0.6, 0.3, 0.1}), FatalError);
    tree.admit("a", {0.6, 0.4});
    EXPECT_THROW(tree.update("a", {0.6}), FatalError);
    EXPECT_THROW(tree.update("a", {0.6, 0.3, 0.1}), FatalError);
    ASSERT_TRUE(tree.selfCheck());
}

// Regression: non-positive or non-finite elasticities used to be able
// to reach the allocator (inf passed the positivity check) and poison
// every agent's share with NaN. They must be rejected with a clear
// error at admission and on update instead.
TEST(AgentRegistry, RejectsNonPositiveAndNonFiniteElasticities)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto tree = exampleTree();
    tree.admit("honest", {0.6, 0.4});

    EXPECT_THROW(tree.admit("zero", {0.0, 0.4}), FatalError);
    EXPECT_THROW(tree.admit("negative", {-0.6, 0.4}), FatalError);
    EXPECT_THROW(tree.admit("inf", {inf, 0.4}), FatalError);
    EXPECT_THROW(tree.admit("nan", {nan, 0.4}), FatalError);
    EXPECT_THROW(tree.update("honest", {0.6, inf}), FatalError);
    EXPECT_THROW(tree.update("honest", {nan, 0.4}), FatalError);

    // The failed admissions must not have corrupted the denominators.
    ASSERT_EQ(tree.size(), 1u);
    ASSERT_TRUE(tree.selfCheck());
    const auto allocation = tree.allocateDense();
    for (std::size_t r = 0; r < allocation.resources(); ++r) {
        EXPECT_TRUE(std::isfinite(allocation.at(0, r)));
        EXPECT_NEAR(allocation.at(0, r),
                    tree.capacity().capacity(r), 1e-12);
    }
}

TEST(AgentRegistry, UpdateChangesSharesIncrementally)
{
    auto tree = exampleTree();
    tree.admit("a", {0.6, 0.4});
    tree.admit("b", {0.2, 0.8});
    tree.update("a", {0.2, 0.8});
    const auto allocation = tree.allocateDense();
    // Identical agents split equally.
    EXPECT_NEAR(allocation.at(0, 0), 12.0, 1e-12);
    EXPECT_NEAR(allocation.at(1, 0), 12.0, 1e-12);
    EXPECT_NEAR(allocation.at(0, 1), 6.0, 1e-12);
    EXPECT_NEAR(allocation.at(1, 1), 6.0, 1e-12);
}

TEST(AgentRegistry, CountsChurnEvents)
{
    auto tree = exampleTree();
    tree.admit("a", {0.6, 0.4});
    tree.admit("b", {0.2, 0.8});
    tree.update("a", {0.5, 0.5});
    tree.depart("b");
    EXPECT_EQ(tree.churnEvents(), 4u);
}

TEST(AgentRegistry, AllocateRequiresAgents)
{
    auto tree = exampleTree();
    EXPECT_THROW(tree.allocateDense(), FatalError);
    tree.admit("a", {0.6, 0.4});
    tree.depart("a");
    EXPECT_THROW(tree.allocateDense(), FatalError);
}

/** The pools below the root that the churn streams use. */
const std::vector<std::string> kChurnPools = {"p0", "p1", "p1/nested"};

/** Seeded churn over a small pool forest, self-checking as it goes. */
void
applyChurn(PoolTree &tree, std::uint32_t seed)
{
    for (const std::string &path : kChurnPools)
        tree.createPool(path, 1.0);

    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> elasticity(0.05, 1.0);
    const std::vector<std::string> poolPaths = {
        pool::kRootPath, "p0", "p1", "p1/nested"};
    std::vector<std::string> live;
    int nextId = 0;
    for (int op = 0; op < 300; ++op) {
        const std::uint32_t roll = rng() % 10;
        if (roll < 4 || live.empty()) {
            const std::string name =
                "agent" + std::to_string(nextId++);
            tree.admit(name, {elasticity(rng), elasticity(rng)},
                       poolPaths[rng() % poolPaths.size()]);
            live.push_back(name);
        } else if (roll < 6) {
            tree.update(live[rng() % live.size()],
                        {elasticity(rng), elasticity(rng)});
        } else if (roll < 8) {
            tree.assign(live[rng() % live.size()],
                        poolPaths[rng() % poolPaths.size()]);
        } else if (live.size() > 1) {
            const std::size_t victim = rng() % live.size();
            tree.depart(live[victim]);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(victim));
        }
        if (op % 37 == 0) {
            ASSERT_TRUE(tree.selfCheck()) << "op " << op;
        }
    }
    ASSERT_TRUE(tree.selfCheck());
    ASSERT_TRUE(tree.allUnitGains());
}

/** Seeded churn ending on the bitwise flat-equality compare. */
void
churnAndVerify(std::uint32_t seed)
{
    PoolTree tree(capacity());
    ASSERT_NO_FATAL_FAILURE(applyChurn(tree, seed));

    // The pooled dense allocation equals the flat closed form over
    // the same agents, bit for bit.
    pool::DenseRows rows;
    tree.allocateDense(rows);
    const std::vector<std::string> &names = rows.names;
    const core::Allocation &pooled = rows.allocation;
    const core::Allocation flat =
        core::ProportionalElasticityMechanism().allocate(
            rows.agentList(), tree.capacity());
    expectBitwiseEqual(pooled, flat);

    // And every lazily computed per-agent share is the dense row.
    for (std::size_t i = 0; i < names.size(); ++i) {
        const linalg::Vector shares = tree.sharesOf(names[i]);
        for (std::size_t r = 0; r < shares.size(); ++r)
            EXPECT_EQ(shares[r], pooled.at(i, r)) << names[i];
    }
}

TEST(PoolTree, ChurnIsBitIdenticalToFlatSolve)
{
    for (const std::uint32_t seed : {11u, 23u})
        churnAndVerify(seed);
}

TEST(PoolTree, ShardCountNeverChangesTheAllocation)
{
    // The tree keeps its agents in one slot array, so no shard count
    // is left to vary; what shard independence guaranteed still
    // holds: the store's layout — its churn history, its holes, the
    // order its ExactSums saw the claims in — is unobservable. A
    // fresh tree given only the survivors, in admission order,
    // allocates bit for bit the same.
    for (const std::uint32_t seed : {11u, 23u}) {
        PoolTree churned(capacity());
        ASSERT_NO_FATAL_FAILURE(applyChurn(churned, seed));

        PoolTree fresh(capacity());
        for (const std::string &path : kChurnPools)
            fresh.createPool(path, 1.0);
        churned.forEachAgent([&](const pool::AgentRef &agent) {
            fresh.admit(agent.name,
                        linalg::Vector(agent.elasticities.begin(),
                                       agent.elasticities.end()),
                        churned.poolPath(agent.pool));
        });
        ASSERT_TRUE(fresh.selfCheck());

        for (std::size_t r = 0; r < capacity().count(); ++r)
            EXPECT_EQ(fresh.denominator(r), churned.denominator(r))
                << "seed " << seed << " resource " << r;
        pool::DenseRows before;
        pool::DenseRows after;
        churned.allocateDense(before);
        fresh.allocateDense(after);
        EXPECT_EQ(after.names, before.names) << "seed " << seed;
        expectBitwiseEqual(after.allocation, before.allocation);
    }
}

TEST(PoolTree, DenseOrderIsAdmissionOrderAcrossReadmission)
{
    PoolTree tree(capacity());
    tree.admit("c", {0.5, 0.5});
    tree.admit("b", {0.6, 0.4});
    tree.admit("a", {0.7, 0.3});
    pool::DenseRows rows;
    const std::vector<std::string> &names = rows.names;
    tree.allocateDense(rows);
    EXPECT_EQ(names, (std::vector<std::string>{"c", "b", "a"}));

    tree.depart("b");
    EXPECT_FALSE(tree.contains("b"));
    tree.allocateDense(rows);
    EXPECT_EQ(names, (std::vector<std::string>{"c", "a"}));

    tree.admit("b", {0.6, 0.4});
    tree.allocateDense(rows);
    EXPECT_EQ(names, (std::vector<std::string>{"c", "a", "b"}));

    // Enough departures to compact the order index, interleaved with
    // admissions, keep the survivors in admission order.
    std::vector<std::string> expected = names;
    for (int i = 0; i < 12; ++i) {
        std::string name(1, 'n');
        name += std::to_string(i);
        tree.admit(name, {0.5, 0.5});
        expected.push_back(name);
        if (i % 3 != 2) {
            tree.depart(expected.front());
            expected.erase(expected.begin());
        }
    }
    tree.depart("n5");
    expected.erase(std::find(expected.begin(), expected.end(), "n5"));
    tree.allocateDense(rows);
    EXPECT_EQ(names, expected);
    EXPECT_EQ(tree.size(), expected.size());
}

TEST(PoolTree, WeightedPoolsScaleSharesByGain)
{
    PoolTree tree(capacity());
    tree.createPool("hi", 2.0);
    tree.createPool("lo", 1.0);
    tree.admit("rich", {0.5, 0.5}, "hi");
    tree.admit("poor", {0.5, 0.5}, "lo");
    EXPECT_FALSE(tree.allUnitGains());
    ASSERT_TRUE(tree.selfCheck());

    const linalg::Vector rich = tree.sharesOf("rich");
    const linalg::Vector poor = tree.sharesOf("poor");
    for (std::size_t r = 0; r < rich.size(); ++r) {
        EXPECT_NEAR(rich[r] / poor[r], 2.0, 1e-12);
    }

    // Subtree fractions: hi gets 2/3 of each resource, lo 1/3, and
    // the root holds everything exactly.
    const linalg::Vector hi = tree.poolShareFractions("hi");
    const linalg::Vector lo = tree.poolShareFractions("lo");
    const linalg::Vector root =
        tree.poolShareFractions(pool::kRootPath);
    for (std::size_t r = 0; r < hi.size(); ++r) {
        EXPECT_NEAR(hi[r], 2.0 / 3.0, 1e-12);
        EXPECT_NEAR(lo[r], 1.0 / 3.0, 1e-12);
        EXPECT_EQ(root[r], 1.0);
    }
}

TEST(PoolTree, PoolViewsTrackSubtreeAndDirectCounts)
{
    PoolTree tree(capacity());
    tree.createPool("a", 1.0);
    tree.createPool("a/b", 1.0);
    tree.admit("x", {0.5, 0.5}, "a");
    tree.admit("y", {0.5, 0.5}, "a/b");
    tree.admit("z", {0.5, 0.5});

    const auto views = tree.pools();
    ASSERT_EQ(views.size(), 3u);
    EXPECT_EQ(views[0].agents, 3u);       // Root subtree: everyone.
    EXPECT_EQ(views[0].directAgents, 1u); // z only.
    EXPECT_EQ(views[1].agents, 2u);       // a's subtree: x and y.
    EXPECT_EQ(views[1].directAgents, 1u);
    EXPECT_EQ(views[2].agents, 1u);
    EXPECT_EQ(views[2].directAgents, 1u);

    tree.assign("y", pool::kRootPath);
    const auto moved = tree.pools();
    EXPECT_EQ(moved[1].agents, 1u);
    EXPECT_EQ(moved[2].agents, 0u);
    EXPECT_EQ(moved[0].directAgents, 2u);
    ASSERT_TRUE(tree.selfCheck());
}

/**
 * A churn that walks the agent store across its compaction boundary:
 * the tree plus everything it must hold, checked after every step.
 * Departed agents leave holes in the admission-order index until a
 * compaction closes them; the checks below must hold on either side
 * of each compaction and through it.
 */
class BoundaryChurn
{
  public:
    /** Flat (root only), or pooled with weighted nested pools. */
    explicit BoundaryChurn(bool pooled) : tree_(capacity())
    {
        if (pooled)
            pools_ = {{"a", 2.0}, {"a/b", 0.5}, {"c", 1.0}};
        for (const auto &[path, weight] : pools_)
            tree_.createPool(path, weight);
    }

    PoolTree &tree() { return tree_; }
    std::size_t live() const { return live_.size(); }

    void admit(std::uint32_t seed)
    {
        Expected agent;
        agent.name = "agent" + std::to_string(nextSeq_);
        agent.seq = nextSeq_++;
        agent.pool = pathFor(seed);
        agent.elasticities = elasticitiesFor(seed);
        tree_.admit(agent.name, agent.elasticities, agent.pool);
        live_.push_back(std::move(agent));
    }

    void update(std::size_t i, std::uint32_t seed)
    {
        Expected &agent = live_[i % live_.size()];
        agent.elasticities = elasticitiesFor(seed);
        tree_.update(agent.name, agent.elasticities);
    }

    void assign(std::size_t i, std::uint32_t seed)
    {
        Expected &agent = live_[i % live_.size()];
        agent.pool = pathFor(seed);
        tree_.assign(agent.name, agent.pool);
    }

    void label(std::size_t i, const std::string &cohort)
    {
        Expected &agent = live_[i % live_.size()];
        agent.cohort = cohort;
        tree_.setCohort(agent.name, cohort);
    }

    void depart(std::size_t i)
    {
        const auto at = live_.begin() +
                        static_cast<std::ptrdiff_t>(i % live_.size());
        tree_.depart(at->name);
        live_.erase(at);
    }

    /** Move the tree out and back: once constructed, once assigned. */
    void moveTree()
    {
        PoolTree moved(std::move(tree_));
        ASSERT_NO_FATAL_FAILURE(verify(moved));
        tree_ = std::move(moved);
    }

    void verify() { verify(tree_); }

    /**
     * Every live name resolves to its own seq, pool and elasticities;
     * the dense rows come out in strictly ascending seq with each
     * agent's cohort; selfCheck() holds; and the allocation equals,
     * bit for bit, a fresh tree's that admitted the same agents in
     * seq order.
     */
    void verify(const PoolTree &tree) const
    {
        ASSERT_TRUE(tree.selfCheck());
        ASSERT_EQ(tree.size(), live_.size());
        const std::size_t resources = capacity().count();
        for (const Expected &agent : live_) {
            ASSERT_TRUE(tree.contains(agent.name)) << agent.name;
            const auto held = tree.agent(agent.name);
            EXPECT_EQ(held.seq, agent.seq) << agent.name;
            EXPECT_EQ(tree.poolPath(held.pool), agent.pool)
                << agent.name;
            EXPECT_EQ(tree.poolOf(agent.name), agent.pool);
            ASSERT_EQ(held.elasticities.size(), resources);
            for (std::size_t r = 0; r < resources; ++r)
                EXPECT_EQ(held.elasticities[r], agent.elasticities[r])
                    << agent.name;
        }
        if (live_.empty())
            return;

        pool::DenseRows rows;
        tree.allocateDense(rows);
        ASSERT_EQ(rows.names.size(), live_.size());
        ASSERT_EQ(rows.seqs.size(), live_.size());
        bool labelled = false;
        for (std::size_t i = 0; i < live_.size(); ++i) {
            EXPECT_EQ(rows.names[i], live_[i].name);
            EXPECT_EQ(rows.seqs[i], live_[i].seq);
            if (i > 0) {
                EXPECT_LT(rows.seqs[i - 1], rows.seqs[i]);
            }
            for (std::size_t r = 0; r < resources; ++r)
                EXPECT_EQ(rows.elasticities[i * resources + r],
                          live_[i].elasticities[r]);
            labelled = labelled || !live_[i].cohort.empty();
        }
        ASSERT_EQ(rows.labels.size(), labelled ? live_.size() : 0u);
        for (std::size_t i = 0; i < rows.labels.size(); ++i) {
            if (live_[i].cohort.empty())
                EXPECT_EQ(rows.labels[i], core::kNoLabel);
            else
                EXPECT_EQ(rows.cohorts.at(rows.labels[i]).first,
                          live_[i].cohort);
        }

        PoolTree fresh(capacity());
        for (const auto &[path, weight] : pools_)
            fresh.createPool(path, weight);
        for (const Expected &agent : live_)
            fresh.admit(agent.name, agent.elasticities, agent.pool);
        for (std::size_t r = 0; r < resources; ++r)
            EXPECT_EQ(fresh.denominator(r), tree.denominator(r));
        expectBitwiseEqual(rows.allocation, fresh.allocateDense());
        for (const Expected &agent : live_) {
            const linalg::Vector held = tree.sharesOf(agent.name);
            const linalg::Vector want = fresh.sharesOf(agent.name);
            for (std::size_t r = 0; r < resources; ++r)
                EXPECT_EQ(held[r], want[r]) << agent.name;
        }
    }

  private:
    struct Expected
    {
        std::string name;
        std::uint64_t seq = 0;
        std::string pool;
        linalg::Vector elasticities;
        std::string cohort;
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
        std::uniform_real_distribution<double> draw(0.05, 1.0);
        return {draw(rng), draw(rng)};
    }

    PoolTree tree_;
    std::vector<std::pair<std::string, double>> pools_;
    std::vector<Expected> live_;  //!< Ascending seq.
    std::uint64_t nextSeq_ = 0;
};

/**
 * Admit a population, depart from the front, back and middle until
 * most of it is gone, then keep admitting, updating, assigning and
 * labelling, and depart through the boundary again — checking
 * everything after every step and across two moves of the tree.
 */
void
churnAcrossCompaction(bool pooled)
{
    BoundaryChurn churn(pooled);
    std::uint32_t seed = 1;
    for (int i = 0; i < 48; ++i) {
        churn.admit(seed++);
        if (i % 5 == 0)
            churn.label(static_cast<std::size_t>(i),
                        i % 10 == 0 ? "gold" : "tin");
    }
    ASSERT_NO_FATAL_FAILURE(churn.verify());

    // Departures: front, back, middle in turn, through the boundary.
    for (int d = 0; d < 34; ++d) {
        const std::size_t live = churn.live();
        churn.depart(d % 3 == 0 ? 0 : d % 3 == 1 ? live - 1 : live / 2);
        ASSERT_NO_FATAL_FAILURE(churn.verify()) << "depart " << d;
    }
    ASSERT_NO_FATAL_FAILURE(churn.moveTree());
    ASSERT_NO_FATAL_FAILURE(churn.verify());

    // Keep churning on the compacted index.
    for (int op = 0; op < 60; ++op) {
        switch (op % 4) {
        case 0:
            churn.admit(seed++);
            break;
        case 1:
            churn.update(static_cast<std::size_t>(op) * 7, seed++);
            break;
        case 2:
            churn.assign(static_cast<std::size_t>(op) * 5, seed++);
            break;
        default:
            churn.label(static_cast<std::size_t>(op) * 3,
                        op % 8 == 3 ? "gold" : "silver");
            break;
        }
        ASSERT_NO_FATAL_FAILURE(churn.verify()) << "op " << op;
    }

    // Cross the boundary again, re-admitting as the index shrinks.
    for (int d = 0; d < 24; ++d) {
        churn.depart(static_cast<std::size_t>(d) * 11);
        if (d % 4 == 0)
            churn.admit(seed++);
        ASSERT_NO_FATAL_FAILURE(churn.verify()) << "second " << d;
    }
    ASSERT_NO_FATAL_FAILURE(churn.moveTree());
    for (int op = 0; op < 12; ++op) {
        churn.admit(seed++);
        churn.update(static_cast<std::size_t>(op), seed++);
        churn.assign(static_cast<std::size_t>(op) * 13, seed++);
        ASSERT_NO_FATAL_FAILURE(churn.verify()) << "tail " << op;
    }
    while (churn.live() > 0) {
        churn.depart(churn.live() / 2);
        ASSERT_NO_FATAL_FAILURE(churn.verify());
    }
    EXPECT_TRUE(churn.tree().empty());
}

TEST(PoolTree, CompactionBoundaryChurnFlat)
{
    churnAcrossCompaction(false);
}

TEST(PoolTree, CompactionBoundaryChurnWeightedPools)
{
    churnAcrossCompaction(true);
}

} // namespace
