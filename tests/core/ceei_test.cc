#include "core/ceei.hh"

#include <gtest/gtest.h>

#include "core/proportional_elasticity.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "test_names.hh"

namespace {

using namespace ref::core;

AgentList
paperAgents()
{
    AgentList agents;
    agents.emplace_back("user1", CobbDouglasUtility({0.6, 0.4}));
    agents.emplace_back("user2", CobbDouglasUtility({0.2, 0.8}));
    return agents;
}

TEST(Ceei, ClosedFormEqualsProportionalElasticity)
{
    // The paper's Section 4.2 equivalence: CEEI == REF for re-scaled
    // Cobb-Douglas utilities.
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const auto agents = paperAgents();
    const auto ceei =
        CeeiMarket(agents, capacity).solveClosedForm();
    const auto ref_alloc =
        ProportionalElasticityMechanism().allocate(agents, capacity);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t r = 0; r < 2; ++r)
            EXPECT_NEAR(ceei.allocation.at(i, r), ref_alloc.at(i, r),
                        1e-12);
}

TEST(Ceei, TatonnementConvergesToClosedForm)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const CeeiMarket market(paperAgents(), capacity);
    const auto closed = market.solveClosedForm();
    const auto iterative = market.solveTatonnement();
    EXPECT_TRUE(iterative.converged);
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t r = 0; r < 2; ++r) {
            EXPECT_NEAR(iterative.allocation.at(i, r),
                        closed.allocation.at(i, r), 1e-6);
        }
    }
}

TEST(Ceei, MarketClearsAtEquilibriumPrices)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const CeeiMarket market(paperAgents(), capacity);
    const auto solution = market.solveClosedForm();
    const auto totals = solution.allocation.totals();
    EXPECT_NEAR(totals[0], 24.0, 1e-9);
    EXPECT_NEAR(totals[1], 12.0, 1e-9);
}

TEST(Ceei, PricesNormalizedToTotalBudget)
{
    // sum_r p_r C_r == 1 (all budgets spent).
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const auto solution =
        CeeiMarket(paperAgents(), capacity).solveClosedForm();
    double market_value = 0;
    for (std::size_t r = 0; r < 2; ++r)
        market_value += solution.prices[r] * capacity.capacity(r);
    EXPECT_NEAR(market_value, 1.0, 1e-12);
}

TEST(Ceei, ScarceDemandedResourceIsPricier)
{
    // Two agents both craving resource 0 push its (per-unit) price
    // above the equal-value level.
    const auto capacity = SystemCapacity::fromCapacities({1.0, 1.0});
    AgentList agents;
    agents.emplace_back("a", CobbDouglasUtility({0.9, 0.1}));
    agents.emplace_back("b", CobbDouglasUtility({0.8, 0.2}));
    const auto solution =
        CeeiMarket(agents, capacity).solveClosedForm();
    EXPECT_GT(solution.prices[0], solution.prices[1]);
}

TEST(Ceei, DemandSpendsElasticityFractionOfBudget)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    const CeeiMarket market(paperAgents(), capacity);
    const Vector prices{0.02, 0.05};
    const Vector bundle = market.demand(0, prices, 0.5);
    // Agent 0 (rescaled 0.6/0.4) spends 0.3 on resource 0.
    EXPECT_NEAR(bundle[0] * prices[0], 0.3, 1e-12);
    EXPECT_NEAR(bundle[1] * prices[1], 0.2, 1e-12);
}

TEST(Ceei, RandomPopulationsAgreeWithRef)
{
    ref::Rng rng(31);
    for (int trial = 0; trial < 5; ++trial) {
        const std::size_t n = 2 + trial;
        const std::size_t r = 2 + trial % 2;
        std::vector<double> caps(r);
        for (auto &c : caps)
            c = rng.uniform(1.0, 50.0);
        const auto capacity = SystemCapacity::fromCapacities(caps);
        AgentList agents;
        for (std::size_t i = 0; i < n; ++i) {
            Vector alphas(r);
            for (auto &a : alphas)
                a = rng.uniform(0.1, 1.0);
            agents.emplace_back(ref::test::indexedName('a', i),
                                CobbDouglasUtility(alphas));
        }
        const auto ceei =
            CeeiMarket(agents, capacity).solveClosedForm();
        const auto ref_alloc =
            ProportionalElasticityMechanism().allocate(agents,
                                                       capacity);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t k = 0; k < r; ++k) {
                EXPECT_NEAR(ceei.allocation.at(i, k),
                            ref_alloc.at(i, k), 1e-9);
            }
        }
    }
}

TEST(Ceei, RejectsBadInput)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    EXPECT_THROW(CeeiMarket({}, capacity), ref::FatalError);
    const CeeiMarket market(paperAgents(), capacity);
    EXPECT_THROW(market.demand(5, {0.1, 0.1}, 0.5), ref::FatalError);
    EXPECT_THROW(market.demand(0, {0.1}, 0.5), ref::FatalError);
    EXPECT_THROW(market.demand(0, {0.1, 0.0}, 0.5), ref::FatalError);
    EXPECT_THROW(market.demand(0, {0.1, 0.1}, 0.0), ref::FatalError);
}

} // namespace
