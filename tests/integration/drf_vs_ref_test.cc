/**
 * @file
 * Integration: the Sections 2/6 argument against Leontief preferences
 * for hardware, pinned as tests. Cobb-Douglas agents forced through
 * fixed-ratio demand vectors and DRF lose utility relative to REF,
 * and DRF can strand capacity that REF always allocates.
 */

#include <gtest/gtest.h>

#include "core/drf.hh"
#include "core/proportional_elasticity.hh"
#include "core/welfare.hh"
#include "util/random.hh"
#include "test_names.hh"

namespace {

using namespace ref::core;

LeontiefUtility
demandVectorFor(const CobbDouglasUtility &utility,
                const SystemCapacity &capacity)
{
    const auto rescaled = utility.rescaled();
    Vector demands(capacity.count());
    for (std::size_t r = 0; r < capacity.count(); ++r)
        demands[r] = rescaled.elasticity(r) * capacity.capacity(r);
    return LeontiefUtility(demands);
}

TEST(DrfVsRef, RefNeverLosesThroughputOnRandomPopulations)
{
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    ref::Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        AgentList agents;
        std::vector<LeontiefAgent> leontief_agents;
        const std::size_t n = 2 + trial % 4;
        for (std::size_t i = 0; i < n; ++i) {
            const CobbDouglasUtility utility(
                {rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)});
            agents.emplace_back(ref::test::indexedName('a', i), utility);
            leontief_agents.emplace_back(
                ref::test::indexedName('a', i),
                demandVectorFor(utility, capacity));
        }
        const auto drf = allocateDrf(leontief_agents, capacity);
        const auto ref_alloc =
            ProportionalElasticityMechanism().allocate(agents,
                                                       capacity);
        const double drf_throughput = weightedSystemThroughput(
            agents, drf.allocation, capacity);
        const double ref_throughput = weightedSystemThroughput(
            agents, ref_alloc, capacity);
        EXPECT_GE(ref_throughput + 1e-9, drf_throughput)
            << "trial " << trial;
    }
}

TEST(DrfVsRef, DrfStrandsCapacityForSkewedDemands)
{
    // One bandwidth-dominant and one balanced agent: DRF exhausts the
    // bandwidth but cannot hand out the remaining cache, because
    // fixed-ratio bundles tie the two together.
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    AgentList agents;
    agents.emplace_back("bw-heavy", CobbDouglasUtility({0.9, 0.1}));
    agents.emplace_back("bw-lean", CobbDouglasUtility({0.7, 0.3}));
    std::vector<LeontiefAgent> leontief_agents;
    for (const auto &agent : agents) {
        leontief_agents.emplace_back(
            agent.name(), demandVectorFor(agent.utility(), capacity));
    }
    const auto drf = allocateDrf(leontief_agents, capacity);
    const auto totals = drf.allocation.totals();
    // Bandwidth saturates; a meaningful chunk of cache is stranded.
    EXPECT_NEAR(totals[0], capacity.capacity(0), 1e-6);
    EXPECT_LT(totals[1], 0.9 * capacity.capacity(1));
    // REF wastes nothing.
    const auto ref_alloc =
        ProportionalElasticityMechanism().allocate(agents, capacity);
    EXPECT_TRUE(ref_alloc.exhaustive(capacity, 1e-9));
}

TEST(DrfVsRef, IdenticalAgentsCoincide)
{
    // With identical preferences both mechanisms hand out equal
    // shares; the DRF bundles equal REF's.
    const auto capacity = SystemCapacity::cacheAndBandwidthExample();
    AgentList agents;
    std::vector<LeontiefAgent> leontief_agents;
    for (int i = 0; i < 3; ++i) {
        const CobbDouglasUtility utility({0.5, 0.5});
        agents.emplace_back(ref::test::indexedName('t', i), utility);
        leontief_agents.emplace_back(
            ref::test::indexedName('t', i),
            demandVectorFor(utility, capacity));
    }
    const auto drf = allocateDrf(leontief_agents, capacity);
    const auto ref_alloc =
        ProportionalElasticityMechanism().allocate(agents, capacity);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t r = 0; r < 2; ++r) {
            EXPECT_NEAR(drf.allocation.at(i, r), ref_alloc.at(i, r),
                        1e-9);
        }
    }
}

} // namespace
