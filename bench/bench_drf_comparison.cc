/**
 * @file
 * Related-work comparison (paper Sections 2 and 6): Dominant
 * Resource Fairness vs proportional elasticity.
 *
 * DRF guarantees SI/EF/PE/SP — but on the Leontief domain, where
 * resources are perfect complements. Hardware resources substitute
 * (Figure 3), so forcing a Cobb-Douglas agent through DRF means
 * collapsing its preferences to a demand vector, losing the
 * diminishing-returns information. This harness quantifies that
 * loss: each agent's Leontief demand vector is the best fixed-ratio
 * approximation of its Cobb-Douglas preferences (its elasticity
 * proportions), DRF allocates, and the outcome is valued with the
 * TRUE Cobb-Douglas utilities.
 */

#include <iostream>

#include <benchmark/benchmark.h>

#include "common.hh"
#include "core/drf.hh"
#include "core/fairness.hh"
#include "core/proportional_elasticity.hh"
#include "core/welfare.hh"
#include "util/table.hh"

namespace {

using namespace ref;

/** Agent @p i's two-resource bundle as "(x0, x1)". */
std::string
bundleText(const core::Allocation &allocation, std::size_t i)
{
    // Appended, not "(" + ...: GCC 12's -Wrestrict misfires on a
    // one-character literal plus a string at -O3.
    std::string text(1, '(');
    text += formatFixed(allocation.at(i, 0), 2);
    text += ", ";
    text += formatFixed(allocation.at(i, 1), 2);
    text += ')';
    return text;
}

/**
 * Demand vector for a Cobb-Douglas agent: the resource ratio the
 * agent would buy at uniform per-capacity prices — its re-scaled
 * elasticities applied to the capacities.
 */
core::LeontiefUtility
demandVectorFor(const core::CobbDouglasUtility &utility,
                const core::SystemCapacity &capacity)
{
    const auto rescaled = utility.rescaled();
    core::Vector demands(capacity.count());
    for (std::size_t r = 0; r < capacity.count(); ++r)
        demands[r] = rescaled.elasticity(r) * capacity.capacity(r);
    return core::LeontiefUtility(demands);
}

void
printComparison()
{
    bench::printBanner(
        "DRF comparison",
        "Leontief DRF vs Cobb-Douglas proportional elasticity");

    const auto capacity =
        core::SystemCapacity::cacheAndBandwidthExample();
    const auto agents =
        bench::fitAgents({"histogram", "freqmine", "canneal", "dedup"},
                         60000);

    // DRF over the Leontief approximations.
    std::vector<core::LeontiefAgent> leontief_agents;
    for (const auto &agent : agents) {
        leontief_agents.emplace_back(
            agent.name(), demandVectorFor(agent.utility(), capacity));
    }
    const auto drf = core::allocateDrf(leontief_agents, capacity);
    const auto ref_alloc =
        core::ProportionalElasticityMechanism().allocate(agents,
                                                         capacity);

    Table table({"agent", "DRF bundle (GB/s, MB)",
                 "REF bundle (GB/s, MB)", "U_i under DRF",
                 "U_i under REF"});
    for (std::size_t i = 0; i < agents.size(); ++i) {
        table.addRow(
            {agents[i].name(),
             bundleText(drf.allocation, i), bundleText(ref_alloc, i),
             formatFixed(core::weightedUtility(
                             agents[i], drf.allocation.agentShare(i),
                             capacity),
                         4),
             formatFixed(core::weightedUtility(
                             agents[i], ref_alloc.agentShare(i),
                             capacity),
                         4)});
    }
    table.print(std::cout);

    const double drf_throughput = core::weightedSystemThroughput(
        agents, drf.allocation, capacity);
    const double ref_throughput = core::weightedSystemThroughput(
        agents, ref_alloc, capacity);
    std::cout << "\nweighted system throughput (true Cobb-Douglas "
                 "utilities):\n  DRF over demand vectors: "
              << formatFixed(drf_throughput, 3)
              << "\n  proportional elasticity: "
              << formatFixed(ref_throughput, 3) << "  ("
              << formatPercent(
                     ref_throughput / drf_throughput - 1.0, 1)
              << " better)\n";

    // DRF can also waste capacity: fixed-ratio bundles cannot soak
    // up a resource the binding agents do not want.
    const auto totals = drf.allocation.totals();
    std::cout << "\nDRF leftover capacity: bandwidth "
              << formatPercent(
                     1.0 - totals[0] / capacity.capacity(0), 1)
              << ", cache "
              << formatPercent(
                     1.0 - totals[1] / capacity.capacity(1), 1)
              << " (REF always exhausts both)\n";
}

void
BM_DrfAllocate(benchmark::State &state)
{
    const auto capacity =
        core::SystemCapacity::cacheAndBandwidthExample();
    std::vector<core::LeontiefAgent> agents;
    agents.emplace_back("a", core::LeontiefUtility({1.0, 4.0}));
    agents.emplace_back("b", core::LeontiefUtility({3.0, 1.0}));
    agents.emplace_back("c", core::LeontiefUtility({2.0, 2.0}));
    for (auto _ : state) {
        auto result = core::allocateDrf(agents, capacity);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_DrfAllocate);

} // namespace

int
main(int argc, char **argv)
{
    printComparison();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
