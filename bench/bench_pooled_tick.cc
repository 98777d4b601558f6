/**
 * @file
 * Pooled-epoch harness: what one AllocationService::tick() costs a
 * pooled service, and how much of it is the per-pool recorder.
 *
 * Two in-process pooled services (memory-only, enforcement off), the
 * shapes of perfbench's pooled_churn and of a larger tree: 20k agents
 * in 64 pools and 100k agents in 256 pools. Pools "p0".."p<P-1>" hang
 * off the root, and each agent joins pool k with Zipf probability
 * proportional to 1/(k+1). Elasticities are seeded draws from
 * [0.05, 0.95] printed to four decimals. Every round applies 60
 * UPDATEs of random agents to each population in turn, then times
 * one tick(). Prints p50/p99 per population and the p50 of the two
 * TICK phases a pooled epoch fills (EpochResult::phases: publish,
 * and drift, which is the recorder: per-pool fairness samples and
 * gauges), and writes the BENCH records with a phase_<name>_p50_ns
 * field per phase. Each record also states heap_bytes_per_agent: the
 * bytes glibc's allocator holds (mallinfo2 uordblks, plus hblkhd for
 * the blocks it maps on its own, which large arrays get) after the
 * preload less before it, over the agents preloaded:
 *
 *   bench_pooled_tick [--out BENCH_pooled_tick.json]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <malloc.h>

#include "svc/allocation_service.hh"
#include "tick_bench.hh"

namespace {

using namespace ref;

constexpr int kUpdatesPerTick = 60;
struct Shape
{
    std::size_t agents;
    std::size_t pools;
};
constexpr Shape kShapes[] = {{20000, 64}, {100000, 256}};
constexpr std::size_t kTicks = 2000;
constexpr std::uint64_t kSeed = 1;

/** The TICK phases a pooled epoch fills, in tick order: above
 *  kPooledPropertyCheckCap agents it builds no dense rows and runs
 *  no hysteresis, so the driver's phases stay zero. */
struct Phase
{
    const char *name;
    std::chrono::nanoseconds svc::TickPhases::*field;
};
constexpr Phase kPhases[] = {
    {"publish", &svc::TickPhases::publish},
    {"drift", &svc::TickPhases::drift},
};

/** Bytes the allocator hands out now, mapped blocks included. */
std::size_t
heapInUse()
{
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
}

/** One population under test. */
struct Population
{
    Shape shape{};
    double heapBytesPerAgent = 0;
    std::unique_ptr<svc::AllocationService> service;
    std::mt19937_64 rng;
    std::vector<double> tickNs;
    /** Per phase (kPhases order), one sample per tick. */
    std::vector<std::vector<double>> phaseNs{std::size(kPhases)};

    linalg::Vector elasticities()
    {
        std::uniform_real_distribution<double> draw(0.05, 0.95);
        return {std::round(draw(rng) * 1e4) / 1e4,
                std::round(draw(rng) * 1e4) / 1e4};
    }

    std::string name(std::size_t k) const { return tagged('g', k); }

    /** "<tag><k>", built without GCC 12's -Wrestrict false positive
     *  on a one-character literal plus a string. */
    static std::string tagged(char tag, std::size_t k)
    {
        std::string text(1, tag);
        text += std::to_string(k);
        return text;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string outPath =
        bench::parseOut(argc, argv, "bench_pooled_tick");

    std::vector<Population> populations(std::size(kShapes));
    for (std::size_t p = 0; p < populations.size(); ++p) {
        Population &population = populations[p];
        population.shape = kShapes[p];
        population.rng.seed(kSeed * 1000003 + population.shape.agents);
        svc::ServiceConfig config;
        config.pooled = true;
        config.buildEnforcement = false;
        population.service =
            std::make_unique<svc::AllocationService>(config);
        std::vector<double> zipf(population.shape.pools);
        for (std::size_t k = 0; k < zipf.size(); ++k) {
            population.service->createPool(Population::tagged('p', k),
                                           1.0);
            zipf[k] = 1.0 / static_cast<double>(k + 1);
        }
        std::discrete_distribution<std::size_t> pickPool(zipf.begin(),
                                                         zipf.end());
        const std::size_t heapBefore = heapInUse();
        for (std::size_t k = 0; k < population.shape.agents; ++k) {
            population.service->admit(population.name(k),
                                      population.elasticities());
            population.service->assignPool(
                population.name(k),
                Population::tagged('p', pickPool(population.rng)));
        }
        population.heapBytesPerAgent =
            static_cast<double>(heapInUse() - heapBefore) /
            static_cast<double>(population.shape.agents);
        population.service->tick();
        population.tickNs.reserve(kTicks);
    }

    for (std::size_t round = 0; round < kTicks; ++round) {
        for (std::size_t step = 0; step < populations.size(); ++step) {
            Population &population =
                populations[(round + step) % populations.size()];
            std::uniform_int_distribution<std::size_t> pick(
                0, population.shape.agents - 1);
            for (int u = 0; u < kUpdatesPerTick; ++u)
                population.service->update(
                    population.name(pick(population.rng)),
                    population.elasticities());
            const auto start = std::chrono::steady_clock::now();
            const svc::EpochResult result = population.service->tick();
            const auto stop = std::chrono::steady_clock::now();
            population.tickNs.push_back(static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    stop - start)
                    .count()));
            for (std::size_t k = 0; k < std::size(kPhases); ++k)
                population.phaseNs[k].push_back(static_cast<double>(
                    (result.phases.*kPhases[k].field).count()));
        }
    }

    std::printf("%8s %8s %8s %12s %12s %12s %12s", "agents", "pools",
                "ticks", "heap_B/agent", "mean_us", "p50_us",
                "p99_us");
    for (const Phase &phase : kPhases)
        std::printf(" %12s", (std::string(phase.name) + "_us").c_str());
    std::printf("\n");
    std::ostringstream json;
    json << "[\n";
    for (std::size_t p = 0; p < populations.size(); ++p) {
        const Population &population = populations[p];
        double total = 0;
        for (const double ns : population.tickNs)
            total += ns;
        const double mean = total / static_cast<double>(kTicks);
        const double p50 =
            bench::percentile(population.tickNs, 0.50);
        const double p99 =
            bench::percentile(population.tickNs, 0.99);
        std::printf("%8zu %8zu %8zu %12.1f %12.2f %12.2f %12.2f",
                    population.shape.agents, population.shape.pools,
                    kTicks, population.heapBytesPerAgent, mean / 1e3,
                    p50 / 1e3, p99 / 1e3);
        std::vector<double> phaseP50(std::size(kPhases));
        for (std::size_t k = 0; k < std::size(kPhases); ++k) {
            phaseP50[k] =
                bench::percentile(population.phaseNs[k], 0.50);
            std::printf(" %12.2f", phaseP50[k] / 1e3);
        }
        std::printf("\n");
        json << "  {\n"
             << "    \"name\": \"pooled_tick_N"
             << population.shape.agents << "_P"
             << population.shape.pools << "\",\n"
             << "    \"wall_ns\": " << static_cast<std::uint64_t>(mean)
             << ",\n"
             << "    \"iterations\": " << kTicks << ",\n"
             << "    \"agents\": " << population.shape.agents << ",\n"
             << "    \"pools\": " << population.shape.pools << ",\n"
             << "    \"tick_p50_ns\": "
             << static_cast<std::uint64_t>(p50) << ",\n"
             << "    \"tick_p99_ns\": "
             << static_cast<std::uint64_t>(p99) << ",\n"
             << "    \"heap_bytes_per_agent\": "
             << std::round(population.heapBytesPerAgent * 10) / 10;
        for (std::size_t k = 0; k < std::size(kPhases); ++k)
            json << ",\n    \"phase_" << kPhases[k].name
                 << "_p50_ns\": "
                 << static_cast<std::uint64_t>(phaseP50[k]);
        json << "\n"
             << "  }" << (p + 1 < populations.size() ? "," : "")
             << "\n";
    }
    json << "]\n";

    return bench::writeOut(outPath, json.str(), "bench_pooled_tick");
}
