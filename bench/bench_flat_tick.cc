/**
 * @file
 * Flat-epoch scaling harness: how AllocationService::tick() grows
 * with the number of flat agents.
 *
 * One in-process service per population N (ServiceConfig defaults:
 * SI/EF checks and enforcement on, memory-only), each preloaded with
 * N two-resource agents whose elasticities are seeded draws from
 * [0.05, 0.95] printed to four decimals, the way perfbench's
 * flat_epoch generates them. Each N runs twice: once unlabelled, and
 * once with every agent in one of two COHORTs, so the epoch also
 * reports per-cohort SI/EF minima. Every round visits every population in
 * a rotating order and applies 16 UPDATEs of random agents, then
 * times one tick(), so a change in host speed lands on all sizes
 * alike. Prints p50/p99 per N, how many rows the EF check evaluated
 * pair by pair, and the p50 of each TICK phase (EpochResult::phases:
 * dense rows, SI, EF, hysteresis, drift with the series append, and
 * publish with the enforcement plan), and writes the BENCH records
 * with a phase_<name>_p50_ns field per phase:
 *
 *   bench_flat_tick [--out BENCH_flat_tick.json]
 *
 * scripts/check_tick_scaling.py gates the records: within each series
 * (no cohorts, two cohorts) TICK p99 may grow by at most N log N per
 * doubling of N, plus a fixed slack.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "svc/allocation_service.hh"

namespace {

using namespace ref;

constexpr int kUpdatesPerTick = 16;
constexpr std::size_t kSizes[] = {256, 512, 1024, 2048, 4096, 8192};
/** Cohorts per series: none, and every agent in one of two. */
constexpr std::size_t kCohorts[] = {0, 2};
constexpr std::size_t kTicks = 1000;
constexpr std::uint64_t kSeed = 1;

/** The TICK phases reported, in tick order. */
struct Phase
{
    const char *name;
    std::chrono::nanoseconds svc::TickPhases::*field;
};
constexpr Phase kPhases[] = {
    {"allocate", &svc::TickPhases::allocate},
    {"self_check", &svc::TickPhases::selfCheck},
    {"si", &svc::TickPhases::sharingIncentives},
    {"ef", &svc::TickPhases::envyFreeness},
    {"hysteresis", &svc::TickPhases::hysteresis},
    {"publish", &svc::TickPhases::publish},
    {"drift", &svc::TickPhases::drift},
};

/** The BENCH output path from `--out FILE`; empty prints only. */
std::string
parseOut(int argc, char **argv)
{
    if (argc == 1)
        return {};
    if (argc == 3 && std::string(argv[1]) == "--out")
        return argv[2];
    std::fprintf(stderr, "usage: bench_flat_tick [--out FILE]\n");
    std::exit(2);
}

/** One population under test. */
struct Population
{
    std::size_t agents = 0;
    std::size_t cohorts = 0;
    std::unique_ptr<svc::AllocationService> service;
    std::mt19937_64 rng;
    std::vector<double> tickNs;
    std::vector<std::size_t> rowsScanned;
    /** Per phase (kPhases order), one sample per tick. */
    std::vector<std::vector<double>> phaseNs{std::size(kPhases)};

    linalg::Vector elasticities()
    {
        std::uniform_real_distribution<double> draw(0.05, 0.95);
        return {std::round(draw(rng) * 1e4) / 1e4,
                std::round(draw(rng) * 1e4) / 1e4};
    }

    std::string name(std::size_t k) const
    {
        return "agent" + std::to_string(k);
    }
};

/** Nearest-rank percentile of an unsorted sample. */
template <typename T>
T
percentile(std::vector<T> sample, double q)
{
    std::sort(sample.begin(), sample.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sample.size())));
    return sample[std::max<std::size_t>(rank, 1) - 1];
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string outPath = parseOut(argc, argv);

    std::vector<Population> populations(std::size(kCohorts) *
                                        std::size(kSizes));
    for (std::size_t p = 0; p < populations.size(); ++p) {
        Population &population = populations[p];
        population.cohorts = kCohorts[p / std::size(kSizes)];
        population.agents = kSizes[p % std::size(kSizes)];
        population.rng.seed(kSeed * 1000003 + population.agents);
        population.service = std::make_unique<svc::AllocationService>();
        for (std::size_t k = 0; k < population.agents; ++k)
            population.service->admit(population.name(k),
                                      population.elasticities());
        for (std::size_t k = 0; population.cohorts > 0 &&
                                k < population.agents;
             ++k)
            population.service->setCohort(
                population.name(k),
                "c" + std::to_string(k % population.cohorts));
        population.service->tick();
        population.tickNs.reserve(kTicks);
    }

    for (std::size_t round = 0; round < kTicks; ++round) {
        for (std::size_t step = 0; step < populations.size(); ++step) {
            Population &population =
                populations[(round + step) % populations.size()];
            std::uniform_int_distribution<std::size_t> pick(
                0, population.agents - 1);
            for (int u = 0; u < kUpdatesPerTick; ++u)
                population.service->update(
                    population.name(pick(population.rng)),
                    population.elasticities());
            const auto start = std::chrono::steady_clock::now();
            const svc::EpochResult result = population.service->tick();
            const auto stop = std::chrono::steady_clock::now();
            if (!result.envyFreeness.satisfied ||
                !result.sharingIncentives.satisfied) {
                std::fprintf(stderr, "N=%zu cohorts=%zu: SI/EF violated\n",
                             population.agents, population.cohorts);
                return 1;
            }
            population.tickNs.push_back(static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    stop - start)
                    .count()));
            population.rowsScanned.push_back(
                result.envyWork.rowsScanned);
            for (std::size_t k = 0; k < std::size(kPhases); ++k)
                population.phaseNs[k].push_back(static_cast<double>(
                    (result.phases.*kPhases[k].field).count()));
        }
    }

    std::printf("%8s %8s %8s %12s %12s %12s %14s %14s", "agents",
                "cohorts", "ticks", "mean_ms", "p50_ms", "p99_ms",
                "rows_scan_p50", "rows_scan_max");
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
        const double p50 = percentile(population.tickNs, 0.50);
        const double p99 = percentile(population.tickNs, 0.99);
        std::printf("%8zu %8zu %8zu %12.3f %12.3f %12.3f %14zu %14zu",
                    population.agents, population.cohorts, kTicks,
                    mean / 1e6,
                    p50 / 1e6, p99 / 1e6,
                    percentile(population.rowsScanned, 0.50),
                    *std::max_element(population.rowsScanned.begin(),
                                      population.rowsScanned.end()));
        std::vector<double> phaseP50(std::size(kPhases));
        for (std::size_t k = 0; k < std::size(kPhases); ++k) {
            phaseP50[k] = percentile(population.phaseNs[k], 0.50);
            std::printf(" %12.1f", phaseP50[k] / 1e3);
        }
        std::printf("\n");
        json << "  {\n"
             << "    \"name\": \"flat_tick_"
             << (population.cohorts > 0 ? "cohorts_" : "") << "N"
             << population.agents << "\",\n"
             << "    \"wall_ns\": " << static_cast<std::uint64_t>(mean)
             << ",\n"
             << "    \"iterations\": " << kTicks << ",\n"
             << "    \"agents\": " << population.agents << ",\n"
             << "    \"cohorts\": " << population.cohorts << ",\n"
             << "    \"tick_p50_ns\": "
             << static_cast<std::uint64_t>(p50) << ",\n"
             << "    \"tick_p99_ns\": "
             << static_cast<std::uint64_t>(p99);
        for (std::size_t k = 0; k < std::size(kPhases); ++k)
            json << ",\n    \"phase_" << kPhases[k].name
                 << "_p50_ns\": "
                 << static_cast<std::uint64_t>(phaseP50[k]);
        json << "\n"
             << "  }" << (p + 1 < populations.size() ? "," : "")
             << "\n";
    }
    json << "]\n";

    if (!outPath.empty()) {
        std::ofstream out(outPath);
        out << json.str();
        if (!out) {
            std::fprintf(stderr, "bench_flat_tick: cannot write %s\n",
                         outPath.c_str());
            return 1;
        }
    }
    return 0;
}
