/**
 * @file
 * Strategic-client fleet driver: quantify strategy-proofness at
 * finite N against a live ref_serve.
 *
 * For each population size N in --sweep (or the single --agents), a
 * fleet (src/adv/fleet.hh) admits N seeded agents, labels the first
 * --liars as cohort "liar", plays best-response re-report rounds to
 * a fix-point, and emits one BENCH-schema JSON record per step on
 * stdout:
 *
 *   {"name": "strategy/n<N>_k<K>", "wall_ns": <ticks>,
 *    "iterations": <commands>, "agents": N, "liars": K,
 *    "rounds": ..., "converged": 0|1, "gain_ratio": ...,
 *    "mean_gain_ratio": ..., "report_deviation": ...,
 *    "utilization_loss": ..., "honest_si_margin": ...,
 *    "honest_ef_margin": ..., "liar_si_margin": ...}
 *
 * Determinism contract: stdout is a pure function of the arguments.
 * wall_ns is NOT wall-clock — it is the deterministic epoch count
 * the dynamics consumed (baseline tick + one per re-report round),
 * so the regression gate tracks convergence cost, and the same seed
 * produces byte-identical stdout run after run against one server
 * (scripts/adversary_determinism.sh asserts exactly that). Real
 * timings go to stderr only.
 *
 * The fleet departs its agents after each step, so one long-lived
 * server hosts the whole sweep; only the epoch counter carries over,
 * and allocations depend only on the live population.
 *
 * Usage:
 *   ref_adversary --connect ADDR:PORT [--agents N]
 *                 [--liars K] [--epochs E] [--seed S] [--tol T]
 *                 [--capacity C0,C1,...] [--sweep N1,N2,...]
 *                 [--tag STR]
 */

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "adv/fleet.hh"
#include "svc/protocol.hh"
#include "util/logging.hh"

namespace {

using namespace ref;
using svc::formatDouble;

struct CliOptions
{
    std::string connect;
    std::size_t agents = 8;
    std::size_t liars = 1;
    std::uint64_t epochs = 16;
    std::uint64_t seed = 42;
    double tolerance = 1e-9;
    linalg::Vector capacities = {24.0, 12.0};
    std::vector<std::size_t> sweep;  //!< Empty: single --agents run.
    std::string tag;  //!< Optional record-name suffix ("_<tag>").
};

[[noreturn]] void
usage(const char *argv0, const std::string &error = "")
{
    if (!error.empty())
        std::cerr << "error: " << error << "\n\n";
    std::cerr
        << "usage: " << argv0
        << " --connect ADDR:PORT [--agents N]\n"
           "          [--liars K] [--epochs E] [--seed S] [--tol T]\n"
           "          [--capacity C0,C1,...] [--sweep N1,N2,...]\n"
           "          [--tag STR]\n\n"
           "Adversarial fleet for ref_serve: N seeded agents, the\n"
           "first K strategic (client-side best response + UPDATE\n"
           "re-reports each epoch until fix-point, at most E rounds),\n"
           "the rest honest. Emits one BENCH-schema JSON record per\n"
           "population size on stdout with the liars' gain-from-lying\n"
           "ratio, the utilization loss vs all-truthful, and the\n"
           "honest cohort's SI/EF margins from the labelled fairness\n"
           "telemetry. stdout is deterministic in the arguments:\n"
           "wall_ns counts epochs consumed, never wall-clock.\n";
    std::exit(2);
}

std::uint64_t
parseCount(const char *argv0, const std::string &arg,
           const std::string &value)
{
    try {
        std::size_t consumed = 0;
        const long long parsed = std::stoll(value, &consumed);
        if (consumed != value.size() || parsed < 0)
            usage(argv0, arg + " needs a non-negative integer, got '"
                             + value + "'");
        return static_cast<std::uint64_t>(parsed);
    } catch (const std::logic_error &) {
        usage(argv0, arg + " needs a non-negative integer, got '" +
                         value + "'");
    }
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0], "missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--connect") {
            options.connect = next();
        } else if (arg == "--agents") {
            options.agents = static_cast<std::size_t>(
                parseCount(argv[0], arg, next()));
        } else if (arg == "--liars") {
            options.liars = static_cast<std::size_t>(
                parseCount(argv[0], arg, next()));
        } else if (arg == "--epochs") {
            options.epochs = parseCount(argv[0], arg, next());
            if (options.epochs == 0)
                usage(argv[0], "--epochs must be positive");
        } else if (arg == "--seed") {
            options.seed = parseCount(argv[0], arg, next());
        } else if (arg == "--tol") {
            try {
                options.tolerance = std::stod(next());
            } catch (const std::logic_error &) {
                usage(argv[0], "--tol needs a number");
            }
            if (options.tolerance <= 0)
                usage(argv[0], "--tol must be positive");
        } else if (arg == "--capacity") {
            options.capacities.clear();
            std::stringstream stream(next());
            std::string cell;
            while (std::getline(stream, cell, ',')) {
                try {
                    options.capacities.push_back(std::stod(cell));
                } catch (const std::logic_error &) {
                    usage(argv[0],
                          "--capacity wants comma-separated numbers");
                }
            }
            if (options.capacities.empty())
                usage(argv[0],
                      "--capacity wants comma-separated numbers");
        } else if (arg == "--sweep") {
            std::stringstream stream(next());
            std::string cell;
            while (std::getline(stream, cell, ','))
                options.sweep.push_back(static_cast<std::size_t>(
                    parseCount(argv[0], arg, cell)));
            if (options.sweep.empty())
                usage(argv[0], "--sweep wants comma-separated sizes");
        } else if (arg == "--tag") {
            options.tag = next();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            usage(argv[0], "unknown argument " + arg);
        }
    }
    if (options.connect.empty())
        usage(argv[0], "--connect is required");
    return options;
}

void
printRecord(const CliOptions &cli, const adv::FleetReport &report)
{
    std::ostringstream record;
    record << "{\"name\": \"strategy/n" << report.agents << "_k"
           << report.liars << (cli.tag.empty() ? "" : "_" + cli.tag)
           << "\""
           // Deterministic "cost": epochs consumed (baseline tick +
           // one per round), never wall-clock — see file comment.
           << ", \"wall_ns\": " << (report.rounds + 1)
           << ", \"iterations\": " << report.commands
           << ", \"agents\": " << report.agents
           << ", \"liars\": " << report.liars
           << ", \"rounds\": " << report.rounds
           << ", \"converged\": " << (report.converged ? 1 : 0)
           << ", \"gain_ratio\": " << formatDouble(report.gainRatio)
           << ", \"mean_gain_ratio\": "
           << formatDouble(report.meanGainRatio)
           << ", \"report_deviation\": "
           << formatDouble(report.reportDeviation)
           << ", \"utilization_loss\": "
           << formatDouble(report.utilizationLoss)
           << ", \"honest_si_margin\": "
           << formatDouble(report.honestSiMargin)
           << ", \"honest_ef_margin\": "
           << formatDouble(report.honestEfMargin)
           << ", \"liar_si_margin\": "
           << formatDouble(report.liarSiMargin) << "}";
    std::cout << record.str() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);
    std::vector<std::size_t> sizes = cli.sweep;
    if (sizes.empty())
        sizes.push_back(cli.agents);

    try {
        for (const std::size_t population : sizes) {
            adv::FleetOptions options;
            options.connect = cli.connect;
            options.agents = population;
            options.liars = std::min(cli.liars, population);
            options.maxRounds = cli.epochs;
            options.seed = cli.seed;
            options.tolerance = cli.tolerance;
            options.capacity =
                core::SystemCapacity::fromCapacities(cli.capacities);

            const auto start = std::chrono::steady_clock::now();
            const adv::FleetReport report = adv::runFleet(options);
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start);

            printRecord(cli, report);
            std::cerr << "ref_adversary: n=" << report.agents
                      << " k=" << report.liars
                      << " rounds=" << report.rounds
                      << (report.converged ? " (fix-point)"
                                           : " (round cap)")
                      << " gain=" << report.gainRatio
                      << " honest_si=" << report.honestSiMargin
                      << " in " << elapsed.count() << " ms\n";
        }
    } catch (const FatalError &error) {
        std::cerr << "ref_adversary: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
