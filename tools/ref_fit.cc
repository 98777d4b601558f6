/**
 * @file
 * Command-line fitter: read a performance profile CSV (columns
 * x0,...,performance), fit a Cobb-Douglas utility by log-linear
 * least squares (paper Eq. 16), and print the elasticities and fit
 * diagnostics. With --append NAME the output row can be
 * concatenated into a ref_allocate agents file.
 *
 * With --workload NAME the profile is produced in-process on the
 * bundled simulator (the parallel sweep engine; see --jobs) instead
 * of being read from a file.
 *
 * Usage:
 *   ref_fit --profile profile.csv [--append NAME]
 *   ref_fit --workload dedup [--ops N] [--jobs N] [--append NAME]
 *   ref_profile --workload dedup | ref_fit --profile -
 */

#include <fstream>
#include <iostream>
#include <string>

#include "core/fitting.hh"
#include "core/profile_io.hh"
#include "sim/profiler.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace {

[[noreturn]] void
usage(const char *argv0, const std::string &error = "")
{
    if (!error.empty())
        std::cerr << "error: " << error << "\n\n";
    std::cerr << "usage: " << argv0
              << " --profile FILE [--append NAME]\n"
                 "       "
              << argv0
              << " --workload NAME [--ops N] [--jobs N] "
                 "[--append NAME]\n\n"
                 "Fits a Cobb-Douglas utility to a profile CSV\n"
                 "(columns x0,...,performance), or profiles a\n"
                 "cataloged workload in-process (--workload; --jobs\n"
                 "fans the sweep over worker threads, default\n"
                 "REF_JOBS else all hardware threads). With\n"
                 "--append NAME, prints one agents-CSV row instead\n"
                 "of a report.\n";
    std::exit(2);
}

[[noreturn]] void
rejectCount(const char *argv0, const std::string &arg,
            const std::string &value)
{
    usage(argv0, arg + " needs a non-negative integer, got '" +
                     value + "'");
}

std::size_t
parseCount(const char *argv0, const std::string &arg,
           const std::string &value)
{
    try {
        std::size_t consumed = 0;
        const auto parsed = std::stoull(value, &consumed);
        if (consumed != value.size())
            rejectCount(argv0, arg, value);
        return static_cast<std::size_t>(parsed);
    } catch (const std::logic_error &) {
        rejectCount(argv0, arg, value);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ref;

    std::string profile_path;
    std::string workload_name;
    std::string append_name;
    std::size_t ops = 80000;
    std::size_t jobs = 0;  // 0: REF_JOBS, else hardware threads.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0], "missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--profile") {
            profile_path = next();
        } else if (arg == "--workload") {
            workload_name = next();
        } else if (arg == "--ops") {
            ops = parseCount(argv[0], arg, next());
        } else if (arg == "--jobs") {
            jobs = parseCount(argv[0], arg, next());
            if (jobs == 0)
                usage(argv[0], "--jobs must be positive");
        } else if (arg == "--append") {
            append_name = next();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            usage(argv[0], "unknown argument " + arg);
        }
    }
    if (profile_path.empty() == workload_name.empty())
        usage(argv[0],
              "exactly one of --profile and --workload is required");

    try {
        core::PerformanceProfile profile;
        if (!workload_name.empty()) {
            const sim::Profiler profiler(
                sim::PlatformConfig::table1(), ops, {.jobs = jobs});
            profile = sim::Profiler::toPerformanceProfile(
                profiler.sweep(sim::workloadByName(workload_name)));
        } else if (profile_path == "-") {
            profile = core::readProfileCsv(std::cin);
        } else {
            std::ifstream profile_file(profile_path);
            REF_REQUIRE(profile_file.good(),
                        "cannot open '" << profile_path << "'");
            profile = core::readProfileCsv(profile_file);
        }
        const auto fit = core::fitCobbDouglas(profile);

        if (!append_name.empty()) {
            // One agents-CSV row: name,scale,alpha0,...
            std::cout << append_name << "," << fit.utility.scale();
            for (std::size_t r = 0; r < fit.utility.resources(); ++r)
                std::cout << "," << fit.utility.elasticity(r);
            std::cout << "\n";
            return 0;
        }

        std::cout << "samples:           " << profile.size() << "\n"
                  << "scale (a0):        "
                  << formatFixed(fit.utility.scale(), 5) << "\n";
        const auto rescaled = fit.utility.rescaled();
        Table table({"resource", "elasticity", "re-scaled"});
        for (std::size_t r = 0; r < fit.utility.resources(); ++r) {
            // Appended, not "x" + ...: GCC 12's -Wrestrict misfires on
            // a one-character literal plus a string at -O3.
            std::string resource(1, 'x');
            resource += std::to_string(r);
            table.addRow({std::move(resource),
                          formatFixed(fit.utility.elasticity(r), 5),
                          formatFixed(rescaled.elasticity(r), 5)});
        }
        table.print(std::cout);
        std::cout << "R^2 (log fit):     "
                  << formatFixed(fit.rSquaredLog, 4) << "\n"
                  << "R^2 (raw scale):   "
                  << formatFixed(fit.rSquaredLinear, 4) << "\n";
        if (fit.clampedElasticities > 0) {
            std::cout << "warning: " << fit.clampedElasticities
                      << " elasticity(ies) clamped to the positivity "
                         "floor\n";
        }
        return 0;
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }
}
