/**
 * @file
 * refbench: the service benchmark's client.
 *
 *   refbench drive  --workload W --seed S --seconds T --port P
 *                   --server-pid PID [--setup-only 1] [--rtt-out F]
 *   refbench stats  --port P
 *   refbench trace  --workload W --seed S --sent N0[,N1] --rtt F
 *                   --work DIR [--spans-out F]
 *   refbench replay --workload W --seed S --sent N0[,N1] --port P
 *   refbench server-args --workload W [--durable 1]
 *   refbench gen    --workload W --seed S --count N
 *
 * perfbench/run.py starts the servers and calls these; see
 * perfbench/README.md.
 */

#include <iostream>

#include "client.hh"
#include "workload.hh"

namespace {

int
runServerArgs(const refbench::Flags &flags)
{
    for (const std::string &arg :
         refbench::serverArgs(refbench::findWorkload(flags.get("workload")),
                              flags.get("durable") == "1"))
        std::cout << arg << "\n";
    return 0;
}

/** Preload, then the first --count commands of each connection. */
int
runGen(const refbench::Flags &flags)
{
    const refbench::WorkloadSpec &spec =
        refbench::findWorkload(flags.get("workload"));
    const std::uint64_t seed = flags.number("seed", 1);
    for (const std::string &line : refbench::preloadLines(spec, seed))
        std::cout << line << "\n";
    for (std::size_t c = 0; c < spec.connections; ++c) {
        refbench::Stream stream(spec, seed, c);
        for (std::uint64_t i = 0; i < flags.number("count", 100); ++i)
            std::cout << c << " " << stream.next().line << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: refbench drive|stats|replay|trace|server-args|gen "
                     "--flag value ...\n";
        return 2;
    }
    try {
        const std::string command = argv[1];
        const refbench::Flags flags(argc, argv, 2);
        if (command == "drive")
            return refbench::runDrive(flags);
        if (command == "stats")
            return refbench::runStats(flags);
        if (command == "replay")
            return refbench::runReplay(flags);
        if (command == "trace")
            return refbench::runTrace(flags);
        if (command == "server-args")
            return runServerArgs(flags);
        if (command == "gen")
            return runGen(flags);
        std::cerr << "unknown subcommand '" << command << "'\n";
        return 2;
    } catch (const std::exception &error) {
        std::cerr << "refbench: " << error.what() << "\n";
        return 1;
    }
}
