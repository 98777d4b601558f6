/**
 * @file
 * Online allocation server: a long-lived REF runtime driven by a
 * deterministic line protocol on stdin/stdout (svc/protocol.hh), so
 * agent churn, epoch ticks and queries are scriptable from tests and
 * shell pipelines without sockets.
 *
 * Usage:
 *   ref_serve [--capacity C0,C1] [--hysteresis H] [--assoc N]
 *             [--pooled]
 *             [--journal DIR] [--snapshot-every N]
 *             [--fsync-policy every:N|group:BYTES,USEC]
 *             [--selfcheck] [--strict] [--echo] [--file PATH]
 *             [--metrics-out PATH] [--fairness-out PATH]
 *             [--trace-out PATH] [--trace-sample N]
 *             [--listen ADDR:PORT] [--unix PATH]
 *             [--max-clients N] [--idle-timeout MS]
 *             [--write-timeout MS] [--max-line-bytes N]
 *             [--follow HOST:PORT] [--promote-timeout MS]
 *             [--heartbeat-interval MS]
 *
 * Transports: with no --listen/--unix the protocol runs over
 * stdin/stdout exactly as before (stdio stays the default so every
 * script and test pipeline keeps working). --listen and/or --unix
 * switch to the poll-driven socket front-end (net/socket_server.hh):
 * many concurrent clients fan into the one service, each speaking
 * the same line protocol. One event loop on the main thread serves
 * every connection. The bound endpoints
 * are announced once on stderr as a single machine-parseable line:
 *
 *   LISTENING addr=ADDR:PORT unix=PATH
 *
 * (addr / unix appear only for configured endpoints; port 0 picks an
 * ephemeral port, which scripts parse from that line). SHUTDOWN
 * from any client — or SIGTERM — drains and stops the server.
 *
 * Observability: --metrics-out rewrites PATH with the Prometheus
 * exposition of the metrics registry after every TICK command (the
 * METRICS protocol command serves the same registry inline);
 * --fairness-out appends the per-epoch SI/EF-margin CSV rows as they
 * are produced; --trace-out enables span tracing and writes a Chrome
 * trace-event JSON on exit — load it at ui.perfetto.dev.
 * --trace-sample N keeps every Nth span for long soaks.
 *
 * Example session:
 *   printf 'ADMIT user1 0.6 0.4\nADMIT user2 0.2 0.8\nTICK\nQUERY\n' \
 *       | ref_serve --capacity 24,12
 *
 * --selfcheck verifies every epoch's incremental allocation
 * bit-for-bit against a from-scratch recompute; --strict exits
 * non-zero when any command was rejected or any epoch failed a
 * property or self check (soak harnesses run with both).
 *
 * --journal DIR makes every accepted command durable in a
 * CRC32-framed write-ahead log under DIR; a restarted server on the
 * same DIR recovers the registry and epoch state bit-for-bit before
 * reading its first command. SIGINT/SIGTERM flush and fsync the
 * journal, print the final STATS to stderr, and exit cleanly; the
 * SHUTDOWN protocol command does the same from the session itself.
 *
 * The REF_FAILPOINTS environment variable arms fault injection in
 * the journal IO layer (svc/failpoints.hh), e.g.
 * REF_FAILPOINTS='journal.fsync=eio@2x1' — test harnesses use this
 * to exercise degraded mode and crash recovery on a real process.
 *
 * Replication (DESIGN.md "Replication & failover"): a socket-mode
 * server is always a potential primary — any client that sends the
 * line SYNC becomes a warm-standby subscriber and receives the WAL,
 * as CRC32 frames, as it is written. --fsync-policy group:BYTES,USEC batches
 * journal fsyncs (group commit) while the transport's ack-after-
 * durable barrier keeps every reply and every shipped record behind
 * a completed fsync. --follow HOST:PORT starts this server as the
 * standby instead: it syncs a snapshot + WAL tail from the primary,
 * replays every record through the live service code paths
 * (read-only to clients until promoted), cross-checks its state
 * hash on every shipped TICK, and takes over — PROMOTE command or
 * --promote-timeout MS of primary silence — on a fresh journal
 * generation.
 */

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <memory>

#include "net/socket_server.hh"
#include "obs/trace.hh"
#include "repl/follower.hh"
#include "repl/replication_hub.hh"
#include "svc/failpoints.hh"
#include "svc/protocol.hh"
#include "util/logging.hh"

namespace {

using namespace ref;

volatile std::sig_atomic_t gStopRequested = 0;

extern "C" void
handleStopSignal(int)
{
    gStopRequested = 1;
}

/**
 * Install SIGINT/SIGTERM handlers WITHOUT SA_RESTART so a blocking
 * getline on stdin fails with EINTR and the session loop exits,
 * letting main run the flush + final-STATS shutdown path.
 */
void
installSignalHandlers()
{
    struct sigaction action{};
    action.sa_handler = handleStopSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

struct CliOptions
{
    std::string capacityList = "24,12";
    std::string sessionFile;  //!< Empty: read stdin.
    std::string journalDir;   //!< Empty: memory-only.
    std::string metricsOut;   //!< Empty: no exposition file.
    std::string fairnessOut;  //!< Empty: no fairness CSV file.
    std::string traceOut;     //!< Empty: tracing stays disabled.
    std::string listenAddress;  //!< Empty: no TCP listener.
    std::string unixPath;       //!< Empty: no Unix listener.
    std::uint64_t traceSample = 1;
    std::size_t maxClients = 64;
    std::size_t maxLineBytes = 65536;
    int idleTimeoutMs = 30000;
    int writeTimeoutMs = 10000;
    double hysteresis = 0.0;
    std::uint64_t fsyncEvery = 1;
    std::uint64_t groupBytes = 0;
    std::uint64_t groupUsec = 0;
    std::uint64_t snapshotEvery = 1024;
    std::string followAddress;  //!< Empty: not a follower.
    int promoteTimeoutMs = 0;   //!< 0: explicit PROMOTE only.
    int heartbeatIntervalMs = 1000;
    unsigned associativity = 16;
    bool pooled = false;
    bool selfcheck = false;
    bool strict = false;
    bool echo = false;
};

[[noreturn]] void
usage(const char *argv0, const std::string &error = "")
{
    if (!error.empty())
        std::cerr << "error: " << error << "\n\n";
    std::cerr
        << "usage: " << argv0
        << " [--capacity C0,C1] [--hysteresis H] [--assoc N]\n"
           "          [--pooled]\n"
           "          [--journal DIR] [--snapshot-every N]\n"
           "          [--fsync-policy every:N|group:BYTES,USEC]\n"
           "          [--follow HOST:PORT] [--promote-timeout MS]\n"
           "          [--heartbeat-interval MS]\n"
           "          [--selfcheck] [--strict] [--echo] "
           "[--file PATH]\n"
           "          [--metrics-out PATH] [--fairness-out PATH]\n"
           "          [--trace-out PATH] [--trace-sample N]\n"
           "          [--listen ADDR:PORT] [--unix PATH]\n"
           "          [--max-clients N] [--idle-timeout MS]\n"
           "          [--write-timeout MS] [--max-line-bytes N]\n\n"
           "Runs the online REF allocation service over a line\n"
           "protocol on stdin (or PATH): ADMIT/UPDATE/DEPART agents,\n"
           "TICK epochs, QUERY shares, PLAN enforcement, STATS\n"
           "metrics, SHUTDOWN to stop. --journal DIR journals every\n"
           "accepted command to a crash-safe write-ahead log and\n"
           "recovers DIR's state on startup. --selfcheck verifies\n"
           "each epoch's incremental allocation against a\n"
           "from-scratch recompute; --strict exits non-zero on any\n"
           "rejected command or failed check. --metrics-out rewrites\n"
           "PATH with the Prometheus exposition after every TICK;\n"
           "--fairness-out appends per-epoch fairness-margin CSV\n"
           "rows; --trace-out records spans and writes Chrome\n"
           "trace-event JSON on exit (every Nth span with\n"
           "--trace-sample N). --listen/--unix serve the protocol\n"
           "over TCP / Unix-domain sockets to many concurrent\n"
           "clients instead of stdio (port 0 binds an ephemeral\n"
           "port, announced on stderr as 'LISTENING addr=...');\n"
           "--max-clients caps the fan-in of the one event loop,\n"
           "--idle-timeout/--write-timeout drop stuck or\n"
           "slow-reading peers, --max-line-bytes bounds one\n"
           "protocol line. --pooled runs the hierarchical pool\n"
           "tree (POOL CREATE/ASSIGN/QUERY; epochs stay O(changed\n"
           "paths), QUERY answers from the live tree, enforcement\n"
           "off).\n"
           "--fsync-policy group:BYTES,USEC batches journal fsyncs\n"
           "(group commit): a batch commits when it reaches BYTES\n"
           "or its oldest record ages USEC microseconds, and socket\n"
           "replies still wait for durability (ack-after-durable).\n"
           "A socket-mode server ships its WAL to any client that\n"
           "subscribes with a SYNC line; --follow HOST:PORT runs this\n"
           "process as that warm standby instead (read-only until\n"
           "PROMOTE, or automatically after --promote-timeout MS of\n"
           "primary silence); --heartbeat-interval MS paces primary\n"
           "liveness frames to caught-up followers.\n";
    std::exit(2);
}

double
parseNumber(const char *argv0, const std::string &arg,
            const std::string &value)
{
    try {
        std::size_t consumed = 0;
        const double parsed = std::stod(value, &consumed);
        if (consumed != value.size())
            usage(argv0, arg + " needs a number, got '" + value + "'");
        return parsed;
    } catch (const std::logic_error &) {
        usage(argv0, arg + " needs a number, got '" + value + "'");
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
        if (arg == "--capacity") {
            options.capacityList = next();
        } else if (arg == "--file") {
            options.sessionFile = next();
        } else if (arg == "--journal") {
            options.journalDir = next();
        } else if (arg == "--metrics-out") {
            options.metricsOut = next();
        } else if (arg == "--fairness-out") {
            options.fairnessOut = next();
        } else if (arg == "--trace-out") {
            options.traceOut = next();
        } else if (arg == "--listen") {
            options.listenAddress = next();
        } else if (arg == "--unix") {
            options.unixPath = next();
        } else if (arg == "--max-clients") {
            options.maxClients = static_cast<std::size_t>(
                parseNumber(argv[0], arg, next()));
            if (options.maxClients == 0)
                usage(argv[0], "--max-clients must be positive");
        } else if (arg == "--max-line-bytes") {
            options.maxLineBytes = static_cast<std::size_t>(
                parseNumber(argv[0], arg, next()));
        } else if (arg == "--idle-timeout") {
            options.idleTimeoutMs = static_cast<int>(
                parseNumber(argv[0], arg, next()));
        } else if (arg == "--write-timeout") {
            options.writeTimeoutMs = static_cast<int>(
                parseNumber(argv[0], arg, next()));
        } else if (arg == "--trace-sample") {
            options.traceSample = static_cast<std::uint64_t>(
                parseNumber(argv[0], arg, next()));
            if (options.traceSample == 0)
                usage(argv[0], "--trace-sample must be positive");
        } else if (arg == "--fsync-policy") {
            const std::string value = next();
            if (value.rfind("every:", 0) == 0) {
                options.fsyncEvery = static_cast<std::uint64_t>(
                    parseNumber(argv[0], arg, value.substr(6)));
                options.groupBytes = 0;
                options.groupUsec = 0;
            } else if (value.rfind("group:", 0) == 0) {
                const std::string spec = value.substr(6);
                const std::size_t comma = spec.find(',');
                if (comma == std::string::npos)
                    usage(argv[0],
                          "--fsync-policy group wants BYTES,USEC, "
                          "got '" + value + "'");
                options.groupBytes = static_cast<std::uint64_t>(
                    parseNumber(argv[0], arg,
                                spec.substr(0, comma)));
                options.groupUsec = static_cast<std::uint64_t>(
                    parseNumber(argv[0], arg,
                                spec.substr(comma + 1)));
                if (options.groupBytes == 0 &&
                    options.groupUsec == 0)
                    usage(argv[0],
                          "--fsync-policy group needs BYTES or "
                          "USEC > 0");
            } else {
                usage(argv[0],
                      "--fsync-policy wants every:N or "
                      "group:BYTES,USEC, got '" + value + "'");
            }
        } else if (arg == "--follow") {
            options.followAddress = next();
        } else if (arg == "--promote-timeout") {
            options.promoteTimeoutMs = static_cast<int>(
                parseNumber(argv[0], arg, next()));
        } else if (arg == "--heartbeat-interval") {
            options.heartbeatIntervalMs = static_cast<int>(
                parseNumber(argv[0], arg, next()));
        } else if (arg == "--snapshot-every") {
            options.snapshotEvery = static_cast<std::uint64_t>(
                parseNumber(argv[0], arg, next()));
        } else if (arg == "--hysteresis") {
            options.hysteresis = parseNumber(argv[0], arg, next());
        } else if (arg == "--assoc") {
            options.associativity = static_cast<unsigned>(
                parseNumber(argv[0], arg, next()));
        } else if (arg == "--pooled") {
            options.pooled = true;
        } else if (arg == "--selfcheck") {
            options.selfcheck = true;
        } else if (arg == "--strict") {
            options.strict = true;
        } else if (arg == "--echo") {
            options.echo = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            usage(argv[0], "unknown argument " + arg);
        }
    }
    return options;
}

core::SystemCapacity
parseCapacity(const std::string &list)
{
    std::vector<double> capacities;
    std::stringstream stream(list);
    std::string cell;
    while (std::getline(stream, cell, ','))
        capacities.push_back(std::stod(cell));
    return core::SystemCapacity::fromCapacities(capacities);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions options = parseArgs(argc, argv);
    try {
        if (const char *spec = std::getenv("REF_FAILPOINTS"))
            svc::Failpoints::instance().armFromSpec(spec);

        svc::ServiceConfig config;
        config.capacity = parseCapacity(options.capacityList);
        config.epoch.hysteresis = options.hysteresis;
        config.epoch.verifyIncremental = options.selfcheck;
        config.associativity = options.associativity;
        config.buildEnforcement =
            !options.pooled && config.capacity.count() == 2;
        config.pooled = options.pooled;
        config.journal.directory = options.journalDir;
        config.journal.fsyncEvery = options.fsyncEvery;
        config.journal.groupBytes = options.groupBytes;
        config.journal.groupUsec = options.groupUsec;
        config.journal.snapshotEvery = options.snapshotEvery;
        svc::AllocationService service(config);

        if (config.journal.enabled()) {
            const svc::RecoveryInfo &recovery = service.recovery();
            std::cerr << "recovery: outcome="
                      << svc::toString(recovery.outcome)
                      << " generation=" << recovery.generation
                      << " replayed=" << recovery.replayedRecords
                      << " truncated_bytes="
                      << recovery.truncatedBytes
                      << " agents=" << service.liveAgents() << "\n";
        }

        installSignalHandlers();

        if (!options.traceOut.empty())
            obs::Tracer::global().enable(
                obs::Tracer::kDefaultCapacity, options.traceSample);

        svc::SessionOptions session;
        session.echo = options.echo;
        session.stopFlag = &gStopRequested;
        session.metricsOutPath = options.metricsOut;
        session.fairnessOutPath = options.fairnessOut;

        const bool socketMode = !options.listenAddress.empty() ||
                                !options.unixPath.empty();
        if (socketMode && !options.sessionFile.empty())
            usage(argv[0],
                  "--file is a stdio-mode flag; use --listen/--unix "
                  "without it");

        // Warm-standby mode: replay the primary's WAL in the
        // background; the session gate keeps clients read-only
        // until PROMOTE (or the primary-silence timeout) flips us.
        std::unique_ptr<repl::FollowerClient> follower;
        if (!options.followAddress.empty()) {
            repl::FollowerClient::Options followOptions;
            followOptions.address = options.followAddress;
            followOptions.promoteTimeoutMs =
                options.promoteTimeoutMs;
            follower = std::make_unique<repl::FollowerClient>(
                service, followOptions);
            session.follower = follower.get();
            follower->start();
            std::cerr << "FOLLOWING addr=" << options.followAddress
                      << " promote_timeout_ms="
                      << options.promoteTimeoutMs << "\n";
        }

        // Any socket-mode server is a potential replication
        // primary: the hub turns every journaled record into a
        // shippable stream frame, and clients subscribe with a
        // SYNC line. (A follower keeps a hub too — promoting it
        // makes it a primary its old peers can re-follow.)
        std::unique_ptr<repl::ReplicationHub> hub;
        if (socketMode)
            hub = std::make_unique<repl::ReplicationHub>();

        svc::SessionResult result;
        if (socketMode) {
            service.setReplicationSink(hub.get());
            net::ServerOptions server;
            server.listenAddress = options.listenAddress;
            server.unixPath = options.unixPath;
            server.maxClients = options.maxClients;
            server.maxLineBytes = options.maxLineBytes;
            server.idleTimeoutMs = options.idleTimeoutMs;
            server.writeTimeoutMs = options.writeTimeoutMs;
            server.session = session;
            server.replicationHub = hub.get();
            server.heartbeatIntervalMs =
                options.heartbeatIntervalMs;
            net::SocketServer front(service, server);
            front.start();
            // One machine-parseable announcement line; scripts and
            // tests key off the "LISTENING " prefix to learn the
            // ephemeral port.
            std::cerr << "LISTENING";
            if (!options.listenAddress.empty()) {
                const std::string &spec = options.listenAddress;
                std::cerr << " addr="
                          << spec.substr(0, spec.rfind(':')) << ":"
                          << front.tcpPort();
            }
            if (!options.unixPath.empty())
                std::cerr << " unix=" << options.unixPath;
            std::cerr << "\n";
            const net::ServerStats stats = front.run();
            result = stats.protocol;
            result.shutdown = stats.shutdown;
            std::cerr << "server: " << stats.accepted
                      << " accepted, " << stats.dropped
                      << " dropped (" << stats.idleTimeouts
                      << " idle, " << stats.writeTimeouts
                      << " write-timeout, " << stats.acceptRejects
                      << " full), " << stats.bytesIn << " bytes in, "
                      << stats.bytesOut << " bytes out, "
                      << stats.overlongLines << " overlong lines, "
                      << stats.replicas << " replicas ("
                      << stats.badFrames << " dropped off-protocol)\n";
            service.setReplicationSink(nullptr);
        } else if (options.sessionFile.empty()) {
            result = svc::runSession(service, std::cin, std::cout,
                                     session);
        } else {
            std::ifstream file(options.sessionFile);
            REF_REQUIRE(file.good(), "cannot open '"
                                         << options.sessionFile
                                         << "'");
            result = svc::runSession(service, file, std::cout,
                                     session);
        }

        if (follower)
            follower->stop();

        // S2 drain order: flush any in-flight group-commit batch
        // BEFORE the final STATS print, so the journal counters in
        // the log describe a fully durable WAL (journal_pending=0).
        service.syncJournal();

        if (!options.traceOut.empty()) {
            obs::Tracer &tracer = obs::Tracer::global();
            tracer.disable();
            std::ofstream trace(options.traceOut);
            if (trace.good()) {
                tracer.writeChromeTrace(trace);
                const obs::TracerStats stats = tracer.stats();
                std::cerr << "trace: " << stats.recorded
                          << " spans -> " << options.traceOut
                          << " (sample_every=" << stats.sampleEvery
                          << " overwritten=" << stats.overwritten
                          << ")\n";
            } else {
                REF_WARN("cannot write trace to '"
                         << options.traceOut << "'");
            }
        }

        std::cerr << "session: " << result.commands << " commands, "
                  << result.errors << " rejected, "
                  << result.epochFailures << " epoch check failures";
        if (result.shutdown || gStopRequested)
            std::cerr << " (shutdown)";
        std::cerr << "\n";
        if (gStopRequested) {
            // Signal path: the operator can't send STATS any more,
            // so print the final counters where logs will have them.
            std::cerr << "final stats:\n";
            svc::printMetrics(std::cerr, service.metrics());
        }
        return options.strict && !result.clean() ? 1 : 0;
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }
}
