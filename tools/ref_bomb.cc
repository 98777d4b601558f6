/**
 * @file
 * Deterministic socket load generator for ref_serve.
 *
 * Drives N concurrent TCP connections at a running ref_serve with a
 * seeded, reproducible stream of protocol command lines, closed- or
 * open-loop — and reports throughput plus p50/p90/p99 request
 * latency as one BENCH-schema JSON record on stdout:
 *
 *   {"name": ..., "wall_ns": <ns per op>, "iterations": <ops>,
 *    "ops_per_sec": ..., "p50_ns": ..., "p90_ns": ..., "p99_ns": ...}
 *
 * the same shape scripts/export_bench_timings.py emits for the
 * google-benchmark suites, so CI tracks socket throughput in the
 * same BENCH_*.json trail as every other perf number.
 *
 * Usage:
 *   ref_bomb --connect ADDR:PORT [--connections N]
 *            [--ops N] [--seed S] [--mode closed|open] [--window W]
 *            [--rate OPS_PER_SEC] [--mix A:U:D:T:Q] [--name NAME]
 *            [--pools N] [--pool-skew uniform|zipf] [--preload K]
 *
 * Pooled runs (--pools N, against ref_serve --pooled): an untimed
 * prologue per connection first issues idempotent POOL CREATE p0..p<N-1>
 * (racing connections converge by design) and --preload K pipelined
 * ADMIT+ASSIGN pairs, so the measured window starts on a populated
 * tree. Every connection finishes its prologue before any starts
 * timing, and the wall clock behind ops_per_sec starts then too: a
 * measured op never queues behind another connection's preload.
 * In the measured mix every ADMIT is followed by a POOL ASSIGN into
 * a pool drawn uniformly or Zipf(1)-skewed (seeded, per
 * connection). TICK replies are additionally timed on their own:
 * the BENCH record carries tick_p50_ns/tick_p99_ns plus the final
 * live-agent count and the pool count, which is what the pool-scale
 * bench gates on (TICK latency bounded while the population grows).
 *
 * Determinism: connection c's command stream is a pure function of
 * (seed, c) — agent names are connection-local ("b<c>_<k>") so runs
 * against a fresh server visit the same states regardless of how the
 * kernel interleaves connections. The mix weights choose between
 * ADMIT : UPDATE : DEPART : TICK : QUERY <name>, all single-reply
 * commands, so closed-loop accounting is exact: one request unit in,
 * one reply line out.
 *
 * Each connection is one adv::ServiceClient, so commands reach the
 * server as svc::formatCommand spells them, doubles bit for bit as
 * drawn.
 *
 * Closed loop (--mode closed): each connection keeps --window
 * requests outstanding and sends the next only after a reply, so
 * measured latency includes queueing behind at most W-1 siblings.
 * Open loop (--mode open): a sender thread per connection paces
 * requests at --rate/connections per second off an absolute schedule
 * (no coordinated omission: a slow server makes latencies grow, not
 * the schedule slip), while the receiver thread times replies;
 * outstanding requests are capped at 4096 to bound memory, and any
 * pacing stall is reported on stderr.
 *
 * ref_bomb never sends SHUTDOWN — the server outlives the run so a
 * bench script can interleave several configurations against one
 * process (scripts/bench_socket.sh does exactly that).
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iostream>
#include <latch>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adv/socket_client.hh"
#include "svc/protocol.hh"
#include "util/logging.hh"

namespace {

using namespace ref;
using Clock = std::chrono::steady_clock;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

struct CliOptions
{
    std::string connect;       //!< "addr:port", required.
    std::string name = "socket";
    std::size_t connections = 4;
    std::uint64_t ops = 2000;  //!< Per connection.
    std::uint64_t seed = 42;
    bool openLoop = false;
    std::size_t window = 8;    //!< Closed-loop outstanding cap.
    double rate = 5000.0;      //!< Open-loop total ops/sec.
    /** ADMIT : UPDATE : DEPART : TICK : QUERY weights. */
    std::array<std::uint32_t, 5> mix = {3, 3, 1, 2, 3};
    /**
     * Per-connection live-agent cap. An admit-heavy mix would
     * otherwise grow the population without bound over a long run,
     * and each TICK's epoch solve scales with live agents — the run
     * would measure solver growth, not transport. At the cap an
     * ADMIT pick degrades to DEPART (mirror of the empty-set rule,
     * equally deterministic). Preloaded agents are exempt: they are
     * the population under test, not mix-generated churn.
     */
    std::size_t maxLive = 64;
    /** Pools to create and assign into; 0 = flat (no POOL ops). */
    std::size_t pools = 0;
    /** Zipf(1)-skew pool choice instead of uniform. */
    bool zipfSkew = false;
    /** Untimed ADMIT(+ASSIGN) pairs per connection before timing. */
    std::uint64_t preload = 0;
    /**
     * Tolerate one mid-run server loss per connection: reconnect —
     * to --failover-to if given, else the same address — probe with
     * untimed TICKs until the peer accepts writes (a warm standby
     * refuses them until PROMOTE), and finish the run there. The
     * requests in flight at the loss are not retried; their effects
     * may or may not have replicated, so later commands touching
     * those agents can draw ERRs (counted, never fatal). Closed
     * loop only.
     */
    bool expectFailover = false;
    std::string failoverTo;  //!< Standby addr:port for the retry.
};

[[noreturn]] void
usage(const char *argv0, const std::string &error = "")
{
    if (!error.empty())
        std::cerr << "error: " << error << "\n\n";
    std::cerr
        << "usage: " << argv0
        << " --connect ADDR:PORT [--connections N]\n"
           "          [--ops N] [--seed S] [--mode closed|open]\n"
           "          [--window W] [--rate OPS_PER_SEC]\n"
           "          [--mix A:U:D:T:Q] [--max-live N]\n"
           "          [--pools N] [--pool-skew uniform|zipf]\n"
           "          [--preload K] [--name NAME]\n"
           "          [--expect-failover] [--failover-to ADDR:PORT]\n\n"
           "Seeded load generator for ref_serve's socket front-end:\n"
           "N connections send a deterministic ADMIT/UPDATE/DEPART/\n"
           "TICK/QUERY line stream, closed-loop with --window\n"
           "outstanding or open-loop paced at --rate ops/sec\n"
           "total, and print one BENCH-schema JSON record\n"
           "(throughput + p50/p90/p99 latency, plus TICK-only\n"
           "percentiles) on stdout.\n"
           "--pools N targets a pooled server: an untimed prologue\n"
           "creates p0..p<N-1> and preloads --preload agents per\n"
           "connection, then every measured ADMIT pairs with a POOL\n"
           "ASSIGN into a uniform or Zipf(1)-skewed pool.\n"
           "--expect-failover tolerates one server loss per\n"
           "connection (closed loop only): reconnect to\n"
           "--failover-to (default: the same address), probe with\n"
           "untimed TICKs until writes are accepted, continue, and\n"
           "report the write-outage gap on stderr.\n";
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
        } else if (arg == "--name") {
            options.name = next();
        } else if (arg == "--connections") {
            options.connections = static_cast<std::size_t>(
                parseCount(argv[0], arg, next()));
            if (options.connections == 0)
                usage(argv[0], "--connections must be positive");
        } else if (arg == "--ops") {
            options.ops = parseCount(argv[0], arg, next());
            if (options.ops == 0)
                usage(argv[0], "--ops must be positive");
        } else if (arg == "--seed") {
            options.seed = parseCount(argv[0], arg, next());
        } else if (arg == "--mode") {
            const std::string mode = next();
            if (mode == "closed")
                options.openLoop = false;
            else if (mode == "open")
                options.openLoop = true;
            else
                usage(argv[0],
                      "--mode wants closed or open, got '" + mode +
                          "'");
        } else if (arg == "--window") {
            options.window = static_cast<std::size_t>(
                parseCount(argv[0], arg, next()));
            if (options.window == 0)
                usage(argv[0], "--window must be positive");
        } else if (arg == "--rate") {
            try {
                options.rate = std::stod(next());
            } catch (const std::logic_error &) {
                usage(argv[0], "--rate needs a number");
            }
            if (options.rate <= 0)
                usage(argv[0], "--rate must be positive");
        } else if (arg == "--mix") {
            const std::string spec = next();
            std::stringstream stream(spec);
            std::string cell;
            std::size_t slot = 0;
            while (std::getline(stream, cell, ':') && slot < 5)
                options.mix[slot++] = static_cast<std::uint32_t>(
                    parseCount(argv[0], arg, cell));
            std::uint32_t total = 0;
            for (const std::uint32_t weight : options.mix)
                total += weight;
            if (slot != 5 || total == 0)
                usage(argv[0],
                      "--mix wants five ':'-separated weights with a "
                      "positive sum, got '" +
                          spec + "'");
        } else if (arg == "--max-live") {
            options.maxLive = static_cast<std::size_t>(
                parseCount(argv[0], arg, next()));
            if (options.maxLive == 0)
                usage(argv[0], "--max-live must be positive");
        } else if (arg == "--pools") {
            options.pools = static_cast<std::size_t>(
                parseCount(argv[0], arg, next()));
        } else if (arg == "--pool-skew") {
            const std::string skew = next();
            if (skew == "uniform")
                options.zipfSkew = false;
            else if (skew == "zipf")
                options.zipfSkew = true;
            else
                usage(argv[0],
                      "--pool-skew wants uniform or zipf, got '" +
                          skew + "'");
        } else if (arg == "--preload") {
            options.preload = parseCount(argv[0], arg, next());
        } else if (arg == "--expect-failover") {
            options.expectFailover = true;
        } else if (arg == "--failover-to") {
            options.failoverTo = next();
            options.expectFailover = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            usage(argv[0], "unknown argument " + arg);
        }
    }
    if (options.connect.empty())
        usage(argv[0], "--connect is required");
    if (options.expectFailover && options.openLoop)
        usage(argv[0],
              "--expect-failover supports closed loop only (open-"
              "loop pacing across an outage measures the schedule, "
              "not the server)");
    return options;
}

/** Deterministic per-connection command stream. */
class CommandStream
{
  public:
    CommandStream(const CliOptions &options, std::size_t conn)
        : options_(options), namePrefix_(1, 'b'),
          rng_(options.seed * 1000003ull + conn)
    {
        namePrefix_ += std::to_string(conn);
        namePrefix_ += '_';
        std::uint32_t total = 0;
        for (const std::uint32_t weight : options.mix)
            total += weight;
        weightTotal_ = total;
        if (options.pools > 0 && options.zipfSkew) {
            // Zipf(1) CDF over p0..p<N-1>: mass(j) ∝ 1/(j+1).
            zipfCdf_.reserve(options.pools);
            double mass = 0.0;
            for (std::size_t j = 0; j < options.pools; ++j) {
                mass += 1.0 / static_cast<double>(j + 1);
                zipfCdf_.push_back(mass);
            }
            for (double &cumulative : zipfCdf_)
                cumulative /= mass;
        }
    }

    /** Untimed session prologue: idempotent POOL CREATEs. Every
     *  connection creates the same pools; the server treats a
     *  same-path same-weight re-create as OK, so racing connections
     *  converge without coordination. */
    std::vector<svc::Command> setupCommands() const
    {
        std::vector<svc::Command> setup;
        setup.reserve(options_.pools);
        for (std::size_t j = 0; j < options_.pools; ++j) {
            svc::Command create;
            create.op = svc::Command::Op::Pool;
            create.poolOp = svc::Command::PoolOp::Create;
            create.poolPath = poolName(j);
            create.poolWeight = 1.0;
            setup.push_back(std::move(create));
        }
        return setup;
    }

    /** Untimed preload: --preload ADMITs (each trailed by its POOL
     *  ASSIGN in pooled runs). The preloaded agents become the floor
     *  population — DEPART never picks them and the --max-live cap
     *  applies on top of them, so a scale run measures TICK against
     *  a stable large tree while churn plays out above it. */
    std::vector<svc::Command> preloadCommands()
    {
        std::vector<svc::Command> commands;
        commands.reserve(options_.preload * 2);
        for (std::uint64_t k = 0; k < options_.preload; ++k) {
            commands.push_back(makeAdmit());
            while (!pending_.empty()) {
                commands.push_back(std::move(pending_.front()));
                pending_.pop_front();
            }
        }
        preloadCount_ = live_.size();
        return commands;
    }

    /** Next command; all ops produce exactly one reply unit. */
    svc::Command next()
    {
        // A paired command (the POOL ASSIGN following an ADMIT)
        // drains before the mix picks again, so the assign lands
        // while its agent is certainly live.
        if (!pending_.empty()) {
            svc::Command command = std::move(pending_.front());
            pending_.pop_front();
            return command;
        }
        svc::Command command;
        std::uint32_t pick = static_cast<std::uint32_t>(
            rng_() % weightTotal_);
        std::size_t op = 0;
        while (pick >= options_.mix[op]) {
            pick -= options_.mix[op];
            ++op;
        }
        // UPDATE/DEPART/QUERY need a live agent; degrade to ADMIT
        // until one exists (deterministic: depends only on the
        // stream so far). Symmetrically, ADMIT degrades to DEPART
        // at the live-agent cap so the population — and with it the
        // epoch-solve cost every TICK pays — stays bounded. The
        // preloaded floor is exempt on both sides: DEPART only picks
        // churn agents, and the cap counts churn agents only.
        if (live_.empty() && (op == 1 || op == 4))
            op = 0;
        else if (op == 2 && live_.size() <= preloadCount_)
            op = 0;
        else if (op == 0 && live_.size() >=
                                options_.maxLive + preloadCount_)
            op = 2;
        switch (op) {
        case 0:
            return makeAdmit();
        case 1:
            command.op = svc::Command::Op::Update;
            command.name = live_[rng_() % live_.size()];
            command.elasticities = {elasticity(), elasticity()};
            break;
        case 2: {
            const std::size_t victim =
                preloadCount_ +
                rng_() % (live_.size() - preloadCount_);
            command.op = svc::Command::Op::Depart;
            command.name = live_[victim];
            live_.erase(live_.begin() +
                        static_cast<std::ptrdiff_t>(victim));
            break;
        }
        case 3:
            command.op = svc::Command::Op::Tick;
            break;
        default:
            command.op = svc::Command::Op::Query;
            command.hasName = true;
            command.name = live_[rng_() % live_.size()];
            break;
        }
        return command;
    }

    /** Live agents at end of run (preload + surviving churn). */
    std::size_t liveCount() const { return live_.size(); }

  private:
    double elasticity()
    {
        // (0, 1) open interval: 0-elasticity rows are rejected.
        return (static_cast<double>(rng_() % 1000) + 1.0) / 1002.0;
    }

    static std::string poolName(std::size_t index)
    {
        // Appended, not "p" + ...: GCC 12's -Wrestrict misfires on a
        // one-character literal plus a string at -O3.
        std::string name(1, 'p');
        name += std::to_string(index);
        return name;
    }

    /** Seeded pool pick: uniform, or Zipf(1) via CDF bisection. */
    std::size_t samplePool()
    {
        if (zipfCdf_.empty())
            return rng_() % options_.pools;
        const double u =
            static_cast<double>(rng_() % 1000000) / 1000000.0;
        const std::size_t index = static_cast<std::size_t>(
            std::lower_bound(zipfCdf_.begin(), zipfCdf_.end(), u) -
            zipfCdf_.begin());
        return std::min(index, options_.pools - 1);
    }

    /** An ADMIT; in pooled runs its POOL ASSIGN queues behind it. */
    svc::Command makeAdmit()
    {
        svc::Command command;
        command.op = svc::Command::Op::Admit;
        command.name = namePrefix_;
        command.name += std::to_string(admitted_++);
        command.elasticities = {elasticity(), elasticity()};
        live_.push_back(command.name);
        if (options_.pools > 0) {
            svc::Command assign;
            assign.op = svc::Command::Op::Pool;
            assign.poolOp = svc::Command::PoolOp::Assign;
            assign.name = command.name;
            assign.poolPath = poolName(samplePool());
            pending_.push_back(std::move(assign));
        }
        return command;
    }

    const CliOptions &options_;
    std::string namePrefix_;  //!< "b<conn>_": agent names' prefix.
    std::mt19937_64 rng_;
    std::uint32_t weightTotal_ = 1;
    std::uint64_t admitted_ = 0;
    std::vector<std::string> live_;
    std::size_t preloadCount_ = 0;
    std::deque<svc::Command> pending_;
    std::vector<double> zipfCdf_;
};

/** One connection's measured results. */
struct ConnResult
{
    std::vector<std::uint64_t> latenciesNs;
    std::vector<std::uint64_t> tickLatenciesNs;
    std::uint64_t errors = 0;   //!< ERR replies (QUERY races etc).
    std::uint64_t stalls = 0;   //!< Open-loop pacing stalls.
    std::size_t liveAtEnd = 0;  //!< Stream's live agents after run.
    std::uint64_t failovers = 0;     //!< Server losses survived.
    std::uint64_t failoverGapNs = 0; //!< Loss to first accepted write.
    bool setUp = false;         //!< Prologue done, at the start gate.
    std::uint64_t timedStartNs = 0;  //!< Gate opened; 0 before.
    bool failed = false;        //!< Connect/IO failure.
};

/** Did this reply line carry an ERR? (Sanity accounting only.) */
bool
replyIsError(const std::string &unit)
{
    return unit.rfind("ERR", 0) == 0;
}

/** Untimed prologue: pool creates plus preload admits, pipelined
 *  with a fixed window and fully drained, then a wait at @p allSetUp
 *  until every connection's prologue is done, so timing starts on an
 *  idle server. Any ERR here is a configuration mistake (e.g.
 *  --pools against a flat server), not load noise — fail loudly. */
void
runSetup(adv::ServiceClient &client, CommandStream &stream,
         std::latch &allSetUp, ConnResult &result)
{
    std::vector<svc::Command> setup = stream.setupCommands();
    {
        std::vector<svc::Command> preload = stream.preloadCommands();
        setup.insert(setup.end(),
                     std::make_move_iterator(preload.begin()),
                     std::make_move_iterator(preload.end()));
    }
    constexpr std::size_t kSetupWindow = 64;
    std::size_t sent = 0;
    std::size_t done = 0;
    while (done < setup.size()) {
        while (sent < setup.size() && sent - done < kSetupWindow)
            client.send(setup[sent++]);
        const std::string unit = client.readReply();
        if (replyIsError(unit))
            REF_FATAL("setup command rejected: " << unit);
        ++done;
    }
    result.setUp = true;
    allSetUp.arrive_and_wait();
    result.timedStartNs = nowNs();
}

void
runClosedLoop(const CliOptions &options, std::size_t conn,
              std::latch &allSetUp, ConnResult &result)
{
    CommandStream stream(options, conn);
    std::string target = options.connect;
    auto client = std::make_unique<adv::ServiceClient>(target);
    runSetup(*client, stream, allSetUp, result);

    result.latenciesNs.reserve(options.ops);
    std::deque<std::pair<std::uint64_t, bool>> sentAt;
    std::uint64_t sent = 0;
    std::uint64_t done = 0;

    // The server went away mid-run: reconnect to the standby and
    // keep going, once. The in-flight window died with the old
    // server (those ops never get replies); the probe loop rides
    // out the promotion gap, during which a warm standby still
    // refuses writes.
    const auto failOver = [&]() -> bool {
        if (!options.expectFailover || result.failovers > 0)
            return false;
        ++result.failovers;
        client.reset();
        sent -= sentAt.size();
        sentAt.clear();
        if (!options.failoverTo.empty())
            target = options.failoverTo;
        const std::uint64_t gapStart = nowNs();
        constexpr std::uint64_t kGiveUpNs = 30'000'000'000ull;
        svc::Command probe;
        probe.op = svc::Command::Op::Tick;
        while (nowNs() - gapStart < kGiveUpNs) {
            try {
                client = std::make_unique<adv::ServiceClient>(target);
                if (!replyIsError(client->roundTrip(probe))) {
                    result.failoverGapNs = nowNs() - gapStart;
                    return true;
                }
            } catch (const std::exception &) {
                // Connect refused / reset: the standby is not
                // serving yet.
            }
            client.reset();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        return false;
    };

    std::string unit;
    while (done < options.ops) {
        try {
            while (sent < options.ops &&
                   sentAt.size() < options.window) {
                const svc::Command command = stream.next();
                sentAt.emplace_back(nowNs(),
                                    command.op ==
                                        svc::Command::Op::Tick);
                client->send(command);
                ++sent;
            }
            unit = client->readReply();
        } catch (const std::exception &) {
            // Send failure or EOF: the server went away.
            if (failOver())
                continue;
            result.failed = true;
            break;
        }
        const std::uint64_t latency = nowNs() - sentAt.front().first;
        result.latenciesNs.push_back(latency);
        if (sentAt.front().second)
            result.tickLatenciesNs.push_back(latency);
        sentAt.pop_front();
        if (replyIsError(unit))
            ++result.errors;
        ++done;
    }
    result.liveAtEnd = stream.liveCount();
}

void
runOpenLoop(const CliOptions &options, std::size_t conn,
            std::latch &allSetUp, ConnResult &result)
{
    adv::ServiceClient client(options.connect);
    CommandStream stream(options, conn);
    runSetup(client, stream, allSetUp, result);

    constexpr std::size_t kMaxOutstanding = 4096;
    std::mutex mutex;
    std::condition_variable spaceFreed;
    std::deque<std::pair<std::uint64_t, bool>> sentAt;
    bool receiverDone = false;  //!< Guarded by mutex.

    const double perConnRate =
        options.rate / static_cast<double>(options.connections);
    const std::uint64_t intervalNs = static_cast<std::uint64_t>(
        1e9 / perConnRate);

    // The sender thread only sends and this thread only reads
    // replies, which ServiceClient allows. A server loss ends both:
    // a failed send stops the sender and the receiver reads EOF.
    std::thread sender([&] {
        const Clock::time_point start = Clock::now();
        for (std::uint64_t k = 0; k < options.ops; ++k) {
            // Absolute schedule: no coordinated omission.
            std::this_thread::sleep_until(
                start + std::chrono::nanoseconds(k * intervalNs));
            const svc::Command command = stream.next();
            {
                std::unique_lock<std::mutex> lock(mutex);
                if (sentAt.size() >= kMaxOutstanding) {
                    ++result.stalls;
                    spaceFreed.wait(lock, [&] {
                        return sentAt.size() < kMaxOutstanding ||
                               receiverDone;
                    });
                }
                if (receiverDone)
                    return;
                sentAt.emplace_back(nowNs(),
                                    command.op ==
                                        svc::Command::Op::Tick);
            }
            try {
                client.send(command);
            } catch (const std::exception &) {
                return;
            }
        }
    });

    result.latenciesNs.reserve(options.ops);
    std::string unit;
    for (std::uint64_t done = 0; done < options.ops; ++done) {
        try {
            unit = client.readReply();
        } catch (const std::exception &) {
            result.failed = true;
            break;
        }
        const std::uint64_t now = nowNs();
        {
            std::lock_guard<std::mutex> lock(mutex);
            const std::uint64_t latency =
                now - sentAt.front().first;
            result.latenciesNs.push_back(latency);
            if (sentAt.front().second)
                result.tickLatenciesNs.push_back(latency);
            sentAt.pop_front();
        }
        spaceFreed.notify_one();
        if (replyIsError(unit))
            ++result.errors;
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        receiverDone = true;
    }
    spaceFreed.notify_one();
    sender.join();
    result.liveAtEnd = stream.liveCount();
}

/** Nearest-rank percentile of a sorted sample. */
std::uint64_t
percentile(const std::vector<std::uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const std::size_t rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(
                                                sorted.size()))));
    return sorted[rank - 1];
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions options = parseArgs(argc, argv);
    try {
        std::vector<ConnResult> results(options.connections);
        std::vector<std::thread> threads;
        threads.reserve(options.connections);

        std::uint64_t startNs = nowNs();
        std::latch allSetUp(
            static_cast<std::ptrdiff_t>(options.connections));
        for (std::size_t c = 0; c < options.connections; ++c) {
            threads.emplace_back([&, c] {
                try {
                    if (options.openLoop)
                        runOpenLoop(options, c, allSetUp, results[c]);
                    else
                        runClosedLoop(options, c, allSetUp,
                                      results[c]);
                } catch (const std::exception &error) {
                    std::cerr << "connection " << c << ": "
                              << error.what() << "\n";
                    results[c].failed = true;
                    // Never strand the others at the start gate.
                    if (!results[c].setUp)
                        allSetUp.count_down();
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
        // The measured window opens when the start gate does.
        for (const ConnResult &result : results)
            if (result.timedStartNs != 0)
                startNs = std::max(startNs, result.timedStartNs);
        const std::uint64_t wallNs =
            std::max<std::uint64_t>(1, nowNs() - startNs);

        std::vector<std::uint64_t> latencies;
        std::vector<std::uint64_t> tickLatencies;
        std::uint64_t errors = 0;
        std::uint64_t stalls = 0;
        std::size_t agents = 0;
        std::uint64_t failovers = 0;
        std::uint64_t failoverGapNs = 0;
        bool failed = false;
        for (const ConnResult &result : results) {
            latencies.insert(latencies.end(),
                             result.latenciesNs.begin(),
                             result.latenciesNs.end());
            tickLatencies.insert(tickLatencies.end(),
                                 result.tickLatenciesNs.begin(),
                                 result.tickLatenciesNs.end());
            errors += result.errors;
            stalls += result.stalls;
            agents += result.liveAtEnd;
            failovers += result.failovers;
            failoverGapNs =
                std::max(failoverGapNs, result.failoverGapNs);
            failed |= result.failed;
        }
        std::sort(latencies.begin(), latencies.end());
        std::sort(tickLatencies.begin(), tickLatencies.end());
        REF_REQUIRE(!latencies.empty(),
                    "no replies measured — is the server up?");

        const std::uint64_t iterations = latencies.size();
        const double opsPerSec = static_cast<double>(iterations) *
                                 1e9 /
                                 static_cast<double>(wallNs);
        std::cerr << "bomb: " << options.connections
                  << " connections, " << iterations << " ops ("
                  << errors << " ERR replies), "
                  << (options.openLoop ? "open" : "closed")
                  << "-loop";
        if (stalls > 0)
            std::cerr << ", " << stalls << " pacing stalls";
        if (failovers > 0)
            // Machine-greppable: the failover soak parses this line
            // for its BENCH failover-time record.
            std::cerr << ", failovers=" << failovers
                      << " failover_gap_ns=" << failoverGapNs;
        std::cerr << "\n";

        std::cout << "{\"name\": \"" << options.name
                  << "\", \"wall_ns\": "
                  << static_cast<double>(wallNs) /
                         static_cast<double>(iterations)
                  << ", \"iterations\": " << iterations
                  << ", \"ops_per_sec\": " << opsPerSec
                  << ", \"p50_ns\": " << percentile(latencies, 0.50)
                  << ", \"p90_ns\": " << percentile(latencies, 0.90)
                  << ", \"p99_ns\": " << percentile(latencies, 0.99)
                  << ", \"agents\": " << agents
                  << ", \"pools\": " << options.pools
                  << ", \"tick_p50_ns\": "
                  << percentile(tickLatencies, 0.50)
                  << ", \"tick_p99_ns\": "
                  << percentile(tickLatencies, 0.99)
                  << "}\n";
        return failed ? 1 : 0;
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 2;
    }
}
