#include "protocol.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace ref::svc {

std::string
formatDouble(double value)
{
    char buffer[32];
    const auto [end, ec] = std::to_chars(
        buffer, buffer + sizeof(buffer), value);
    REF_ASSERT(ec == std::errc(), "to_chars failed");
    return std::string(buffer, end);
}

namespace {

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream stream(line);
    std::string token;
    while (stream >> token)
        tokens.push_back(token);
    return tokens;
}

/**
 * Parse one numeric token. Unparseable text (including trailing
 * junk) and values that are not finite doubles — literal "inf"/"nan"
 * as well as decimals like 1e999 that overflow std::stod — are
 * protocol errors; finite VALUES are still validated by the pool tree
 * so that zero/negative produce the tree's uniform diagnostics.
 */
double
parseNumber(const std::string &token)
{
    try {
        std::size_t consumed = 0;
        const double value = std::stod(token, &consumed);
        REF_REQUIRE(consumed == token.size(),
                    "'" << token << "' is not a number");
        REF_REQUIRE(std::isfinite(value),
                    "'" << token << "' is not a finite number");
        return value;
    } catch (const std::out_of_range &) {
        // The token is numeric but overflows a double (e.g. 1e999):
        // same rejection as a parsed-to-inf value.
        REF_FATAL("'" << token << "' is not a finite number");
    } catch (const std::logic_error &) {
        REF_FATAL("'" << token << "' is not a number");
    }
}

/** A SYNC cursor: stream ids use all 64 bits, which a double
 *  cannot carry, so this parses the exact unsigned integer. */
std::uint64_t
parseCursor(const std::string &token)
{
    std::uint64_t value = 0;
    const char *end = token.data() + token.size();
    const auto [stop, ec] = std::from_chars(token.data(), end, value);
    REF_REQUIRE(ec == std::errc() && stop == end,
                "SYNC arguments must be non-negative integers, got '"
                    << token << "'");
    return value;
}

linalg::Vector
parseElasticities(const std::vector<std::string> &tokens,
                  std::size_t first)
{
    linalg::Vector elasticities;
    for (std::size_t i = first; i < tokens.size(); ++i)
        elasticities.push_back(parseNumber(tokens[i]));
    return elasticities;
}

void
printEpoch(std::ostream &out, const EpochResult &result)
{
    out << "EPOCH " << result.epoch
        << " agents=" << result.liveAgents;
    if (result.pooled)
        out << " pools=" << result.pools;
    out << " enforce=" << (result.enforcementChanged ? "update"
                                                     : "hold");
    if (result.propertiesChecked) {
        out << " si=" << (result.sharingIncentives.satisfied
                              ? "ok" : "VIOLATED")
            << " ef=" << (result.envyFreeness.satisfied ? "ok"
                                                        : "VIOLATED");
    }
    out << " selfcheck="
        << (result.incrementalMatchesScratch ? "ok" : "FAIL") << "\n";
}

void
printShares(std::ostream &out, const ServiceSnapshot &snapshot,
            std::size_t row)
{
    out << "SHARE " << snapshot.agents[row];
    for (std::size_t r = 0; r < snapshot.allocation.resources(); ++r)
        out << " " << formatDouble(snapshot.allocation.at(row, r));
    out << "\n";
}

void
printPool(std::ostream &out, AllocationService &service,
          const pool::PoolView &view)
{
    const linalg::Vector fractions =
        service.poolShareFractions(view.path);
    out << "POOL " << view.path
        << " weight=" << formatDouble(view.weight)
        << " agents=" << view.agents;
    out << " share=";
    for (std::size_t r = 0; r < fractions.size(); ++r) {
        if (r > 0)
            out << ",";
        out << formatDouble(fractions[r]);
    }
    out << "\n";
}

void
printPlan(std::ostream &out, const EnforcementPlan &plan)
{
    if (plan.empty()) {
        out << "PLAN epoch=" << plan.epoch << " empty\n";
        return;
    }
    out << "PLAN epoch=" << plan.epoch
        << " agents=" << plan.agents.size() << " cache="
        << (plan.hasPartition ? "way-partition" : "shared-lru")
        << "\n";
    for (std::size_t i = 0; i < plan.agents.size(); ++i) {
        out << "ENFORCE " << plan.agents[i]
            << " wfq_weight=" << formatDouble(plan.wfqWeights[i]);
        if (plan.hasPartition) {
            out << " ways=" << plan.partition.ways[i]
                << " realized="
                << formatDouble(plan.partition.realizedFractions[i]);
        }
        out << "\n";
    }
    if (!plan.hasPartition && !plan.partitionNote.empty())
        out << "NOTE " << plan.partitionNote << "\n";
}

/** Static-lifetime span name for one command (Span keeps the
 *  pointer, so these must be literals). */
const char *
commandSpanName(Command::Op op)
{
    switch (op) {
    case Command::Op::Admit:
        return "cmd.admit";
    case Command::Op::Update:
        return "cmd.update";
    case Command::Op::Depart:
        return "cmd.depart";
    case Command::Op::Tick:
        return "cmd.tick";
    case Command::Op::Query:
        return "cmd.query";
    case Command::Op::Plan:
        return "cmd.plan";
    case Command::Op::Stats:
        return "cmd.stats";
    case Command::Op::Metrics:
        return "cmd.metrics";
    case Command::Op::Shutdown:
        return "cmd.shutdown";
    case Command::Op::Pool:
        return "cmd.pool";
    case Command::Op::Sync:
        return "cmd.sync";
    case Command::Op::Promote:
        return "cmd.promote";
    case Command::Op::Cohort:
        return "cmd.cohort";
    }
    return "cmd.other";
}

/** Commands a read-only warm-standby follower must refuse. */
bool
isMutating(const Command &command)
{
    switch (command.op) {
    case Command::Op::Admit:
    case Command::Op::Update:
    case Command::Op::Depart:
    case Command::Op::Tick:
        return true;
    case Command::Op::Pool:
        return command.poolOp != Command::PoolOp::Query;
    default:
        return false;
    }
}

/**
 * Tokens -> Command. Throws FatalError with the text protocol's
 * exact diagnostics on arity or numeric-parse errors; semantic
 * validation (agent rules, TICK range, METRICS format) happens in
 * executeCommand.
 */
Command
parseCommand(const std::vector<std::string> &tokens)
{
    Command parsed;
    const std::string &command = tokens.front();
    if (command == "ADMIT") {
        REF_REQUIRE(tokens.size() >= 3,
                    "usage: ADMIT <name> <e0> <e1> ...");
        parsed.op = Command::Op::Admit;
        parsed.name = tokens[1];
        parsed.elasticities = parseElasticities(tokens, 2);
    } else if (command == "UPDATE") {
        REF_REQUIRE(tokens.size() >= 3,
                    "usage: UPDATE <name> <e0> <e1> ...");
        parsed.op = Command::Op::Update;
        parsed.name = tokens[1];
        parsed.elasticities = parseElasticities(tokens, 2);
    } else if (command == "DEPART") {
        REF_REQUIRE(tokens.size() == 2, "usage: DEPART <name>");
        parsed.op = Command::Op::Depart;
        parsed.name = tokens[1];
    } else if (command == "TICK") {
        REF_REQUIRE(tokens.size() <= 2, "usage: TICK [count]");
        parsed.op = Command::Op::Tick;
        if (tokens.size() == 2) {
            // Only representability is checked here; the [1, max]
            // range guard lives in executeCommand.
            const double count = parseNumber(tokens[1]);
            REF_REQUIRE(
                count >= 0 &&
                    count < 18446744073709551616.0 &&  // 2^64
                    count == static_cast<std::uint64_t>(count),
                "TICK count must be an integer in [1, "
                    << kMaxTickCount << "], got '" << tokens[1]
                    << "'");
            parsed.tickCount = static_cast<std::uint64_t>(count);
        }
    } else if (command == "QUERY") {
        REF_REQUIRE(tokens.size() <= 2, "usage: QUERY [name]");
        parsed.op = Command::Op::Query;
        if (tokens.size() == 2) {
            parsed.hasName = true;
            parsed.name = tokens[1];
        }
    } else if (command == "PLAN") {
        REF_REQUIRE(tokens.size() == 1, "usage: PLAN");
        parsed.op = Command::Op::Plan;
    } else if (command == "STATS") {
        REF_REQUIRE(tokens.size() == 1, "usage: STATS");
        parsed.op = Command::Op::Stats;
    } else if (command == "METRICS") {
        REF_REQUIRE(tokens.size() <= 2,
                    "usage: METRICS [prom|json|fairness]");
        parsed.op = Command::Op::Metrics;
        if (tokens.size() == 2)
            parsed.metricsFormat = tokens[1];
    } else if (command == "POOL") {
        REF_REQUIRE(tokens.size() >= 2,
                    "usage: POOL CREATE|ASSIGN|QUERY ...");
        parsed.op = Command::Op::Pool;
        const std::string &sub = tokens[1];
        if (sub == "CREATE") {
            REF_REQUIRE(tokens.size() == 3 || tokens.size() == 4,
                        "usage: POOL CREATE <path> [weight]");
            parsed.poolOp = Command::PoolOp::Create;
            parsed.poolPath = tokens[2];
            if (tokens.size() == 4)
                parsed.poolWeight = parseNumber(tokens[3]);
        } else if (sub == "ASSIGN") {
            REF_REQUIRE(tokens.size() == 4,
                        "usage: POOL ASSIGN <name> <path>");
            parsed.poolOp = Command::PoolOp::Assign;
            parsed.name = tokens[2];
            parsed.poolPath = tokens[3];
        } else if (sub == "QUERY") {
            REF_REQUIRE(tokens.size() <= 3,
                        "usage: POOL QUERY [path]");
            parsed.poolOp = Command::PoolOp::Query;
            if (tokens.size() == 3)
                parsed.poolPath = tokens[2];
        } else {
            REF_FATAL("unknown POOL subcommand '"
                      << sub
                      << "' (expected CREATE, ASSIGN, or QUERY)");
        }
    } else if (command == "SYNC") {
        REF_REQUIRE(tokens.size() == 3,
                    "usage: SYNC <streamId> <seq>");
        parsed.op = Command::Op::Sync;
        parsed.syncStreamId = parseCursor(tokens[1]);
        parsed.syncSeq = parseCursor(tokens[2]);
    } else if (command == "COHORT") {
        REF_REQUIRE(tokens.size() == 3,
                    "usage: COHORT <name> <label>");
        parsed.op = Command::Op::Cohort;
        parsed.name = tokens[1];
        parsed.cohortLabel = tokens[2];
    } else if (command == "PROMOTE") {
        REF_REQUIRE(tokens.size() == 1, "usage: PROMOTE");
        parsed.op = Command::Op::Promote;
    } else if (command == "SHUTDOWN") {
        REF_REQUIRE(tokens.size() == 1, "usage: SHUTDOWN");
        parsed.op = Command::Op::Shutdown;
    } else {
        REF_FATAL("unknown command '" << command << "'");
    }
    return parsed;
}

} // namespace

std::string
formatCommand(const Command &command)
{
    std::string line;
    switch (command.op) {
    case Command::Op::Admit:
    case Command::Op::Update:
        line = command.op == Command::Op::Admit ? "ADMIT " : "UPDATE ";
        line += command.name;
        for (const double value : command.elasticities) {
            line += ' ';
            line += formatDouble(value);
        }
        return line;
    case Command::Op::Depart:
        return "DEPART " + command.name;
    case Command::Op::Tick:
        return command.tickCount == 1
                   ? std::string("TICK")
                   : "TICK " + std::to_string(command.tickCount);
    case Command::Op::Query:
        return command.hasName ? "QUERY " + command.name
                               : std::string("QUERY");
    case Command::Op::Metrics:
        return "METRICS " + command.metricsFormat;
    case Command::Op::Cohort:
        return "COHORT " + command.name + " " + command.cohortLabel;
    case Command::Op::Pool:
        if (command.poolOp == Command::PoolOp::Create)
            return "POOL CREATE " + command.poolPath + " " +
                   formatDouble(command.poolWeight);
        if (command.poolOp == Command::PoolOp::Assign)
            return "POOL ASSIGN " + command.name + " " +
                   command.poolPath;
        break;
    case Command::Op::Sync:
        return "SYNC " + std::to_string(command.syncStreamId) + " " +
               std::to_string(command.syncSeq);
    default:
        break;
    }
    REF_PANIC("formatCommand cannot render opcode "
              << static_cast<unsigned>(command.op));
}

CommandSession::CommandSession(AllocationService &service,
                               const SessionOptions &options)
    : service_(service), options_(options)
{}

CommandSession::~CommandSession()
{
    finish();
}

/**
 * Rewrite the metrics exposition file and append any fairness rows
 * produced since the last flush. Output files are observability
 * side-channels: IO failures are ignored (the session's protocol
 * stream is the product, the files are best-effort exports).
 */
void
CommandSession::flushObservability()
{
    FlushState &fairness = fairness_;
    if (!options_.metricsOutPath.empty()) {
        std::ofstream file(options_.metricsOutPath,
                           std::ios::trunc);
        if (file)
            service_.writeMetrics(file, MetricsFormat::Prometheus);
    }
    if (options_.fairnessOutPath.empty())
        return;
    const obs::FairnessSeries &series = service_.fairnessSeries();
    // Labelled mode sticks once any labelled history exists, so a
    // departed cohort's rows survive in later flushes.
    if (service_.pooled() || service_.hasCohorts() ||
        !series.labels().empty()) {
        // Labelled rows interleave per-label series, so the export
        // is a full rewrite per flush rather than an append.
        const std::uint64_t total =
            series.totalAppended() + series.totalLabelledAppended();
        if (fairness_.headerWritten &&
            total == fairness_.rowsFlushed)
            return;
        std::ofstream file(options_.fairnessOutPath,
                           std::ios::trunc);
        if (!file)
            return;
        series.writeLabelledCsv(file);
        fairness_.headerWritten = true;
        fairness_.rowsFlushed = total;
        return;
    }
    const std::uint64_t total = series.totalAppended();
    if (fairness.headerWritten && total == fairness.rowsFlushed)
        return;
    std::ofstream file(options_.fairnessOutPath,
                       fairness.headerWritten ? std::ios::app
                                              : std::ios::trunc);
    if (!file)
        return;
    if (!fairness.headerWritten) {
        file << obs::FairnessSeries::csvHeader() << "\n";
        fairness.headerWritten = true;
    }
    const auto samples = series.samples();
    // The ring holds the lifetime range [total - size, total); rows
    // before rowsFlushed are already on disk.
    const std::uint64_t first = total - samples.size();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (first + i < fairness.rowsFlushed)
            continue;
        obs::FairnessSeries::writeCsvRow(file, samples[i]);
        file << "\n";
    }
    fairness.rowsFlushed = total;
}

void
CommandSession::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flushObservability();
}

CommandSession::LineStatus
CommandSession::executeLine(const std::string &line,
                            std::ostream &out)
{
    Command command;
    const LineStatus parsed = parseLine(line, out, command);
    return parsed == LineStatus::Parsed ? executeCommand(command, out)
                                        : parsed;
}

CommandSession::LineStatus
CommandSession::parseLine(const std::string &rawLine,
                          std::ostream &out, Command &command)
{
    std::string line = rawLine;
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    const auto tokens = tokenize(line);
    if (tokens.empty() || tokens.front().front() == '#')
        return LineStatus::Idle;
    if (options_.echo)
        out << "> " << line << "\n";

    try {
        command = parseCommand(tokens);
    } catch (const FatalError &error) {
        ++result_.commands;
        service_.noteRejected();
        ++result_.errors;
        out << "ERR " << error.reason() << "\n";
        return LineStatus::Rejected;
    }
    return LineStatus::Parsed;
}

CommandSession::LineStatus
CommandSession::executeCommand(const Command &command,
                               std::ostream &out)
{
    AllocationService &service = service_;
    SessionResult &result = result_;
    ++result.commands;

    obs::Span span(commandSpanName(command.op), "proto");
    try {
        // A warm-standby follower is read-only: its state is the
        // primary's WAL, so a local mutation would fork history and
        // fail the next divergence check. Queries stay open.
        REF_REQUIRE(!(options_.follower &&
                      options_.follower->following() &&
                      isMutating(command)),
                    "read-only follower (PROMOTE to serve)");
        switch (command.op) {
        case Command::Op::Admit:
            service.admit(command.name, command.elasticities);
            out << "OK admitted " << command.name << " agents="
                << service.liveAgents() << "\n";
            break;
        case Command::Op::Update:
            service.update(command.name, command.elasticities);
            out << "OK updated " << command.name << "\n";
            break;
        case Command::Op::Depart:
            service.depart(command.name);
            out << "OK departed " << command.name << " agents="
                << service.liveAgents() << "\n";
            break;
        case Command::Op::Tick: {
            // The range guard: parsing only checks that the count
            // is a representable integer.
            REF_REQUIRE(command.tickCount >= 1 &&
                            command.tickCount <= kMaxTickCount,
                        "TICK count must be an integer in [1, "
                            << kMaxTickCount << "], got '"
                            << command.tickCount << "'");
            for (std::uint64_t i = 0; i < command.tickCount; ++i) {
                const EpochResult epoch = service.tick();
                if (!epoch.incrementalMatchesScratch ||
                    (epoch.propertiesChecked &&
                     (!epoch.sharingIncentives.satisfied ||
                      !epoch.envyFreeness.satisfied)))
                    ++result.epochFailures;
                printEpoch(out, epoch);
            }
            flushObservability();
            break;
        }
        case Command::Op::Query: {
            service.noteQuery();
            if (service.pooled()) {
                // Live-tree answers (see the grammar note): pooled
                // ticks never build a dense allocation to publish.
                if (command.hasName) {
                    const linalg::Vector shares =
                        service.agentShares(command.name);
                    out << "SHARE " << command.name;
                    for (std::size_t r = 0; r < shares.size(); ++r)
                        out << " " << formatDouble(shares[r]);
                    out << "\n";
                } else {
                    const auto views = service.pools();
                    out << "SNAPSHOT epoch="
                        << service.snapshot()->epoch
                        << " agents=" << service.liveAgents()
                        << " pools=" << views.size() << "\n";
                    for (const pool::PoolView &view : views)
                        printPool(out, service, view);
                }
                break;
            }
            const auto snapshot = service.snapshot();
            if (command.hasName) {
                const std::size_t row =
                    snapshot->indexOf(command.name);
                REF_REQUIRE(row < snapshot->agents.size(),
                            "agent '" << command.name
                                << "' is not in the epoch "
                                << snapshot->epoch
                                << " snapshot");
                printShares(out, *snapshot, row);
            } else {
                out << "SNAPSHOT epoch=" << snapshot->epoch
                    << " agents=" << snapshot->agents.size()
                    << "\n";
                for (std::size_t i = 0;
                     i < snapshot->agents.size(); ++i)
                    printShares(out, *snapshot, i);
            }
            break;
        }
        case Command::Op::Plan:
            service.noteQuery();
            printPlan(out, service.snapshot()->enforcement);
            break;
        case Command::Op::Stats:
            printMetrics(out, service.metrics());
            // Generation-independent CRC32 of the full service
            // state: the fingerprint the replication divergence
            // check compares, exposed so an operator (or the
            // failover soak) can assert two servers are bit-equal
            // without dumping either one.
            out << "state_hash=" << service.stateHash() << "\n";
            break;
        case Command::Op::Metrics: {
            const std::string &format = command.metricsFormat;
            if (format == "prom") {
                service.writeMetrics(out,
                                     MetricsFormat::Prometheus);
                if (options_.includeGlobalMetrics)
                    obs::MetricsRegistry::global()
                        .writePrometheus(out);
            }
            else if (format == "json") {
                // writeJson ends at the closing brace; the line
                // protocol needs every reply newline-terminated.
                service.writeMetrics(out, MetricsFormat::Json);
                out << "\n";
            }
            else if (format == "fairness") {
                if (service.pooled() || service.hasCohorts() ||
                    !service.fairnessSeries().labels().empty())
                    service.fairnessSeries().writeLabelledCsv(out);
                else
                    service.fairnessSeries().writeCsv(out);
            }
            else
                REF_FATAL("unknown METRICS format '"
                          << format
                          << "' (expected prom, json, or "
                             "fairness)");
            break;
        }
        case Command::Op::Shutdown:
            service.syncJournal();
            out << "OK shutdown\n";
            result.shutdown = true;
            return LineStatus::Shutdown;
        case Command::Op::Sync:
            // The socket front-end intercepts Sync before this
            // point, so reaching here means a stdio session, which
            // has no channel to carry the replication frames.
            REF_FATAL("SYNC needs a socket connection "
                      "(ref_serve --listen or --unix)");
        case Command::Op::Promote: {
            REF_REQUIRE(options_.follower != nullptr,
                        "not a follower (started without --follow)");
            std::string message;
            REF_REQUIRE(options_.follower->promote(message),
                        "promotion failed: " << message);
            out << "OK promoted " << message << "\n";
            break;
        }
        case Command::Op::Cohort:
            service.setCohort(command.name, command.cohortLabel);
            out << "OK cohort " << command.name
                << " label=" << command.cohortLabel << "\n";
            break;
        case Command::Op::Pool:
            switch (command.poolOp) {
            case Command::PoolOp::Create:
                service.createPool(command.poolPath,
                                   command.poolWeight);
                out << "OK pool " << command.poolPath
                    << " weight=" << formatDouble(command.poolWeight)
                    << " pools=" << service.poolCount() << "\n";
                break;
            case Command::PoolOp::Assign:
                service.assignPool(command.name, command.poolPath);
                out << "OK assigned " << command.name
                    << " pool=" << command.poolPath << "\n";
                break;
            case Command::PoolOp::Query: {
                service.noteQuery();
                const auto views = service.pools();
                if (!command.poolPath.empty()) {
                    const pool::PoolView *match = nullptr;
                    for (const pool::PoolView &view : views)
                        if (view.path == command.poolPath)
                            match = &view;
                    REF_REQUIRE(match != nullptr,
                                "pool '" << command.poolPath
                                         << "' does not exist");
                    printPool(out, service, *match);
                    break;
                }
                out << "POOLS count=" << views.size()
                    << " agents=" << service.liveAgents() << "\n";
                for (const pool::PoolView &view : views)
                    printPool(out, service, view);
                break;
            }
            }
            break;
        }
    } catch (const FatalError &error) {
        service.noteRejected();
        ++result.errors;
        out << "ERR " << error.reason() << "\n";
        return LineStatus::Rejected;
    }
    return LineStatus::Executed;
}

SessionResult
runSession(AllocationService &service, std::istream &in,
           std::ostream &out, const SessionOptions &options)
{
    CommandSession session(service, options);
    std::string line;
    while (std::getline(in, line)) {
        if (options.stopFlag && *options.stopFlag != 0) {
            session.result().shutdown = true;
            break;
        }
        if (session.executeLine(line, out) ==
            CommandSession::LineStatus::Shutdown)
            break;
    }
    session.finish();
    return session.result();
}

} // namespace ref::svc
