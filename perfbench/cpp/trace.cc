/**
 * @file
 * The traced run: replays a workload's seeded streams in-process,
 * single-threaded, and times each layer through its public calls.
 *
 * Three services, each built like the timed ref_serve (socket-mode
 * replication hub included, so every TICK also hashes the state), see
 * the same commands. Service A runs them through
 * CommandSession untraced and service B runs them through
 * CommandSession with one span per command; A and B alternate in
 * blocks, so a change in host speed hits both alike and B's extra
 * wall time is the tracing overhead. Service P takes the commands
 * through the AllocationService calls directly, and after each one
 * the layers below it are called on the same inputs: the core
 * mechanism and property checks on each epoch, the snapshot index,
 * the pool tree, and, for a workload with a durability check, a
 * journal of the same records under that check's fsync policy.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "client.hh"
#include "core/fairness.hh"
#include "core/proportional_elasticity.hh"
#include "pool/pool_tree.hh"
#include "reference.hh"
#include "repl/replication_hub.hh"
#include "stats.hh"
#include "svc/enforcement_bridge.hh"
#include "svc/journal.hh"
#include "svc/snapshot.hh"
#include "workload.hh"

namespace refbench {
namespace {

using ref::svc::AllocationService;
using ref::svc::CommandSession;
using ref::svc::JournalRecord;

/** Commands per alternation block of services A and B. */
constexpr std::size_t kBlock = 33;

std::vector<std::string>
tokens(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    std::string token;
    while (in >> token)
        out.push_back(token);
    return out;
}

linalg::Vector
parseVector(const std::vector<std::string> &words, std::size_t first)
{
    linalg::Vector out;
    for (std::size_t i = first; i < words.size(); ++i)
        out.push_back(std::stod(words[i]));
    return out;
}

/** A service configured like the timed ref_serve, socket-mode
 *  replication hub included. */
struct ServedService
{
    explicit ServedService(const WorkloadSpec &spec)
        : service(std::make_unique<AllocationService>(
              serviceConfig(spec, "")))
    {
        service->setReplicationSink(&hub);
    }
    ~ServedService() { service->setReplicationSink(nullptr); }
    ServedService(const ServedService &) = delete;
    ServedService &operator=(const ServedService &) = delete;

    ref::repl::ReplicationHub hub;
    std::unique_ptr<AllocationService> service;
};

const char *
sessionSpanName(OpClass cls)
{
    switch (cls) {
    case OpClass::Mutation:
        return "svc.session.mutation";
    case OpClass::Query:
        return "svc.session.query";
    case OpClass::Tick:
        return "svc.session.tick";
    }
    return "svc.session";
}

/** Runs commands through services A (untraced) and B (traced). */
class SessionPasses
{
  public:
    SessionPasses(const WorkloadSpec &spec,
                  const std::vector<std::string> &preload)
        : a_(spec), b_(spec),
          sessionA_(*a_.service), sessionB_(*b_.service)
    {
        for (const std::string &line : preload)
            for (CommandSession *session : {&sessionA_, &sessionB_})
                if (!execute(*session, line, error_))
                    ok_ = false;
        a_.service->tick();
        b_.service->tick();
    }

    void run(const std::vector<Replayed> &replay, SpanRecorder &spans)
    {
        for (std::size_t first = 0; first < replay.size();
             first += kBlock) {
            const std::size_t last =
                std::min(replay.size(), first + kBlock);
            // Alternate which side goes first, so neither always runs
            // on caches the other just warmed.
            if ((first / kBlock) % 2 == 0) {
                untracedNs_ += block(sessionA_, replay, first, last, nullptr);
                tracedNs_ += block(sessionB_, replay, first, last, &spans);
            } else {
                tracedNs_ += block(sessionB_, replay, first, last, &spans);
                untracedNs_ += block(sessionA_, replay, first, last, nullptr);
            }
        }
    }

    double overheadPct() const
    {
        return 100.0 * (static_cast<double>(tracedNs_) /
                            static_cast<double>(untracedNs_) -
                        1.0);
    }
    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    std::uint32_t hashA() const { return a_.service->stateHash(); }
    std::uint32_t hashB() const { return b_.service->stateHash(); }

  private:
    /** Commands [first, last) through @p session, one span each when
     *  @p spans is set; returns the wall time. */
    std::uint64_t block(CommandSession &session,
                        const std::vector<Replayed> &replay,
                        std::size_t first, std::size_t last,
                        SpanRecorder *spans)
    {
        std::ostringstream sink;
        const std::uint64_t start = nowNs();
        for (std::size_t k = first; k < last; ++k) {
            const Command &command = replay[k].command;
            std::optional<ScopedSpan> span;
            if (spans)
                span.emplace(*spans, sessionSpanName(command.cls), 0, k);
            sink.str("");
            if (session.executeLine(command.line, sink) ==
                CommandSession::LineStatus::Rejected)
                reject(command.line, sink.str());
        }
        return nowNs() - start;
    }

    void reject(const std::string &line, const std::string &reply)
    {
        ok_ = false;
        error_ = line + " -> " + reply;
    }

    ServedService a_;
    ServedService b_;
    CommandSession sessionA_;
    CommandSession sessionB_;
    std::uint64_t untracedNs_ = 0;
    std::uint64_t tracedNs_ = 0;
    bool ok_ = true;
    std::string error_;
};

/** Service P plus the lower layers, fed the same commands. */
class ProbePass
{
  public:
    ProbePass(const WorkloadSpec &spec, const std::string &work,
              const std::vector<std::string> &preload)
        : spec_(spec), p_(spec),
          capacity_(ref::core::SystemCapacity::fromCapacities(kCapacity)),
          tree_(capacity_)
    {
        CommandSession session(*p_.service);
        std::string error;
        for (const std::string &line : preload) {
            if (!execute(session, line, error))
                ok_ = false;
            mirror(tokens(line), false);
        }
        p_.service->tick();
        if (hasDurabilityCheck(spec)) {
            journalDir_ = work + "/journal";
            std::filesystem::create_directories(journalDir_);
            ref::svc::JournalConfig config =
                serviceConfig(spec, journalDir_).journal;
            journal_ = std::make_unique<ref::svc::Journal>(config);
            journal_->begin(++generation_, kCapacity);
        }
    }

    void run(const std::vector<Replayed> &replay, SpanRecorder &spans)
    {
        for (std::size_t k = 0; k < replay.size(); ++k) {
            const ScopedSpan root(spans, "probe", 0, k);
            try {
                step(replay[k].command, spans, root.id(), k);
            } catch (const std::exception &error) {
                ok_ = false;
                error_ = replay[k].command.line + " -> " + error.what();
            }
        }
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    std::uint32_t hash() const { return p_.service->stateHash(); }

  private:
    void step(const Command &command, SpanRecorder &spans,
              std::uint32_t parent, std::uint64_t k)
    {
        AllocationService &service = *p_.service;
        const std::vector<std::string> words = tokens(command.line);
        const std::string &op = words[0];
        JournalRecord record;
        if (op == "UPDATE") {
            const linalg::Vector e = parseVector(words, 2);
            {
                ScopedSpan s(spans, "svc.service.update", parent, k);
                service.update(words[1], e);
            }
            record.type = JournalRecord::Type::Update;
            record.name = words[1];
            record.elasticities = e;
        } else if (op == "ADMIT") {
            const linalg::Vector e = parseVector(words, 2);
            record.epoch = service.snapshot()->epoch;
            {
                ScopedSpan s(spans, "svc.service.admit", parent, k);
                service.admit(words[1], e);
            }
            record.type = JournalRecord::Type::Admit;
            record.name = words[1];
            record.elasticities = e;
        } else if (op == "DEPART") {
            {
                ScopedSpan s(spans, "svc.service.depart", parent, k);
                service.depart(words[1]);
            }
            record.type = JournalRecord::Type::Depart;
            record.name = words[1];
        } else if (op == "POOL") {
            service.assignPool(words[2], words[3]);
            record.type = JournalRecord::Type::PoolAssign;
            record.name = words[2];
            record.pool = words[3];
        } else if (op == "TICK") {
            {
                ScopedSpan s(spans, "svc.service.tick", parent, k);
                service.tick();
            }
            {
                ScopedSpan s(spans, "svc.state_hash", parent, k);
                service.stateHash();
            }
            record.type = JournalRecord::Type::Tick;
            record.epoch = service.snapshot()->epoch;
            if (!spec_.pooled)
                epochLayers(spans, parent, k);
        } else if (op == "QUERY") {
            if (spec_.pooled) {
                ScopedSpan s(spans, "pool.shares", parent, k);
                tree_.sharesOf(words[1]);
            } else {
                const auto snapshot = service.snapshot();
                ScopedSpan s(spans, "svc.snapshot.index_of", parent, k);
                if (snapshot->indexOf(words[1]) == snapshot->agents.size())
                    throw std::runtime_error("not in the snapshot");
            }
            return;
        }
        if (spec_.pooled)
            mirrorTree(words, spans, parent, k);
        mirror(words, true);
        if (journal_)
            journalRecord(record, spans, parent, k);
    }

    /** The flat epoch's layers on the epoch P just published. */
    void epochLayers(SpanRecorder &spans, std::uint32_t parent,
                     std::uint64_t k)
    {
        const auto snapshot = p_.service->snapshot();
        ref::core::AgentList agents;
        agents.reserve(snapshot->agents.size());
        for (const std::string &name : snapshot->agents)
            agents.emplace_back(
                name, ref::core::CobbDouglasUtility(elasticities_.at(name)));
        const ref::core::FairnessTolerance tolerance =
            ref::svc::EpochConfig{}.tolerance;
        {
            ScopedSpan s(spans, "core.allocate", parent, k);
            ref::core::ProportionalElasticityMechanism().allocate(
                agents, capacity_);
        }
        {
            ScopedSpan s(spans, "core.check_si", parent, k);
            ref::core::checkSharingIncentives(
                agents, capacity_, snapshot->allocation, tolerance);
        }
        {
            ScopedSpan s(spans, "core.check_ef", parent, k);
            ref::core::checkEnvyFreeness(agents, snapshot->allocation,
                                         tolerance);
        }
        {
            ScopedSpan s(spans, "svc.enforcement.plan", parent, k);
            ref::svc::buildEnforcementPlan(snapshot->agents,
                                           snapshot->allocation,
                                           capacity_, 16);
        }
    }

    void mirrorTree(const std::vector<std::string> &words,
                    SpanRecorder &spans, std::uint32_t parent,
                    std::uint64_t k)
    {
        const std::string &op = words[0];
        if (op == "UPDATE") {
            ScopedSpan s(spans, "pool.update", parent, k);
            tree_.update(words[1], parseVector(words, 2));
        } else if (op == "ADMIT") {
            const linalg::Vector e = parseVector(words, 2);
            ScopedSpan s(spans, "pool.admit", parent, k);
            tree_.admit(words[1], e);
        } else if (op == "DEPART") {
            ScopedSpan s(spans, "pool.depart", parent, k);
            tree_.depart(words[1]);
        } else if (op == "POOL") {
            ScopedSpan s(spans, "pool.assign", parent, k);
            tree_.assign(words[2], words[3]);
        }
    }

    /** Keep the tree (set-up only) and the elasticities current. */
    void mirror(const std::vector<std::string> &words, bool treeDone)
    {
        const std::string &op = words[0];
        if (op == "ADMIT" || op == "UPDATE")
            elasticities_[words[1]] = parseVector(words, 2);
        else if (op == "DEPART")
            elasticities_.erase(words[1]);
        if (!spec_.pooled || treeDone)
            return;
        if (op == "ADMIT")
            tree_.admit(words[1], parseVector(words, 2));
        else if (op == "POOL" && words[1] == "CREATE")
            tree_.createPool(words[2], 1.0);
        else if (op == "POOL")
            tree_.assign(words[2], words[3]);
    }

    /** Append + barrier, and the compaction snapshot every
     *  snapshotEvery records, as the service does. */
    void journalRecord(const JournalRecord &record, SpanRecorder &spans,
                       std::uint32_t parent, std::uint64_t k)
    {
        {
            ScopedSpan s(spans, "svc.journal.append", parent, k);
            journal_->append(record);
        }
        {
            ScopedSpan s(spans, "svc.journal.barrier", parent, k);
            journal_->barrier();
        }
        const std::uint64_t every = journal_->config().snapshotEvery;
        if (journal_->recordsSinceBegin() % every != 0)
            return;
        std::uint64_t seq = 0;
        ref::svc::ServiceState state = ref::svc::decodeServiceState(
            p_.service->captureReplicationSnapshot(seq));
        state.generation = ++generation_;
        std::string error;
        {
            ScopedSpan s(spans, "svc.journal.snapshot", parent, k);
            if (!ref::svc::writeSnapshotFile(
                    journalDir_, journal_->snapshotTmpPath(),
                    journal_->snapshotPath(), state, error))
                throw std::runtime_error("snapshot: " + error);
        }
        journal_->begin(generation_, kCapacity);
    }

    const WorkloadSpec &spec_;
    ServedService p_;
    ref::core::SystemCapacity capacity_;
    ref::pool::PoolTree tree_;
    std::map<std::string, linalg::Vector> elasticities_;
    std::string journalDir_;
    std::unique_ptr<ref::svc::Journal> journal_;
    std::uint64_t generation_ = 0;
    bool ok_ = true;
    std::string error_;
};

struct LayerMetric
{
    const char *name;
    const char *span;
    const char *unit;
    double unitNs;
};

} // namespace

int
runTrace(const Flags &flags)
{
    const WorkloadSpec &spec = findWorkload(flags.get("workload"));
    const std::uint64_t seed = flags.number("seed", 1);
    const std::string work = flags.get("work");
    const std::vector<std::uint64_t> sent = flags.numbers("sent");
    removeTree(work);
    std::filesystem::create_directories(work);

    const std::vector<std::string> preload = preloadLines(spec, seed);
    const std::vector<Replayed> replay =
        replayOrder(spec, seed, sent, spec.replayCommands);

    SpanRecorder spans;
    SessionPasses sessions(spec, preload);
    sessions.run(replay, spans);
    ProbePass probes(spec, work, preload);
    probes.run(replay, spans);

    bool correct = sessions.ok() && probes.ok();
    std::string failure =
        !sessions.ok() ? sessions.error() : probes.error();
    if (correct && (sessions.hashA() != sessions.hashB() ||
                    sessions.hashA() != probes.hash())) {
        correct = false;
        failure = "replayed services disagree on state_hash";
    }

    // Client round trip minus in-process executeLine, per command.
    std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t> rtts;
    {
        std::ifstream in(flags.get("rtt"));
        RttRecord record;
        while (in >> record.connection >> record.index >> record.rttNs)
            rtts[{record.connection, record.index}] = record.rttNs;
    }
    std::vector<double> netOverheadUs;
    for (const Span &span : spans.all()) {
        const std::string name = span.name;
        if (name != "svc.session.query" && name != "svc.session.mutation")
            continue;
        const Replayed &command = replay[span.command];
        const auto it = rtts.find({command.connection, command.index});
        if (it != rtts.end())
            netOverheadUs.push_back(
                (static_cast<double>(it->second) -
                 static_cast<double>(span.endNs - span.startNs)) /
                1e3);
    }

    if (flags.has("spans-out")) {
        std::ofstream out(flags.get("spans-out"));
        spans.write(out);
    }

    static const LayerMetric layers[] = {
        {"svc.session.query_us_p50", "svc.session.query", "us", 1e3},
        {"svc.session.mutation_us_p50", "svc.session.mutation", "us", 1e3},
        {"svc.session.tick_ms_p50", "svc.session.tick", "ms", 1e6},
        {"svc.service.tick_ms_p50", "svc.service.tick", "ms", 1e6},
        {"svc.service.admit_us_p50", "svc.service.admit", "us", 1e3},
        {"svc.service.update_us_p50", "svc.service.update", "us", 1e3},
        {"svc.service.depart_us_p50", "svc.service.depart", "us", 1e3},
        {"svc.snapshot.index_of_us_p50", "svc.snapshot.index_of", "us",
         1e3},
        {"svc.state_hash_ms_p50", "svc.state_hash", "ms", 1e6},
        {"svc.enforcement.plan_us_p50", "svc.enforcement.plan", "us", 1e3},
        {"core.allocate_us_p50", "core.allocate", "us", 1e3},
        {"core.check_si_us_p50", "core.check_si", "us", 1e3},
        {"core.check_ef_ms_p50", "core.check_ef", "ms", 1e6},
        {"pool.admit_us_p50", "pool.admit", "us", 1e3},
        {"pool.assign_us_p50", "pool.assign", "us", 1e3},
        {"pool.update_us_p50", "pool.update", "us", 1e3},
        {"pool.depart_us_p50", "pool.depart", "us", 1e3},
        {"pool.shares_us_p50", "pool.shares", "us", 1e3},
        {"svc.journal.append_us_p50", "svc.journal.append", "us", 1e3},
        {"svc.journal.barrier_us_p50", "svc.journal.barrier", "us", 1e3},
        {"svc.journal.snapshot_ms_p50", "svc.journal.snapshot", "ms", 1e6},
    };

    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\":" << (correct ? "true" : "false")
        << ",\"failure\":" << jsonString(correct ? "" : failure)
        << ",\"commands\":" << replay.size()
        << ",\"spans\":" << spans.size() << ",\"metrics\":{";
    bool first = true;
    const auto emit = [&](const std::string &name, double value,
                          const char *unit, std::size_t samples) {
        out << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
            << value << ",\"unit\":\"" << unit
            << "\",\"samples\":" << samples << "}";
        first = false;
    };
    for (const LayerMetric &layer : layers) {
        const std::vector<double> d =
            spans.durations(layer.span, layer.unitNs);
        if (const auto p50 = percentile(d, 50))
            emit(layer.name, *p50, layer.unit, d.size());
    }
    if (const auto p50 = percentile(netOverheadUs, 50))
        emit("net.overhead_us_p50", *p50, "us", netOverheadUs.size());
    emit("trace.overhead_pct", sessions.overheadPct(), "%",
         replay.size());
    out << "}}";
    std::cout << out.str() << std::endl;
    removeTree(work);
    return correct ? 0 : 1;
}

} // namespace refbench
