#include "svc/protocol.hh"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hh"
#include "test_names.hh"

namespace {

using namespace ref;
using svc::AllocationService;
using svc::SessionOptions;
using svc::SessionResult;

SessionResult
run(AllocationService &service, const std::string &script,
    std::string &output, SessionOptions options = {})
{
    std::istringstream in(script);
    std::ostringstream out;
    const auto result = svc::runSession(service, in, out, options);
    output = out.str();
    return result;
}

TEST(Protocol, PaperExampleTranscript)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT user1 0.6 0.4\n"
                            "ADMIT user2 0.2 0.8\n"
                            "TICK\n"
                            "QUERY\n",
                            output);
    EXPECT_TRUE(result.clean());
    EXPECT_EQ(result.commands, 4u);
    EXPECT_NE(output.find("OK admitted user1 agents=1"),
              std::string::npos);
    EXPECT_NE(output.find("EPOCH 1 agents=2 enforce=update si=ok "
                          "ef=ok selfcheck=ok"),
              std::string::npos);
    EXPECT_NE(output.find("SNAPSHOT epoch=1 agents=2"),
              std::string::npos);
    // Shortest round-trip formatting: exact whole shares print bare,
    // and the one share that is not exactly 18 in IEEE arithmetic
    // (0.6/0.8*24) prints its true value rather than a rounded lie.
    EXPECT_NE(output.find("SHARE user1 17.999999999999996 4"),
              std::string::npos);
    EXPECT_NE(output.find("SHARE user2 6 8"), std::string::npos);
}

TEST(Protocol, CommentsBlanksAndCrLfAreTolerated)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "# a comment\r\n"
                            "\n"
                            "   \n"
                            "ADMIT solo 0.5 0.5\r\n"
                            "TICK\r\n",
                            output);
    EXPECT_TRUE(result.clean());
    EXPECT_EQ(result.commands, 2u);
}

TEST(Protocol, ErrRepliesKeepSessionAlive)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT user1 0.6 0.4\n"
                            "ADMIT user1 0.5 0.5\n"  // duplicate
                            "ADMIT cheat inf 0.4\n"  // invalid value
                            "ADMIT bad 0.5 oops\n"   // not a number
                            "FROB\n"                 // unknown verb
                            "TICK 0\n"               // bad count
                            "TICK 2.5\n"             // non-integer
                            "DEPART ghost\n"
                            "TICK\n"
                            "QUERY user1\n",
                            output);
    EXPECT_EQ(result.errors, 7u);
    EXPECT_EQ(result.epochFailures, 0u);
    // The honest agent still gets everything after the rejections.
    EXPECT_NE(output.find("SHARE user1 24 12"), std::string::npos);
    EXPECT_EQ(service.metrics().rejected, 7u);
}

TEST(Protocol, ErrorRepliesCarryTheReasonOnly)
{
    // A client reads the diagnostic alone, never the source location
    // or failed condition a tool's stderr shows, so moving code does
    // not change what a bad request draws.
    AllocationService service;
    std::string output;
    run(service, "FROB\nDEPART zz\nPOOL CREATE batch\n", output);
    EXPECT_EQ(output,
              "ERR unknown command 'FROB'\n"
              "ERR agent 'zz' is not registered\n"
              "ERR POOL commands require a pooled service (--pooled)\n");
}

TEST(Protocol, QueryBeforeFirstTickSeesEmptySnapshot)
{
    AllocationService service;
    std::string output;
    run(service, "ADMIT user1 0.6 0.4\nQUERY\n", output);
    EXPECT_NE(output.find("SNAPSHOT epoch=0 agents=0"),
              std::string::npos);
    // ...and querying the not-yet-published agent is an error.
    const auto result = run(service, "QUERY user1\n", output);
    EXPECT_EQ(result.errors, 1u);
}

TEST(Protocol, TickCountBatchesEpochs)
{
    AllocationService service;
    std::string output;
    const auto result =
        run(service, "ADMIT a 0.5 0.5\nTICK 5\n", output);
    EXPECT_TRUE(result.clean());
    EXPECT_NE(output.find("EPOCH 5 "), std::string::npos);
    EXPECT_EQ(service.metrics().epochs, 5u);
}

TEST(Protocol, PlanShowsEnforcementArtifacts)
{
    AllocationService service;
    std::string output;
    run(service,
        "ADMIT user1 0.6 0.4\nADMIT user2 0.2 0.8\nTICK\nPLAN\n",
        output);
    EXPECT_NE(output.find("PLAN epoch=1 agents=2 cache=way-partition"),
              std::string::npos);
    EXPECT_NE(output.find("ENFORCE user1 wfq_weight=0.7499999999999999"
                          " ways=5"),
              std::string::npos);
}

TEST(Protocol, StatsPrintsMetrics)
{
    AllocationService service;
    std::string output;
    run(service, "ADMIT a 0.5 0.5\nTICK\nSTATS\n", output);
    EXPECT_NE(output.find("admits=1"), std::string::npos);
    EXPECT_NE(output.find("epochs=1"), std::string::npos);
}

TEST(Protocol, EchoProducesTranscript)
{
    AllocationService service;
    std::string output;
    SessionOptions options;
    options.echo = true;
    run(service, "ADMIT a 0.5 0.5\n", output, options);
    EXPECT_NE(output.find("> ADMIT a 0.5 0.5"), std::string::npos);
}

TEST(Protocol, ShutdownRepliesOkAndEndsSession)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT a 0.5 0.5\n"
                            "SHUTDOWN\n"
                            "TICK\n",  // Never reached.
                            output);
    EXPECT_TRUE(result.shutdown);
    EXPECT_TRUE(result.clean());
    EXPECT_EQ(result.commands, 2u);
    EXPECT_NE(output.find("OK shutdown"), std::string::npos);
    EXPECT_EQ(output.find("EPOCH"), std::string::npos);
    EXPECT_EQ(service.metrics().epochs, 0u);

    // With arguments it is rejected and the session continues.
    const auto bad = run(service, "SHUTDOWN now\nTICK\n", output);
    EXPECT_FALSE(bad.shutdown);
    EXPECT_EQ(bad.errors, 1u);
    EXPECT_EQ(service.metrics().epochs, 1u);
}

TEST(Protocol, SyncOverStdioDrawsOneErrAndSessionContinues)
{
    // The replication stream needs a socket to carry its frames: a
    // stdio SYNC is one rejected command, and the session goes on.
    AllocationService service;
    std::string output;
    const auto result =
        run(service, "SYNC 0 0\nADMIT a 0.5 0.5\nTICK\n", output);
    EXPECT_EQ(result.errors, 1u);
    EXPECT_EQ(result.commands, 3u);
    EXPECT_EQ(output.rfind("ERR ", 0), 0u) << output;
    EXPECT_NE(output.find("SYNC needs a socket connection"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("OK admitted a"), std::string::npos);
    EXPECT_EQ(service.metrics().epochs, 1u);
}

TEST(Protocol, StopFlagEndsSessionBetweenCommands)
{
    AllocationService service;
    volatile std::sig_atomic_t stop = 0;
    SessionOptions options;
    options.stopFlag = &stop;
    std::string output;
    auto result =
        run(service, "ADMIT a 0.5 0.5\nTICK\n", output, options);
    EXPECT_FALSE(result.shutdown);  // Flag never raised.

    stop = 1;
    result = run(service, "TICK\nTICK\n", output, options);
    EXPECT_TRUE(result.shutdown);
    EXPECT_EQ(result.commands, 0u);  // Stopped before any command.
    EXPECT_EQ(service.metrics().epochs, 1u);
}

TEST(Protocol, TickCountIsCapped)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT a 0.5 0.5\n"
                            "TICK 100001\n"
                            "TICK 1000000000\n",
                            output);
    EXPECT_EQ(result.errors, 2u);
    EXPECT_EQ(service.metrics().epochs, 0u);

    // The cap itself is accepted territory: a count of 2 works and
    // the boundary value parses as valid (not exercised in full).
    const auto ok = run(service, "TICK 2\n", output);
    EXPECT_TRUE(ok.clean());
    EXPECT_EQ(service.metrics().epochs, 2u);
}

TEST(Protocol, NonFiniteNumbersAreRejectedEverywhere)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT a 1e999 0.4\n"   // stod overflow
                            "ADMIT b inf 0.4\n"     // literal inf
                            "ADMIT c 0.5 nan\n"     // literal nan
                            "ADMIT d -inf 0.4\n"
                            "TICK inf\n"
                            "TICK 1e999\n"
                            "ADMIT ok 0.5 0.5\n"
                            "TICK\n",
                            output);
    EXPECT_EQ(result.errors, 6u);
    EXPECT_EQ(result.epochFailures, 0u);
    EXPECT_EQ(service.liveAgents(), 1u);
    EXPECT_NE(output.find("EPOCH 1 agents=1"), std::string::npos);
    // Overflowing decimals and inf report the finite-number error.
    EXPECT_NE(output.find("'1e999' is not a finite number"),
              std::string::npos);
    EXPECT_NE(output.find("'inf' is not a finite number"),
              std::string::npos);
}

TEST(Protocol, DuplicateAdmitAndUnknownNamesAreErrors)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT a 0.5 0.5\n"
                            "ADMIT a 0.6 0.4\n"   // duplicate
                            "UPDATE ghost 0.5 0.5\n"
                            "DEPART phantom\n"
                            "TICK\n"
                            "QUERY a\n",
                            output);
    EXPECT_EQ(result.errors, 3u);
    // The duplicate ADMIT did not clobber a's elasticities.
    EXPECT_NE(output.find("SHARE a 24 12"), std::string::npos);
    EXPECT_EQ(service.metrics().rejected, 3u);
}

/** Pull "name value" from a Prometheus exposition; "" when absent. */
std::string
promValue(const std::string &text, const std::string &name)
{
    const std::string needle = "\n" + name + " ";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t start = at + needle.size();
    return text.substr(start, text.find('\n', start) - start);
}

TEST(Protocol, MetricsCommandServesRegistryExpositions)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT a 0.5 0.5\n"
                            "TICK 3\n"
                            "METRICS\n"
                            "METRICS json\n"
                            "METRICS fairness\n"
                            "METRICS yaml\n",
                            output);
    EXPECT_EQ(result.errors, 1u);  // yaml is not a format.
    EXPECT_NE(output.find("# TYPE ref_epochs_total counter"),
              std::string::npos);
    EXPECT_EQ(promValue(output, "ref_epochs_total"), "3");
    EXPECT_EQ(promValue(output, "ref_admits_total"), "1");
    EXPECT_NE(output.find("\"counters\""), std::string::npos);
    // One fairness CSV row per epoch, margins computed.
    EXPECT_NE(output.find(obs::FairnessSeries::csvHeader()),
              std::string::npos);
    EXPECT_EQ(service.fairnessSeries().size(), 3u);
    EXPECT_NE(output.find("ERR"), std::string::npos);
}

TEST(Protocol, MetricsAgreesWithStatsAfterRecovery)
{
    // recovery_* must be one source of truth: STATS (legacy
    // key=value) and METRICS (registry exposition) read the same
    // numbers on a service that just recovered a journal.
    const std::string dir = testing::TempDir() +
                            "ref_protocol_metrics_recovery";
    std::filesystem::remove_all(dir);
    svc::ServiceConfig config;
    config.journal.directory = dir;

    {
        AllocationService service(config);
        std::string output;
        run(service,
            "ADMIT a 0.5 0.5\nADMIT b 0.7 0.3\nTICK 2\nSHUTDOWN\n",
            output);
    }

    AllocationService recovered(config);
    std::string output;
    const auto result =
        run(recovered, "STATS\nMETRICS\n", output);
    EXPECT_TRUE(result.clean());

    const auto metrics = recovered.metrics();
    EXPECT_EQ(metrics.recovery.outcome,
              svc::RecoveryOutcome::Clean);
    // STATS line and registry gauge must agree exactly.
    EXPECT_NE(output.find("recovery_outcome=clean"),
              std::string::npos);
    EXPECT_EQ(promValue(output, "ref_recovery_outcome_code"), "2");
    EXPECT_NE(output.find("recovery_snapshot_loaded=1"),
              std::string::npos);
    EXPECT_EQ(promValue(output, "ref_recovery_snapshot_loaded"),
              "1");
    EXPECT_EQ(promValue(output, "ref_recovery_generation"),
              std::to_string(metrics.recovery.generation));
    EXPECT_EQ(promValue(output, "ref_recovery_replayed_records"),
              std::to_string(metrics.recovery.replayedRecords));
    EXPECT_EQ(promValue(output, "ref_journal_enabled"), "1");
    EXPECT_EQ(promValue(output, "ref_journal_records"),
              std::to_string(metrics.journal.records));
    std::filesystem::remove_all(dir);
}

TEST(Protocol, CohortLabelsProduceLabelledFairnessRows)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT a 0.6 0.4\n"
                            "ADMIT b 0.2 0.8\n"
                            "ADMIT c 0.5 0.5\n"
                            "COHORT a gold\n"
                            "COHORT b gold\n"
                            "COHORT c silver\n"
                            "TICK\n"
                            "METRICS fairness\n",
                            output);
    EXPECT_TRUE(result.clean());
    EXPECT_NE(output.find("OK cohort a label=gold"),
              std::string::npos);
    // Labelled CSV: the global series rides as "_total", each cohort
    // gets its own per-epoch row, and margins respect the mechanism's
    // guarantees (>= 1, checked by value below via the fleet tests).
    EXPECT_NE(output.find("label,epoch,agents,checked"),
              std::string::npos);
    EXPECT_NE(output.find("_total,1,3,"), std::string::npos);
    EXPECT_NE(output.find("gold,1,2,"), std::string::npos);
    EXPECT_NE(output.find("silver,1,1,"), std::string::npos);
}

TEST(Protocol, CohortRejectsBadInput)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT a 0.6 0.4\n"
                            "COHORT ghost gold\n"    // unregistered
                            "COHORT a _total\n"      // reserved
                            "COHORT a\n"             // wrong arity
                            "COHORT a one two\n"     // wrong arity
                            "COHORT a gold\n"        // valid
                            "TICK\n",
                            output);
    EXPECT_EQ(result.errors, 4u);
    EXPECT_EQ(result.epochFailures, 0u);
    EXPECT_NE(output.find("OK cohort a label=gold"),
              std::string::npos);
}

TEST(Protocol, DepartDropsCohortMembership)
{
    AllocationService service;
    std::string output;
    const auto result = run(service,
                            "ADMIT a 0.6 0.4\n"
                            "ADMIT b 0.2 0.8\n"
                            "COHORT a gold\n"
                            "TICK\n"
                            "DEPART a\n"
                            "TICK\n"
                            "METRICS fairness\n",
                            output);
    EXPECT_TRUE(result.clean());
    // Epoch 1 had the labelled member; epoch 2 must not — departure
    // removes the membership along with the agent.
    EXPECT_NE(output.find("gold,1,1,"), std::string::npos);
    EXPECT_EQ(output.find("gold,2,"), std::string::npos);
}

/** Bitwise equality: a rendered double must parse back to the very
 *  bits that were sent, not merely to a nearby value. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** formatCommand, then the server's own parser; every field must
 *  come back as it went out. */
void
expectRoundTrip(const svc::Command &sent)
{
    AllocationService service;
    svc::CommandSession session(service);
    std::ostringstream out;
    svc::Command parsed;
    const std::string line = svc::formatCommand(sent);
    ASSERT_EQ(session.parseLine(line, out, parsed),
              svc::CommandSession::LineStatus::Parsed)
        << line << " -> " << out.str();
    EXPECT_EQ(parsed.op, sent.op) << line;
    EXPECT_EQ(parsed.name, sent.name) << line;
    ASSERT_EQ(parsed.elasticities.size(), sent.elasticities.size())
        << line;
    for (std::size_t i = 0; i < sent.elasticities.size(); ++i)
        EXPECT_TRUE(
            sameBits(parsed.elasticities[i], sent.elasticities[i]))
            << line << " [" << i << "]";
    EXPECT_EQ(parsed.tickCount, sent.tickCount) << line;
    EXPECT_EQ(parsed.hasName, sent.hasName) << line;
    EXPECT_EQ(parsed.metricsFormat, sent.metricsFormat) << line;
    EXPECT_EQ(parsed.poolOp, sent.poolOp) << line;
    EXPECT_EQ(parsed.poolPath, sent.poolPath) << line;
    EXPECT_TRUE(sameBits(parsed.poolWeight, sent.poolWeight)) << line;
    EXPECT_EQ(parsed.cohortLabel, sent.cohortLabel) << line;
    EXPECT_EQ(parsed.syncStreamId, sent.syncStreamId) << line;
    EXPECT_EQ(parsed.syncSeq, sent.syncSeq) << line;
}

svc::Command
makeCommand(svc::Command::Op op, std::string name = "")
{
    svc::Command command;
    command.op = op;
    command.name = std::move(name);
    return command;
}

TEST(Protocol, FormatCommandRoundTripsThroughTheParser)
{
    using Op = svc::Command::Op;
    using PoolOp = svc::Command::PoolOp;
    std::vector<svc::Command> commands;

    // ref_bomb's draws: k / 1002, every k it can produce and one more.
    for (int k = 1; k <= 1001; ++k) {
        const double drawn = static_cast<double>(k) / 1002.0;
        svc::Command admit =
            makeCommand(Op::Admit, "b0_" + std::to_string(k));
        admit.elasticities = {drawn, 1.0 - drawn};
        commands.push_back(admit);
        svc::Command create;
        create.op = Op::Pool;
        create.poolOp = PoolOp::Create;
        create.poolPath = test::indexedName('p', k);
        create.poolWeight = drawn;
        commands.push_back(create);
    }
    // A fleet re-report: a best response rescaled to a unit sum,
    // with digits down to the last bit.
    const double lie = 0.6180339887498949 * (1.0 + 1.0 / 3.0);
    svc::Command update = makeCommand(Op::Update, "liar0");
    update.elasticities = {lie / (lie + 0.25), 0.25 / (lie + 0.25),
                           1e-300, 1e300};
    commands.push_back(update);

    commands.push_back(makeCommand(Op::Depart, "b0_7"));
    commands.push_back(makeCommand(Op::Tick));
    svc::Command ticks = makeCommand(Op::Tick);
    ticks.tickCount = 250;
    commands.push_back(ticks);
    commands.push_back(makeCommand(Op::Query));
    svc::Command query = makeCommand(Op::Query, "b0_3");
    query.hasName = true;
    commands.push_back(query);
    svc::Command cohort = makeCommand(Op::Cohort, "honest3");
    cohort.cohortLabel = "honest";
    commands.push_back(cohort);
    for (const char *format : {"prom", "json", "fairness"}) {
        svc::Command metrics = makeCommand(Op::Metrics);
        metrics.metricsFormat = format;
        commands.push_back(metrics);
    }
    svc::Command create;
    create.op = Op::Pool;
    create.poolOp = PoolOp::Create;
    create.poolPath = "batch/cpu";
    commands.push_back(create);
    svc::Command assign = makeCommand(Op::Pool, "b0_3");
    assign.poolOp = PoolOp::Assign;
    assign.poolPath = "batch/cpu";
    commands.push_back(assign);
    svc::Command sync = makeCommand(Op::Sync);
    sync.syncStreamId = std::numeric_limits<std::uint64_t>::max();
    sync.syncSeq = 123456789012345ull;
    commands.push_back(sync);

    for (const svc::Command &command : commands)
        expectRoundTrip(command);
}

TEST(Protocol, FormatCommandSpellsLinesAsClientsAlwaysHave)
{
    using Op = svc::Command::Op;
    EXPECT_EQ(svc::formatCommand(makeCommand(Op::Tick)), "TICK");
    EXPECT_EQ(svc::formatCommand(makeCommand(Op::Query)), "QUERY");
    svc::Command admit = makeCommand(Op::Admit, "b0_0");
    admit.elasticities = {493.0 / 1002.0, 0.5};
    EXPECT_EQ(svc::formatCommand(admit),
              "ADMIT b0_0 0.49201596806387227 0.5");
    svc::Command create = makeCommand(Op::Pool);
    create.poolOp = svc::Command::PoolOp::Create;
    create.poolPath = "p0";
    EXPECT_EQ(svc::formatCommand(create), "POOL CREATE p0 1");
    svc::Command sync = makeCommand(Op::Sync);
    sync.syncStreamId = 7;
    sync.syncSeq = 42;
    EXPECT_EQ(svc::formatCommand(sync), "SYNC 7 42");
    // Shapes no in-tree client sends are a caller bug.
    EXPECT_THROW(svc::formatCommand(makeCommand(Op::Stats)),
                 PanicError);
    EXPECT_THROW(svc::formatCommand(makeCommand(Op::Shutdown)),
                 PanicError);
}

} // namespace
