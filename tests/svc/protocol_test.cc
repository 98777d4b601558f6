#include "svc/protocol.hh"

#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

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

TEST(Protocol, ErrorRepliesNameSourceFilesRelativeToTheTree)
{
    // REF_REQUIRE puts file:line in front of the reason. The file is
    // named from the source tree's root, so two checkouts of the same
    // code answer byte for byte alike.
    AllocationService service;
    std::string output;
    run(service, "FROB\n", output);
    EXPECT_NE(output.find("ERR fatal: src/svc/protocol.cc:"),
              std::string::npos)
        << output;
    EXPECT_EQ(output.find(REF_SOURCE_DIR), std::string::npos) << output;
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

} // namespace
