/**
 * @file
 * POOL command surface: text grammar, execution semantics against a
 * pooled service, rejection on flat services, the pooled METRICS
 * fairness export, and the parse of every pool sub-op line.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "svc/allocation_service.hh"
#include "svc/protocol.hh"
#include "util/logging.hh"

namespace {

using namespace ref;
using svc::AllocationService;
using svc::Command;
using svc::ServiceConfig;

ServiceConfig
pooledConfig()
{
    ServiceConfig config;
    config.pooled = true;
    config.buildEnforcement = false;
    return config;
}

/** Run one script; the transcript, with error accounting checked. */
std::string
run(AllocationService &service, const std::string &script,
    std::uint64_t expectErrors = 0)
{
    std::istringstream in(script);
    std::ostringstream out;
    const auto result = svc::runSession(service, in, out);
    EXPECT_EQ(result.errors, expectErrors) << out.str();
    return out.str();
}

TEST(PoolProtocol, PooledSessionEndToEnd)
{
    AllocationService service(pooledConfig());
    const std::string transcript = run(service,
                                       "POOL CREATE teams\n"
                                       "POOL CREATE teams/red 1\n"
                                       "ADMIT a 0.6 0.4\n"
                                       "POOL ASSIGN a teams/red\n"
                                       "ADMIT b 0.5 0.5\n"
                                       "TICK\n"
                                       "QUERY a\n"
                                       "POOL QUERY teams\n"
                                       "POOL QUERY\n"
                                       "QUERY\n");
    EXPECT_NE(transcript.find("OK pool teams weight=1 pools=2"),
              std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("OK assigned a pool=teams/red"),
              std::string::npos);
    // Pooled epochs report population and pool count, never a dense
    // agent enumeration.
    EXPECT_NE(transcript.find("EPOCH 1 agents=2 pools=3"),
              std::string::npos)
        << transcript;
    // QUERY <name> answers live from the tree.
    EXPECT_NE(transcript.find("SHARE a "), std::string::npos);
    EXPECT_NE(transcript.find("POOL teams weight=1 agents=1"),
              std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("POOLS count=3 agents=2"),
              std::string::npos);
    // The pooled bare QUERY lists pools instead of per-agent rows.
    EXPECT_NE(transcript.find("SNAPSHOT epoch=1 agents=2 pools=3"),
              std::string::npos)
        << transcript;
}

TEST(PoolProtocol, LiveQueryNeedsNoTick)
{
    AllocationService service(pooledConfig());
    const std::string transcript = run(service,
                                       "ADMIT solo 0.7 0.3\n"
                                       "QUERY solo\n");
    // The whole capacity, before any epoch ever ran.
    EXPECT_NE(transcript.find("SHARE solo 24 12"), std::string::npos)
        << transcript;
}

TEST(PoolProtocol, ErrorPathsReadAsUsageOrSemantics)
{
    AllocationService service(pooledConfig());
    const std::string transcript =
        run(service,
            "POOL\n"
            "POOL CREATE\n"
            "POOL FROB x\n"
            "POOL CREATE p\n"
            "POOL CREATE p 2\n"
            "POOL ASSIGN ghost p\n"
            "POOL QUERY ghost\n"
            "POOL CREATE bad,name\n",
            /*expectErrors=*/7);
    EXPECT_NE(transcript.find("usage: POOL CREATE|ASSIGN|QUERY"),
              std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("unknown POOL subcommand 'FROB'"),
              std::string::npos);
    EXPECT_NE(transcript.find("already exists with weight 1"),
              std::string::npos);
    EXPECT_NE(transcript.find("pool 'ghost' does not exist"),
              std::string::npos);
    EXPECT_NE(transcript.find("reserved for exports"),
              std::string::npos)
        << transcript;
}

TEST(PoolProtocol, FlatServiceRejectsPoolCommands)
{
    AllocationService service;  // Default: flat.
    const std::string transcript = run(service,
                                       "POOL CREATE p\n"
                                       "POOL QUERY\n",
                                       /*expectErrors=*/2);
    EXPECT_NE(transcript.find("--pooled"), std::string::npos)
        << transcript;
}

TEST(PoolProtocol, PooledMetricsFairnessIsLabelled)
{
    AllocationService service(pooledConfig());
    const std::string transcript = run(service,
                                       "POOL CREATE p0\n"
                                       "ADMIT a 0.6 0.4\n"
                                       "POOL ASSIGN a p0\n"
                                       "TICK\n"
                                       "TICK\n"
                                       "METRICS fairness\n");
    // Labelled CSV: a leading pool column, the global series under
    // "_total", and one sub-series per pool (root included).
    EXPECT_NE(transcript.find("label,epoch,agents,checked"),
              std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("_total,1,"), std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("/,2,"), std::string::npos);
    EXPECT_NE(transcript.find("p0,2,"), std::string::npos);
}

TEST(PoolProtocol, WireRoundTripsEveryPoolSubOp)
{
    // Every POOL sub-op line parses into the command it spells, and
    // a line cut short draws one ERR instead of a misread.
    AllocationService service(pooledConfig());
    svc::CommandSession session(service);
    struct Case
    {
        std::string line;
        Command::PoolOp poolOp;
        std::string poolPath;
        std::string name;
        double poolWeight;
    };
    for (const Case &expected :
         {Case{"POOL CREATE teams/blue 2.5", Command::PoolOp::Create,
               "teams/blue", "", 2.5},
          Case{"POOL ASSIGN agent7 teams/blue",
               Command::PoolOp::Assign, "teams/blue", "agent7", 1.0},
          Case{"POOL QUERY", Command::PoolOp::Query, "", "", 1.0},
          Case{"POOL QUERY teams", Command::PoolOp::Query, "teams", "",
               1.0}}) {
        std::ostringstream out;
        Command parsed;
        EXPECT_EQ(session.parseLine(expected.line, out, parsed),
                  svc::CommandSession::LineStatus::Parsed)
            << expected.line;
        EXPECT_TRUE(out.str().empty()) << out.str();
        EXPECT_EQ(parsed.op, Command::Op::Pool);
        EXPECT_EQ(parsed.poolOp, expected.poolOp);
        EXPECT_EQ(parsed.poolPath, expected.poolPath);
        EXPECT_EQ(parsed.name, expected.name);
        EXPECT_EQ(parsed.poolWeight, expected.poolWeight);
    }

    std::ostringstream out;
    Command parsed;
    EXPECT_EQ(session.parseLine("POOL ASSIGN agent7", out, parsed),
              svc::CommandSession::LineStatus::Rejected);
    EXPECT_EQ(out.str().rfind("ERR ", 0), 0u) << out.str();
    EXPECT_NE(out.str().find("usage: POOL ASSIGN"), std::string::npos)
        << out.str();
    EXPECT_EQ(session.result().errors, 1u);
}

} // namespace
