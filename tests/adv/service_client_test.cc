/**
 * @file
 * adv::ServiceClient against an in-process pooled socket server,
 * through the sequence ref_bomb --pools sends: POOL CREATEs, then
 * each ADMIT trailed by its POOL ASSIGN (pipelined, as the untimed
 * prologue sends them), then QUERY and TICK one at a time. Every
 * reply line is checked, and the shares must equal those of a
 * service fed the same doubles in-process, which holds only when
 * the rendered lines carry every bit the client drew.
 *
 * A refused connect must close its socket: ref_bomb's failover
 * retries it every 10 ms until the standby listens.
 */

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adv/socket_client.hh"
#include "net/net_test_util.hh"
#include "util/logging.hh"

namespace {

using namespace ref;
using Op = svc::Command::Op;
using PoolOp = svc::Command::PoolOp;

svc::ServiceConfig
pooledConfig()
{
    svc::ServiceConfig config;
    config.pooled = true;
    config.buildEnforcement = false;
    return config;
}

struct Agent
{
    std::string name;
    linalg::Vector elasticities;
    std::string pool;
};

TEST(ServiceClient, DrivesAPooledServerThroughRefBombsSequence)
{
    // ref_bomb draws k / 1002; 493 / 1002 needs all 17 digits.
    const std::vector<Agent> agents = {
        {"b0_0", {493.0 / 1002.0, 17.0 / 1002.0}, "p1"},
        {"b0_1", {1.0 / 1002.0, 1001.0 / 1002.0}, "p0"},
        {"b0_2", {500.0 / 1002.0, 333.0 / 1002.0}, "p1"},
    };

    test::ServerHarness harness(pooledConfig());
    adv::ServiceClient client("127.0.0.1:" +
                              std::to_string(harness.port()));

    std::vector<svc::Command> prologue;
    std::vector<std::string> expected;
    for (const char *path : {"p0", "p1"}) {
        svc::Command create;
        create.op = Op::Pool;
        create.poolOp = PoolOp::Create;
        create.poolPath = path;
        prologue.push_back(create);
    }
    // The root counts as a pool.
    expected = {"OK pool p0 weight=1 pools=2",
                "OK pool p1 weight=1 pools=3"};
    for (std::size_t i = 0; i < agents.size(); ++i) {
        svc::Command admit;
        admit.op = Op::Admit;
        admit.name = agents[i].name;
        admit.elasticities = agents[i].elasticities;
        prologue.push_back(admit);
        svc::Command assign;
        assign.op = Op::Pool;
        assign.poolOp = PoolOp::Assign;
        assign.name = agents[i].name;
        assign.poolPath = agents[i].pool;
        prologue.push_back(assign);
        expected.push_back("OK admitted " + agents[i].name +
                           " agents=" + std::to_string(i + 1));
        expected.push_back("OK assigned " + agents[i].name +
                           " pool=" + agents[i].pool);
    }
    EXPECT_EQ(client.roundTripAll(prologue), expected);

    // The same agents fed in-process, doubles untouched.
    svc::AllocationService reference(pooledConfig());
    reference.createPool("p0", 1.0);
    reference.createPool("p1", 1.0);
    for (const Agent &agent : agents) {
        reference.admit(agent.name, agent.elasticities);
        reference.assignPool(agent.name, agent.pool);
    }

    for (const Agent &agent : agents) {
        svc::Command query;
        query.op = Op::Query;
        query.hasName = true;
        query.name = agent.name;
        std::string share = "SHARE " + agent.name;
        for (const double value : reference.agentShares(agent.name)) {
            share += ' ';
            share += svc::formatDouble(value);
        }
        EXPECT_EQ(client.roundTrip(query), share);
        EXPECT_EQ(harness.service().agentPool(agent.name), agent.pool);
    }

    svc::Command tick;
    tick.op = Op::Tick;
    const std::string epoch = client.roundTrip(tick);
    EXPECT_EQ(epoch.rfind("EPOCH 1 agents=3 pools=3 ", 0), 0u) << epoch;
    EXPECT_NE(epoch.find(" selfcheck=ok"), std::string::npos) << epoch;

    EXPECT_EQ(client.commandsSent(), prologue.size() + agents.size() + 1);
    EXPECT_EQ(harness.service().metrics().rejected, 0u);
}

std::size_t
openDescriptors()
{
    std::size_t count = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++count;
    return count;
}

TEST(ServiceClient, RefusedConnectsLeakNoDescriptors)
{
    // A loopback port that was just free: bind it, then let it go.
    std::uint16_t port = 0;
    {
        test::ServerHarness harness;
        port = harness.port();
    }
    const std::string target = "127.0.0.1:" + std::to_string(port);
    const std::size_t before = openDescriptors();
    for (int attempt = 0; attempt < 64; ++attempt)
        EXPECT_THROW(adv::ServiceClient client(target), FatalError);
    EXPECT_EQ(openDescriptors(), before);
}

} // namespace
