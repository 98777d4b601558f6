/**
 * Multi-client fan-in consistency: K concurrent TCP clients drive a
 * randomized ADMIT/UPDATE/DEPART churn + TICK sequence against one
 * server (lock-step, so the logical global command order is known),
 * then — after a drain barrier where every client's replies are
 * fully consumed — the final QUERY/PLAN output must be bit-identical
 * to a single-client stdio replay of the same logical sequence
 * through runSession(). The stdio replay runs with the incremental
 * self-check on, so this leans on the PR 2 ExactSum guarantee: the
 * fan-in path may not diverge from a from-scratch recompute by even
 * one bit.
 */

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net_test_util.hh"
#include "svc/protocol.hh"

namespace {

using namespace ref;

/** One logical command assigned to one client. */
struct Step
{
    std::size_t client;
    std::string line;
};

/** Seeded churn schedule: every step is a single-reply-line command
 *  (ADMIT/UPDATE/DEPART/TICK) so lock-step draining is exact. */
std::vector<Step>
generateSchedule(std::uint32_t seed, std::size_t clients,
                 std::size_t steps)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> elasticity(0.05, 4.0);
    std::vector<Step> schedule;
    std::vector<std::string> live;
    std::size_t nextId = 0;

    for (std::size_t i = 0; i < steps; ++i) {
        const std::size_t client = rng() % clients;
        std::ostringstream line;
        const int roll = static_cast<int>(rng() % 10);
        if (live.empty() || roll < 3) {
            const std::string name =
                "c" + std::to_string(client) + "w" +
                std::to_string(nextId++);
            line << "ADMIT " << name << " " << elasticity(rng)
                 << " " << elasticity(rng);
            live.push_back(name);
        } else if (roll < 5) {
            line << "UPDATE " << live[rng() % live.size()] << " "
                 << elasticity(rng) << " " << elasticity(rng);
        } else if (roll < 7 && live.size() > 1) {
            const std::size_t victim = rng() % live.size();
            line << "DEPART " << live[victim];
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(victim));
        } else {
            line << "TICK";
        }
        schedule.push_back({client, line.str()});
    }
    // Settle on a final epoch so QUERY reflects every mutation.
    schedule.push_back({0, "TICK"});
    return schedule;
}

TEST(FanInConsistency, SocketChurnMatchesStdioReplayBitForBit)
{
    constexpr std::size_t kClients = 6;
    constexpr std::size_t kSteps = 400;
    const std::vector<Step> schedule =
        generateSchedule(/*seed=*/20140302u, kClients, kSteps);

    svc::ServiceConfig config;
    config.epoch.verifyIncremental = true;
    config.epoch.hysteresis = 0.02;  // Exercise hold + update.

    // --- Socket side: K connections, lock-step fan-in. ---
    std::string socketFinal;
    {
        test::ServerHarness harness(config);
        std::vector<std::unique_ptr<test::TestClient>> clients;
        for (std::size_t c = 0; c < kClients; ++c)
            clients.push_back(std::make_unique<test::TestClient>(
                harness.port()));

        for (const Step &step : schedule) {
            test::TestClient &client = *clients[step.client];
            client.sendAll(step.line + "\n");
            // Drain barrier per step: every command above replies
            // with exactly one line.
            const std::string reply = client.readLines(1);
            ASSERT_FALSE(reply.empty()) << step.line;
            ASSERT_EQ(reply.find("ERR "), std::string::npos)
                << step.line << " -> " << reply;
        }

        // Final state through a different client than most churn.
        test::TestClient &reader = *clients[kClients - 1];
        reader.sendAll("QUERY\nPLAN\nSHUTDOWN\n");
        socketFinal = reader.readToEof();
        for (auto &client : clients)
            client->close();
        harness.stop();
        EXPECT_EQ(harness.stats().protocol.errors, 0u);
        EXPECT_EQ(harness.stats().protocol.epochFailures, 0u);
    }

    // --- Stdio side: identical logical sequence, one session. ---
    std::string stdioFinal;
    {
        std::ostringstream script;
        for (const Step &step : schedule)
            script << step.line << "\n";
        script << "QUERY\nPLAN\nSHUTDOWN\n";

        svc::AllocationService service(config);
        std::istringstream in(script.str());
        std::ostringstream out;
        const auto result = svc::runSession(service, in, out);
        EXPECT_TRUE(result.clean());
        EXPECT_TRUE(result.shutdown);

        // Cut the transcript down to the final QUERY/PLAN/SHUTDOWN
        // block (everything after the last EPOCH reply).
        const std::string all = out.str();
        const std::size_t snapshot = all.rfind("SNAPSHOT epoch=");
        ASSERT_NE(snapshot, std::string::npos);
        stdioFinal = all.substr(snapshot);
    }

    ASSERT_FALSE(socketFinal.empty());
    EXPECT_EQ(socketFinal, stdioFinal);
}

// The ShardedServer ids below predate the one-loop server (DESIGN.md
// "Text clients, a framed replication stream and one event loop");
// each checks, on the one loop, what it used to check across shards.

TEST(ShardedServer, SingleShardDegeneratesToClassicServer)
{
    test::ServerHarness harness;
    test::TestClient client(harness.port());
    client.sendAll("ADMIT solo 0.6 0.4\nSHUTDOWN\n");
    const std::string transcript = client.readToEof();
    EXPECT_NE(transcript.find("OK admitted solo"), std::string::npos);
    EXPECT_NE(transcript.find("OK shutdown"), std::string::npos);
    const net::ServerStats &stats = harness.stop();
    EXPECT_TRUE(stats.shutdown);
    EXPECT_EQ(stats.accepted, 1u);
}

TEST(ShardedServer, ClientsShareOneServiceAcrossShards)
{
    test::ServerHarness harness;
    // Each client admits its own agent; after one TICK every client
    // must see every agent.
    constexpr std::size_t kClients = 12;
    std::vector<std::unique_ptr<test::TestClient>> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        clients.push_back(
            std::make_unique<test::TestClient>(harness.port()));
        clients.back()->sendAll("ADMIT agent" + std::to_string(i) +
                                " 0.6 0.4\n");
        const std::string reply = clients.back()->readLines(1);
        ASSERT_EQ(reply.rfind("OK admitted", 0), 0u) << reply;
    }
    clients.front()->sendAll("TICK\n");
    ASSERT_EQ(clients.front()->readLines(1).rfind("EPOCH", 0), 0u);
    for (auto &client : clients) {
        client->sendAll("QUERY\n");
        EXPECT_EQ(test::countPrefixed(client->readLines(1 + kClients),
                                      "SHARE "),
                  kClients);
    }
    clients.clear();
    EXPECT_EQ(harness.stop().accepted, kClients);
}

TEST(ShardedServer, ShutdownOnAnyShardStopsAll)
{
    test::ServerHarness harness;
    // SHUTDOWN on one connection drains and closes every other one,
    // and the run ends without requestStop.
    std::vector<std::unique_ptr<test::TestClient>> idle;
    for (std::size_t i = 0; i < 6; ++i) {
        idle.push_back(
            std::make_unique<test::TestClient>(harness.port()));
        idle.back()->sendAll("STATS\n");
        ASSERT_FALSE(idle.back()->readLines(1).empty());
    }
    test::TestClient killer(harness.port());
    killer.sendAll("SHUTDOWN\n");
    EXPECT_NE(killer.readLines(1).find("OK shutdown"),
              std::string::npos);
    EXPECT_TRUE(killer.waitForClose());
    for (auto &client : idle)
        EXPECT_TRUE(client->waitForClose());
    const net::ServerStats &stats = harness.stop();
    EXPECT_TRUE(stats.shutdown);
    EXPECT_EQ(stats.accepted, 7u);
}

} // namespace
