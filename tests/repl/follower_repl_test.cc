/**
 * @file
 * End-to-end warm-standby tests: a real SocketServer primary with a
 * ReplicationHub, a real FollowerClient applying the shipped WAL
 * into a second AllocationService, all in one process on loopback.
 *
 * The invariant under test is the paper's bit-identity property:
 * because REF allocation is order-independent and exact, a follower
 * that replays the primary's WAL must reach the same state hash —
 * so these tests assert hash equality, not "roughly similar state".
 */

#include <chrono>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../net/net_test_util.hh"
#include "repl/follower.hh"
#include "repl/replication_hub.hh"
#include "svc/allocation_service.hh"

namespace ref::repl {
namespace {

using test::ServerHarness;
using test::TestClient;

/** Poll @p predicate until true or the deadline; true on success. */
bool
waitFor(const std::function<bool()> &predicate, int timeoutMs = 5000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
}

/** Primary harness with its hub wired into both layers. */
struct Primary
{
    explicit Primary(std::size_t ringCapacity = 8192)
        : hub(ringCapacity)
    {
        net::ServerOptions options;
        options.replicationHub = &hub;
        options.heartbeatIntervalMs = 50;
        harness =
            std::make_unique<ServerHarness>(svc::ServiceConfig{},
                                            options);
        harness->service().setReplicationSink(&hub);
    }

    ~Primary()
    {
        if (harness)
            harness->service().setReplicationSink(nullptr);
    }

    std::string address() const
    {
        return "127.0.0.1:" + std::to_string(harness->port());
    }

    ReplicationHub hub;
    std::unique_ptr<ServerHarness> harness;
};

/** Drive the primary over the text protocol like any client. */
void
runCommands(std::uint16_t port,
            const std::vector<std::string> &commands)
{
    TestClient client(port);
    for (const auto &command : commands) {
        client.sendAll(command + "\n");
        // TICK <n> answers one EPOCH line per epoch; everything
        // else used here answers a single OK line.
        std::size_t lines = 1;
        if (command.rfind("TICK ", 0) == 0)
            lines = std::stoul(command.substr(5));
        const std::string reply = client.readLines(lines);
        ASSERT_FALSE(reply.empty()) << "no reply to " << command;
        EXPECT_TRUE(reply.rfind("OK", 0) == 0 ||
                    reply.rfind("EPOCH", 0) == 0)
            << command << " -> " << reply;
    }
}

TEST(FollowerRepl, SyncAppliesAndMatchesPrimaryHash)
{
    Primary primary;
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = primary.address();
    FollowerClient follower(standby, options);
    follower.start();

    runCommands(primary.harness->port(),
                {"ADMIT web 1.0 0.4", "ADMIT batch 0.2 0.7",
                 "TICK 3"});

    // 3 admits/ticks pipeline through the hub; the last shipped
    // record is the third TICK.
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    })) << "follower lagged: applied "
        << follower.stats().lastAppliedSeq << " of "
        << primary.hub.headSeq();

    EXPECT_EQ(standby.stateHash(),
              primary.harness->service().stateHash());
    EXPECT_TRUE(follower.following());
    EXPECT_EQ(follower.stats().divergences, 0u);

    follower.stop();
}

TEST(FollowerRepl, LateJoinerBehindEvictedRingLoadsSnapshot)
{
    // Ring of 2: by the time the follower connects with cursor 0,
    // the tail has been evicted and the primary must answer the
    // SYNC with a full snapshot instead of records.
    Primary primary(2);
    runCommands(primary.harness->port(),
                {"ADMIT a 1 1", "ADMIT b 2 1", "ADMIT c 3 1",
                 "TICK 2"});

    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = primary.address();
    FollowerClient follower(standby, options);
    follower.start();

    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    }));
    EXPECT_GE(follower.stats().snapshotsLoaded, 1u);
    EXPECT_EQ(standby.stateHash(),
              primary.harness->service().stateHash());

    // The stream stays live after the snapshot: new primary records
    // keep flowing to the same session.
    runCommands(primary.harness->port(), {"TICK 1"});
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    }));
    EXPECT_EQ(standby.stateHash(),
              primary.harness->service().stateHash());

    follower.stop();
}

TEST(FollowerRepl, DivergenceIsDetectedAndHealedBySnapshotResync)
{
    Primary primary;
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = primary.address();
    FollowerClient follower(standby, options);
    follower.start();

    runCommands(primary.harness->port(),
                {"ADMIT web 1.0 0.4", "TICK 1"});
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    }));

    // Corrupt the standby out-of-band: an agent the primary never
    // shipped. The next shipped TICK's state hash cannot match, so
    // the follower must flag a divergence and resync — never drift.
    standby.admit("phantom", {0.5, 0.5});
    runCommands(primary.harness->port(), {"TICK 1"});

    ASSERT_TRUE(waitFor([&] {
        return follower.stats().divergences >= 1;
    })) << "divergence went undetected";
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
                   primary.hub.headSeq() &&
               standby.stateHash() ==
                   primary.harness->service().stateHash();
    })) << "resync did not converge";
    EXPECT_GE(follower.stats().snapshotsLoaded, 1u);

    follower.stop();
}

TEST(FollowerRepl, PromoteStopsFollowingAndOpensWrites)
{
    Primary primary;
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = primary.address();
    FollowerClient follower(standby, options);
    follower.start();

    runCommands(primary.harness->port(),
                {"ADMIT web 1.0 0.4", "TICK 1"});
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    }));

    std::string message;
    EXPECT_TRUE(follower.promote(message));
    EXPECT_NE(message.find("serving"), std::string::npos)
        << message;
    EXPECT_FALSE(follower.following());

    // Second promote is a no-op refusal, not a crash.
    std::string again;
    EXPECT_FALSE(follower.promote(again));

    // The promoted standby accepts mutations on its own timeline
    // while retaining the replicated history (snapshots publish on
    // ticks, so tick once to see the admit).
    standby.admit("newcomer", {1.0, 1.0});
    standby.tick();
    EXPECT_EQ(standby.snapshot()->agents.size(), 2u);

    // Records shipped after the flip must not land: the primary
    // ticks, the promoted standby's epoch stays its own.
    const auto epochBefore = standby.snapshot()->epoch;
    runCommands(primary.harness->port(), {"TICK 5"});
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(standby.snapshot()->epoch, epochBefore);

    follower.stop();
}

TEST(FollowerRepl, AutoPromoteFiresOnPrimarySilence)
{
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.promoteTimeoutMs = 300;
    options.reconnectDelayMs = 20;

    {
        Primary primary;
        options.address = primary.address();
        runCommands(primary.harness->port(),
                    {"ADMIT web 1.0 0.4", "TICK 1"});

        FollowerClient follower(standby, options);
        follower.start();
        ASSERT_TRUE(waitFor([&] {
            return follower.stats().lastAppliedSeq >=
                   primary.hub.headSeq();
        }));

        // Primary dies (harness teardown closes the listener and
        // every connection); the follower must flip on its own.
        primary.harness->stop();
        ASSERT_TRUE(waitFor(
            [&] { return !follower.following(); }, 5000))
            << "auto-promote never fired";
        EXPECT_EQ(standby.snapshot()->agents.size(), 1u);
        follower.stop();
    }
}

/**
 * A primary whose transport can go away and come back on the same
 * port while the service and hub live on: the follower's reconnect
 * then offers `SYNC <stream> <seq>` to the same stream.
 */
struct RestartablePrimary
{
    RestartablePrimary() { service.setReplicationSink(&hub); }

    ~RestartablePrimary()
    {
        stopServer();
        service.setReplicationSink(nullptr);
    }

    void startServer()
    {
        net::ServerOptions options;
        options.listenAddress = "127.0.0.1:" + std::to_string(port);
        options.replicationHub = &hub;
        options.heartbeatIntervalMs = 50;
        server = std::make_unique<net::SocketServer>(service, options);
        server->start();
        port = server->tcpPort();
        thread = std::thread([this] { server->run(); });
    }

    void stopServer()
    {
        if (thread.joinable()) {
            server->requestStop();
            thread.join();
        }
        server.reset();
    }

    svc::AllocationService service;
    ReplicationHub hub;
    std::uint16_t port = 0;
    std::unique_ptr<net::SocketServer> server;
    std::thread thread;
};

TEST(FollowerRepl, LateSubscriberAfterUnhashedTicksNeverDiverges)
{
    RestartablePrimary primary;
    primary.startServer();

    // Ticks with no follower ever subscribed ship unhashed.
    runCommands(primary.port, {"ADMIT web 1.0 0.4",
                               "ADMIT batch 0.2 0.7", "TICK 12"});
    std::vector<ReplicationHub::Entry> early;
    ASSERT_TRUE(primary.hub.fetchAfter(0, 100, early));
    ASSERT_EQ(early.size(), 14u);
    EXPECT_EQ(early.back().stateHash, 0u);

    // A late follower joins by snapshot, then follows hashed ticks.
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = "127.0.0.1:" + std::to_string(primary.port);
    options.reconnectDelayMs = 20;
    FollowerClient follower(standby, options);
    follower.start();
    const auto caughtUp = [&] {
        return follower.stats().lastAppliedSeq ==
               primary.hub.headSeq();
    };
    ASSERT_TRUE(waitFor(caughtUp));
    runCommands(primary.port, {"ADMIT scan 0.5 0.5", "TICK 4"});
    ASSERT_TRUE(waitFor(caughtUp));
    const FollowerClient::Stats joined = follower.stats();
    EXPECT_EQ(joined.snapshotsLoaded, 1u);

    // The transport goes away; the primary keeps ticking in
    // process while the follower cannot reach it.
    primary.stopServer();
    primary.service.update("web", {0.9, 0.5});
    for (int i = 0; i < 5; ++i)
        primary.service.tick();

    // Back on the same port: the follower tail-resumes across the
    // ticks it missed, and every one of them carries the real hash.
    primary.startServer();
    ASSERT_TRUE(waitFor(caughtUp))
        << "resume stalled: applied "
        << follower.stats().lastAppliedSeq << " of "
        << primary.hub.headSeq();

    const FollowerClient::Stats resumed = follower.stats();
    EXPECT_GT(resumed.reconnects, joined.reconnects);
    EXPECT_EQ(resumed.snapshotsLoaded, joined.snapshotsLoaded);
    EXPECT_EQ(resumed.divergences, 0u);
    EXPECT_EQ(standby.stateHash(), primary.service.stateHash());

    follower.stop();
}

TEST(FollowerRepl, FollowerChainsAsSecondHopReplica)
{
    // primary -> middle (follower that also runs a hub and server)
    // -> leaf. Chaining works because applyShipped re-journals and
    // re-ships through the middle service's own sink.
    Primary primary;

    ReplicationHub middleHub;
    net::ServerOptions middleOptions;
    middleOptions.replicationHub = &middleHub;
    middleOptions.heartbeatIntervalMs = 50;
    ServerHarness middle(svc::ServiceConfig{}, middleOptions);
    middle.service().setReplicationSink(&middleHub);

    FollowerClient::Options middleFollowOptions;
    middleFollowOptions.address = primary.address();
    FollowerClient middleFollower(middle.service(),
                                  middleFollowOptions);
    middleFollower.start();

    svc::AllocationService leaf;
    FollowerClient::Options leafOptions;
    leafOptions.address =
        "127.0.0.1:" + std::to_string(middle.port());
    FollowerClient leafFollower(leaf, leafOptions);
    leafFollower.start();

    // The middle must be subscribed before the primary takes
    // traffic: a middle that joins late gets the whole history as
    // one snapshot, its hub ships no records, and middleHub.headSeq()
    // stays 0.
    ASSERT_TRUE(waitFor([&] {
        return middleFollower.stats().snapshotsLoaded >= 1;
    })) << "middle never synced from the primary";
    runCommands(primary.harness->port(),
                {"ADMIT web 1.0 0.4", "ADMIT batch 0.2 0.7",
                 "TICK 4"});

    ASSERT_TRUE(waitFor([&] {
        return middleFollower.stats().lastAppliedSeq >=
                   primary.hub.headSeq() &&
               leafFollower.stats().lastAppliedSeq >=
                   middleHub.headSeq() &&
               middleHub.headSeq() > 0;
    })) << "chain stalled: primary head "
        << primary.hub.headSeq() << ", middle applied "
        << middleFollower.stats().lastAppliedSeq
        << ", middle head " << middleHub.headSeq()
        << ", middle snapshots "
        << middleFollower.stats().snapshotsLoaded
        << ", leaf applied "
        << leafFollower.stats().lastAppliedSeq;

    const auto primaryHash = primary.harness->service().stateHash();
    EXPECT_EQ(middle.service().stateHash(), primaryHash);
    EXPECT_EQ(leaf.stateHash(), primaryHash);

    leafFollower.stop();
    middleFollower.stop();
    middle.service().setReplicationSink(nullptr);
}

} // namespace
} // namespace ref::repl
