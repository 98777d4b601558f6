/**
 * @file
 * Adversarial replication channel. A follower subscribes with the
 * text line SYNC; from then on the connection carries only CRC32
 * replication frames, and the server reads nothing from a replica
 * but Acks. A bad SYNC line draws exactly one ERR and the session
 * continues; a torn, corrupt, oversized or off-protocol inbound
 * frame drops the replica, and the follower's reconnect resyncs it
 * from its cursor — never a silently divergent replica.
 */

#include <string>

#include "net_test_util.hh"
#include "repl/repl_protocol.hh"
#include "repl/replication_hub.hh"
#include "util/record_io.hh"

namespace ref::test {
namespace {

/** A frame whose CRC field is flipped; the payload itself is
 *  well-formed. */
std::string
corruptCrcFrame(const std::string &payload)
{
    std::string framed = frameRecord(payload);
    framed[4] ^= 0x5a;  // CRC is bytes [4, 8).
    return framed;
}

std::string
syncLine(std::uint64_t streamId = 0, std::uint64_t seq = 0)
{
    return "SYNC " + std::to_string(streamId) + " " +
           std::to_string(seq) + "\n";
}

/** Next replication frame of @p kind, skipping heartbeats. */
bool
nextReplFrame(TestClient &client, repl::MessageKind kind,
              repl::ReplMessage &out, int timeoutMs = 5000)
{
    std::string payload;
    while (client.readFrameUnit(payload, timeoutMs)) {
        out = repl::decodeReplMessage(payload);
        if (out.kind == kind)
            return true;
    }
    return false;
}

/** A server with a hub wired in as the service's replication sink. */
struct ReplicatingServer
{
    explicit ReplicatingServer(int heartbeatIntervalMs = 1000,
                               bool echo = false)
        : harness({}, [&] {
              net::ServerOptions options;
              options.replicationHub = &hub;
              options.heartbeatIntervalMs = heartbeatIntervalMs;
              options.session.echo = echo;
              return options;
          }())
    {
        harness.service().setReplicationSink(&hub);
    }

    const net::ServerStats &stop()
    {
        harness.service().setReplicationSink(nullptr);
        return harness.stop();
    }

    repl::ReplicationHub hub;
    ServerHarness harness;
};

/** Subscribe @p client from scratch: OK line, then the Snapshot. */
void
subscribe(TestClient &client, repl::ReplMessage &snapshot)
{
    client.sendAll(syncLine());
    const std::string ok = client.readLines(1);
    ASSERT_EQ(ok.rfind("OK sync stream=", 0), 0u) << ok;
    EXPECT_NE(ok.find(" snapshot=1"), std::string::npos) << ok;
    ASSERT_TRUE(nextReplFrame(client, repl::MessageKind::Snapshot,
                              snapshot));
}

TEST(BinaryFuzz, TornSyncHelloDrawsOneErrThenCloses)
{
    ReplicatingServer server;
    TestClient client(server.harness.port());

    // A SYNC line torn before its cursor, then one torn before its
    // newline, then EOF: the first draws the usage ERR, the second
    // never executes, and neither registers a replica.
    client.sendAll("SYNC 0\nSYNC 0 ");
    client.shutdownWrite();
    const std::string transcript = client.readToEof();
    EXPECT_EQ(countPrefixed(transcript, "ERR "), 1u) << transcript;
    EXPECT_NE(transcript.find("usage: SYNC <streamId> <seq>\n"),
              std::string::npos)
        << transcript;
    EXPECT_EQ(transcript.find("OK"), std::string::npos) << transcript;
    EXPECT_TRUE(client.waitForClose());
    const net::ServerStats &stats = server.stop();
    EXPECT_EQ(stats.replicas, 0u);
    EXPECT_EQ(stats.protocol.errors, 1u);
}

TEST(BinaryFuzz, CorruptSyncHelloDrawsOneErrThenCleanSubscribe)
{
    ReplicatingServer server;
    TestClient client(server.harness.port());

    // Garbled cursors: one ERR each, the session survives. A
    // cursor past 2^64 is garbled too, not rounded.
    client.sendAll("SYNC 0 x\nSYNC -1 0\n"
                   "SYNC 18446744073709551616 0\n");
    const std::string errs = client.readLines(3);
    EXPECT_EQ(countPrefixed(errs, "ERR "), 3u) << errs;

    // The retried SYNC subscribes cleanly: OK line, then the full
    // snapshot (cursor 0 on a fresh stream always resyncs).
    repl::ReplMessage snapshot;
    subscribe(client, snapshot);
    EXPECT_EQ(snapshot.streamId, server.hub.streamId());
    client.close();
    const net::ServerStats &stats = server.stop();
    EXPECT_EQ(stats.replicas, 1u);
    EXPECT_EQ(stats.badFrames, 0u);
}

TEST(BinaryFuzz, EchoedSessionStillAnswersSyncWithOneLine)
{
    // A server that echoes command lines (--echo) echoes none for
    // SYNC: a subscriber reads exactly one reply line, then frames.
    ReplicatingServer server(/*heartbeatIntervalMs=*/1000,
                             /*echo=*/true);
    TestClient client(server.harness.port());
    repl::ReplMessage snapshot;
    subscribe(client, snapshot);
    EXPECT_EQ(snapshot.streamId, server.hub.streamId());
    client.close();
    EXPECT_EQ(server.stop().replicas, 1u);
}

TEST(BinaryFuzz, CorruptAckMidStreamKeepsRecordsFlowing)
{
    ReplicatingServer server(/*heartbeatIntervalMs=*/50);
    TestClient follower(server.harness.port());
    repl::ReplMessage snapshot;
    subscribe(follower, snapshot);

    // A CRC-corrupt Ack mid-stream is off-protocol: the replica is
    // dropped rather than trusted.
    repl::ReplMessage ack;
    ack.kind = repl::MessageKind::Ack;
    ack.seq = snapshot.seq;
    follower.sendAll(corruptCrcFrame(repl::encodeReplMessage(ack)));
    EXPECT_TRUE(follower.waitForClose());

    // New WAL records land while the follower is away...
    TestClient driver(server.harness.port());
    driver.sendAll("ADMIT web 1.0 0.4\nTICK 1\n");
    driver.readLines(2);

    // ...and its reconnect resumes from the cursor it holds: no
    // snapshot, the records flow on from the next sequence.
    TestClient again(server.harness.port());
    again.sendAll(syncLine(snapshot.streamId, snapshot.seq));
    const std::string ok = again.readLines(1);
    EXPECT_EQ(ok.rfind("OK sync stream=", 0), 0u) << ok;
    EXPECT_NE(ok.find(" snapshot=0"), std::string::npos) << ok;
    repl::ReplMessage record;
    ASSERT_TRUE(nextReplFrame(again, repl::MessageKind::Record,
                              record));
    EXPECT_EQ(record.seq, snapshot.seq + 1);

    again.close();
    driver.close();
    const net::ServerStats &stats = server.stop();
    EXPECT_EQ(stats.badFrames, 1u);
    EXPECT_EQ(stats.replicas, 2u);
    EXPECT_EQ(stats.dropped, 1u);
}

TEST(BinaryFuzz, UndecodableReplicaFrameDropsThenResyncHeals)
{
    ReplicatingServer server;
    TestClient broken(server.harness.port());
    repl::ReplMessage snapshot;
    subscribe(broken, snapshot);

    // CRC-valid but not an Ack (a truncated Record kind byte): a
    // replica off-protocol is dropped — the reconnect path owns the
    // repair, so a lying peer can never feed the gauges garbage.
    broken.sendFrame(std::string("\x41", 1));
    EXPECT_TRUE(broken.waitForClose());

    // The drop healed, not hid: a fresh subscription resyncs from a
    // snapshot as if nothing happened.
    TestClient again(server.harness.port());
    subscribe(again, snapshot);
    again.close();
    const net::ServerStats &stats = server.stop();
    EXPECT_EQ(stats.badFrames, 1u);
    EXPECT_EQ(stats.replicas, 2u);
}

TEST(BinaryFuzz, OversizedAckFrameDropsReplicaBeforeBuffering)
{
    ReplicatingServer server;
    TestClient follower(server.harness.port());
    repl::ReplMessage snapshot;
    subscribe(follower, snapshot);

    // A header declaring 1 MiB, and not a byte of it: the declared
    // length alone is off-protocol for an Ack, so the drop comes
    // now, not after the server has buffered a megabyte.
    ByteWriter header;
    header.u32(1u << 20);
    header.u32(0xdeadbeef);
    follower.sendAll(header.take());
    EXPECT_TRUE(follower.waitForClose());
    const net::ServerStats &stats = server.stop();
    EXPECT_EQ(stats.badFrames, 1u);
    EXPECT_EQ(stats.dropped, 1u);
}

TEST(BinaryFuzz, SyncWithoutHubDrawsOneErrAndSessionContinues)
{
    ServerHarness harness;
    TestClient client(harness.port());
    client.sendAll(syncLine() + "STATS\n");
    const std::string err = client.readLines(1);
    EXPECT_EQ(err, "ERR replication not enabled\n");
    EXPECT_NE(client.readLines(1).find("admits="), std::string::npos);
    client.close();
    const net::ServerStats &stats = harness.stop();
    EXPECT_EQ(stats.replicas, 0u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.protocol.errors, 1u);
}

} // namespace
} // namespace ref::test
