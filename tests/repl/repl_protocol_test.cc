/**
 * @file
 * Replication frame codec: round-trips, the kind byte range, and
 * malformed-byte rejection.
 */

#include <gtest/gtest.h>

#include <string>

#include "repl/repl_protocol.hh"
#include "util/logging.hh"

namespace ref::repl {
namespace {

TEST(ReplProtocol, SnapshotRoundTrip)
{
    ReplMessage message;
    message.kind = MessageKind::Snapshot;
    message.streamId = 0xfeedfacecafebeefULL;
    message.seq = 42;
    message.payload = std::string("state\0bytes", 11);

    const ReplMessage decoded =
        decodeReplMessage(encodeReplMessage(message));
    EXPECT_EQ(decoded.kind, MessageKind::Snapshot);
    EXPECT_EQ(decoded.streamId, message.streamId);
    EXPECT_EQ(decoded.seq, 42u);
    EXPECT_EQ(decoded.payload, message.payload);
}

TEST(ReplProtocol, RecordRoundTrip)
{
    ReplMessage message;
    message.kind = MessageKind::Record;
    message.seq = 7;
    message.timestampNs = 123456789;
    message.stateHash = 0xdeadbeef;
    message.payload = "journal-record-bytes";

    const ReplMessage decoded =
        decodeReplMessage(encodeReplMessage(message));
    EXPECT_EQ(decoded.kind, MessageKind::Record);
    EXPECT_EQ(decoded.seq, 7u);
    EXPECT_EQ(decoded.timestampNs, 123456789u);
    EXPECT_EQ(decoded.stateHash, 0xdeadbeefu);
    EXPECT_EQ(decoded.payload, "journal-record-bytes");
}

TEST(ReplProtocol, HeartbeatAndAckRoundTrip)
{
    for (const MessageKind kind :
         {MessageKind::Heartbeat, MessageKind::Ack}) {
        ReplMessage message;
        message.kind = kind;
        message.seq = 99;
        message.timestampNs = 5000;
        const ReplMessage decoded =
            decodeReplMessage(encodeReplMessage(message));
        EXPECT_EQ(decoded.kind, kind);
        EXPECT_EQ(decoded.seq, 99u);
        EXPECT_EQ(decoded.timestampNs, 5000u);
        EXPECT_TRUE(decoded.payload.empty());
    }
}

TEST(ReplProtocol, KindRangeIsDisjointFromCommandsAndReplies)
{
    // Only replication frames share the CRC framing now, so what is
    // left to pin is the replication half: every kind encodes as its
    // own first byte in 0x40..0x43, and the bytes just outside that
    // range (or no byte at all) decode loudly, never plausibly.
    for (const MessageKind kind :
         {MessageKind::Snapshot, MessageKind::Record,
          MessageKind::Heartbeat, MessageKind::Ack}) {
        ReplMessage message;
        message.kind = kind;
        const std::string payload = encodeReplMessage(message);
        ASSERT_FALSE(payload.empty());
        EXPECT_EQ(static_cast<std::uint8_t>(payload.front()),
                  static_cast<std::uint8_t>(kind));
        EXPECT_GE(static_cast<std::uint8_t>(payload.front()), 0x40);
        EXPECT_LE(static_cast<std::uint8_t>(payload.front()), 0x43);
    }
    EXPECT_THROW(decodeReplMessage(""), FatalError);
    EXPECT_THROW(decodeReplMessage("\x3f"), FatalError);
    EXPECT_THROW(decodeReplMessage("\x44"), FatalError);
}

TEST(ReplProtocol, RejectsUnknownKind)
{
    EXPECT_THROW(decodeReplMessage("\x39"), FatalError);
    EXPECT_THROW(decodeReplMessage("\x7f"), FatalError);
}

TEST(ReplProtocol, RejectsTruncatedAndTrailingBytes)
{
    ReplMessage message;
    message.kind = MessageKind::Record;
    message.seq = 1;
    message.payload = "x";
    const std::string encoded = encodeReplMessage(message);

    EXPECT_THROW(
        decodeReplMessage(std::string_view(encoded).substr(
            0, encoded.size() - 1)),
        FatalError);
    EXPECT_THROW(decodeReplMessage(encoded + "!"), FatalError);
}

/** Every truncation point of every kind must throw, never crash or
 *  silently succeed — the torn-frame contract of the channel. */
TEST(ReplProtocol, EveryTruncationThrows)
{
    ReplMessage snapshot;
    snapshot.kind = MessageKind::Snapshot;
    snapshot.streamId = 1;
    snapshot.seq = 2;
    snapshot.payload = "payload";
    ReplMessage record;
    record.kind = MessageKind::Record;
    record.seq = 3;
    record.timestampNs = 4;
    record.stateHash = 5;
    record.payload = "r";
    ReplMessage ack;
    ack.kind = MessageKind::Ack;
    ack.seq = 6;
    ack.timestampNs = 7;

    for (const ReplMessage &message : {snapshot, record, ack}) {
        const std::string encoded = encodeReplMessage(message);
        for (std::size_t cut = 1; cut < encoded.size(); ++cut)
            EXPECT_THROW(
                decodeReplMessage(
                    std::string_view(encoded).substr(0, cut)),
                FatalError)
                << "kind " << static_cast<int>(message.kind)
                << " cut at " << cut;
    }
}

} // namespace
} // namespace ref::repl
