#include "repl_protocol.hh"

#include "util/logging.hh"
#include "util/record_io.hh"

namespace ref::repl {

std::string
encodeReplMessage(const ReplMessage &message)
{
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(message.kind));
    switch (message.kind) {
    case MessageKind::Snapshot:
        writer.u64(message.streamId);
        writer.u64(message.seq);
        writer.str(message.payload);
        break;
    case MessageKind::Record:
        writer.u64(message.seq);
        writer.u64(message.timestampNs);
        writer.u32(message.stateHash);
        writer.str(message.payload);
        break;
    case MessageKind::Heartbeat:
        writer.u64(message.seq);
        writer.u64(message.timestampNs);
        break;
    case MessageKind::Ack:
        writer.u64(message.seq);
        writer.u64(message.timestampNs);
        break;
    }
    return writer.take();
}

ReplMessage
decodeReplMessage(std::string_view payload)
{
    ByteReader reader(payload);
    ReplMessage message;
    const std::uint8_t kind = reader.u8();
    REF_REQUIRE(
        kind >= static_cast<std::uint8_t>(MessageKind::Snapshot) &&
            kind <= static_cast<std::uint8_t>(MessageKind::Ack),
        "unknown replication frame kind "
            << static_cast<unsigned>(kind));
    message.kind = static_cast<MessageKind>(kind);
    switch (message.kind) {
    case MessageKind::Snapshot:
        message.streamId = reader.u64();
        message.seq = reader.u64();
        message.payload = reader.str();
        break;
    case MessageKind::Record:
        message.seq = reader.u64();
        message.timestampNs = reader.u64();
        message.stateHash = reader.u32();
        message.payload = reader.str();
        break;
    case MessageKind::Heartbeat:
    case MessageKind::Ack:
        message.seq = reader.u64();
        message.timestampNs = reader.u64();
        break;
    }
    REF_REQUIRE(reader.atEnd(),
                "replication frame has " << reader.remaining()
                                         << " trailing bytes");
    return message;
}

} // namespace ref::repl
