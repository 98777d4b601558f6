/**
 * @file
 * Frame payloads of the WAL shipping stream.
 *
 * After a socket connection's `SYNC <streamId> <seq>` line is
 * accepted (one "OK sync ..." reply line), the connection carries
 * only CRC32 record frames (util/record_io.hh) whose payloads are
 * these messages. The first payload byte is the kind; an unknown
 * kind decodes loudly, never plausibly.
 *
 *   Snapshot   primary -> follower: full encoded ServiceState, the
 *              stream identity, and the sequence the state covers
 *              (records after it are exactly what the state lacks).
 *   Record     primary -> follower: one journal-record payload —
 *              the literal WAL bytes — with its sequence, the
 *              ship-time wall clock, and (ticks only) the primary's
 *              post-tick state hash for the divergence check.
 *   Heartbeat  primary -> follower: liveness + head sequence, so a
 *              caught-up follower can see the primary is idle (and
 *              a silent one is dead: the promote timeout runs on
 *              heartbeat arrival, not record arrival).
 *   Ack        follower -> primary: last applied sequence and the
 *              measured ship lag, feeding the ref_repl_* gauges.
 */

#ifndef REF_REPL_REPL_PROTOCOL_HH
#define REF_REPL_REPL_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace ref::repl {

/** First payload byte of every replication frame. */
enum class MessageKind : std::uint8_t {
    Snapshot = 0x40,
    Record = 0x41,
    Heartbeat = 0x42,
    Ack = 0x43,
};

/** One decoded replication frame payload. */
struct ReplMessage
{
    MessageKind kind = MessageKind::Heartbeat;
    /** Snapshot: the primary's stream identity. */
    std::uint64_t streamId = 0;
    /** Snapshot: sequence the state covers through. Record: this
     *  record's sequence. Heartbeat: head sequence. Ack: last
     *  applied sequence. */
    std::uint64_t seq = 0;
    /** Record: CLOCK_REALTIME ns at ship time. Heartbeat: ns at
     *  send. Ack: measured ship lag in ns. */
    std::uint64_t timestampNs = 0;
    /** Record, ticks only: primary's post-tick state hash; 0 for
     *  every other record type. */
    std::uint32_t stateHash = 0;
    /** Snapshot: encodeServiceState bytes. Record: the journal
     *  record payload (encodeJournalRecord). */
    std::string payload;
};

/** Encode to a frame payload (wrap with frameRecord for the wire). */
std::string encodeReplMessage(const ReplMessage &message);

/** Decode a frame payload; throws FatalError on malformed bytes. */
ReplMessage decodeReplMessage(std::string_view payload);

} // namespace ref::repl

#endif // REF_REPL_REPL_PROTOCOL_HH
