/**
 * @file
 * Replication sink seam between the allocation service and the
 * shipping layer (src/repl).
 *
 * The service publishes every journaled mutation through this
 * interface *after* it is applied and encoded, under the write
 * mutex, so a sink observes the exact record byte stream the WAL
 * holds, in WAL order. The sink lives one layer up (ref_repl
 * depends on ref_svc, not the reverse); the service only ever sees
 * this abstract edge.
 *
 * Durability ordering: the sink is notified when the record is
 * *appended*, not when it is durable. Shipped frames leave the
 * process through the same transport flush that acknowledges
 * clients, and that flush runs the group-commit barrier first — so
 * anything a follower receives was fsynced on the primary before it
 * hit the wire.
 */

#ifndef REF_SVC_REPLICATION_HH
#define REF_SVC_REPLICATION_HH

#include <cstdint>
#include <string>

namespace ref::svc {

/** Where the service hands accepted records for shipping. */
class ReplicationSink
{
  public:
    virtual ~ReplicationSink() = default;

    /**
     * One accepted record, already encoded as a journal-record
     * payload (encodeJournalRecord). @p isTick marks epoch ticks;
     * for those @p stateHash is the CRC32 of the service's full
     * post-tick state (generation zeroed), the follower's
     * divergence check — or 0 when wantsTickHash() returned false
     * for this tick (non-tick records always carry 0). Called under
     * the service write mutex.
     */
    virtual void onRecord(const std::string &payload, bool isTick,
                          std::uint64_t epoch,
                          std::uint32_t stateHash) = 0;

    /**
     * Whether the next tick record must carry the real state hash.
     * The hash costs a full state capture, encode and CRC per
     * tick, so a sink that no reader can see yet (no follower ever
     * subscribed) answers false and the service ships 0 instead.
     * Read under the service write mutex, just before onRecord.
     */
    virtual bool wantsTickHash() const { return true; }

    /** Sequence number of the last record handed to onRecord. */
    virtual std::uint64_t headSeq() const = 0;

    /**
     * The service replaced its state wholesale (adoptState — a
     * follower loading a snapshot resync). Records shipped before
     * this point describe a history that no longer leads to the
     * current state, so a sink that fans out to its own followers
     * must invalidate the stream: chained subscribers resync from a
     * fresh snapshot instead of silently applying on a stale base.
     * Called under the service write mutex, like onRecord.
     */
    virtual void onStateAdopted() {}
};

} // namespace ref::svc

#endif // REF_SVC_REPLICATION_HH
