/**
 * @file
 * Primary-side fan-out point of the replication stream.
 *
 * The hub sits on the svc::ReplicationSink seam: every journaled
 * record arrives (encoded, in WAL order, under the service write
 * mutex), gets the next sequence number of this primary's stream,
 * and lands in a bounded ring. The transport's event loop pulls
 * entries after each subscriber's cursor; a cursor that has fallen
 * off the ring's tail forces a snapshot resync — exactly the
 * compaction story the journal already tells on disk, replayed over
 * the wire.
 *
 * Stream identity: streamId is minted once per hub (wall clock ^
 * pid), so a follower reconnecting after a primary restart presents
 * a stale id and is resynced from a snapshot instead of being fed a
 * tail from a different history.
 *
 * Lag accounting: follower Acks report the last applied sequence
 * and the measured ship lag; both surface as ref_repl_* series on
 * the process-global registry (scraped through METRICS prom like
 * the ref_net_* transport counters).
 */

#ifndef REF_REPL_REPLICATION_HUB_HH
#define REF_REPL_REPLICATION_HUB_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "svc/replication.hh"

namespace ref::repl {

/** Fan-out ring between the service and the transport. */
class ReplicationHub final : public svc::ReplicationSink
{
  public:
    /** One shipped record as the transport sees it. */
    struct Entry
    {
        std::uint64_t seq = 0;
        std::string payload;  //!< encodeJournalRecord bytes.
        std::uint64_t shipTimestampNs = 0;
        std::uint32_t stateHash = 0;  //!< Ticks only; else 0.
        bool isTick = false;
    };

    explicit ReplicationHub(std::size_t ringCapacity = 8192);

    /** @name svc::ReplicationSink */
    ///@{
    void onRecord(const std::string &payload, bool isTick,
                  std::uint64_t epoch,
                  std::uint32_t stateHash) override;
    std::uint64_t headSeq() const override;
    /** State replaced wholesale (snapshot resync on a chained
     *  follower): drop the ring and mint a fresh stream identity so
     *  every subscriber is forced onto a snapshot of the new
     *  history instead of tailing records from the old one. */
    void onStateAdopted() override;
    /** False until the first noteSubscribe(), then true for good:
     *  every record after a subscriber's snapshot point carries the
     *  real tick hash (see DESIGN.md, "Hash only what a follower
     *  can read"). */
    bool wantsTickHash() const override
    {
        return hashWanted_.load();
    }
    ///@}

    /** This primary incarnation's stream identity (never 0). */
    std::uint64_t streamId() const
    {
        return streamId_.load(std::memory_order_relaxed);
    }

    /**
     * Copy up to @p maxEntries entries with seq > @p cursor into
     * @p out. False when cursor+1 has been evicted from the ring —
     * the subscriber is too far behind and must snapshot-resync.
     * (cursor == headSeq returns true with no entries.)
     */
    bool fetchAfter(std::uint64_t cursor, std::size_t maxEntries,
                    std::vector<Entry> &out) const;

    /**
     * Register a wake hook (self-pipe write); fired after every
     * onRecord so a poll-blocked event loop pumps its replica
     * connections promptly (records also arrive from off the loop:
     * stdio sessions and a chained follower's apply thread).
     * Hooks must be async-safe-ish: they run under no hub lock but
     * on the mutating thread.
     */
    void addWakeCallback(std::function<void()> callback);

    /** @name Gauge feed from the transport. */
    ///@{
    void noteAck(std::uint64_t seq, std::uint64_t lagNs);
    void noteSubscribe();
    void noteUnsubscribe();
    void noteSnapshotSync();
    void noteHeartbeat();
    ///@}

  private:
    mutable std::mutex mutex_;
    std::deque<Entry> ring_;
    std::size_t capacity_;
    std::uint64_t head_ = 0;  //!< Seq of the newest entry; 0 = none.
    /** Atomic: reset by onStateAdopted while transports read it. */
    std::atomic<std::uint64_t> streamId_;
    std::vector<std::function<void()>> wakeCallbacks_;
    /** Sticky: set by the first noteSubscribe, never cleared. A
     *  resubscribing follower tail-resumes across records shipped
     *  while it was away, so those must carry the hash too. */
    std::atomic<bool> hashWanted_{false};

    obs::Gauge &headSeqGauge_;
    obs::Gauge &ackedSeqGauge_;
    obs::Gauge &lagRecordsGauge_;
    obs::Gauge &followersGauge_;
    obs::Counter &shipped_;
    obs::Counter &snapshotSyncs_;
    obs::Counter &heartbeats_;
    obs::Histogram &shipLagNs_;
    std::int64_t followers_ = 0;
};

} // namespace ref::repl

#endif // REF_REPL_REPLICATION_HUB_HH
