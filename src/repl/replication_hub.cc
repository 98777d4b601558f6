#include "replication_hub.hh"

#include <unistd.h>

#include <chrono>

namespace ref::repl {

namespace {

std::uint64_t
wallClockNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
mintStreamId()
{
    // Unique per primary incarnation, never 0 (0 is the follower's
    // "no stream yet" sentinel that forces a snapshot resync).
    const std::uint64_t id =
        wallClockNs() ^
        (static_cast<std::uint64_t>(::getpid()) << 32);
    return id == 0 ? 1 : id;
}

} // namespace

ReplicationHub::ReplicationHub(std::size_t ringCapacity)
    : capacity_(ringCapacity == 0 ? 1 : ringCapacity),
      streamId_(mintStreamId()),
      headSeqGauge_(obs::MetricsRegistry::global().gauge(
          "ref_repl_head_seq",
          "Newest WAL record sequence shipped by this primary")),
      ackedSeqGauge_(obs::MetricsRegistry::global().gauge(
          "ref_repl_acked_seq",
          "Last record sequence acknowledged by a follower")),
      lagRecordsGauge_(obs::MetricsRegistry::global().gauge(
          "ref_repl_follower_lag_records",
          "Records between the stream head and the last follower "
          "ack")),
      followersGauge_(obs::MetricsRegistry::global().gauge(
          "ref_repl_followers",
          "Currently subscribed replication followers")),
      shipped_(obs::MetricsRegistry::global().counter(
          "ref_repl_records_shipped_total",
          "WAL records handed to the replication stream")),
      snapshotSyncs_(obs::MetricsRegistry::global().counter(
          "ref_repl_snapshot_syncs_total",
          "Followers (re)synced from a full state snapshot")),
      heartbeats_(obs::MetricsRegistry::global().counter(
          "ref_repl_heartbeats_total",
          "Heartbeat frames sent to followers")),
      shipLagNs_(obs::MetricsRegistry::global().histogram(
          "ref_repl_ship_lag_ns",
          "Follower-measured ship-to-apply lag in nanoseconds "
          "(log-2 buckets)",
          40))
{}

void
ReplicationHub::onRecord(const std::string &payload, bool isTick,
                         std::uint64_t epoch [[maybe_unused]],
                         std::uint32_t stateHash)
{
    std::vector<std::function<void()>> callbacks;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry entry;
        entry.seq = ++head_;
        entry.payload = payload;
        entry.shipTimestampNs = wallClockNs();
        entry.stateHash = stateHash;
        entry.isTick = isTick;
        ring_.push_back(std::move(entry));
        while (ring_.size() > capacity_)
            ring_.pop_front();
        callbacks = wakeCallbacks_;
    }
    shipped_.add();
    headSeqGauge_.set(static_cast<double>(headSeq()));
    for (const auto &wake : callbacks)
        wake();
}

std::uint64_t
ReplicationHub::headSeq() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return head_;
}

void
ReplicationHub::onStateAdopted()
{
    std::vector<std::function<void()>> callbacks;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ring_.clear();
        head_ = 0;
        // Mix in the old identity: mintStreamId is wall-clock
        // granular, and an adoption can land within the same tick
        // it was minted on. The new id must differ or a chained
        // follower would tail-resume across the history break.
        const std::uint64_t old =
            streamId_.load(std::memory_order_relaxed);
        std::uint64_t fresh = mintStreamId() ^ (old << 1);
        if (fresh == 0 || fresh == old)
            fresh = old + 1 == 0 ? 1 : old + 1;
        streamId_.store(fresh, std::memory_order_relaxed);
        callbacks = wakeCallbacks_;
    }
    headSeqGauge_.set(0);
    // Wake the transports: their replica cursors now point past the
    // (empty) ring, so the next pump snapshot-resyncs each one.
    for (const auto &wake : callbacks)
        wake();
}

bool
ReplicationHub::fetchAfter(std::uint64_t cursor,
                           std::size_t maxEntries,
                           std::vector<Entry> &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (cursor > head_)
        return false;  // A future cursor is a different stream.
    if (cursor == head_)
        return true;
    // Oldest seq still held; entries are contiguous by design.
    const std::uint64_t tail = head_ - ring_.size() + 1;
    if (cursor + 1 < tail)
        return false;  // Evicted: subscriber must snapshot-resync.
    const std::size_t first =
        static_cast<std::size_t>(cursor + 1 - tail);
    for (std::size_t i = first;
         i < ring_.size() && out.size() < maxEntries; ++i)
        out.push_back(ring_[i]);
    return true;
}

void
ReplicationHub::addWakeCallback(std::function<void()> callback)
{
    std::lock_guard<std::mutex> lock(mutex_);
    wakeCallbacks_.push_back(std::move(callback));
}

void
ReplicationHub::noteAck(std::uint64_t seq, std::uint64_t lagNs)
{
    ackedSeqGauge_.set(static_cast<double>(seq));
    const std::uint64_t head = headSeq();
    lagRecordsGauge_.set(
        static_cast<double>(head > seq ? head - seq : 0));
    shipLagNs_.observe(lagNs);
}

void
ReplicationHub::noteSubscribe()
{
    // Before the caller pins its snapshot under the service write
    // mutex, so every record after that point is hashed.
    hashWanted_.store(true);
    std::lock_guard<std::mutex> lock(mutex_);
    followersGauge_.set(static_cast<double>(++followers_));
}

void
ReplicationHub::noteUnsubscribe()
{
    std::lock_guard<std::mutex> lock(mutex_);
    followersGauge_.set(static_cast<double>(--followers_));
}

void
ReplicationHub::noteSnapshotSync()
{
    snapshotSyncs_.add();
}

void
ReplicationHub::noteHeartbeat()
{
    heartbeats_.add();
}

} // namespace ref::repl
