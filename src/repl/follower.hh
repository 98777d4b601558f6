/**
 * @file
 * Warm-standby follower: the client side of WAL shipping.
 *
 * A FollowerClient owns one background thread that keeps a
 * connection to the primary: the text line `SYNC <stream> <seq>`,
 * one `OK sync ...` reply line, then an endless stream of CRC32
 * replication frames (repl_protocol.hh).
 * Every shipped record is replayed through the SAME AllocationService
 * code paths a live command would take (applyShipped), so the
 * standby's state is not a copy of bytes but a re-execution — and
 * because REF's ExactSum accumulators make allocation order-
 * independent and bit-exact, any divergence between the two
 * processes is detectable, not latent: each shipped TICK carries the
 * primary's post-tick state hash, and the follower compares it
 * against its own after applying. A mismatch triggers a full
 * snapshot resync (never a silent drift).
 *
 * Resume protocol: the follower remembers (streamId, lastApplied)
 * and offers them on every (re)connect. The primary answers with
 * either the record tail after that sequence (cheap catch-up) or a
 * full Snapshot frame when the stream identity changed (primary
 * restarted) or the tail fell off the primary's ring.
 *
 * Promotion: PROMOTE (via svc::FollowerControl, wired into the
 * protocol session) or — when configured — a primary-silence timeout
 * flips the process to serving: shipping stops, the journal compacts
 * onto a fresh generation, and the read-only command gate opens.
 * Promotion and record application serialize on one mutex, so no
 * stale primary record can land after the flip.
 */

#ifndef REF_REPL_FOLLOWER_HH
#define REF_REPL_FOLLOWER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hh"
#include "svc/allocation_service.hh"
#include "svc/protocol.hh"

namespace ref::repl {

/** Background WAL-shipping client; also the FollowerControl the
 *  protocol session consults for the read-only gate and PROMOTE. */
class FollowerClient final : public svc::FollowerControl
{
  public:
    struct Options
    {
        /** Primary's TCP address, numeric IPv4 "host:port". */
        std::string address;
        /** Auto-promote after this long with no bytes from the
         *  primary (frames and heartbeats both count). 0: only an
         *  explicit PROMOTE flips the follower. */
        int promoteTimeoutMs = 0;
        /** Delay between reconnect attempts. */
        int reconnectDelayMs = 200;
    };

    /** Monotonic progress counters (atomically readable). */
    struct Stats
    {
        std::uint64_t recordsApplied = 0;
        std::uint64_t snapshotsLoaded = 0;
        std::uint64_t divergences = 0;
        std::uint64_t reconnects = 0;
        std::uint64_t lastAppliedSeq = 0;
    };

    FollowerClient(svc::AllocationService &service, Options options);
    ~FollowerClient() override;
    FollowerClient(const FollowerClient &) = delete;
    FollowerClient &operator=(const FollowerClient &) = delete;

    /** Spawn the shipping thread. */
    void start();

    /** Stop following WITHOUT promoting (process shutdown). Joins
     *  the thread; idempotent. */
    void stop();

    /** @name svc::FollowerControl */
    ///@{
    bool following() const override;
    bool promote(std::string &message) override;
    ///@}

    Stats stats() const;

  private:
    enum class SessionEnd { Retry, Stop };

    void threadMain();
    /** One connection lifetime: connect, sync, apply until error,
     *  stop, or promotion. */
    SessionEnd runSession();
    /** Apply one replication frame payload; false => resync needed
     *  (the session returns Retry). */
    bool handleMessage(std::string_view payload, int fd);
    bool autoPromoteDue();

    svc::AllocationService &service_;
    Options options_;
    std::thread thread_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> promoted_{false};
    /** Serializes record application against promote(): once the
     *  flip happens no further shipped record can touch state. */
    std::mutex applyMutex_;

    /** Resume cursor: stream identity + last applied sequence. 0/0
     *  until the first snapshot (forces a snapshot sync). */
    std::uint64_t streamId_ = 0;
    std::uint64_t lastApplied_ = 0;
    /** Mirror of lastApplied_ readable without applyMutex_ (the
     *  global gauge is shared by every follower in the process, so
     *  stats() must not read it back). */
    std::atomic<std::uint64_t> lastAppliedSeq_{0};
    std::atomic<std::int64_t> lastContactMs_{0};

    std::atomic<std::uint64_t> recordsApplied_{0};
    std::atomic<std::uint64_t> snapshotsLoaded_{0};
    std::atomic<std::uint64_t> divergences_{0};
    std::atomic<std::uint64_t> reconnects_{0};

    obs::Counter &appliedMetric_;
    obs::Counter &snapshotsMetric_;
    obs::Counter &divergencesMetric_;
    obs::Counter &reconnectsMetric_;
    obs::Gauge &lastSeqGauge_;
    obs::Gauge &followingGauge_;
};

} // namespace ref::repl

#endif // REF_REPL_FOLLOWER_HH
