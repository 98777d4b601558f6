/**
 * @file
 * Socket front-end for the online allocation service.
 *
 * A poll(2)-driven TCP + Unix-domain server that fans N concurrent
 * client connections into one thread-safe AllocationService. Each
 * connection owns a svc::CommandSession, so every client speaks the
 * exact stdin/stdout protocol (svc/protocol.hh) — ADMIT through
 * SHUTDOWN, byte-for-byte — over its own socket. Text lines are the
 * only client protocol.
 *
 * Concurrency model (the "fan-in serialization" contract): the event
 * loop is single-threaded, so state-mutating commands from different
 * clients are serialized in arrival order by construction, while
 * QUERY/PLAN read from the service's copy-on-write snapshots and
 * METRICS/STATS from the atomic registries — the same lock-free read
 * paths the stdio transport uses. One misbehaving client can
 * therefore corrupt nothing and block nobody except (transiently)
 * the loop iteration its own bytes occupy.
 *
 * Framing: input is line-buffered with a hard per-line byte bound.
 * Partial reads accumulate until '\n'; a line that exceeds the bound
 * draws exactly one "ERR line too long" reply and the overflow is
 *discarded through the next newline (one ERR per bad line, never a
 * disconnect). Replies go through a per-connection output buffer
 * flushed opportunistically, so partial writes and EAGAIN never
 * drop or reorder reply bytes. Once a connection's unflushed replies
 * pass a fixed bound (1 MiB) its remaining buffered lines wait, and
 * the loop stops reading it, until a flush brings the backlog back
 * under: one client's pipelined burst of large replies cannot hold
 * the loop for everyone else.
 *
 * Timeouts: a connection with no inbound bytes and nothing left to
 * write for idleTimeoutMs is dropped; a connection whose pending
 * output makes no progress for writeTimeoutMs (slow-loris reader) is
 * dropped; pending output above maxPendingBytes is dropped
 * immediately. All drops increment per-reason counters on
 * MetricsRegistry::global() and never disturb other clients.
 *
 * Shutdown: a SHUTDOWN command from any client, or the stop flag
 * (SIGTERM path), puts the server into drain — stop accepting,
 * stop reading, flush every connection's pending output (bounded by
 * drainTimeoutMs), then close everything and return from run().
 *
 * Fault injection: the accept/read/write syscall sites consult
 * svc/failpoints (sites "net.accept", "net.read", "net.write"), so
 * tests can exercise degraded IO deterministically: an injected
 * read/write error behaves like a peer reset (the connection is
 * dropped, the allocator state stays consistent); an injected short
 * write exercises the partial-write path.
 *
 * Replication: a follower sends the text line "SYNC <streamId>
 * <seq>". With a replication hub configured the server answers one
 * "OK sync stream=... from=... snapshot=..." line, and from then on
 * the connection carries only util/record_io CRC32 frames of
 * repl/repl_protocol.hh messages — Snapshot, Record and Heartbeat
 * out, Ack in. An inbound frame that is not a valid Ack drops the
 * replica; the follower's reconnect resyncs it. Without a hub SYNC
 * draws "ERR replication not enabled" and the session continues.
 *
 * One event loop: every TCP and Unix-domain connection is served by
 * this one poll loop. A second loop would add threads but no write
 * concurrency, since every mutation takes the service's one write
 * mutex (DESIGN.md "Text clients, a framed replication stream and
 * one event loop").
 */

#ifndef REF_NET_SOCKET_SERVER_HH
#define REF_NET_SOCKET_SERVER_HH

#include <atomic>
#include <csignal>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "svc/protocol.hh"

namespace ref::repl {
class ReplicationHub;
}

namespace ref::net {

/** Socket-server knobs (svc::SessionOptions rides along so echo and
 *  the observability out-files behave exactly as on stdio). */
struct ServerOptions
{
    /** TCP listen address as "addr:port" ("127.0.0.1:7070"; port 0
     *  binds an ephemeral port — see SocketServer::tcpPort()).
     *  Empty: no TCP listener. */
    std::string listenAddress;
    /** Unix-domain socket path (an existing socket file at the path
     *  is replaced). Empty: no Unix listener. */
    std::string unixPath;
    /** Concurrent-connection cap; an accept beyond it is answered
     *  with one "ERR server full" line and closed (counted as
     *  dropped). */
    std::size_t maxClients = 64;
    /** Hard per-line byte bound (the '\n' excluded). */
    std::size_t maxLineBytes = 65536;
    /** Largest reply backlog a connection may hold before it is
     *  dropped as a slow reader. */
    std::size_t maxPendingBytes = 4 << 20;
    /** Drop a connection idle (no inbound bytes, no pending output)
     *  this long. 0 disables. */
    int idleTimeoutMs = 30000;
    /** Drop a connection whose pending output made no progress for
     *  this long. 0 disables. */
    int writeTimeoutMs = 10000;
    /** Bound on the drain phase (flushing replies at shutdown). */
    int drainTimeoutMs = 5000;
    /** Per-connection protocol options (echo, metrics/fairness out
     *  files, stop flag shared with the signal handler). */
    svc::SessionOptions session;
    /** WAL shipping fan-out (repl/replication_hub.hh). Non-null
     *  turns SYNC lines into replica subscriptions on this
     *  server; the hub must outlive the
     *  server (ref_serve wires the same hub in as the service's
     *  replication sink). */
    repl::ReplicationHub *replicationHub = nullptr;
    /** Heartbeat cadence to caught-up replicas (liveness signal the
     *  follower's promote timeout watches). 0 disables. */
    int heartbeatIntervalMs = 1000;
};

/** Lifetime counters for one server run (mirrored onto
 *  MetricsRegistry::global() as ref_net_* series). */
struct ServerStats
{
    std::uint64_t accepted = 0;
    std::uint64_t dropped = 0;       //!< All drop reasons combined.
    std::uint64_t idleTimeouts = 0;
    std::uint64_t writeTimeouts = 0;
    std::uint64_t overflowDrops = 0; //!< maxPendingBytes exceeded.
    std::uint64_t acceptRejects = 0; //!< "server full" turnaways.
    std::uint64_t ioErrors = 0;      //!< read/write errno drops.
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t lines = 0;         //!< Complete lines framed.
    std::uint64_t overlongLines = 0; //!< Lines beyond maxLineBytes.
    std::uint64_t badFrames = 0;     //!< Replicas dropped off-protocol.
    std::uint64_t replicas = 0;  //!< SYNC subscriptions accepted.
    /** Aggregated per-session protocol totals of every connection
     *  that finished (plus, after run(), the ones open at drain). */
    svc::SessionResult protocol;
    bool shutdown = false;  //!< SHUTDOWN command or stop flag seen.
};

/**
 * The server. Intended use:
 *
 *   AllocationService service(config);
 *   SocketServer server(service, options);
 *   server.start();                // binds + listens (throws on error)
 *   ServerStats stats = server.run();  // blocks until drained
 *
 * start() is separate from run() so callers (tests, ref_serve's
 * stderr banner) can learn the bound port before traffic flows.
 * requestStop() may be called from any thread (or a signal handler
 * via options.session.stopFlag) to trigger the drain.
 */
class SocketServer
{
  public:
    SocketServer(svc::AllocationService &service,
                 ServerOptions options);
    ~SocketServer();
    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /** Bind and listen on the configured endpoints. Throws
     *  FatalError when neither endpoint is configured or a bind
     *  fails. */
    void start();

    /** Port the TCP listener actually bound (useful with port 0);
     *  0 when no TCP listener is configured. */
    std::uint16_t tcpPort() const { return tcpPort_; }

    /** Event loop: serve until SHUTDOWN / stop, then drain. */
    ServerStats run();

    /** Thread-safe asynchronous stop: wakes the poll loop (via the
     *  self-pipe) so the drain starts promptly even when idle. */
    void requestStop();

    const ServerStats &stats() const { return stats_; }

  private:
    struct Connection;
    struct Metrics;

    void acceptPending(int listenFd);
    /** Read whatever is available; frame and dispatch. */
    void handleReadable(Connection &conn);
    /** Lines (or, on a replica, Ack frames) out of inbuf. */
    void processInput(Connection &conn);
    void processText(Connection &conn);
    void processAcks(Connection &conn);
    /** Flush as much pending output as the socket accepts. */
    void flushWrites(Connection &conn);
    /** Parse and execute one line; SYNC is intercepted here. */
    void dispatchLine(Connection &conn, const std::string &line);
    /** Turn a text connection into a replica subscription. */
    void handleSync(Connection &conn, const svc::Command &command);
    /** One inbound frame payload on a replica (Ack expected). */
    void handleAck(Connection &conn, std::string_view payload);
    void dropReplica(Connection &conn, const char *reason);
    /** Queue a full-state Snapshot frame and reset the cursor. */
    void queueSnapshot(Connection &conn);
    /** Ship new records / heartbeats to every replica connection. */
    void pumpReplicas();
    /** Reply the one line-too-long ERR and count the rejection. */
    void rejectOverlong(Connection &conn);
    void dropConnection(Connection &conn, const char *reason);
    void closeConnection(Connection &conn);
    /** Sweep idle/write timeouts; returns ms until the next
     *  deadline (or -1 when nothing is pending). */
    int sweepTimeouts();
    void drainAndClose();
    bool stopFlagSet() const;

    svc::AllocationService &service_;
    ServerOptions options_;
    ServerStats stats_;
    std::unique_ptr<Metrics> metrics_;  //!< ref_net_* series.
    std::atomic<bool> stopRequested_{false};
    bool draining_ = false;
    /** Ack-after-durable: set when a dispatched
     *  command (or a shipped record) may have journaled; the next
     *  flushWrites runs one journal barrier first, so one fsync
     *  amortizes every reply queued this poll pass. */
    bool barrierPending_ = false;

    int tcpListenFd_ = -1;
    int unixListenFd_ = -1;
    int wakeFds_[2] = {-1, -1};  //!< Self-pipe: requestStop wakeup.
    std::uint16_t tcpPort_ = 0;
    std::string boundUnixPath_;  //!< Unlinked on close.

    std::vector<std::unique_ptr<Connection>> connections_;
};

} // namespace ref::net

#endif // REF_NET_SOCKET_SERVER_HH
