/**
 * @file
 * Socket front-end for the online allocation service.
 *
 * A poll(2)-driven TCP + Unix-domain server that fans N concurrent
 * client connections into one thread-safe AllocationService. Each
 * connection owns a svc::CommandSession, so every client speaks the
 * exact stdin/stdout protocol (svc/protocol.hh) — ADMIT through
 * SHUTDOWN, byte-for-byte — over its own socket.
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
 * drop or reorder reply bytes.
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
 * Binary framing (opt-in per connection): a client whose FIRST bytes
 * are the svc/wire hello magic switches its connection to the
 * length-prefixed CRC32 binary protocol — the same frame the journal
 * uses — and every request/reply from then on is one frame. The
 * sniff is unambiguous (the magic starts with NUL; no text command
 * does), so text clients and stdio transcripts are untouched. A bad
 * frame mirrors the text transport's bad-line contract: an oversized
 * declared length or a CRC mismatch draws exactly one framed ERR and
 * the stream resyncs past the declared length — never a disconnect.
 *
 * One event loop: every TCP and Unix-domain connection is served by
 * this one poll loop. A second loop would add threads but no write
 * concurrency, since every mutation takes the service's one write
 * mutex (DESIGN.md "Wire format (binary framing) and one event
 * loop").
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
    /** Largest binary request-frame payload accepted; a frame
     *  declaring more draws one ERR and is skipped. */
    std::size_t maxFrameBytes = 1 << 20;
    /** WAL shipping fan-out (repl/replication_hub.hh). Non-null
     *  turns binary-protocol SYNC commands into replica
     *  subscriptions on this server; the hub must outlive the
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
    std::uint64_t frames = 0;        //!< Binary request frames served.
    std::uint64_t badFrames = 0;     //!< Oversized/corrupt/torn frames.
    std::uint64_t binaryConnections = 0;  //!< Hellos negotiated.
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
    /** Mode-aware framing over whatever inbuf holds. */
    void processInput(Connection &conn);
    /** Sniff the hello magic; settles the connection's mode. */
    void detectMode(Connection &conn);
    void processText(Connection &conn);
    void processBinary(Connection &conn);
    /** Flush as much pending output as the socket accepts. */
    void flushWrites(Connection &conn);
    void dispatchLine(Connection &conn, const std::string &line);
    /** Decode + execute one binary request frame; frame the reply. */
    void dispatchFrame(Connection &conn, std::string_view payload);
    /** Turn a binary connection into a replica subscription. */
    void handleSync(Connection &conn, const svc::Command &command);
    /** Inbound frame on a replica connection (Ack expected). */
    void handleReplicaFrame(Connection &conn,
                            std::string_view payload);
    /** Queue a full-state Snapshot frame and reset the cursor. */
    void queueSnapshot(Connection &conn);
    /** Ship new records / heartbeats to every replica connection. */
    void pumpReplicas();
    /** Reply the one line-too-long ERR and count the rejection. */
    void rejectOverlong(Connection &conn);
    /** Reply one framed ERR for a bad binary frame; never drops. */
    void rejectBadFrame(Connection &conn, const std::string &reason);
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
    /** Ack-after-durable across framings: set when a dispatched
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
