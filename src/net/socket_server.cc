#include "socket_server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "repl/repl_protocol.hh"
#include "repl/replication_hub.hh"
#include "svc/failpoints.hh"
#include "util/logging.hh"
#include "util/record_io.hh"

namespace ref::net {
namespace {

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
wallClockNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    REF_REQUIRE(flags >= 0 &&
                    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "cannot set O_NONBLOCK: " << std::strerror(errno));
}

} // namespace

/**
 * Handles into the process-wide registry; get-or-create, so several
 * servers in one process (tests) share the same ref_net_* series.
 */
struct SocketServer::Metrics
{
    obs::Counter &accepted;
    obs::Counter &dropped;
    obs::Counter &idleTimeouts;
    obs::Counter &writeTimeouts;
    obs::Counter &bytesIn;
    obs::Counter &bytesOut;
    obs::Counter &lines;
    obs::Counter &overlongLines;
    obs::Counter &badFrames;
    obs::Gauge &active;

    Metrics()
        : accepted(obs::MetricsRegistry::global().counter(
              "ref_net_accepted_total",
              "Client connections accepted by the socket server")),
          dropped(obs::MetricsRegistry::global().counter(
              "ref_net_dropped_total",
              "Client connections dropped (timeout, overflow, IO "
              "error, or server full)")),
          idleTimeouts(obs::MetricsRegistry::global().counter(
              "ref_net_idle_timeouts_total",
              "Connections dropped by the idle timeout")),
          writeTimeouts(obs::MetricsRegistry::global().counter(
              "ref_net_write_timeouts_total",
              "Connections dropped by the write timeout (slow "
              "readers)")),
          bytesIn(obs::MetricsRegistry::global().counter(
              "ref_net_bytes_in_total",
              "Bytes read from socket clients")),
          bytesOut(obs::MetricsRegistry::global().counter(
              "ref_net_bytes_out_total",
              "Bytes written to socket clients")),
          lines(obs::MetricsRegistry::global().counter(
              "ref_net_lines_total",
              "Complete protocol lines framed off sockets")),
          overlongLines(obs::MetricsRegistry::global().counter(
              "ref_net_overlong_lines_total",
              "Lines rejected for exceeding the byte bound")),
          badFrames(obs::MetricsRegistry::global().counter(
              "ref_net_bad_frames_total",
              "Replica frames rejected (oversized, bad CRC, or not "
              "an Ack); each drops its replica")),
          active(obs::MetricsRegistry::global().gauge(
              "ref_net_active_connections",
              "Currently connected socket clients"))
    {}
};

namespace {

/** Unflushed reply bytes past which a text connection's buffered
 *  lines wait: the loop neither dispatches them nor reads more input
 *  until a flush brings the backlog back under. Without it one
 *  connection's pipelined burst of large replies (METRICS prom)
 *  holds the loop until every line is rendered. */
constexpr std::size_t kDispatchBacklogBytes = 1 << 20;

/** Largest inbound frame a replica may send. An Ack payload is 17
 *  bytes; anything declaring more is off-protocol and dropped
 *  before a byte of it is buffered. */
constexpr std::uint32_t kMaxAckFrameBytes = 64;

/**
 * Failpoint shim for the socket syscall sites ("net.accept",
 * "net.read", "net.write"). Error actions surface as the injected
 * errno — the caller handles it exactly like a real failed syscall
 * (connection drop, accept retry). ShortWrite halves the byte count
 * the caller may move this pass, exercising the partial-IO paths
 * without an error. Crash actions behave as in the journal shim.
 */
struct NetInject
{
    bool fail = false;
    int errnoValue = 0;
    bool shortIo = false;
};

NetInject
injectNetIo(const char *site)
{
    const auto hit = svc::Failpoints::instance().check(site);
    if (!hit)
        return {};
    if (hit->action == svc::FailAction::Crash) {
        if (hit->exitProcess)
            std::_Exit(svc::kCrashExitCode);
        throw svc::CrashInjected(site);
    }
    if (hit->action == svc::FailAction::ShortWrite)
        return {false, 0, true};
    return {true, hit->errnoValue, false};
}

} // namespace

/** One client connection: fd + framing buffers + protocol session. */
struct SocketServer::Connection
{
    int fd = -1;
    std::unique_ptr<svc::CommandSession> session;
    std::string inbuf;       //!< Bytes read, not yet framed.
    std::string outbuf;      //!< Reply bytes not yet written.
    std::size_t outOffset = 0;  //!< Flushed prefix of outbuf.
    bool discardingOverlong = false;
    /** Complete lines left in inbuf when the backlog passed
     *  kDispatchBacklogBytes; dispatched by the first loop pass after
     *  a flush brings it back under, before any more input is read
     *  (an EOF read first would discard them). */
    bool linesHeld = false;
    bool dead = false;
    std::int64_t lastInboundMs = 0;   //!< Last byte read.
    std::int64_t lastProgressMs = 0;  //!< Last outbuf progress.
    /** Replica subscription (a connection whose SYNC line was
     *  accepted): pumpReplicas ships records after replCursor and
     *  inbound bytes are Ack frames, not lines. */
    bool replica = false;
    std::uint64_t replCursor = 0;
    /** Stream identity the cursor belongs to; when the hub mints a
     *  new stream (chained follower adopted a snapshot) the cursor
     *  is meaningless and the replica gets a fresh snapshot. */
    std::uint64_t replStreamId = 0;
    std::int64_t lastHeartbeatMs = 0;

    std::size_t pending() const { return outbuf.size() - outOffset; }
    /** Too much unflushed output to take more lines (replicas are
     *  exempt: a queued snapshot legitimately exceeds the bound). */
    bool backlogged() const
    {
        return !replica && pending() > kDispatchBacklogBytes;
    }
    /** Held lines whose backlog has drained: dispatch them next. */
    bool heldReady() const { return linesHeld && !backlogged(); }
    /** Read more input only with no backlog and no held lines. */
    bool wantsInput() const { return !linesHeld && !backlogged(); }
};

SocketServer::SocketServer(svc::AllocationService &service,
                           ServerOptions options)
    : service_(service), options_(std::move(options)),
      metrics_(std::make_unique<Metrics>())
{
    // One socket scrape covers service and transport: METRICS prom
    // from a connection also renders the ref_net_* global series.
    options_.session.includeGlobalMetrics = true;
}

SocketServer::~SocketServer()
{
    for (auto &conn : connections_)
        if (conn->fd >= 0)
            ::close(conn->fd);
    if (tcpListenFd_ >= 0)
        ::close(tcpListenFd_);
    if (unixListenFd_ >= 0)
        ::close(unixListenFd_);
    for (const int fd : wakeFds_)
        if (fd >= 0)
            ::close(fd);
    if (!boundUnixPath_.empty())
        ::unlink(boundUnixPath_.c_str());
}

void
SocketServer::start()
{
    REF_REQUIRE(!options_.listenAddress.empty() ||
                    !options_.unixPath.empty(),
                "socket server needs --listen and/or --unix");
    REF_REQUIRE(options_.maxLineBytes >= 16,
                "line bound must be at least 16 bytes");

    if (!options_.listenAddress.empty()) {
        const std::string &spec = options_.listenAddress;
        const std::size_t colon = spec.rfind(':');
        REF_REQUIRE(colon != std::string::npos && colon > 0,
                    "--listen wants addr:port, got '" << spec << "'");
        const std::string host = spec.substr(0, colon);
        const std::string portText = spec.substr(colon + 1);
        int port = 0;
        try {
            std::size_t consumed = 0;
            port = std::stoi(portText, &consumed);
            REF_REQUIRE(consumed == portText.size() && port >= 0 &&
                            port <= 65535,
                        "bad port '" << portText << "'");
        } catch (const std::logic_error &) {
            REF_FATAL("bad port '" << portText << "'");
        }

        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        REF_REQUIRE(::inet_pton(AF_INET, host.c_str(),
                                &addr.sin_addr) == 1,
                    "--listen wants a numeric IPv4 address, got '"
                        << host << "'");

        tcpListenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        REF_REQUIRE(tcpListenFd_ >= 0, "socket: "
                                           << std::strerror(errno));
        const int one = 1;
        ::setsockopt(tcpListenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        REF_REQUIRE(::bind(tcpListenFd_,
                           reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr)) == 0,
                    "bind " << spec << ": " << std::strerror(errno));
        REF_REQUIRE(::listen(tcpListenFd_, SOMAXCONN) == 0,
                    "listen: " << std::strerror(errno));
        setNonBlocking(tcpListenFd_);

        sockaddr_in bound{};
        socklen_t length = sizeof(bound);
        REF_REQUIRE(::getsockname(
                        tcpListenFd_,
                        reinterpret_cast<sockaddr *>(&bound),
                        &length) == 0,
                    "getsockname: " << std::strerror(errno));
        tcpPort_ = ntohs(bound.sin_port);
    }

    if (!options_.unixPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        REF_REQUIRE(options_.unixPath.size() <
                        sizeof(addr.sun_path),
                    "--unix path too long: " << options_.unixPath);
        std::strncpy(addr.sun_path, options_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);

        unixListenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        REF_REQUIRE(unixListenFd_ >= 0,
                    "socket: " << std::strerror(errno));
        ::unlink(options_.unixPath.c_str());
        REF_REQUIRE(::bind(unixListenFd_,
                           reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr)) == 0,
                    "bind " << options_.unixPath << ": "
                            << std::strerror(errno));
        REF_REQUIRE(::listen(unixListenFd_, SOMAXCONN) == 0,
                    "listen: " << std::strerror(errno));
        setNonBlocking(unixListenFd_);
        boundUnixPath_ = options_.unixPath;
    }

    // Self-pipe: requestStop() from another thread writes one byte
    // so an idle poll wakes immediately instead of at its timeout.
    if (wakeFds_[0] < 0) {
        REF_REQUIRE(::pipe(wakeFds_) == 0,
                    "pipe: " << std::strerror(errno));
        setNonBlocking(wakeFds_[0]);
        setNonBlocking(wakeFds_[1]);
    }

    // Records appended off-loop (the stdio transport, a chained
    // follower's apply thread) must reach replicas promptly: the hub pokes the
    // self-pipe so a poll-blocked loop pumps without waiting for
    // its timeout. The hub outlives the server (ServerOptions
    // contract), but the write fd is process-long-lived anyway.
    if (options_.replicationHub != nullptr) {
        const int wakeFd = wakeFds_[1];
        options_.replicationHub->addWakeCallback([wakeFd] {
            const char byte = 1;
            const ssize_t ignored [[maybe_unused]] =
                ::write(wakeFd, &byte, 1);
        });
    }
}

void
SocketServer::requestStop()
{
    stopRequested_.store(true, std::memory_order_relaxed);
    if (wakeFds_[1] >= 0) {
        const char byte = 1;
        // A full pipe means a wakeup is already pending.
        const ssize_t ignored [[maybe_unused]] =
            ::write(wakeFds_[1], &byte, 1);
    }
}

bool
SocketServer::stopFlagSet() const
{
    if (stopRequested_.load(std::memory_order_relaxed))
        return true;
    const volatile std::sig_atomic_t *flag =
        options_.session.stopFlag;
    return flag != nullptr && *flag != 0;
}

void
SocketServer::acceptPending(int listenFd)
{
    for (;;) {
        obs::Span span("net.accept", "net");
        const NetInject inject = injectNetIo("net.accept");
        int fd = -1;
        if (inject.fail) {
            errno = inject.errnoValue;
        } else {
            fd = ::accept(listenFd, nullptr, nullptr);
        }
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            // EMFILE/ECONNABORTED/injected EIO: count and keep
            // serving; the listener stays armed.
            ++stats_.ioErrors;
            return;
        }
        setNonBlocking(fd);
        if (listenFd == tcpListenFd_) {
            // Replies are small and latency-bound; Nagle coalescing
            // against delayed ACKs costs tens of milliseconds per
            // window. Best effort: Unix sockets ignore it anyway.
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
        }

        if (connections_.size() >= options_.maxClients) {
            static constexpr char kFull[] = "ERR server full\n";
            // Best effort: a blocked turnaway write is not worth
            // waiting on.
            const ssize_t ignored [[maybe_unused]] = ::send(
                fd, kFull, sizeof(kFull) - 1, MSG_NOSIGNAL);
            ::close(fd);
            ++stats_.acceptRejects;
            ++stats_.dropped;
            metrics_->dropped.add();
            continue;
        }

        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->session = std::make_unique<svc::CommandSession>(
            service_, options_.session);
        conn->lastInboundMs = nowMs();
        conn->lastProgressMs = conn->lastInboundMs;
        connections_.push_back(std::move(conn));
        ++stats_.accepted;
        metrics_->accepted.add();
        metrics_->active.set(
            static_cast<double>(connections_.size()));
    }
}

/** The one ERR a line beyond the byte bound draws; counted as a
 *  rejected command so STATS agrees with the transcript. */
void
SocketServer::rejectOverlong(Connection &conn)
{
    ++stats_.overlongLines;
    metrics_->overlongLines.add();
    service_.noteRejected();
    ++conn.session->result().commands;
    ++conn.session->result().errors;
    std::ostringstream reply;
    reply << "ERR line exceeds " << options_.maxLineBytes
          << " byte bound\n";
    conn.outbuf += reply.str();
}

void
SocketServer::dispatchLine(Connection &conn, const std::string &line)
{
    using LineStatus = svc::CommandSession::LineStatus;
    obs::Span span("net.dispatch", "net");
    ++stats_.lines;
    metrics_->lines.add();
    std::ostringstream reply;
    svc::Command command;
    LineStatus status = conn.session->parseLine(line, reply, command);
    if (status == LineStatus::Parsed &&
        command.op == svc::Command::Op::Sync) {
        // The transport intercepts SYNC: subscription is a channel
        // mode change, not a service command. Its echo line is
        // dropped, so a subscriber reads exactly one reply line
        // before the frames.
        handleSync(conn, command);
        return;
    }
    if (status == LineStatus::Parsed)
        status = conn.session->executeCommand(command, reply);
    barrierPending_ = true;
    conn.outbuf += reply.str();
    if (status == LineStatus::Shutdown) {
        stats_.shutdown = true;
        draining_ = true;
    }
}

void
SocketServer::handleReadable(Connection &conn)
{
    obs::Span span("net.read", "net");
    char chunk[4096];
    // Cap one connection's reads per loop pass so a firehose client
    // cannot monopolize the single-threaded loop.
    std::size_t budget = 64 * sizeof(chunk);
    while (budget > 0 && !conn.dead && !draining_ &&
           conn.wantsInput()) {
        const NetInject inject = injectNetIo("net.read");
        ssize_t got = -1;
        if (inject.fail) {
            errno = inject.errnoValue;
        } else {
            const std::size_t want =
                inject.shortIo ? 1 : std::min(budget, sizeof(chunk));
            got = ::read(conn.fd, chunk, want);
        }
        if (got < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            ++stats_.ioErrors;
            dropConnection(conn, "read error");
            return;
        }
        if (got == 0) {  // Peer EOF: end of that session.
            if (conn.pending() > 0)
                flushWrites(conn);
            closeConnection(conn);
            return;
        }
        budget -= static_cast<std::size_t>(got);
        conn.lastInboundMs = nowMs();
        stats_.bytesIn += static_cast<std::uint64_t>(got);
        metrics_->bytesIn.add(
            static_cast<std::uint64_t>(got));
        conn.inbuf.append(chunk, static_cast<std::size_t>(got));

        processInput(conn);
    }
}

void
SocketServer::processInput(Connection &conn)
{
    if (!conn.replica)
        processText(conn);
    // A SYNC line turns the rest of the stream into Ack frames.
    // Replicas are exempt from the backlog cap: a queued snapshot
    // legitimately exceeds it (the write timeout still catches a
    // reader that stops draining it).
    if (conn.replica) {
        if (!conn.dead)
            processAcks(conn);
    } else if (!conn.dead &&
               conn.pending() > options_.maxPendingBytes) {
        ++stats_.overflowDrops;
        dropConnection(conn, "reply backlog overflow");
    }
}

void
SocketServer::processText(Connection &conn)
{
    // Frame complete lines; enforce the byte bound both on
    // complete lines and on an incomplete remainder.
    std::size_t begin = 0;
    conn.linesHeld = false;
    for (;;) {
        const std::size_t newline = conn.inbuf.find('\n', begin);
        if (newline == std::string::npos)
            break;
        if (conn.backlogged()) {
            conn.linesHeld = true;
            break;
        }
        if (conn.discardingOverlong) {
            // Tail of an overlong line: already answered with
            // its one ERR, swallow through the newline.
            conn.discardingOverlong = false;
        } else if (newline - begin > options_.maxLineBytes) {
            rejectOverlong(conn);
        } else {
            const std::string line =
                conn.inbuf.substr(begin, newline - begin);
            dispatchLine(conn, line);
        }
        begin = newline + 1;
        if (draining_ || conn.replica)
            break;
    }
    conn.inbuf.erase(0, begin);
    if (conn.linesHeld || conn.replica)
        return;
    if (conn.discardingOverlong) {
        conn.inbuf.clear();
    } else if (conn.inbuf.size() > options_.maxLineBytes) {
        // One ERR per bad line, never a disconnect: reject now,
        // swallow until the newline arrives.
        rejectOverlong(conn);
        conn.inbuf.clear();
        conn.discardingOverlong = true;
    }
}

void
SocketServer::processAcks(Connection &conn)
{
    std::size_t offset = 0;
    while (!conn.dead) {
        if (conn.inbuf.size() - offset >= 4 &&
            ByteReader(std::string_view(conn.inbuf).substr(offset, 4))
                    .u32() > kMaxAckFrameBytes) {
            dropReplica(conn, "replica frame exceeds byte bound");
            return;
        }
        std::string_view payload;
        const FrameStatus status =
            readFrame(conn.inbuf, offset, payload);
        if (status == FrameStatus::Torn || status == FrameStatus::End)
            break;  // Wait for the rest of the frame.
        if (status == FrameStatus::Corrupt) {
            dropReplica(conn, "replica frame CRC mismatch");
            return;
        }
        handleAck(conn, payload);
    }
    conn.inbuf.erase(0, offset);
}

void
SocketServer::handleSync(Connection &conn,
                         const svc::Command &command)
{
    repl::ReplicationHub *hub = options_.replicationHub;
    if (hub == nullptr) {
        ++conn.session->result().commands;
        ++conn.session->result().errors;
        service_.noteRejected();
        conn.outbuf += "ERR replication not enabled\n";
        return;
    }

    // Resume from the offered cursor when it names this stream and
    // the tail is still on the ring; anything else gets a full
    // snapshot (primary restarted, or the follower is too far
    // behind — same answer either way).
    std::vector<repl::ReplicationHub::Entry> probe;
    const bool tailResume =
        command.syncStreamId == hub->streamId() &&
        hub->fetchAfter(command.syncSeq, 0, probe);

    std::ostringstream reply;
    reply << "OK sync stream=" << hub->streamId()
          << " from=" << (tailResume ? command.syncSeq : 0)
          << " snapshot=" << (tailResume ? 0 : 1) << "\n";
    conn.outbuf += reply.str();

    conn.replica = true;
    conn.lastHeartbeatMs = nowMs();
    ++stats_.replicas;
    hub->noteSubscribe();
    if (tailResume) {
        conn.replCursor = command.syncSeq;
        conn.replStreamId = command.syncStreamId;
    } else {
        queueSnapshot(conn);
    }
}

void
SocketServer::queueSnapshot(Connection &conn)
{
    repl::ReplicationHub *hub = options_.replicationHub;
    std::uint64_t atSeq = 0;
    repl::ReplMessage message;
    message.kind = repl::MessageKind::Snapshot;
    // captureReplicationSnapshot pins (state, headSeq) atomically:
    // records after atSeq are exactly what the state lacks.
    message.payload = service_.captureReplicationSnapshot(atSeq);
    message.streamId = hub->streamId();
    message.seq = atSeq;
    conn.outbuf += frameRecord(repl::encodeReplMessage(message));
    conn.replCursor = atSeq;
    conn.replStreamId = message.streamId;
    hub->noteSnapshotSync();
}

void
SocketServer::handleAck(Connection &conn, std::string_view payload)
{
    try {
        const repl::ReplMessage message =
            repl::decodeReplMessage(payload);
        REF_REQUIRE(message.kind == repl::MessageKind::Ack,
                    "replica sent frame kind "
                        << static_cast<unsigned>(message.kind));
        options_.replicationHub->noteAck(message.seq,
                                         message.timestampNs);
    } catch (const FatalError &) {
        dropReplica(conn, "bad replica frame");
    }
}

/** A replica that stops speaking Ack is broken: drop it and let the
 *  follower's reconnect path resync. */
void
SocketServer::dropReplica(Connection &conn, const char *reason)
{
    ++stats_.badFrames;
    metrics_->badFrames.add();
    dropConnection(conn, reason);
}

void
SocketServer::pumpReplicas()
{
    repl::ReplicationHub *hub = options_.replicationHub;
    if (hub == nullptr)
        return;
    const std::int64_t now = nowMs();
    for (auto &connPtr : connections_) {
        Connection &conn = *connPtr;
        if (conn.dead || !conn.replica)
            continue;
        // Bound one pass's batch; the ring holds the rest (and a
        // cursor that falls off it just resyncs from a snapshot).
        std::vector<repl::ReplicationHub::Entry> entries;
        if (conn.replStreamId != hub->streamId() ||
            !hub->fetchAfter(conn.replCursor, 256, entries)) {
            queueSnapshot(conn);
            entries.clear();
            hub->fetchAfter(conn.replCursor, 256, entries);
        }
        if (!entries.empty()) {
            for (const auto &entry : entries) {
                repl::ReplMessage message;
                message.kind = repl::MessageKind::Record;
                message.seq = entry.seq;
                message.timestampNs = entry.shipTimestampNs;
                message.stateHash = entry.stateHash;
                message.payload = entry.payload;
                conn.outbuf +=
                    frameRecord(repl::encodeReplMessage(message));
            }
            conn.replCursor = entries.back().seq;
            conn.lastHeartbeatMs = now;
            // Durable-before-wire: the flush below barriers the
            // journal before these records leave the process.
            barrierPending_ = true;
        } else if (options_.heartbeatIntervalMs > 0 &&
                   now - conn.lastHeartbeatMs >=
                       options_.heartbeatIntervalMs) {
            repl::ReplMessage heartbeat;
            heartbeat.kind = repl::MessageKind::Heartbeat;
            heartbeat.seq = hub->headSeq();
            heartbeat.timestampNs = wallClockNs();
            conn.outbuf +=
                frameRecord(repl::encodeReplMessage(heartbeat));
            conn.lastHeartbeatMs = now;
            hub->noteHeartbeat();
        }
        if (conn.pending() > 0)
            flushWrites(conn);
    }
}

void
SocketServer::flushWrites(Connection &conn)
{
    if (barrierPending_) {
        // Ack-after-durable: everything queued this pass — replies
        // and shipped records alike — waits on one group-commit
        // fsync before any byte reaches a socket.
        barrierPending_ = false;
        service_.journalBarrier();
    }
    while (conn.pending() > 0) {
        const NetInject inject = injectNetIo("net.write");
        ssize_t wrote = -1;
        if (inject.fail) {
            errno = inject.errnoValue;
        } else {
            std::size_t count = conn.pending();
            if (inject.shortIo)
                count = std::max<std::size_t>(1, count / 2);
            // MSG_NOSIGNAL: a vanished peer must surface as EPIPE,
            // not a process-killing SIGPIPE.
            wrote = ::send(conn.fd,
                           conn.outbuf.data() + conn.outOffset,
                           count, MSG_NOSIGNAL);
        }
        if (wrote < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            // EPIPE/ECONNRESET/injected EIO: the peer is gone or
            // the path is broken; the allocator already applied the
            // command, only this client's transcript ends early.
            ++stats_.ioErrors;
            dropConnection(conn, "write error");
            return;
        }
        conn.outOffset += static_cast<std::size_t>(wrote);
        conn.lastProgressMs = nowMs();
        stats_.bytesOut += static_cast<std::uint64_t>(wrote);
        metrics_->bytesOut.add(
            static_cast<std::uint64_t>(wrote));
        if (inject.shortIo)
            return;  // Model one short write per armed pass.
    }
    if (conn.outOffset > 0) {
        conn.outbuf.erase(0, conn.outOffset);
        conn.outOffset = 0;
    }
}

void
SocketServer::dropConnection(Connection &conn, const char *reason)
{
    if (conn.dead)
        return;
    ++stats_.dropped;
    metrics_->dropped.add();
    REF_WARN("dropping client: " << reason);
    // A drop is abortive: linger(0) turns the close into an RST so
    // the kernel reclaims the socket now instead of trickling
    // megabytes of buffered replies to a peer that will not read
    // them. Clean closes (EOF, drain) keep the graceful FIN.
    const linger abort{1, 0};
    ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &abort,
                 sizeof(abort));
    closeConnection(conn);
}

void
SocketServer::closeConnection(Connection &conn)
{
    if (conn.dead)
        return;
    conn.dead = true;
    if (conn.replica && options_.replicationHub != nullptr)
        options_.replicationHub->noteUnsubscribe();
    ::close(conn.fd);
    conn.fd = -1;
    conn.session->finish();
    const svc::SessionResult &result = conn.session->result();
    stats_.protocol.commands += result.commands;
    stats_.protocol.errors += result.errors;
    stats_.protocol.epochFailures += result.epochFailures;
    stats_.protocol.shutdown |= result.shutdown;
}

int
SocketServer::sweepTimeouts()
{
    const std::int64_t now = nowMs();
    std::int64_t nextDeadline = -1;
    const auto consider = [&](std::int64_t deadline) {
        if (nextDeadline < 0 || deadline < nextDeadline)
            nextDeadline = deadline;
    };
    for (auto &conn : connections_) {
        if (conn->dead)
            continue;
        if (conn->pending() > 0 && options_.writeTimeoutMs > 0) {
            const std::int64_t deadline =
                conn->lastProgressMs + options_.writeTimeoutMs;
            if (now >= deadline) {
                ++stats_.writeTimeouts;
                metrics_->writeTimeouts.add();
                dropConnection(*conn, "write timeout");
                continue;
            }
            consider(deadline);
        } else if (conn->pending() == 0 &&
                   options_.idleTimeoutMs > 0) {
            const std::int64_t deadline =
                conn->lastInboundMs + options_.idleTimeoutMs;
            if (now >= deadline) {
                ++stats_.idleTimeouts;
                metrics_->idleTimeouts.add();
                dropConnection(*conn, "idle timeout");
                continue;
            }
            consider(deadline);
        }
    }
    if (nextDeadline < 0)
        return -1;
    return static_cast<int>(std::max<std::int64_t>(
        1, nextDeadline - now));
}

void
SocketServer::drainAndClose()
{
    const std::int64_t deadline =
        nowMs() + std::max(0, options_.drainTimeoutMs);
    for (;;) {
        std::vector<pollfd> fds;
        for (auto &conn : connections_) {
            if (conn->dead || conn->pending() == 0)
                continue;
            fds.push_back({conn->fd, POLLOUT, 0});
        }
        if (fds.empty())
            break;
        const std::int64_t left = deadline - nowMs();
        if (left <= 0)
            break;
        const int ready = ::poll(fds.data(), fds.size(),
                                 static_cast<int>(left));
        if (ready < 0 && errno != EINTR)
            break;
        for (auto &conn : connections_) {
            if (!conn->dead && conn->pending() > 0)
                flushWrites(*conn);
        }
    }
    for (auto &conn : connections_)
        closeConnection(*conn);
    connections_.clear();
    metrics_->active.set(0);
    if (tcpListenFd_ >= 0) {
        ::close(tcpListenFd_);
        tcpListenFd_ = -1;
    }
    if (unixListenFd_ >= 0) {
        ::close(unixListenFd_);
        unixListenFd_ = -1;
    }
    if (!boundUnixPath_.empty()) {
        ::unlink(boundUnixPath_.c_str());
        boundUnixPath_.clear();
    }
}

ServerStats
SocketServer::run()
{
    REF_REQUIRE(tcpListenFd_ >= 0 || unixListenFd_ >= 0,
                "run() before start()");
    while (!draining_) {
        if (stopFlagSet()) {
            stats_.shutdown = true;
            break;
        }

        // Reap connections closed during the previous pass.
        connections_.erase(
            std::remove_if(connections_.begin(),
                           connections_.end(),
                           [](const auto &conn) {
                               return conn->dead;
                           }),
            connections_.end());
        metrics_->active.set(
            static_cast<double>(connections_.size()));

        // Lines held back by a backlog that a flush has since
        // brought under the bound go now: their client may be
        // waiting on the replies and never write again.
        bool heldReady = false;
        for (auto &conn : connections_) {
            if (conn->dead || !conn->heldReady())
                continue;
            processInput(*conn);
            if (!conn->dead && conn->pending() > 0)
                flushWrites(*conn);
            heldReady |= !conn->dead && conn->heldReady();
        }
        if (draining_)
            break;

        const int timeoutMs = sweepTimeouts();

        std::vector<pollfd> fds;
        std::vector<Connection *> polled;
        if (tcpListenFd_ >= 0)
            fds.push_back({tcpListenFd_, POLLIN, 0});
        if (unixListenFd_ >= 0)
            fds.push_back({unixListenFd_, POLLIN, 0});
        if (wakeFds_[0] >= 0)
            fds.push_back({wakeFds_[0], POLLIN, 0});
        const std::size_t firstConn = fds.size();
        for (auto &conn : connections_) {
            if (conn->dead)
                continue;
            // A backlogged connection is not read until a flush
            // brings it back under the bound and its held lines go.
            short events = conn->wantsInput() ? POLLIN : 0;
            if (conn->pending() > 0)
                events |= POLLOUT;
            fds.push_back({conn->fd, events, 0});
            polled.push_back(conn.get());
        }

        const int ready =
            ::poll(fds.data(), fds.size(),
                   heldReady       ? 0
                   : timeoutMs < 0 ? 1000
                                   : std::min(timeoutMs, 1000));
        if (ready < 0) {
            if (errno == EINTR)
                continue;  // Signal: loop re-checks the stop flag.
            REF_FATAL("poll: " << std::strerror(errno));
        }
        if (ready == 0)
            continue;  // Timeout pass: sweepTimeouts sees it next.

        for (std::size_t i = 0; i < firstConn; ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            if (fds[i].fd == wakeFds_[0]) {
                // Drain the self-pipe; the loop condition re-checks
                // the stop flag at the top.
                char drain[64];
                while (::read(wakeFds_[0], drain,
                              sizeof(drain)) > 0)
                    ;
            } else {
                acceptPending(fds[i].fd);
            }
        }

        for (std::size_t i = firstConn;
             i < fds.size() && !draining_; ++i) {
            Connection &conn = *polled[i - firstConn];
            if (conn.dead)
                continue;
            if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                // Peer reset with no clean EOF; a read would error.
                if (fds[i].revents & POLLHUP) {
                    // Drain what the kernel still buffers first —
                    // HUP with readable data is a normal close.
                    handleReadable(conn);
                    if (!conn.dead)
                        closeConnection(conn);
                } else {
                    ++stats_.ioErrors;
                    dropConnection(conn, "socket error");
                }
                continue;
            }
            if (fds[i].revents & POLLOUT)
                flushWrites(conn);
            if (conn.dead)
                continue;
            if (fds[i].revents & POLLIN)
                handleReadable(conn);
            if (!conn.dead && conn.pending() > 0)
                flushWrites(conn);
        }

        // Ship whatever this pass appended (plus heartbeats) to
        // every subscribed replica before blocking again.
        if (!draining_)
            pumpReplicas();
    }
    drainAndClose();
    return stats_;
}

} // namespace ref::net
