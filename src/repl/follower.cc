#include "follower.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "repl_protocol.hh"
#include "svc/journal.hh"
#include "svc/snapshot.hh"
#include "util/logging.hh"
#include "util/record_io.hh"

namespace ref::repl {
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

/** Blocking-with-deadline connect to a numeric IPv4 "host:port";
 *  returns -1 (with errno) instead of throwing — the shipping
 *  thread retries forever, a bad address only warns. */
int
connectTo(const std::string &spec, int timeoutMs)
{
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0) {
        errno = EINVAL;
        return -1;
    }
    const std::string host = spec.substr(0, colon);
    int port = 0;
    try {
        std::size_t consumed = 0;
        port = std::stoi(spec.substr(colon + 1), &consumed);
        if (consumed != spec.size() - colon - 1 || port <= 0 ||
            port > 65535) {
            errno = EINVAL;
            return -1;
        }
    } catch (const std::logic_error &) {
        errno = EINVAL;
        return -1;
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return -1;
    }

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (errno != EINPROGRESS) {
            ::close(fd);
            return -1;
        }
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, timeoutMs) <= 0) {
            ::close(fd);
            errno = ETIMEDOUT;
            return -1;
        }
        int soError = 0;
        socklen_t length = sizeof(soError);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &length);
        if (soError != 0) {
            ::close(fd);
            errno = soError;
            return -1;
        }
    }
    return fd;
}

/** Write all of @p data, polling through EAGAIN; false on error. */
bool
writeAll(int fd, std::string_view data)
{
    std::size_t at = 0;
    while (at < data.size()) {
        const ssize_t wrote =
            ::send(fd, data.data() + at, data.size() - at,
                   MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                pollfd pfd{fd, POLLOUT, 0};
                if (::poll(&pfd, 1, 5000) <= 0)
                    return false;
                continue;
            }
            return false;
        }
        at += static_cast<std::size_t>(wrote);
    }
    return true;
}

} // namespace

FollowerClient::FollowerClient(svc::AllocationService &service,
                               Options options)
    : service_(service), options_(std::move(options)),
      appliedMetric_(obs::MetricsRegistry::global().counter(
          "ref_repl_follower_records_applied_total",
          "Shipped WAL records replayed by this follower")),
      snapshotsMetric_(obs::MetricsRegistry::global().counter(
          "ref_repl_follower_snapshots_total",
          "Full snapshot resyncs this follower performed")),
      divergencesMetric_(obs::MetricsRegistry::global().counter(
          "ref_repl_follower_divergences_total",
          "Tick state-hash mismatches against the primary (each "
          "forces a snapshot resync)")),
      reconnectsMetric_(obs::MetricsRegistry::global().counter(
          "ref_repl_follower_reconnects_total",
          "Connection attempts after the first")),
      lastSeqGauge_(obs::MetricsRegistry::global().gauge(
          "ref_repl_follower_last_seq",
          "Last primary sequence applied by this follower")),
      followingGauge_(obs::MetricsRegistry::global().gauge(
          "ref_repl_following",
          "1 while this process follows a primary (read-only)"))
{}

FollowerClient::~FollowerClient()
{
    stop();
}

void
FollowerClient::start()
{
    if (thread_.joinable())
        return;
    lastContactMs_.store(nowMs(), std::memory_order_relaxed);
    followingGauge_.set(1);
    thread_ = std::thread([this] { threadMain(); });
}

void
FollowerClient::stop()
{
    stopping_.store(true, std::memory_order_relaxed);
    if (thread_.joinable())
        thread_.join();
    if (!promoted_.load(std::memory_order_relaxed))
        followingGauge_.set(0);
}

bool
FollowerClient::following() const
{
    return !promoted_.load(std::memory_order_relaxed);
}

bool
FollowerClient::promote(std::string &message)
{
    std::lock_guard<std::mutex> lock(applyMutex_);
    if (promoted_.load(std::memory_order_relaxed)) {
        message = "already serving";
        return false;
    }
    // Flag first: the shipping thread checks it under applyMutex_
    // before every record, so nothing lands after the compaction.
    promoted_.store(true, std::memory_order_relaxed);
    service_.promote();
    followingGauge_.set(0);
    std::ostringstream detail;
    detail << "serving (followed " << options_.address
           << ", applied "
           << recordsApplied_.load(std::memory_order_relaxed)
           << " records through seq " << lastApplied_ << ")";
    message = detail.str();
    return true;
}

FollowerClient::Stats
FollowerClient::stats() const
{
    Stats stats;
    stats.recordsApplied =
        recordsApplied_.load(std::memory_order_relaxed);
    stats.snapshotsLoaded =
        snapshotsLoaded_.load(std::memory_order_relaxed);
    stats.divergences =
        divergences_.load(std::memory_order_relaxed);
    stats.reconnects = reconnects_.load(std::memory_order_relaxed);
    // Per-instance atomic, NOT the process-global gauge: several
    // followers in one process (chained hops, tests) share the
    // gauge's name, so the gauge cannot answer for this instance.
    stats.lastAppliedSeq =
        lastAppliedSeq_.load(std::memory_order_relaxed);
    return stats;
}

bool
FollowerClient::autoPromoteDue()
{
    if (options_.promoteTimeoutMs <= 0)
        return false;
    if (promoted_.load(std::memory_order_relaxed) ||
        stopping_.load(std::memory_order_relaxed))
        return false;
    const std::int64_t last =
        lastContactMs_.load(std::memory_order_relaxed);
    return nowMs() - last >=
           static_cast<std::int64_t>(options_.promoteTimeoutMs);
}

void
FollowerClient::threadMain()
{
    bool first = true;
    while (!stopping_.load(std::memory_order_relaxed) &&
           !promoted_.load(std::memory_order_relaxed)) {
        if (!first) {
            reconnects_.fetch_add(1, std::memory_order_relaxed);
            reconnectsMetric_.add();
        }
        first = false;
        if (runSession() == SessionEnd::Stop)
            return;
        // Disconnected: wait, keep checking the promote clock.
        const std::int64_t until =
            nowMs() + std::max(1, options_.reconnectDelayMs);
        while (nowMs() < until) {
            if (stopping_.load(std::memory_order_relaxed) ||
                promoted_.load(std::memory_order_relaxed))
                return;
            if (autoPromoteDue()) {
                std::string message;
                if (promote(message))
                    REF_WARN("primary silent for "
                             << options_.promoteTimeoutMs
                             << " ms; promoting: " << message);
                return;
            }
            ::usleep(20 * 1000);
        }
    }
}

FollowerClient::SessionEnd
FollowerClient::runSession()
{
    const int fd = connectTo(options_.address, 1000);
    if (fd < 0) {
        REF_WARN("follower cannot reach " << options_.address
                                          << ": "
                                          << std::strerror(errno));
        return SessionEnd::Retry;
    }

    // SYNC with our resume cursor. streamId 0 (no snapshot yet, or
    // a forced resync) never matches a real stream, so the primary
    // answers with a Snapshot frame.
    svc::Command sync;
    sync.op = svc::Command::Op::Sync;
    sync.syncStreamId = streamId_;
    sync.syncSeq = lastApplied_;
    if (!writeAll(fd, svc::formatCommand(sync) + "\n")) {
        ::close(fd);
        return SessionEnd::Retry;
    }

    // One reply line, then frames only.
    bool subscribed = false;
    std::string buffer;
    char chunk[65536];
    SessionEnd end = SessionEnd::Retry;
    for (;;) {
        if (stopping_.load(std::memory_order_relaxed) ||
            promoted_.load(std::memory_order_relaxed)) {
            end = SessionEnd::Stop;
            break;
        }
        if (autoPromoteDue()) {
            std::string message;
            if (promote(message))
                REF_WARN("primary silent for "
                         << options_.promoteTimeoutMs
                         << " ms; promoting: " << message);
            end = SessionEnd::Stop;
            break;
        }

        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;

        const ssize_t got = ::read(fd, chunk, sizeof(chunk));
        if (got < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            break;
        }
        if (got == 0)
            break;  // Primary closed (or died): reconnect loop.
        lastContactMs_.store(nowMs(), std::memory_order_relaxed);
        buffer.append(chunk, static_cast<std::size_t>(got));

        std::size_t offset = 0;
        if (!subscribed) {
            const std::size_t newline = buffer.find('\n');
            if (newline == std::string::npos)
                continue;  // Wait for the rest of the line.
            const std::string reply = buffer.substr(0, newline);
            if (reply.rfind("OK sync ", 0) != 0) {
                REF_WARN("primary refused sync: " << reply);
                break;
            }
            offset = newline + 1;
            subscribed = true;
        }
        bool resync = false;
        for (;;) {
            std::string_view payload;
            const FrameStatus status =
                readFrame(buffer, offset, payload);
            if (status == FrameStatus::Torn ||
                status == FrameStatus::End)
                break;  // Wait for the rest of the frame.
            if (status == FrameStatus::Corrupt) {
                // Bit rot on the channel: drop the connection and
                // resume from the last applied sequence — the
                // cursor makes the retry lossless.
                REF_WARN("corrupt replication frame from "
                         << options_.address << "; resyncing");
                resync = true;
                break;
            }
            if (!handleMessage(payload, fd)) {
                resync = true;
                break;
            }
            if (promoted_.load(std::memory_order_relaxed)) {
                end = SessionEnd::Stop;
                resync = true;  // Leave the read loop either way.
                break;
            }
        }
        buffer.erase(0, offset);
        if (resync)
            break;
    }
    ::close(fd);
    return end;
}

bool
FollowerClient::handleMessage(std::string_view payload, int fd)
{
    ReplMessage message;
    try {
        message = decodeReplMessage(payload);
    } catch (const FatalError &error) {
        REF_WARN("bad replication frame: " << error.what());
        return false;
    }

    switch (message.kind) {
    case MessageKind::Snapshot: {
        svc::ServiceState state;
        try {
            state = svc::decodeServiceState(message.payload);
        } catch (const FatalError &error) {
            REF_WARN("bad snapshot from primary: " << error.what());
            return false;
        }
        {
            std::lock_guard<std::mutex> lock(applyMutex_);
            if (promoted_.load(std::memory_order_relaxed))
                return true;
            service_.adoptState(state);
            streamId_ = message.streamId;
            lastApplied_ = message.seq;
        }
        snapshotsLoaded_.fetch_add(1, std::memory_order_relaxed);
        snapshotsMetric_.add();
        lastAppliedSeq_.store(message.seq,
                              std::memory_order_relaxed);
        lastSeqGauge_.set(static_cast<double>(message.seq));
        REF_INFORM("follower synced from snapshot: stream="
                   << message.streamId << " seq=" << message.seq);
        return true;
    }
    case MessageKind::Record: {
        svc::JournalRecord record;
        try {
            record = svc::decodeJournalRecord(message.payload);
        } catch (const FatalError &error) {
            REF_WARN("bad shipped record: " << error.what());
            return false;
        }
        bool diverged = false;
        {
            std::lock_guard<std::mutex> lock(applyMutex_);
            if (promoted_.load(std::memory_order_relaxed))
                return true;
            if (message.seq != lastApplied_ + 1) {
                REF_WARN("replication gap: expected seq "
                         << lastApplied_ + 1 << ", got "
                         << message.seq << "; resyncing");
                return false;
            }
            const std::uint32_t mine = service_.applyShipped(record);
            lastApplied_ = message.seq;
            if (record.type == svc::JournalRecord::Type::Tick) {
                if (mine != message.stateHash) {
                    // The whole point of the hash: a divergent
                    // replica must never serve. Drop everything
                    // and resync from a full snapshot.
                    diverged = true;
                    streamId_ = 0;
                    REF_WARN("follower diverged at seq "
                             << message.seq << ": state hash "
                             << mine << " != primary "
                             << message.stateHash
                             << "; forcing snapshot resync");
                }
            }
        }
        recordsApplied_.fetch_add(1, std::memory_order_relaxed);
        appliedMetric_.add();
        lastAppliedSeq_.store(message.seq,
                              std::memory_order_relaxed);
        lastSeqGauge_.set(static_cast<double>(message.seq));
        if (diverged) {
            divergences_.fetch_add(1, std::memory_order_relaxed);
            divergencesMetric_.add();
            return false;
        }
        ReplMessage ack;
        ack.kind = MessageKind::Ack;
        ack.seq = message.seq;
        const std::uint64_t now = wallClockNs();
        ack.timestampNs = now > message.timestampNs
                              ? now - message.timestampNs
                              : 0;
        return writeAll(fd, frameRecord(encodeReplMessage(ack)));
    }
    case MessageKind::Heartbeat: {
        ReplMessage ack;
        ack.kind = MessageKind::Ack;
        ack.seq = lastApplied_;
        const std::uint64_t now = wallClockNs();
        ack.timestampNs = now > message.timestampNs
                              ? now - message.timestampNs
                              : 0;
        return writeAll(fd, frameRecord(encodeReplMessage(ack)));
    }
    case MessageKind::Ack:
        REF_WARN("unexpected Ack from primary; resyncing");
        return false;
    }
    return true;
}

} // namespace ref::repl
