/**
 * @file
 * Shared harness for the socket front-end tests: an in-process
 * SocketServer on an ephemeral loopback port driven from a
 * background thread, and a raw-socket TestClient with deadline-based
 * reads so tests never hang on a lost reply.
 */

#ifndef REF_TESTS_NET_TEST_UTIL_HH
#define REF_TESTS_NET_TEST_UTIL_HH

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "net/socket_server.hh"
#include "svc/allocation_service.hh"
#include "util/record_io.hh"

namespace ref::test {

/** In-process server: start() binds before the thread spins up, so
 *  the port is known; stats() is safe to read after join(). */
class ServerHarness
{
  public:
    explicit ServerHarness(svc::ServiceConfig config = {},
                           net::ServerOptions options = {})
        : service_(config)
    {
        if (options.listenAddress.empty())
            options.listenAddress = "127.0.0.1:0";
        server_ =
            std::make_unique<net::SocketServer>(service_, options);
        server_->start();
        thread_ = std::thread(
            [this] { stats_ = server_->run(); });
    }

    ~ServerHarness() { stop(); }

    std::uint16_t port() const { return server_->tcpPort(); }
    svc::AllocationService &service() { return service_; }

    /** Ask the loop to drain and wait for it. Idempotent. */
    const net::ServerStats &stop()
    {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
        return stats_;
    }

    /** Server-run totals; call after stop() (or after the run ended
     *  via a SHUTDOWN command — join() first). */
    const net::ServerStats &stats() const { return stats_; }

  private:
    svc::AllocationService service_;
    std::unique_ptr<net::SocketServer> server_;
    std::thread thread_;
    net::ServerStats stats_;
};

/** Blocking-with-deadline client over one TCP connection. */
class TestClient
{
  public:
    explicit TestClient(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0) << std::strerror(errno);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd_,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0)
            << std::strerror(errno);
    }

    ~TestClient() { close(); }
    TestClient(const TestClient &) = delete;
    TestClient &operator=(const TestClient &) = delete;

    int fd() const { return fd_; }

    void close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    /** Shrink the kernel receive buffer (slow-loris tests want the
     *  server's backlog to fill fast). Call before traffic. */
    void setSmallReceiveBuffer(int bytes = 4096)
    {
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes,
                     sizeof(bytes));
    }

    /** Write every byte (server reads are nonblocking, so a test
     *  client may block here only while the server catches up). */
    void sendAll(std::string_view bytes)
    {
        std::size_t done = 0;
        while (done < bytes.size()) {
            const ssize_t wrote =
                ::send(fd_, bytes.data() + done,
                       bytes.size() - done, MSG_NOSIGNAL);
            if (wrote < 0 && errno == EINTR)
                continue;
            ASSERT_GT(wrote, 0) << std::strerror(errno);
            done += static_cast<std::size_t>(wrote);
        }
    }

    /**
     * Read until @p lines complete lines are buffered or the
     * deadline passes; returns the lines (trailing part beyond the
     * count stays buffered for the next call).
     */
    std::string readLines(std::size_t lines, int timeoutMs = 5000)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeoutMs);
        for (;;) {
            std::size_t seen = 0;
            std::size_t end = 0;
            for (std::size_t i = 0;
                 i < buffer_.size() && seen < lines; ++i) {
                if (buffer_[i] == '\n') {
                    ++seen;
                    end = i + 1;
                }
            }
            if (seen >= lines) {
                std::string head = buffer_.substr(0, end);
                buffer_.erase(0, end);
                return head;
            }
            if (eof_ || !fillBuffer(deadline))
                return std::string();
        }
    }

    /** Read everything until the server closes the connection (or
     *  the deadline passes — the test then fails on content). */
    std::string readToEof(int timeoutMs = 5000)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeoutMs);
        while (!eof_ && fillBuffer(deadline)) {
        }
        std::string all;
        all.swap(buffer_);
        return all;
    }

    /** Half-close: no more bytes from us, reads stay open — how a
     *  test hands the server a torn line at EOF. */
    void shutdownWrite() { ::shutdown(fd_, SHUT_WR); }

    /** Frame and send one payload (a replica's Ack). */
    void sendFrame(std::string_view payload)
    {
        sendAll(frameRecord(payload));
    }

    /** Read one whole CRC32 frame; false on timeout, EOF, or a
     *  corrupt frame from the server (tests treat all as failure). */
    bool readFrameUnit(std::string &payload, int timeoutMs = 5000)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeoutMs);
        for (;;) {
            std::size_t at = 0;
            std::string_view view;
            const FrameStatus status =
                ref::readFrame(buffer_, at, view);
            if (status == FrameStatus::Ok) {
                payload.assign(view);
                buffer_.erase(0, at);
                return true;
            }
            if (status == FrameStatus::Corrupt)
                return false;
            if (eof_ || !fillBuffer(deadline))
                return false;
        }
    }

    /** True when the server closed this connection within the
     *  deadline (any still-buffered bytes are discarded). */
    bool waitForClose(int timeoutMs = 5000)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeoutMs);
        while (!eof_ && fillBuffer(deadline)) {
        }
        return eof_;
    }

  private:
    /** One poll+read pass bounded by @p deadline. False on timeout
     *  or error; EOF sets eof_ and returns false. */
    bool fillBuffer(std::chrono::steady_clock::time_point deadline)
    {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline || fd_ < 0)
            return false;
        // Round up: a sub-millisecond remainder must still buy one
        // poll pass, or short deadlines never read at all.
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count() +
            1;
        pollfd pfd{fd_, POLLIN, 0};
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(left));
        if (ready <= 0)
            return false;
        char chunk[4096];
        const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
        if (got < 0) {
            if (errno == EINTR)
                return true;
            // ECONNRESET: an abortive server-side drop (close with
            // unread input pending) counts as connection closed.
            eof_ = true;
            return false;
        }
        if (got == 0) {
            eof_ = true;
            return false;
        }
        buffer_.append(chunk, static_cast<std::size_t>(got));
        return true;
    }

    int fd_ = -1;
    std::string buffer_;
    bool eof_ = false;
};

/** Count lines beginning with @p prefix in a transcript. */
inline std::size_t
countPrefixed(const std::string &text, const std::string &prefix)
{
    std::size_t count = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        if (text.compare(pos, prefix.size(), prefix) == 0)
            ++count;
        const std::size_t newline = text.find('\n', pos);
        if (newline == std::string::npos)
            break;
        pos = newline + 1;
    }
    return count;
}

} // namespace ref::test

#endif // REF_TESTS_NET_TEST_UTIL_HH
