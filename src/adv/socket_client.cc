#include "socket_client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.hh"

namespace ref::adv {
namespace {

/** Blocking TCP connect to "addr:port" (numeric IPv4). */
int
connectTo(const std::string &spec)
{
    const std::size_t colon = spec.rfind(':');
    REF_REQUIRE(colon != std::string::npos && colon > 0,
                "connect spec wants addr:port, got '" << spec << "'");
    const std::string host = spec.substr(0, colon);
    const int port = std::stoi(spec.substr(colon + 1));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    REF_REQUIRE(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) ==
                    1,
                "connect spec wants a numeric IPv4 address, got '"
                    << host << "'");
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    REF_REQUIRE(fd >= 0, "socket: " << std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        // Close before throwing: a caller that retries until a
        // standby listens must not leak one descriptor per try.
        const int error = errno;
        ::close(fd);
        REF_FATAL("connect " << spec << ": " << std::strerror(error));
    }
    return fd;
}

void
sendAll(int fd, std::string_view bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t wrote =
            ::send(fd, bytes.data() + sent, bytes.size() - sent,
                   MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            REF_FATAL("send: " << std::strerror(errno));
        }
        sent += static_cast<std::size_t>(wrote);
    }
}

} // namespace

ServiceClient::ServiceClient(const std::string &addrPort)
    : fd_(connectTo(addrPort))
{
}

ServiceClient::~ServiceClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ServiceClient::fill()
{
    if (offset_ > 0 && offset_ == buffer_.size()) {
        buffer_.clear();
        offset_ = 0;
    }
    char chunk[4096];
    for (;;) {
        const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;  // EOF or error: server went away.
        buffer_.append(chunk, static_cast<std::size_t>(got));
        return true;
    }
}

bool
ServiceClient::readLine(std::string &line)
{
    for (;;) {
        const std::size_t newline = buffer_.find('\n', offset_);
        if (newline != std::string::npos) {
            line.assign(buffer_, offset_, newline - offset_);
            offset_ = newline + 1;
            return true;
        }
        if (!fill())
            return false;
    }
}

void
ServiceClient::send(const svc::Command &command)
{
    ++commands_;
    sendAll(fd_, svc::formatCommand(command) + "\n");
}

std::string
ServiceClient::readReply()
{
    std::string line;
    REF_REQUIRE(readLine(line),
                "server closed the connection mid-reply");
    return line;
}

std::string
ServiceClient::roundTrip(const svc::Command &command)
{
    send(command);
    return readReply();
}

std::vector<std::string>
ServiceClient::roundTripAll(const std::vector<svc::Command> &commands)
{
    for (const svc::Command &command : commands)
        send(command);
    std::vector<std::string> replies;
    replies.reserve(commands.size());
    for (std::size_t i = 0; i < commands.size(); ++i)
        replies.push_back(readReply());
    return replies;
}

std::string
ServiceClient::fairnessCsv(const std::string &sentinelAgent)
{
    svc::Command metrics;
    metrics.op = svc::Command::Op::Metrics;
    metrics.metricsFormat = "fairness";
    // The CSV block has no terminator, so a sentinel QUERY rides
    // behind it — CSV rows never start with "SHARE" or "ERR",
    // making the first such line an unambiguous end marker.
    svc::Command sentinel;
    sentinel.op = svc::Command::Op::Query;
    sentinel.hasName = true;
    sentinel.name = sentinelAgent;
    send(metrics);
    send(sentinel);
    --commands_;  // The sentinel is a framing artifact, not work.
    std::string csv;
    for (;;) {
        std::string line;
        REF_REQUIRE(readLine(line),
                    "server closed the connection mid-reply");
        if (line.rfind("SHARE ", 0) == 0 ||
            line.rfind("ERR ", 0) == 0)
            return csv;
        csv += line;
        csv += '\n';
    }
}

} // namespace ref::adv
