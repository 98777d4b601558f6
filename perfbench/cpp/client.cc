#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "reference.hh"
#include "stats.hh"
#include "svc/snapshot.hh"
#include "workload.hh"

namespace refbench {

Flags::Flags(int argc, char **argv, int first)
{
    for (int i = first; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("expected --flag value, got '" +
                                        key + "'");
        values_[key.substr(2)] = argv[i + 1];
    }
}

std::string
Flags::get(const std::string &key, const std::string &fallback) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::uint64_t
Flags::number(const std::string &key, std::uint64_t fallback) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
}

bool
Flags::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::vector<std::uint64_t>
Flags::numbers(const std::string &key) const
{
    std::vector<std::uint64_t> out;
    std::istringstream list(get(key));
    std::string cell;
    while (std::getline(list, cell, ','))
        out.push_back(std::stoull(cell));
    return out;
}

namespace {

/** How long a request may go unanswered before the run gives up. */
constexpr int kReplyTimeoutMs = 60000;
/** Set-up and check traffic is pipelined in batches of this many. */
constexpr std::size_t kPipelineBatch = 512;

/** One blocking TCP connection to the server, line framed. */
class Connection
{
  public:
    explicit Connection(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket: " +
                                     std::string(std::strerror(errno)));
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons(port);
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&address),
                      sizeof(address)) != 0) {
            const int err = errno;
            ::close(fd_);
            throw std::runtime_error("connect: " +
                                     std::string(std::strerror(err)));
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }

    void send(const std::string &data)
    {
        std::size_t done = 0;
        while (done < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + done,
                                     data.size() - done, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error(
                    "send: " + std::string(std::strerror(errno)));
            done += static_cast<std::size_t>(n);
        }
        bytesOut += data.size();
    }

    /** Next complete line already received, if any. */
    bool bufferedLine(std::string &line)
    {
        const std::size_t newline = buffer_.find('\n', start_);
        if (newline == std::string::npos)
            return false;
        line.assign(buffer_, start_, newline - start_);
        start_ = newline + 1;
        if (start_ == buffer_.size()) {
            buffer_.clear();
            start_ = 0;
        }
        return true;
    }

    /** One recv() into the buffer; false on EOF or error. */
    bool receive()
    {
        char chunk[65536];
        ssize_t n;
        do {
            n = ::recv(fd_, chunk, sizeof(chunk), 0);
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return false;
        if (start_ > 0) {
            buffer_.erase(0, start_);
            start_ = 0;
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
        bytesIn += static_cast<std::uint64_t>(n);
        return true;
    }

    /** Blocking read of one line; throws on EOF or timeout. */
    std::string readLine()
    {
        std::string line;
        while (!bufferedLine(line)) {
            pollfd pfd{fd_, POLLIN, 0};
            const int ready = ::poll(&pfd, 1, kReplyTimeoutMs);
            if (ready == 0)
                throw std::runtime_error("server did not reply");
            if (ready < 0 && errno == EINTR)
                continue;
            if (ready < 0 || !receive())
                throw std::runtime_error("server closed the connection");
        }
        return line;
    }

    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;

  private:
    int fd_ = -1;
    std::string buffer_;
    std::size_t start_ = 0;
};

/** Collects failed output checks; the first few are kept verbatim. */
class Checks
{
  public:
    void fail(const std::string &what)
    {
        if (failures_.size() < 8)
            failures_.push_back(what);
        ++count_;
    }
    bool ok() const { return count_ == 0; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::vector<std::string> failures_;
    std::size_t count_ = 0;
};

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** The reply a correct server gives to @p command. */
bool
replyOk(const WorkloadSpec &spec, const Command &command,
        const std::string &reply)
{
    switch (command.cls) {
    case OpClass::Tick:
        // Flat epochs run the SI/EF checks; pooled ones skip them above
        // kPooledPropertyCheckCap agents, so only the self-check shows.
        return startsWith(reply, "EPOCH ") &&
               endsWith(reply, spec.pooled ? " selfcheck=ok"
                                           : " si=ok ef=ok selfcheck=ok");
    case OpClass::Query:
        return startsWith(reply,
                          "SHARE " + command.line.substr(6) + " ");
    case OpClass::Mutation:
        return startsWith(reply, "OK ");
    }
    return false;
}

/** Send @p lines pipelined; returns the replies in order. */
std::vector<std::string>
pipeline(Connection &conn, const std::vector<std::string> &lines)
{
    std::vector<std::string> replies;
    replies.reserve(lines.size());
    for (std::size_t first = 0; first < lines.size();
         first += kPipelineBatch) {
        const std::size_t last =
            std::min(lines.size(), first + kPipelineBatch);
        std::string batch;
        for (std::size_t i = first; i < last; ++i)
            batch += lines[i] + "\n";
        conn.send(batch);
        for (std::size_t i = first; i < last; ++i)
            replies.push_back(conn.readLine());
    }
    return replies;
}

/** STATS reply as key -> value (ends at the state_hash line). */
std::map<std::string, std::string>
readStats(Connection &conn)
{
    conn.send("STATS\n");
    std::map<std::string, std::string> stats;
    while (true) {
        const std::string line = conn.readLine();
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw std::runtime_error("unexpected STATS line: " + line);
        stats[line.substr(0, eq)] = line.substr(eq + 1);
        if (line.compare(0, 11, "state_hash=") == 0)
            return stats;
    }
}

void
shutdown(Connection &conn)
{
    conn.send("SHUTDOWN\n");
    const std::string reply = conn.readLine();
    if (reply != "OK shutdown")
        throw std::runtime_error("SHUTDOWN answered: " + reply);
}

/** Peak resident set of @p pid in MiB (VmHWM), or 0 if unreadable. */
double
peakRssMb(std::uint64_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(4096, '\n');
    }
    return 0;
}

/** What the timed window produced. */
struct Window
{
    std::vector<std::vector<std::string>> sent;  //!< Per connection.
    std::vector<double> latencyMs[3];            //!< By OpClass.
    std::vector<RttRecord> rtts;
    std::uint64_t replies = 0;
    std::uint64_t errors = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t bytes = 0;
    double seconds = 0;
};

/**
 * Closed-loop traffic for @p seconds: each connection keeps one
 * request outstanding, and the client spins rather than sleeps while
 * waiting. A TICK is sent only once every other connection is idle,
 * and nothing else is sent while it runs, so no reply time includes
 * waiting behind another connection's TICK.
 */
Window
runWindow(const WorkloadSpec &spec, std::uint64_t seed,
          std::uint64_t seconds,
          std::vector<std::unique_ptr<Connection>> &conns, Checks &checks)
{
    struct Slot
    {
        std::unique_ptr<Stream> stream;
        Command command;
        std::uint64_t index = 0;
        std::uint64_t sentNs = 0;
        bool have = false;
        bool outstanding = false;
    };
    const std::size_t n = conns.size();
    std::vector<Slot> slots(n);
    for (std::size_t c = 0; c < n; ++c)
        slots[c].stream = std::make_unique<Stream>(spec, seed, c);

    Window window;
    window.sent.resize(n);
    std::uint64_t bytesBefore = 0;
    for (const auto &conn : conns)
        bytesBefore += conn->bytesIn + conn->bytesOut;

    const std::uint64_t start = nowNs();
    const std::uint64_t deadline = start + seconds * 1000000000ULL;
    std::uint64_t lastReply = start;
    std::string line;
    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;
    while (true) {
        const bool issuing = nowNs() < deadline;
        if (issuing) {
            for (Slot &slot : slots) {
                if (!slot.have) {
                    slot.command = slot.stream->next();
                    slot.have = true;
                }
            }
            std::size_t tickHolder = n;
            for (std::size_t c = 0; c < n; ++c)
                if (slots[c].command.cls == OpClass::Tick)
                    tickHolder = c;
            bool othersBusy = false;
            for (std::size_t c = 0; c < n; ++c)
                if (c != tickHolder && slots[c].outstanding)
                    othersBusy = true;
            for (std::size_t c = 0; c < n; ++c) {
                Slot &slot = slots[c];
                if (slot.outstanding)
                    continue;
                if (tickHolder != n &&
                    (c != tickHolder || othersBusy))
                    continue;
                slot.index = window.sent[c].size();
                window.sent[c].push_back(slot.command.line);
                slot.outstanding = true;
                slot.sentNs = nowNs();
                conns[c]->send(slot.command.line + "\n");
            }
        }

        fds.clear();
        owners.clear();
        for (std::size_t c = 0; c < n; ++c) {
            if (slots[c].outstanding) {
                fds.push_back({conns[c]->fd(), POLLIN, 0});
                owners.push_back(c);
            }
        }
        if (fds.empty()) {
            if (!issuing)
                break;
            continue;
        }
        // Busy-poll: a client that sleeps between replies adds its own
        // wake-up latency to every round trip, most of all after a
        // long TICK, and that latency varies with the host.
        const int ready = ::poll(fds.data(), fds.size(), 0);
        if (ready < 0 && errno != EINTR)
            throw std::runtime_error("poll failed");
        if (ready <= 0) {
            if (nowNs() - lastReply > kReplyTimeoutMs * 1000000ULL) {
                window.unanswered = fds.size();
                checks.fail("requests unanswered for 60 s");
                break;
            }
            continue;
        }
        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (fds[k].revents == 0)
                continue;
            const std::size_t c = owners[k];
            Slot &slot = slots[c];
            if (!conns[c]->receive())
                throw std::runtime_error("server closed the connection");
            if (!conns[c]->bufferedLine(line))
                continue;
            const std::uint64_t now = nowNs();
            lastReply = now;
            const std::uint64_t rtt = now - slot.sentNs;
            ++window.replies;
            window.latencyMs[static_cast<int>(slot.command.cls)]
                .push_back(static_cast<double>(rtt) / 1e6);
            window.rtts.push_back({c, slot.index, rtt});

            if (startsWith(line, "ERR")) {
                ++window.errors;
                checks.fail(slot.command.line + " -> " + line);
            } else if (!replyOk(spec, slot.command, line)) {
                checks.fail(slot.command.line + " -> " + line);
            }
            slot.outstanding = false;
            slot.have = false;
        }
    }
    window.seconds = static_cast<double>(lastReply - start) / 1e9;
    for (const auto &conn : conns)
        window.bytes += conn->bytesIn + conn->bytesOut;
    window.bytes -= bytesBefore;
    return window;
}

/** Full-state shares of the server vs an in-process service fed the
 *  same preload and per-connection mutations. */
void
checkAgainstReference(const WorkloadSpec &spec, std::uint64_t seed,
                      const Window &window, Connection &conn,
                      Checks &checks)
{
    ref::svc::AllocationService reference(serviceConfig(spec, ""));
    ref::svc::CommandSession session(reference);
    std::string error;
    for (const std::string &line : preloadLines(spec, seed))
        if (!execute(session, line, error))
            checks.fail("reference preload: " + error);
    // Connections mutate disjoint agents and REF's shares depend only
    // on the final population, so per-connection order suffices;
    // TICKs and QUERYs change no shares and are skipped.
    for (const auto &lines : window.sent)
        for (const std::string &line : lines)
            if (line != "TICK" && !startsWith(line, "QUERY ") &&
                !execute(session, line, error))
                checks.fail("reference replay: " + error);
    reference.tick();

    std::map<std::string, std::string> expected;
    if (spec.pooled) {
        std::uint64_t seq = 0;
        const ref::svc::ServiceState state = ref::svc::decodeServiceState(
            reference.captureReplicationSnapshot(seq));
        for (const auto &agent : state.agents)
            expected[agent.name] =
                formatShares(reference.agentShares(agent.name));
    } else {
        const auto snapshot = reference.snapshot();
        for (std::size_t i = 0; i < snapshot->agents.size(); ++i) {
            linalg::Vector row;
            for (std::size_t r = 0; r < snapshot->allocation.resources();
                 ++r)
                row.push_back(snapshot->allocation.at(i, r));
            expected[snapshot->agents[i]] = formatShares(row);
        }
    }

    std::vector<std::string> shareLines;
    if (spec.pooled) {
        std::vector<std::string> queries;
        for (const auto &entry : expected)
            queries.push_back("QUERY " + entry.first);
        shareLines = pipeline(conn, queries);
    } else {
        conn.send("QUERY\n");
        const std::string header = conn.readLine();
        const std::size_t at = header.find(" agents=");
        if (!startsWith(header, "SNAPSHOT ") || at == std::string::npos) {
            checks.fail("full QUERY answered: " + header);
            return;
        }
        const std::size_t rows = std::stoull(header.substr(at + 8));
        for (std::size_t i = 0; i < rows; ++i)
            shareLines.push_back(conn.readLine());
    }
    std::map<std::string, std::string> actual;
    for (const std::string &line : shareLines) {
        const std::size_t space = line.find(' ', 6);
        if (!startsWith(line, "SHARE ") || space == std::string::npos) {
            checks.fail("share line: " + line);
            continue;
        }
        actual[line.substr(6, space - 6)] = line.substr(space);
    }
    if (actual.size() != expected.size())
        checks.fail("server holds " + std::to_string(actual.size()) +
                    " agents, reference " +
                    std::to_string(expected.size()));
    for (const auto &[name, shares] : expected) {
        const auto it = actual.find(name);
        if (it == actual.end())
            checks.fail("agent " + name + " missing on the server");
        else if (it->second != shares)
            checks.fail("agent " + name + " shares" + it->second +
                        " vs reference" + shares);
    }
}

/** STATS as a JSON object of strings (histogram rows left out). */
std::string
statsJson(const std::map<std::string, std::string> &stats)
{
    std::string out = "{";
    for (const auto &[key, value] : stats) {
        if (key.find("histogram") != std::string::npos)
            continue;
        out += (out.size() > 1 ? "," : "") + jsonString(key) + ":" +
               jsonString(value);
    }
    return out + "}";
}

void
printMetric(std::ostream &out, bool &first, const std::string &name,
            double value, std::size_t samples)
{
    out << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
        << value << ",\"samples\":" << samples << "}";
    first = false;
}

} // namespace

int
runDrive(const Flags &flags)
{
    const WorkloadSpec &spec = findWorkload(flags.get("workload"));
    const std::uint64_t seed = flags.number("seed", 1);
    const std::uint64_t seconds = flags.number("seconds", 10);
    const auto port = static_cast<std::uint16_t>(flags.number("port", 0));
    const std::uint64_t serverPid = flags.number("server-pid", 0);

    std::vector<std::unique_ptr<Connection>> conns;
    for (std::size_t c = 0; c < spec.connections; ++c)
        conns.push_back(std::make_unique<Connection>(port));
    Connection &control = *conns[0];
    Checks checks;

    for (const std::string &reply :
         pipeline(control, preloadLines(spec, seed)))
        if (!startsWith(reply, "OK "))
            checks.fail("preload: " + reply);
    control.send("TICK\n");
    const std::string firstTick = control.readLine();
    const std::uint64_t setupDone = nowNs();
    if (!replyOk(spec, {"TICK", OpClass::Tick}, firstTick))
        checks.fail("first TICK: " + firstTick);
    std::cout << "setup_done_ns=" << setupDone << "\n";
    if (flags.get("setup-only") == "1") {
        shutdown(control);
        std::cout << "{\"correct\":" << (checks.ok() ? "true" : "false")
                  << "}" << std::endl;
        return checks.ok() ? 0 : 1;
    }

    const Window window = runWindow(spec, seed, seconds, conns, checks);
    const double rssMb = peakRssMb(serverPid);

    // Untimed checks: a final TICK, then the full state against the
    // in-process reference.
    control.send("TICK\n");
    const std::string lastTick = control.readLine();
    if (!replyOk(spec, {"TICK", OpClass::Tick}, lastTick))
        checks.fail("final TICK: " + lastTick);
    checkAgainstReference(spec, seed, window, control, checks);
    const auto stats = readStats(control);
    if (stats.at("rejected") != "0")
        checks.fail("server rejected " + stats.at("rejected") +
                    " commands");
    shutdown(control);

    if (flags.has("rtt-out")) {
        std::ofstream rtt(flags.get("rtt-out"));
        for (const RttRecord &record : window.rtts)
            rtt << record.connection << "\t" << record.index << "\t"
                << record.rttNs << "\n";
    }

    std::uint64_t attempted = 0;
    for (const auto &lines : window.sent)
        attempted += lines.size();

    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\":" << (checks.ok() ? "true" : "false")
        << ",\"attempted\":" << attempted
        << ",\"failed\":" << window.errors + window.unanswered
        << ",\"failures\":[";
    for (std::size_t i = 0; i < checks.failures().size(); ++i)
        out << (i ? "," : "") << jsonString(checks.failures()[i]);
    out << "],\"sent\":[";
    for (std::size_t c = 0; c < window.sent.size(); ++c)
        out << (c ? "," : "") << window.sent[c].size();
    out << "],\"metrics\":{";
    bool first = true;
    printMetric(out, first, "ops_per_s",
                static_cast<double>(window.replies) / window.seconds,
                window.replies);
    // Gated figures are p50 and p90; p99 is printed for reference
    // only (its run-to-run spread on a shared host is several times
    // any allowed bound, see README.md).
    const struct
    {
        OpClass cls;
        const char *prefix;
    } classes[] = {{OpClass::Tick, "tick"},
                   {OpClass::Mutation, "mutation"},
                   {OpClass::Query, "query"}};
    for (const auto &cls : classes) {
        const auto &samples = window.latencyMs[static_cast<int>(cls.cls)];
        for (const int p : {50, 90, 99}) {
            if (const auto figure =
                    percentile(samples, p, p == 50 ? 0 : kTailMinBeyond))
                printMetric(out, first,
                            std::string(cls.prefix) + "_p" +
                                std::to_string(p) + "_ms",
                            *figure, samples.size());
        }
    }
    printMetric(out, first, "error_frac",
                attempted == 0
                    ? 0.0
                    : static_cast<double>(window.errors +
                                          window.unanswered) /
                          static_cast<double>(attempted),
                attempted);
    printMetric(out, first, "server_peak_rss_mb", rssMb, 1);
    out << "},\"window_s\":" << window.seconds
        << ",\"bytes_per_op\":"
        << static_cast<double>(window.bytes) /
               static_cast<double>(window.replies)
        << ",\"stats\":" << statsJson(stats);
    out << "}";
    std::cout << out.str() << std::endl;
    return checks.ok() ? 0 : 1;
}

int
runReplay(const Flags &flags)
{
    const WorkloadSpec &spec = findWorkload(flags.get("workload"));
    const std::uint64_t seed = flags.number("seed", 1);
    Connection conn(static_cast<std::uint16_t>(flags.number("port", 0)));
    std::vector<std::string> lines = preloadLines(spec, seed);
    lines.push_back("TICK");
    for (const Replayed &command :
         replayOrder(spec, seed, flags.numbers("sent"),
                     spec.replayCommands))
        lines.push_back(command.command.line);
    Checks checks;
    const std::vector<std::string> replies = pipeline(conn, lines);
    for (std::size_t i = 0; i < lines.size(); ++i)
        if (startsWith(replies[i], "ERR"))
            checks.fail(lines[i] + " -> " + replies[i]);
    const auto stats = readStats(conn);
    shutdown(conn);

    std::ostringstream out;
    out << "{\"correct\":" << (checks.ok() ? "true" : "false")
        << ",\"commands\":" << lines.size() << ",\"failures\":[";
    for (std::size_t i = 0; i < checks.failures().size(); ++i)
        out << (i ? "," : "") << jsonString(checks.failures()[i]);
    out << "],\"stats\":" << statsJson(stats) << "}";
    std::cout << out.str() << std::endl;
    return checks.ok() ? 0 : 1;
}

int
runStats(const Flags &flags)
{
    Connection conn(static_cast<std::uint16_t>(flags.number("port", 0)));
    const auto stats = readStats(conn);
    shutdown(conn);
    std::cout << "state_hash=" << stats.at("state_hash") << std::endl;
    return 0;
}

} // namespace refbench
