/**
 * @file
 * Deterministic line protocol for the allocation service.
 *
 * One command per line on an istream, one reply block per command on
 * an ostream — the transport ref_serve speaks over stdin/stdout so
 * the service is scriptable from tests and shell pipelines without
 * sockets. Grammar:
 *
 *   ADMIT <name> <e0> <e1> ...   admit agent with raw elasticities
 *   UPDATE <name> <e0> <e1> ...  replace an agent's elasticities
 *   DEPART <name>                remove an agent
 *   TICK [count]                 advance count epochs (default 1)
 *   QUERY [name]                 print snapshot shares (one agent or
 *                                all), no epoch advance
 *   PLAN                         print the enforcement artifacts of
 *                                the last enforced epoch
 *   STATS                        print service metrics
 *   METRICS [prom|json|fairness] print the metrics registry in
 *                                Prometheus (default) or JSON
 *                                exposition, or the per-epoch
 *                                fairness time series as CSV (a
 *                                pooled service, or a flat one with
 *                                cohorts, emits the labelled variant
 *                                with a leading label column)
 *   COHORT <name> <label>        tag an agent into a labelled
 *                                fairness cohort (flat mode only);
 *                                per-cohort SI/EF margins then ride
 *                                the labelled fairness series beside
 *                                the _total row — how the adversary
 *                                fleet separates honest-agent damage
 *                                from the liars' own telemetry
 *   POOL CREATE <path> [weight]  create a pool (pooled mode only;
 *                                weight defaults to 1)
 *   POOL ASSIGN <name> <path>    move an agent into a pool
 *   POOL QUERY [path]            print one pool or all pools
 *   SYNC <streamId> <seq>        subscribe this socket connection to
 *                                the WAL stream: one OK line, then
 *                                CRC32 replication frames only
 *                                (repl/repl_protocol.hh); over stdio
 *                                it draws one ERR
 *   PROMOTE                      flip a warm-standby follower to
 *                                serving (fresh generation); an ERR
 *                                on a non-follower
 *   SHUTDOWN                     reply OK and end the session
 *   # ...                        comment; blank lines are ignored
 *
 * Pooled QUERY semantics: a pooled service never materializes dense
 * allocations, so QUERY answers from the *live* tree (shares as of
 * the last mutation), not the published epoch snapshot — the pooled
 * SNAPSHOT header reports live agents/pools with per-pool rows
 * instead of per-agent SHARE rows.
 *
 * Replies: "OK ..." / "EPOCH ..." / "SHARE ..." data lines, or
 * "ERR <reason>" — invalid input never aborts the session (the
 * offending command is rejected, counted, and the stream continues),
 * matching the pool tree's validation contract. The reason is the
 * diagnostic alone, without the source location that a tool's
 * stderr shows.
 *
 * Both directions of the grammar live here: parseLine() reads a
 * line into a Command and formatCommand() writes one back, so every
 * in-tree client (adv::ServiceClient, hence ref_bomb and the
 * adversary fleet, and the follower's SYNC) spells commands the way
 * the server parses them.
 */

#ifndef REF_SVC_PROTOCOL_HH
#define REF_SVC_PROTOCOL_HH

#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "svc/allocation_service.hh"

namespace ref::svc {

/**
 * Session-side view of a warm-standby follower (implemented by
 * repl::FollowerClient; abstract here so ref_svc never depends on
 * the replication layer). While following() is true every mutating
 * command draws "ERR read-only follower"; PROMOTE calls promote().
 */
class FollowerControl
{
  public:
    virtual ~FollowerControl() = default;
    /** True while the service replays a primary (read-only). */
    virtual bool following() const = 0;
    /** Stop following and start serving; @p message gets the OK
     *  detail line. False when promotion is impossible. */
    virtual bool promote(std::string &message) = 0;
};

/** Largest count one TICK command may request. */
inline constexpr std::uint64_t kMaxTickCount = 100000;

/**
 * One parsed protocol line. CommandSession::parseLine produces it
 * and executeCommand runs it, so a transport can look at a command
 * between the two (the socket front-end intercepts SYNC there).
 */
struct Command
{
    enum class Op : std::uint8_t
    {
        Admit = 1,
        Update = 2,
        Depart = 3,
        Tick = 4,
        Query = 5,
        Plan = 6,
        Stats = 7,
        Metrics = 8,
        Shutdown = 9,
        Pool = 10,
        /** Follower pull: subscribe this socket connection to the
         *  WAL stream (the socket front-end intercepts it; the
         *  stream that follows is repl frames, not reply lines). */
        Sync = 11,
        /** Flip a follower to serving (fresh generation). */
        Promote = 12,
        /** Tag an agent into a labelled fairness cohort. */
        Cohort = 13,
    };

    /** Pool sub-operation. */
    enum class PoolOp : std::uint8_t
    {
        Create = 1,
        Assign = 2,
        Query = 3,
    };

    Op op = Op::Stats;
    /** Agent name for Admit/Update/Depart, and for Query when
     *  hasName is set. */
    std::string name;
    /** Raw elasticities for Admit/Update. */
    linalg::Vector elasticities;
    /** Epochs one Tick advances (validated against kMaxTickCount at
     *  execution). */
    std::uint64_t tickCount = 1;
    /** Query: true = one agent (name), false = whole snapshot. */
    bool hasName = false;
    /** Metrics exposition format: prom, json, or fairness. */
    std::string metricsFormat = "prom";
    /** Pool sub-operation for Op::Pool. */
    PoolOp poolOp = PoolOp::Query;
    /** Pool path for Create/Assign; for PoolOp::Query, empty means
     *  "all pools" (paths are validated non-empty, so this is
     *  unambiguous). */
    std::string poolPath;
    /** Pool weight for PoolOp::Create. */
    double poolWeight = 1.0;
    /** Cohort label for Op::Cohort (agent goes in name). */
    std::string cohortLabel;
    /** Sync: the primary stream identity the follower last saw (0
     *  on a cold start — forces a snapshot resync). */
    std::uint64_t syncStreamId = 0;
    /** Sync: last record sequence the follower holds; streaming
     *  resumes at syncSeq + 1 when the ring still covers it. */
    std::uint64_t syncSeq = 0;
};

/** Shortest decimal that round-trips the exact double. Replies
 *  print shares and weights with it and clients send elasticities
 *  with it, so each side parses back the bits the other computed. */
std::string formatDouble(double value);

/**
 * The inverse of parsing: @p command as one protocol line, without
 * its newline. Covers the shapes in-tree clients send: ADMIT,
 * UPDATE, DEPART, TICK, QUERY [name], COHORT, METRICS, POOL CREATE,
 * POOL ASSIGN and SYNC. A count-1 TICK renders as "TICK", and POOL
 * CREATE always carries its weight. Any other op is a caller bug
 * (PanicError).
 */
std::string formatCommand(const Command &command);

/** Protocol-session knobs. */
struct SessionOptions
{
    /** Echo each command line, prefixed "> ", before its reply —
     *  turns a piped session into a readable transcript. */
    bool echo = false;
    /**
     * Optional async stop flag (a signal handler's sig_atomic_t).
     * When it becomes non-zero the session stops before the next
     * command, as if the stream had hit EOF.
     */
    const volatile std::sig_atomic_t *stopFlag = nullptr;
    /** When non-empty, rewrite this file with the Prometheus
     *  exposition after every TICK command and at session end. */
    std::string metricsOutPath;
    /** When non-empty, append new fairness-series CSV rows to this
     *  file after every TICK command and at session end. */
    std::string fairnessOutPath;
    /**
     * Append the process-global registry (ref_net_* transport
     * counters, pool counters) to METRICS prom output. The socket
     * front-end turns this on so one scrape covers service and
     * transport; stdio sessions keep their exposition byte-stable.
     */
    bool includeGlobalMetrics = false;
    /**
     * Warm-standby state, shared by every session of a follower
     * process. Null on a normal primary: PROMOTE then answers "ERR
     * not a follower" and nothing is read-only.
     */
    FollowerControl *follower = nullptr;
};

/** What happened over one session. */
struct SessionResult
{
    std::uint64_t commands = 0;
    std::uint64_t errors = 0;  //!< ERR replies (rejected commands).
    /** Epochs whose SI or EF check failed or whose incremental
     *  allocation diverged from the from-scratch recompute. */
    std::uint64_t epochFailures = 0;
    /** True when the session ended via SHUTDOWN or the stop flag
     *  rather than EOF. */
    bool shutdown = false;

    bool clean() const { return errors == 0 && epochFailures == 0; }
};

/**
 * Transport-independent session core: executes one protocol line at
 * a time against the service, writing the reply block for that line
 * to the ostream handed in. runSession() wraps it in a getline loop
 * for the stdio transport; the socket front-end (net/socket_server)
 * feeds it lines as they are framed off each connection, one
 * CommandSession per client, all sharing one AllocationService.
 *
 * Behaviour is byte-for-byte the stdio protocol: CR stripping,
 * comment/blank skipping, optional echo, ERR-per-bad-line, and the
 * observability flushes after TICK ride inside executeLine().
 */
class CommandSession
{
  public:
    /** What one line did to the session. */
    enum class LineStatus
    {
        Idle,      //!< Blank line or comment; nothing counted.
        Executed,  //!< Command ran and replied (OK/EPOCH/... lines).
        Rejected,  //!< Command rejected with one ERR line.
        Shutdown,  //!< SHUTDOWN accepted; the session is over.
        /** parseLine only: the line parsed into a command that
         *  executeCommand has not run yet. */
        Parsed,
    };

    CommandSession(AllocationService &service,
                   const SessionOptions &options = {});
    ~CommandSession();
    CommandSession(const CommandSession &) = delete;
    CommandSession &operator=(const CommandSession &) = delete;

    /**
     * Execute one protocol line (no trailing newline required; a
     * trailing CR is stripped). Writes the complete reply block for
     * the line to @p out. Invalid input never throws — it produces
     * one ERR reply and LineStatus::Rejected.
     */
    LineStatus executeLine(const std::string &line,
                           std::ostream &out);

    /**
     * The parse half of executeLine: strips a trailing CR, returns
     * Idle for a blank or comment line, echoes, and parses the line
     * into @p command (Parsed). A line that does not parse draws its
     * one ERR, is counted, and returns Rejected.
     */
    LineStatus parseLine(const std::string &line, std::ostream &out,
                         Command &command);

    /**
     * Execute one parsed command (executeLine funnels here after
     * parseLine). Counts the command, writes its reply block, and
     * never throws: semantic errors
     * (bad elasticities, unknown agents, out-of-range TICK counts)
     * produce one ERR reply and LineStatus::Rejected.
     */
    LineStatus executeCommand(const Command &command,
                              std::ostream &out);

    /**
     * Final observability flush (metrics exposition rewrite +
     * fairness CSV append). runSession calls it at EOF; transports
     * call it when the connection ends. Idempotent; also run by the
     * destructor so an abandoned session still flushes.
     */
    void finish();

    /** Running totals (mutable: transports set .shutdown on an
     *  async stop, mirroring the stdio stop-flag path). */
    SessionResult &result() { return result_; }
    const SessionResult &result() const { return result_; }

  private:
    struct FlushState
    {
        bool headerWritten = false;
        std::uint64_t rowsFlushed = 0;
    };

    /** Metrics exposition rewrite + fairness CSV append (after each
     *  TICK and at finish()); IO failures are ignored. */
    void flushObservability();

    AllocationService &service_;
    SessionOptions options_;
    SessionResult result_;
    FlushState fairness_;
    bool finished_ = false;
};

/**
 * Run commands from @p in against @p service until EOF, writing
 * replies to @p out.
 */
SessionResult runSession(AllocationService &service, std::istream &in,
                         std::ostream &out,
                         const SessionOptions &options = {});

} // namespace ref::svc

#endif // REF_SVC_PROTOCOL_HH
