/**
 * @file
 * Seeded command streams for the service benchmark.
 *
 * A workload is a preload (run once during set-up, ending with the
 * first TICK) plus one endless command stream per client connection.
 * Every line is a pure function of (workload, seed, connection,
 * position), so the socket run, the in-process reference and the
 * traced replay all see byte-identical commands. Each connection
 * mutates only agents it owns, which makes the final state
 * independent of how the server interleaved the connections.
 */

#ifndef REFBENCH_WORKLOAD_HH
#define REFBENCH_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace refbench {

/** splitmix64: tiny, portable, and fully specified (unlike the
 *  standard distributions, whose output differs between libraries). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1) with 53 random bits. */
    double unit();
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/** Latency class a command's reply is counted under. */
enum class OpClass
{
    Mutation,  //!< ADMIT, UPDATE, DEPART, POOL ASSIGN.
    Query,     //!< QUERY <name>.
    Tick,      //!< TICK.
};

struct Command
{
    std::string line;  //!< Without the trailing newline.
    OpClass cls = OpClass::Query;
};

/** Static description of one workload. */
struct WorkloadSpec
{
    std::string name;
    bool pooled = false;
    std::size_t connections = 1;
    std::size_t preloadAgents = 0;
    std::size_t pools = 0;  //!< Created pools, root excluded.
    /**
     * Group-commit policy (--fsync-policy group:BYTES,USEC) of the
     * journaled server the durability check replays the run into;
     * 0/0 means the workload has no durability check. The timed
     * server is memory-only (see README.md, "Steadiness").
     */
    std::uint64_t groupBytes = 0;
    std::uint64_t groupUsec = 0;
    /** Commands per connection that the traced run and the
     *  durability check replay (a prefix of what the socket run
     *  sent), sized to keep a run short. */
    std::uint64_t replayCommands = 0;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloads();
/** Lookup by name; throws std::invalid_argument when unknown. */
const WorkloadSpec &findWorkload(const std::string &name);

/** True when runs end with the journal durability check. */
inline bool
hasDurabilityCheck(const WorkloadSpec &spec)
{
    return spec.groupBytes != 0 || spec.groupUsec != 0;
}

/** ref_serve flags for the workload, besides --listen and --journal;
 *  @p durable adds the durability check's fsync policy. */
std::vector<std::string> serverArgs(const WorkloadSpec &spec,
                                    bool durable);

/** Set-up lines: pool creation and agent admission, without the
 *  first TICK (the client sends that itself and times it). */
std::vector<std::string> preloadLines(const WorkloadSpec &spec,
                                      std::uint64_t seed);

/** Names of the preloaded agents, admission order. */
std::vector<std::string> preloadAgents(const WorkloadSpec &spec);

/**
 * Endless command stream of one connection. next() is deterministic
 * in (spec, seed, connection) and the number of calls so far.
 */
class Stream
{
  public:
    Stream(const WorkloadSpec &spec, std::uint64_t seed,
           std::size_t connection);
    Command next();
    /** Agents this connection owns and has not departed. */
    const std::vector<std::string> &live() const { return live_; }

  private:
    Command flatNext();
    Command pooledNext();
    std::string pickLive();
    std::string elasticities();

    const WorkloadSpec &spec_;
    std::size_t connection_;
    Rng rng_;
    std::uint64_t position_ = 0;
    std::uint64_t admitted_ = 0;
    std::vector<std::string> live_;
    std::string pendingAssign_;  //!< POOL ASSIGN owed after an ADMIT.
};

/** One command of a socket run: its connection and position there. */
struct Replayed
{
    std::size_t connection = 0;
    std::uint64_t index = 0;
    Command command;
};

/**
 * The first min(sent[c], cap) commands of each connection c,
 * interleaved round-robin. Connections mutate disjoint agents, so
 * this order reaches the same state as any interleaving the server
 * saw.
 */
std::vector<Replayed> replayOrder(const WorkloadSpec &spec,
                                  std::uint64_t seed,
                                  const std::vector<std::uint64_t> &sent,
                                  std::uint64_t cap);

/** Zipf(s = 1) index in [0, n) from a uniform draw. */
std::size_t zipfIndex(std::size_t n, double unit);

} // namespace refbench

#endif // REFBENCH_WORKLOAD_HH
