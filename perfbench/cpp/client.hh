/**
 * @file
 * The benchmark's subcommands. Each parses its own flags and returns
 * a process exit code.
 */

#ifndef REFBENCH_CLIENT_HH
#define REFBENCH_CLIENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace refbench {

/** --key value flags; every flag takes one value. */
class Flags
{
  public:
    Flags(int argc, char **argv, int first);
    std::string get(const std::string &key,
                    const std::string &fallback = "") const;
    std::uint64_t number(const std::string &key,
                         std::uint64_t fallback) const;
    bool has(const std::string &key) const;
    /** Comma-separated whole numbers. */
    std::vector<std::uint64_t> numbers(const std::string &key) const;

  private:
    std::map<std::string, std::string> values_;
};

/**
 * Socket client against a running ref_serve: preload and first TICK
 * (set-up), then --seconds of closed-loop traffic, then the untimed
 * output checks. Prints one JSON object as its last line.
 */
int runDrive(const Flags &flags);

/** STATS then SHUTDOWN; prints the server's state_hash. */
int runStats(const Flags &flags);

/**
 * Pipeline a socket run's commands (preload, first TICK, then the
 * first replayCommands of each connection's sent commands,
 * interleaved) into a server, untimed; then STATS and SHUTDOWN. Prints a JSON object as its last line.
 */
int runReplay(const Flags &flags);

/** In-process traced replay; prints per-layer metrics as JSON. */
int runTrace(const Flags &flags);

/** Per-command record of a socket run, read back by the traced run. */
struct RttRecord
{
    std::size_t connection = 0;
    std::uint64_t index = 0;  //!< Position in the connection's stream.
    std::uint64_t rttNs = 0;
};

} // namespace refbench

#endif // REFBENCH_CLIENT_HH
