/**
 * @file
 * Percentiles and the in-memory span recorder shared by the socket
 * client and the traced replay.
 */

#ifndef REFBENCH_STATS_HH
#define REFBENCH_STATS_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <ostream>
#include <vector>

namespace refbench {

/** Monotonic nanoseconds (CLOCK_MONOTONIC, like Python's
 *  time.monotonic). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Nearest-rank percentile: the value at rank ceil(p/100 * n) of the
 * sorted samples. Empty when there are no samples, or when fewer than
 * @p minBeyond samples lie above that rank — a tail figure resting on
 * fewer than ten samples is noise, so it is not reported.
 */
std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t minBeyond = 0);

/** The ten-samples-beyond rule for tail percentiles. */
inline constexpr std::size_t kTailMinBeyond = 10;

/** @p text as a JSON string literal (control characters blanked). */
std::string jsonString(const std::string &text);

/** One recorded span; ids are 1-based, parent 0 means none. */
struct Span
{
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint64_t command = 0;  //!< Position in the replayed stream.
};

/** Spans kept in memory and written out once, at the end. */
class SpanRecorder
{
  public:
    /** Open a span; returns its id. */
    std::uint32_t begin(const char *name, std::uint32_t parent,
                        std::uint64_t command);
    void end(std::uint32_t id);

    /** Durations (in @p unitNs units) of every span named @p name. */
    std::vector<double> durations(const char *name,
                                  double unitNs) const;

    /** Tab-separated: id, parent, command, name, start, end. */
    void write(std::ostream &out) const;
    std::size_t size() const { return spans_.size(); }
    const std::vector<Span> &all() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name,
               std::uint32_t parent, std::uint64_t command)
        : recorder_(recorder),
          id_(recorder.begin(name, parent, command))
    {}
    ~ScopedSpan() { recorder_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    std::uint32_t id() const { return id_; }

  private:
    SpanRecorder &recorder_;
    std::uint32_t id_;
};

} // namespace refbench

#endif // REFBENCH_STATS_HH
