/**
 * @file
 * Process-wide metrics registry: named counters, gauges and log-2
 * histograms with atomic hot paths, plus Prometheus-style text and
 * JSON expositions.
 *
 * The registry is the one source of truth for operational counters
 * across every layer: the svc ServiceMetrics, the sim sweep cache,
 * the util thread pool and the journal all register here, so the
 * STATS protocol command, the METRICS expositions and the
 * --metrics-out scrape file can never disagree.
 *
 * Concurrency: metric handles returned by the registry are stable
 * for the registry's lifetime; updates (add/set/observe) are lock-
 * free relaxed atomics, so the hot path costs one atomic RMW.
 * Registration and exposition take a mutex. Lookup is get-or-create:
 * asking twice for the same name returns the same metric, which lets
 * independent components (several thread pools, several sweep
 * runners) accumulate into one process-wide series.
 *
 * This library depends on nothing but the standard library so every
 * other layer — util included — can link it without cycles.
 */

#ifndef REF_OBS_METRICS_HH
#define REF_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ref::obs {

/** Monotonically increasing counter. */
class Counter
{
  public:
    void add(std::uint64_t delta = 1) noexcept
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-writer-wins value; doubles cover integral counters exactly
 *  up to 2^53. */
class Gauge
{
  public:
    void set(double value) noexcept;
    double value() const noexcept;

    /** CAS-min/-max updates so concurrent extremes never regress.
     *  min() treats the +inf initial state as "no sample yet". */
    void updateMin(double candidate) noexcept;
    void updateMax(double candidate) noexcept;

  private:
    /** Doubles stored as bit patterns: atomic<double> CAS support is
     *  spotty, the bit image round-trips exactly. */
    std::atomic<std::uint64_t> bits_{0};
};

/**
 * Log-2 histogram of non-negative integer samples. Bucket 0 counts
 * the value 0; bucket b (b >= 1) counts values in [2^(b-1), 2^b);
 * the last bucket is unbounded above. Exact powers of two therefore
 * land in the bucket whose *lower* bound they are: value 2^k is
 * counted by bucket k+1.
 */
class Histogram
{
  public:
    /** @param buckets Bucket count in [2, 64]. */
    explicit Histogram(std::size_t buckets);

    void observe(std::uint64_t value) noexcept;

    /** Bucket index @p value falls into for a @p buckets-wide
     *  histogram (see class comment). */
    static std::size_t bucketFor(std::uint64_t value,
                                 std::size_t buckets) noexcept;

    /** Largest value bucket @p bucket counts (inclusive);
     *  UINT64_MAX for the unbounded last bucket. */
    static std::uint64_t bucketUpperInclusive(std::size_t bucket,
                                              std::size_t buckets);

    std::size_t buckets() const { return counts_.size(); }

    /** Consistent-enough copy for exposition (each field is
     *  individually atomic). min is 0 when no sample was observed:
     *  the internal sentinel (UINT64_MAX) never leaks out. */
    struct Snapshot
    {
        std::vector<std::uint64_t> counts;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
    };

    Snapshot snapshot() const;

    /**
     * Estimate the @p q quantile (0 < q <= 1) of @p snap by linear
     * interpolation inside the log-2 bucket the rank lands in,
     * clamped to the exact observed [min, max] (so p0-ish and
     * p100-ish asks never invent values outside the data, and the
     * unbounded last bucket tops out at the true max instead of
     * +inf). 0 when the histogram is empty. Feeds the p50/p90/p99
     * series of the expositions and the replication-lag gauges.
     */
    static std::uint64_t quantile(const Snapshot &snap, double q);

  private:
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    /** Sentinel-initialised so the first observation, whatever its
     *  value, becomes the minimum (a 0 start could never record a
     *  true minimum above 0). */
    std::atomic<std::uint64_t> min_{UINT64_MAX};
    std::atomic<std::uint64_t> max_{0};
};

/** Named metrics, get-or-create, with deterministic expositions. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Get or create a metric. The name must be a valid Prometheus
     * metric name, optionally carrying a label block — e.g.
     * `ref_pool_agents{pool="/a"}` — in which case the
     * labeled series of one base name share a single HELP/TYPE
     * header in the Prometheus exposition. Re-registering an
     * existing name returns the same instance (the help text of the
     * first registration wins) and throws std::invalid_argument if
     * the existing metric is of a different kind.
     */
    Counter &counter(const std::string &name,
                     const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);
    Histogram &histogram(const std::string &name,
                         const std::string &help,
                         std::size_t buckets = 16);

    std::size_t size() const;

    /**
     * Prometheus text exposition (text/plain version 0.0.4):
     * HELP/TYPE headers, metrics sorted by name, histograms with
     * cumulative le buckets, _sum and _count series.
     */
    void writePrometheus(std::ostream &os) const;

    /**
     * JSON exposition: one object with "counters", "gauges" and
     * "histograms" maps, keys sorted, suitable for jq-style
     * post-processing in CI.
     */
    void writeJson(std::ostream &os) const;

    /** The process-wide registry shared by util/sim components. */
    static MetricsRegistry &global();

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind;
        std::string help;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &entry(const std::string &name, const std::string &help,
                 Kind kind, std::size_t buckets);

    mutable std::mutex mutex_;  //!< Guards the map, not the values.
    std::map<std::string, Entry> metrics_;
};

} // namespace ref::obs

#endif // REF_OBS_METRICS_HH
