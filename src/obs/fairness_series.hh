/**
 * @file
 * Per-epoch fairness time series for the online allocation service.
 *
 * The paper's SI/EF checks are point-in-time booleans; an online
 * service needs the *quantitative* margins tracked across epochs so
 * fairness erosion shows up as a trend, not a surprise violation
 * (cf. Zahedi & Freeman, "Credit Fairness: Online Fairness In Shared
 * Resource Pools": online fairness must be measured across periods).
 * Each sample records:
 *
 *  - si_margin: min over agents of u_i(REF) / u_i(equal split) —
 *    the sharing-incentives ratio; >= 1 means SI holds with margin.
 *  - ef_margin: min over ordered pairs of u_i(x_i) / u_i(x_j) — the
 *    envy-freeness ratio; >= 1 means nobody envies anyone.
 *  - l1_drift: sum of |share(t) - share(t-1)| over the union of both
 *    epochs' agents (an agent absent from one side contributes its
 *    whole share), i.e. how much allocation mass moved this epoch.
 *  - the hysteresis decision (enforced or held) and the relative
 *    change that drove it, plus the epoch's compute latency.
 *
 * Storage is a bounded ring (oldest samples drop first) guarded by a
 * mutex; exports are CSV (one row per epoch, plottable directly) and
 * JSON (array of objects). Labelled sub-series (one per pool or
 * cohort) keep at most kLabelledCapacity samples each and at most
 * kMaxLabels labels, so together they hold no more than the main
 * ring's default capacity.
 */

#ifndef REF_OBS_FAIRNESS_SERIES_HH
#define REF_OBS_FAIRNESS_SERIES_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace ref::obs {

/** One epoch's fairness record. */
struct FairnessSample
{
    std::uint64_t epoch = 0;
    std::uint64_t agents = 0;
    /** True when si/ef margins were computed this epoch (property
     *  checks on and at least one agent live). */
    bool checked = false;
    // Next to checked: the two flags share one word, so a sample
    // (one per epoch, kept up to the ring's capacity) is 64 bytes.
    bool enforced = false;  //!< False: hysteresis held the old plan.
    double siMargin = 1.0;
    double efMargin = 1.0;
    double l1Drift = 0.0;
    /** Largest relative per-share change vs the enforced allocation
     *  (+inf when the agent set changed). */
    double maxRelativeChange = 0.0;
    std::uint64_t latencyNs = 0;
};

/** Bounded, thread-safe per-epoch series (see file comment). */
class FairnessSeries
{
  private:
    struct Ring;

  public:
    static constexpr std::size_t kDefaultCapacity = 1 << 20;

    /** Distinct labelled sub-series the series will hold; appends
     *  for labels beyond the cap are dropped (and counted), so a
     *  runaway pool population cannot exhaust memory. */
    static constexpr std::size_t kMaxLabels = 4096;

    /** Per-label ring bound: every label at the cap together holds
     *  kDefaultCapacity samples (64 MiB), the main ring's default. */
    static constexpr std::size_t kLabelledCapacity =
        kDefaultCapacity / kMaxLabels;

    explicit FairnessSeries(
        std::size_t capacity = kDefaultCapacity);

    void append(const FairnessSample &sample);

    /**
     * Append to the labelled sub-series @p label (pooled mode: one
     * per pool path). Each labelled ring keeps the newest
     * min(capacity(), kLabelledCapacity) samples and grows lazily.
     */
    void appendLabelled(const std::string &label,
                        const FairnessSample &sample);

    /**
     * A labelled sub-series resolved once by label(), so appends
     * through it look up no string. Handles stay valid for the
     * series' lifetime (labels are never erased). A handle the
     * kMaxLabels cap refused is empty: each append through it is
     * dropped and counted, as appendLabelled(label, ...) would.
     */
    class Label
    {
        friend class FairnessSeries;
        explicit Label(Ring *ring) : ring_(ring) {}
        Ring *ring_ = nullptr;
    };

    /** The handle of @p label, making its sub-series unless the
     *  kMaxLabels cap is reached. */
    Label label(const std::string &label);

    /** One append of a batch. */
    struct LabelledSample
    {
        Label label;
        FairnessSample sample;
    };

    /** Append every sample of @p batch under one lock (a pooled
     *  epoch appends one per pool). */
    void appendLabelled(std::span<const LabelledSample> batch);

    /** Buffered samples, oldest first. */
    std::vector<FairnessSample> samples() const;

    /** Labels with at least one sample, sorted. */
    std::vector<std::string> labels() const;

    /** Buffered samples of @p label, oldest first (empty when the
     *  label is unknown). */
    std::vector<FairnessSample>
    labelledSamples(const std::string &label) const;

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    /** Lifetime appends, including samples the ring since dropped. */
    std::uint64_t totalAppended() const;
    /** Lifetime labelled appends across all labels. */
    std::uint64_t totalLabelledAppended() const;
    /** Labelled appends dropped by the kMaxLabels cap. */
    std::uint64_t droppedLabelled() const;

    /** CSV column header (no trailing newline). */
    static const char *csvHeader();

    /** Labelled CSV header: a leading "label" column (pool
     *  path in pooled mode, cohort label in flat mode). */
    static const char *labelledCsvHeader();

    /** One sample as a CSV row (no trailing newline). */
    static void writeCsvRow(std::ostream &os,
                            const FairnessSample &sample);

    /** Header plus every buffered sample, newline-terminated. */
    void writeCsv(std::ostream &os) const;

    /**
     * Labelled export: header, then the main series as label
     * "_total", then every labelled series in sorted label order.
     */
    void writeLabelledCsv(std::ostream &os) const;

    /** JSON array of sample objects. */
    void writeJson(std::ostream &os) const;

  private:
    /**
     * One bounded ring. Storage grows lazily toward capacity in
     * small blocks: a deque never copies the samples it holds, so
     * growing costs no transient second buffer.
     */
    struct Ring
    {
        std::deque<FairnessSample> ring;
        std::size_t head = 0;
        std::size_t count = 0;
        std::uint64_t appended = 0;

        void push(const FairnessSample &sample,
                  std::size_t capacity);
        std::vector<FairnessSample> snapshot() const;
    };

    /** @p label's ring, made unless the kMaxLabels cap is reached
     *  (null then). Caller holds mutex_. */
    Ring *ringLocked(const std::string &label);
    /** Push onto @p ring, or count a drop when it is null. Caller
     *  holds mutex_. */
    void pushLabelledLocked(Ring *ring, const FairnessSample &sample);

    std::size_t capacity_;
    mutable std::mutex mutex_;
    Ring main_;
    std::map<std::string, Ring> labelled_;  //!< Sorted by label.
    std::uint64_t labelledAppended_ = 0;
    std::uint64_t droppedLabelled_ = 0;
};

} // namespace ref::obs

#endif // REF_OBS_FAIRNESS_SERIES_HH
