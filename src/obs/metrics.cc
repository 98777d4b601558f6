#include "metrics.hh"

#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace ref::obs {
namespace {

/** Shortest decimal that round-trips the exact double; integral
 *  values inside the exact-double range print without a fraction. */
std::string
formatNumber(double value)
{
    if (std::isnan(value))
        return "NaN";
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    if (value == std::floor(value) &&
        std::abs(value) <= 9007199254740992.0) {  // 2^53.
        char buffer[32];
        const auto [end, ec] = std::to_chars(
            buffer, buffer + sizeof(buffer),
            static_cast<long long>(value));
        if (ec == std::errc())
            return std::string(buffer, end);
    }
    char buffer[32];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    if (ec != std::errc())
        throw std::logic_error("metric value formatting failed");
    return std::string(buffer, end);
}

/** JSON has no Inf/NaN literals; represent them as strings. */
std::string
formatJsonNumber(double value)
{
    if (!std::isnan(value) && !std::isinf(value))
        return formatNumber(value);
    // Appended, not "\"" + ...: GCC 12's -Wrestrict misfires on a
    // one-character literal plus a string at -O3.
    std::string quoted(1, '"');
    quoted += formatNumber(value);
    quoted += '"';
    return quoted;
}

bool
validNameChar(char c, bool first)
{
    const bool alpha = (c >= 'a' && c <= 'z') ||
                       (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    return first ? alpha : (alpha || (c >= '0' && c <= '9'));
}

/** Validate `key="value"` label pairs between braces. Values may
 *  hold anything but '"', '\\' and newline (no escape support —
 *  registrants control their own label values). */
bool
validLabelBlock(const std::string &name, std::size_t open)
{
    if (name.back() != '}' || open + 2 >= name.size())
        return false;
    std::size_t pos = open + 1;
    const std::size_t end = name.size() - 1;  // The '}'.
    while (pos < end) {
        std::size_t key = pos;
        while (key < end && validNameChar(name[key], key == pos))
            ++key;
        if (key == pos || key + 1 >= end || name[key] != '=' ||
            name[key + 1] != '"')
            return false;
        pos = key + 2;
        while (pos < end && name[pos] != '"' && name[pos] != '\\' &&
               name[pos] != '\n')
            ++pos;
        if (pos >= end || name[pos] != '"')
            return false;
        ++pos;
        if (pos < end) {
            if (name[pos] != ',')
                return false;
            ++pos;
        }
    }
    return true;
}

/**
 * A metric name, optionally carrying a Prometheus label block:
 * `ref_pool_agents` or `ref_pool_agents{pool="/a"}`.
 * Labeled series of one base name sort adjacently in the registry
 * map, so the expositions can group them under one HELP/TYPE.
 */
void
requireValidName(const std::string &name)
{
    const std::size_t open = name.find('{');
    const std::size_t baseEnd =
        open == std::string::npos ? name.size() : open;
    bool ok = baseEnd > 0;
    for (std::size_t i = 0; ok && i < baseEnd; ++i)
        ok = validNameChar(name[i], i == 0);
    if (ok && open != std::string::npos)
        ok = validLabelBlock(name, open);
    if (!ok)
        throw std::invalid_argument(
            "'" + name + "' is not a valid metric name");
}

/** Series name without its label block. */
std::string_view
baseName(const std::string &name)
{
    const std::size_t open = name.find('{');
    return std::string_view(name).substr(
        0, open == std::string::npos ? name.size() : open);
}

/** Label block contents (between the braces), empty when absent. */
std::string_view
labelBlock(const std::string &name)
{
    const std::size_t open = name.find('{');
    if (open == std::string::npos)
        return {};
    return std::string_view(name).substr(open + 1,
                                         name.size() - open - 2);
}

/** `base_bucket{labels,le="N"}` — merges a histogram series' own
 *  labels with the bucket's le label. */
void
writeBucketSeries(std::ostream &os, std::string_view base,
                  std::string_view labels)
{
    os << base << "_bucket{";
    if (!labels.empty())
        os << labels << ",";
    os << "le=\"";
}

} // namespace

void
Gauge::set(double value) noexcept
{
    bits_.store(std::bit_cast<std::uint64_t>(value),
                std::memory_order_relaxed);
}

double
Gauge::value() const noexcept
{
    return std::bit_cast<double>(
        bits_.load(std::memory_order_relaxed));
}

void
Gauge::updateMin(double candidate) noexcept
{
    std::uint64_t observed = bits_.load(std::memory_order_relaxed);
    while (candidate < std::bit_cast<double>(observed) &&
           !bits_.compare_exchange_weak(
               observed, std::bit_cast<std::uint64_t>(candidate),
               std::memory_order_relaxed))
        ;
}

void
Gauge::updateMax(double candidate) noexcept
{
    std::uint64_t observed = bits_.load(std::memory_order_relaxed);
    while (candidate > std::bit_cast<double>(observed) &&
           !bits_.compare_exchange_weak(
               observed, std::bit_cast<std::uint64_t>(candidate),
               std::memory_order_relaxed))
        ;
}

Histogram::Histogram(std::size_t buckets) : counts_(buckets)
{
    if (buckets < 2 || buckets > 64)
        throw std::invalid_argument(
            "histogram needs between 2 and 64 buckets");
}

std::size_t
Histogram::bucketFor(std::uint64_t value,
                     std::size_t buckets) noexcept
{
    const std::size_t width =
        static_cast<std::size_t>(std::bit_width(value));
    return width < buckets ? width : buckets - 1;
}

std::uint64_t
Histogram::bucketUpperInclusive(std::size_t bucket,
                                std::size_t buckets)
{
    if (bucket + 1 >= buckets)
        return UINT64_MAX;
    // Bucket b covers [2^(b-1), 2^b), so its largest member is
    // 2^b - 1; bucket 0 covers exactly {0}.
    return (std::uint64_t{1} << bucket) - 1;
}

void
Histogram::observe(std::uint64_t value) noexcept
{
    counts_[bucketFor(value, counts_.size())].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
        ;
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
        ;
}

std::uint64_t
Histogram::quantile(const Snapshot &snap, double q)
{
    if (snap.count == 0)
        return 0;
    if (q <= 0)
        return snap.min;
    if (q > 1)
        q = 1;
    // Rank of the requested quantile, 1-based: the smallest sample
    // index whose cumulative share reaches q.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(snap.count))));
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
        if (snap.counts[b] == 0)
            continue;
        if (cumulative + snap.counts[b] < rank) {
            cumulative += snap.counts[b];
            continue;
        }
        // The rank lands in bucket b: interpolate linearly between
        // the bucket's bounds, with the unbounded last bucket (and
        // any bucket edge beyond the data) clamped to the observed
        // extremes.
        const std::uint64_t rawLo =
            b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
        const std::uint64_t rawHi =
            bucketUpperInclusive(b, snap.counts.size());
        const std::uint64_t lo = std::max(rawLo, snap.min);
        const std::uint64_t hi =
            std::max(lo, std::min(rawHi, snap.max));
        const double within =
            static_cast<double>(rank - cumulative) /
            static_cast<double>(snap.counts[b]);
        return lo + static_cast<std::uint64_t>(
                        within * static_cast<double>(hi - lo));
    }
    return snap.max;
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot snap;
    snap.counts.reserve(counts_.size());
    for (const auto &count : counts_)
        snap.counts.push_back(count.load(std::memory_order_relaxed));
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    const std::uint64_t min = min_.load(std::memory_order_relaxed);
    snap.min = min == UINT64_MAX ? 0 : min;
    snap.max = max_.load(std::memory_order_relaxed);
    return snap;
}

MetricsRegistry::Entry &
MetricsRegistry::entry(const std::string &name,
                       const std::string &help, Kind kind,
                       std::size_t buckets)
{
    requireValidName(name);
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = metrics_.find(name);
    if (found == metrics_.end()) {
        // Every series of one base name (labeled or not) must agree
        // on kind, or the exposition's shared TYPE header would lie.
        const std::string_view base = baseName(name);
        for (auto it = metrics_.lower_bound(std::string(base));
             it != metrics_.end() &&
             std::string_view(it->first).substr(0, base.size()) ==
                 base;
             ++it) {
            const bool sameSeries =
                it->first.size() == base.size() ||
                it->first[base.size()] == '{';
            if (sameSeries && it->second.kind != kind)
                throw std::invalid_argument(
                    "metric '" + name +
                    "' is already registered with a different kind");
        }
        Entry fresh;
        fresh.kind = kind;
        fresh.help = help;
        switch (kind) {
        case Kind::Counter:
            fresh.counter = std::make_unique<Counter>();
            break;
        case Kind::Gauge:
            fresh.gauge = std::make_unique<Gauge>();
            break;
        case Kind::Histogram:
            fresh.histogram = std::make_unique<Histogram>(buckets);
            break;
        }
        found = metrics_.emplace(name, std::move(fresh)).first;
    } else if (found->second.kind != kind) {
        throw std::invalid_argument(
            "metric '" + name +
            "' is already registered with a different kind");
    }
    return found->second;
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help)
{
    return *entry(name, help, Kind::Counter, 0).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name,
                       const std::string &help)
{
    return *entry(name, help, Kind::Gauge, 0).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           std::size_t buckets)
{
    return *entry(name, help, Kind::Histogram, buckets).histogram;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_.size();
}

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Labeled series of one base name (adjacent in the sorted map)
    // share a single HELP/TYPE header, per the exposition format.
    std::string_view lastBase;
    for (const auto &[name, entry] : metrics_) {
        const std::string_view base = baseName(name);
        const std::string_view labels = labelBlock(name);
        if (base != lastBase) {
            os << "# HELP " << base << " " << entry.help << "\n";
            lastBase = base;
            switch (entry.kind) {
            case Kind::Counter:
                os << "# TYPE " << base << " counter\n";
                break;
            case Kind::Gauge:
                os << "# TYPE " << base << " gauge\n";
                break;
            case Kind::Histogram:
                os << "# TYPE " << base << " histogram\n";
                break;
            }
        }
        switch (entry.kind) {
        case Kind::Counter:
            os << name << " " << entry.counter->value() << "\n";
            break;
        case Kind::Gauge:
            os << name << " " << formatNumber(entry.gauge->value())
               << "\n";
            break;
        case Kind::Histogram: {
            const Histogram::Snapshot snap =
                entry.histogram->snapshot();
            std::uint64_t cumulative = 0;
            for (std::size_t b = 0; b < snap.counts.size(); ++b) {
                cumulative += snap.counts[b];
                writeBucketSeries(os, base, labels);
                if (b + 1 == snap.counts.size())
                    os << "+Inf";
                else
                    os << Histogram::bucketUpperInclusive(
                        b, snap.counts.size());
                os << "\"} " << cumulative << "\n";
            }
            os << base << "_sum";
            if (!labels.empty())
                os << "{" << labels << "}";
            os << " " << snap.sum << "\n" << base << "_count";
            if (!labels.empty())
                os << "{" << labels << "}";
            os << " " << snap.count << "\n";
            // Pre-computed quantiles as untyped companion series:
            // log-2 buckets are too coarse for dashboards to
            // histogram_quantile() well, the interpolated estimate
            // here is clamped to real observed extremes.
            for (const auto &[suffix, q] :
                 {std::pair<const char *, double>{"_p50", 0.50},
                  {"_p90", 0.90},
                  {"_p99", 0.99}}) {
                os << base << suffix;
                if (!labels.empty())
                    os << "{" << labels << "}";
                os << " " << Histogram::quantile(snap, q) << "\n";
            }
            break;
        }
        }
    }
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"counters\":{";
    const char *separator = "";
    for (const auto &[name, entry] : metrics_) {
        if (entry.kind != Kind::Counter)
            continue;
        os << separator << "\"" << name
           << "\":" << entry.counter->value();
        separator = ",";
    }
    os << "},\"gauges\":{";
    separator = "";
    for (const auto &[name, entry] : metrics_) {
        if (entry.kind != Kind::Gauge)
            continue;
        os << separator << "\"" << name
           << "\":" << formatJsonNumber(entry.gauge->value());
        separator = ",";
    }
    os << "},\"histograms\":{";
    separator = "";
    for (const auto &[name, entry] : metrics_) {
        if (entry.kind != Kind::Histogram)
            continue;
        const Histogram::Snapshot snap = entry.histogram->snapshot();
        os << separator << "\"" << name << "\":{\"buckets\":[";
        for (std::size_t b = 0; b < snap.counts.size(); ++b)
            os << (b ? "," : "") << snap.counts[b];
        os << "],\"count\":" << snap.count << ",\"sum\":" << snap.sum
           << ",\"min\":" << snap.min << ",\"max\":" << snap.max
           << ",\"p50\":" << Histogram::quantile(snap, 0.50)
           << ",\"p90\":" << Histogram::quantile(snap, 0.90)
           << ",\"p99\":" << Histogram::quantile(snap, 0.99)
           << "}";
        separator = ",";
    }
    os << "}}";
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace ref::obs
