#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace refbench {

std::optional<double>
percentile(std::vector<double> samples, double p, std::size_t minBeyond)
{
    if (samples.empty())
        return std::nullopt;
    const std::size_t n = samples.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < minBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::uint32_t
SpanRecorder::begin(const char *name, std::uint32_t parent,
                    std::uint64_t command)
{
    Span span;
    span.name = name;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.command = command;
    span.startNs = nowNs();
    spans_.push_back(span);
    return span.id;
}

void
SpanRecorder::end(std::uint32_t id)
{
    spans_[id - 1].endNs = nowNs();
}

std::vector<double>
SpanRecorder::durations(const char *name, double unitNs) const
{
    std::vector<double> out;
    for (const Span &span : spans_)
        if (std::strcmp(span.name, name) == 0)
            out.push_back(
                static_cast<double>(span.endNs - span.startNs) / unitNs);
    return out;
}

void
SpanRecorder::write(std::ostream &out) const
{
    out << "id\tparent\tcommand\tname\tstart_ns\tend_ns\n";
    for (const Span &span : spans_)
        out << span.id << "\t" << span.parent << "\t" << span.command
            << "\t" << span.name << "\t" << span.startNs << "\t"
            << span.endNs << "\n";
}

} // namespace refbench
