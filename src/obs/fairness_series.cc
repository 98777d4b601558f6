#include "fairness_series.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace ref::obs {
namespace {

/** Shortest decimal that round-trips; inf/nan spelled out (CSV) —
 *  the JSON writer quotes them. */
std::string
formatDouble(double value)
{
    char buffer[32];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    if (ec != std::errc())
        throw std::logic_error("fairness value formatting failed");
    return std::string(buffer, end);
}

std::string
formatJsonDouble(double value)
{
    if (std::isnan(value) || std::isinf(value))
        return "\"" + formatDouble(value) + "\"";
    return formatDouble(value);
}

} // namespace

FairnessSeries::FairnessSeries(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{}

void
FairnessSeries::Ring::push(const FairnessSample &sample,
                           std::size_t capacity)
{
    if (ring.size() < capacity) {
        // Grow lazily toward the cap instead of reserving a million
        // slots for short sessions.
        ring.push_back(sample);
        head = ring.size() % capacity;
        ++count;
    } else {
        ring[head] = sample;
        head = (head + 1) % capacity;
        if (count < capacity)
            ++count;
    }
    ++appended;
}

std::vector<FairnessSample>
FairnessSeries::Ring::snapshot() const
{
    std::vector<FairnessSample> out;
    out.reserve(count);
    if (count == 0)
        return out;
    const std::size_t size = ring.size();
    const std::size_t first = (head + size - count) % size;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(ring[(first + i) % size]);
    return out;
}

void
FairnessSeries::append(const FairnessSample &sample)
{
    std::lock_guard<std::mutex> lock(mutex_);
    main_.push(sample, capacity_);
}

FairnessSeries::Ring *
FairnessSeries::ringLocked(const std::string &label)
{
    auto found = labelled_.find(label);
    if (found == labelled_.end()) {
        if (labelled_.size() >= kMaxLabels)
            return nullptr;
        found = labelled_.emplace(label, Ring{}).first;
    }
    return &found->second;
}

FairnessSeries::Label
FairnessSeries::label(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Label(ringLocked(label));
}

void
FairnessSeries::pushLabelledLocked(Ring *ring,
                                   const FairnessSample &sample)
{
    if (ring == nullptr) {
        ++droppedLabelled_;
        return;
    }
    ring->push(sample, std::min(capacity_, kLabelledCapacity));
    ++labelledAppended_;
}

void
FairnessSeries::appendLabelled(const std::string &label,
                               const FairnessSample &sample)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pushLabelledLocked(ringLocked(label), sample);
}

void
FairnessSeries::appendLabelled(std::span<const LabelledSample> batch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const LabelledSample &entry : batch)
        pushLabelledLocked(entry.label.ring_, entry.sample);
}

std::vector<FairnessSample>
FairnessSeries::samples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return main_.snapshot();
}

std::vector<std::string>
FairnessSeries::labels() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(labelled_.size());
    for (const auto &entry : labelled_)
        if (entry.second.appended > 0)  // label() made, never fed
            out.push_back(entry.first);
    return out;
}

std::vector<FairnessSample>
FairnessSeries::labelledSamples(const std::string &label) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto found = labelled_.find(label);
    if (found == labelled_.end())
        return {};
    return found->second.snapshot();
}

std::size_t
FairnessSeries::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return main_.count;
}

std::uint64_t
FairnessSeries::totalAppended() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return main_.appended;
}

std::uint64_t
FairnessSeries::totalLabelledAppended() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return labelledAppended_;
}

std::uint64_t
FairnessSeries::droppedLabelled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return droppedLabelled_;
}

const char *
FairnessSeries::csvHeader()
{
    return "epoch,agents,checked,si_margin,ef_margin,l1_drift,"
           "enforced,max_rel_change,latency_ns";
}

const char *
FairnessSeries::labelledCsvHeader()
{
    return "label,epoch,agents,checked,si_margin,ef_margin,l1_drift,"
           "enforced,max_rel_change,latency_ns";
}

void
FairnessSeries::writeCsvRow(std::ostream &os,
                            const FairnessSample &sample)
{
    os << sample.epoch << "," << sample.agents << ","
       << (sample.checked ? 1 : 0) << ","
       << formatDouble(sample.siMargin) << ","
       << formatDouble(sample.efMargin) << ","
       << formatDouble(sample.l1Drift) << ","
       << (sample.enforced ? 1 : 0) << ","
       << formatDouble(sample.maxRelativeChange) << ","
       << sample.latencyNs;
}

void
FairnessSeries::writeCsv(std::ostream &os) const
{
    os << csvHeader() << "\n";
    for (const FairnessSample &sample : samples()) {
        writeCsvRow(os, sample);
        os << "\n";
    }
}

void
FairnessSeries::writeLabelledCsv(std::ostream &os) const
{
    os << labelledCsvHeader() << "\n";
    // The pool tree reserves the literal path "_total", so the
    // global series cannot collide with a pool's label.
    for (const FairnessSample &sample : samples()) {
        os << "_total,";
        writeCsvRow(os, sample);
        os << "\n";
    }
    for (const std::string &label : labels()) {
        for (const FairnessSample &sample : labelledSamples(label)) {
            os << label << ",";
            writeCsvRow(os, sample);
            os << "\n";
        }
    }
}

void
FairnessSeries::writeJson(std::ostream &os) const
{
    os << "[";
    const std::vector<FairnessSample> buffered = samples();
    for (std::size_t i = 0; i < buffered.size(); ++i) {
        const FairnessSample &sample = buffered[i];
        if (i)
            os << ",";
        os << "{\"epoch\":" << sample.epoch
           << ",\"agents\":" << sample.agents << ",\"checked\":"
           << (sample.checked ? "true" : "false")
           << ",\"si_margin\":" << formatJsonDouble(sample.siMargin)
           << ",\"ef_margin\":" << formatJsonDouble(sample.efMargin)
           << ",\"l1_drift\":" << formatJsonDouble(sample.l1Drift)
           << ",\"enforced\":" << (sample.enforced ? "true" : "false")
           << ",\"max_rel_change\":"
           << formatJsonDouble(sample.maxRelativeChange)
           << ",\"latency_ns\":" << sample.latencyNs << "}";
    }
    os << "]";
}

} // namespace ref::obs
