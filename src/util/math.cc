#include "math.hh"

#include "logging.hh"

namespace ref {

double
geometricMean(const std::vector<double> &values)
{
    REF_REQUIRE(!values.empty(), "geometric mean of empty range");
    double log_sum = 0;
    for (double value : values) {
        REF_REQUIRE(value > 0, "geometric mean needs positive values, got "
                                   << value);
        log_sum += std::log(value);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
sum(const std::vector<double> &values)
{
    double total = 0;
    for (double value : values)
        total += value;
    return total;
}

std::vector<double>
normalizeToUnitSum(const std::vector<double> &values)
{
    std::vector<double> normalized(values.size());
    normalizeToUnitSum(values, normalized.data());
    return normalized;
}

void
normalizeToUnitSum(std::span<const double> values, double *out)
{
    REF_REQUIRE(!values.empty(), "cannot normalize an empty vector");
    double total = 0;
    for (double value : values) {
        REF_REQUIRE(std::isfinite(value),
                    "cannot normalize non-finite value " << value);
        REF_REQUIRE(value >= 0, "cannot normalize negative value "
                                    << value);
        total += value;
    }
    REF_REQUIRE(total > 0 && std::isfinite(total),
                "cannot normalize an all-zero vector");

    for (std::size_t i = 0; i < values.size(); ++i)
        out[i] = values[i] / total;
}

std::size_t
nextPowerOfTwo(std::size_t value)
{
    if (value <= 1)
        return 1;
    std::size_t result = 1;
    while (result < value)
        result <<= 1;
    return result;
}

unsigned
log2Exact(std::size_t value)
{
    REF_REQUIRE(isPowerOfTwo(value),
                value << " is not a power of two");
    unsigned exponent = 0;
    while (value > 1) {
        value >>= 1;
        ++exponent;
    }
    return exponent;
}

} // namespace ref
