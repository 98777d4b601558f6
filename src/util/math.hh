/**
 * @file
 * Small numeric helpers shared across modules.
 */

#ifndef REF_UTIL_MATH_HH
#define REF_UTIL_MATH_HH

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace ref {

/**
 * Approximate equality with mixed absolute/relative tolerance.
 *
 * True when |a - b| <= abs_tol + rel_tol * max(|a|, |b|). Suitable
 * for comparing utilities and allocations that span several orders
 * of magnitude.
 */
inline bool
almostEqual(double a, double b, double rel_tol = 1e-9,
            double abs_tol = 1e-12)
{
    return std::abs(a - b) <=
           abs_tol + rel_tol * std::max(std::abs(a), std::abs(b));
}

/** Geometric mean of a non-empty range of positive values. */
double geometricMean(const std::vector<double> &values);

/** Arithmetic sum. */
double sum(const std::vector<double> &values);

/**
 * Normalize values so they sum to one (the paper's Eq. 12 rescaling).
 * @pre values must be non-negative with a positive sum.
 */
std::vector<double> normalizeToUnitSum(const std::vector<double> &values);

/** The same into @p out (values.size() entries), allocating nothing. */
void normalizeToUnitSum(std::span<const double> values, double *out);

/** Round up to the next power of two; 0 maps to 1. */
std::size_t nextPowerOfTwo(std::size_t value);

/** True when value is a power of two (and nonzero). */
inline bool
isPowerOfTwo(std::size_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Integer log2 for powers of two. @pre isPowerOfTwo(value). */
unsigned log2Exact(std::size_t value);

} // namespace ref

#endif // REF_UTIL_MATH_HH
