/**
 * @file
 * What the in-process TICK harnesses (bench_flat_tick,
 * bench_pooled_tick) share: the `--out FILE` argument, the
 * nearest-rank percentile they report, and writing the BENCH file.
 */

#ifndef REF_BENCH_TICK_BENCH_HH
#define REF_BENCH_TICK_BENCH_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace ref::bench {

/** The BENCH output path from `--out FILE`; empty prints only. Any
 *  other arguments print @p program's usage and exit 2. */
inline std::string
parseOut(int argc, char **argv, const char *program)
{
    if (argc == 1)
        return {};
    if (argc == 3 && std::string(argv[1]) == "--out")
        return argv[2];
    std::fprintf(stderr, "usage: %s [--out FILE]\n", program);
    std::exit(2);
}

/** Nearest-rank percentile of an unsorted sample. */
template <typename T>
T
percentile(std::vector<T> sample, double q)
{
    std::sort(sample.begin(), sample.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sample.size())));
    return sample[std::max<std::size_t>(rank, 1) - 1];
}

/** Write @p json to @p path unless it is empty; the exit status. */
inline int
writeOut(const std::string &path, const std::string &json,
         const char *program)
{
    if (path.empty())
        return 0;
    std::ofstream out(path);
    out << json;
    if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", program,
                     path.c_str());
        return 1;
    }
    return 0;
}

} // namespace ref::bench

#endif // REF_BENCH_TICK_BENCH_HH
