/**
 * @file
 * Aggregation helpers: order statistics over samples and process
 * memory.
 */

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * The q-quantile (0 <= q <= 1) by linear interpolation between order
 * statistics (sample position q * (n - 1)). 0 for an empty sample.
 */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double> &values);

/**
 * The geometric mean of positive values: every value weighs the same
 * share, whatever its size. 0 for an empty sample.
 */
double geomean(const std::vector<double> &values);

/**
 * The highest of the 99th, 95th, 90th and 75th percentiles that has
 * at least ten samples beyond it, or the median when none has.
 * `*percent` receives which one (99, 95, 90, 75 or 50).
 */
double tailQuantile(const std::vector<double> &values, int *percent);

/**
 * Timed phases are cut into this many consecutive parts, and a run
 * reports its best part (see README.md, "Steadiness").
 */
constexpr std::size_t kParts = 5;

/** Indices [first, second) of part `p` of `n` items cut into `parts`. */
std::pair<std::size_t, std::size_t> partRange(std::size_t n,
                                              std::size_t parts,
                                              std::size_t p);

/**
 * The lowest median over `parts` consecutive parts of `values`, taken
 * in the order they were measured. 0 for an empty sample.
 */
double bestPartMedian(const std::vector<double> &values, std::size_t parts);

/**
 * The highest completion rate, per second, over `parts` consecutive
 * stretches of `ends`: the sorted times, in seconds from the start of
 * the phase, at which one unit of work each completed. A stretch runs
 * from the end of the one before it (the first from 0) to its own last
 * end. 0 when there are fewer ends than parts.
 */
double bestPartRate(std::vector<double> ends, std::size_t parts);

/** Peak resident set of this process, MB (getrusage ru_maxrss). */
double peakRssMb();

/** Largest peak resident set among reaped child processes, MB. */
double childrenPeakRssMb();

} // namespace perfbench

#endif // PERFBENCH_STATS_H_
