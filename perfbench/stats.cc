#include "stats.h"

#include <algorithm>
#include <cmath>
#include <sys/resource.h>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
tailQuantile(const std::vector<double> &values, int *percent)
{
    const double n = static_cast<double>(values.size());
    for (int p : {99, 95, 90, 75}) {
        if (n * (100 - p) / 100.0 >= 10.0) {
            *percent = p;
            return quantile(values, p / 100.0);
        }
    }
    *percent = 50;
    return quantile(values, 0.5);
}

std::pair<std::size_t, std::size_t>
partRange(std::size_t n, std::size_t parts, std::size_t p)
{
    return {p * n / parts, (p + 1) * n / parts};
}

double
bestPartMedian(const std::vector<double> &values, std::size_t parts)
{
    double best = 0.0;
    for (std::size_t p = 0; p < parts; ++p) {
        const auto [lo, hi] = partRange(values.size(), parts, p);
        if (lo == hi)
            continue;
        const double m = median({values.begin() + lo, values.begin() + hi});
        if (best == 0.0 || m < best)
            best = m;
    }
    return best;
}

double
bestPartRate(std::vector<double> ends, std::size_t parts)
{
    if (ends.size() < parts || parts == 0)
        return 0.0;
    std::sort(ends.begin(), ends.end());
    double best = 0.0;
    for (std::size_t p = 0; p < parts; ++p) {
        const auto [lo, hi] = partRange(ends.size(), parts, p);
        const double from = lo == 0 ? 0.0 : ends[lo - 1];
        const double span = ends[hi - 1] - from;
        if (span > 0)
            best = std::max(best, static_cast<double>(hi - lo) / span);
    }
    return best;
}

namespace {

double
maxRssMb(int who)
{
    rusage ru{};
    if (getrusage(who, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

double
peakRssMb()
{
    return maxRssMb(RUSAGE_SELF);
}

double
childrenPeakRssMb()
{
    return maxRssMb(RUSAGE_CHILDREN);
}

} // namespace perfbench
