/**
 * @file
 * Shared types of the perfbench workloads: the command line, the
 * metric table every run fills, and small timing helpers.
 *
 * One invocation runs one workload once. It measures a set-up phase
 * (everything before the first timed operation), a timed phase of
 * whole rounds of operations, and then checks the outputs against
 * computations the benchmark makes itself. The last line of standard
 * output is the JSON result (see run.py and README.md).
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point t)
{
    return msBetween(t, Clock::now());
}

/** The benchmark's command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Process start (main entry): the origin of setup_s. */
    Clock::time_point process_start = Clock::now();
    /** Where the traced run writes its Chrome trace. */
    std::string trace_path;
};

/**
 * What one run measured and checked. Metric names not set by a
 * workload are reported as 0: the workload does no work in that layer.
 */
struct RunResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** One line per failed correctness check (empty = correct). */
    std::vector<std::string> check_failures;
    std::map<std::string, double> metrics;
    /** Host-fingerprint fields specific to the workload. */
    std::map<std::string, std::string> shape;

    void
    fail(const std::string &why)
    {
        check_failures.push_back(why);
    }
};

/** splitmix64: the benchmark's seed derivation for all inputs. */
inline uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Threads the benchmark may keep busy: the host's online CPUs. */
std::size_t hostCpus();

// The four workloads (wl_*.cc).
RunResult runServeLocal(const Options &opt, Spans &spans);
RunResult runServeWire(const Options &opt, Spans &spans,
                       const std::string &self_exe);
RunResult runEmulateScaleout(const Options &opt, Spans &spans);
RunResult runPaperSweep(const Options &opt, Spans &spans);

/** The worker-process role of serve_wire (re-executed binary). */
int runWireWorker(int argc, char **argv);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
