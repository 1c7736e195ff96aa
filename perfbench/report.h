/**
 * @file
 * What a run prints: the host fingerprint and the result JSON.
 */

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/** A metric name with its unit, in output order. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** The end-to-end metrics, printed by every untraced run. */
const std::vector<MetricDef> &endToEndMetrics();

/** The per-layer metrics, printed by every traced run. */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * One-line JSON host fingerprint: nproc, CPU model, AVX-512 IFMA,
 * build type, execution-pool size, the workload's own shape fields,
 * the seed, and the operations attempted and failed.
 */
std::string hostFingerprint(const Options &opt, const RunResult &r);

/**
 * The result line: {"correct", "attempted", "failed", "metrics"} with
 * the end-to-end metrics (untraced) or the per-layer metrics (traced).
 */
std::string resultJson(const RunResult &r, bool trace);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H_
