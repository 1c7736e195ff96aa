/**
 * @file
 * perfbench: one workload, one seed, one run.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE.json]
 *
 * Workloads: serve_local, serve_wire, emulate_scaleout, paper_sweep
 * (README.md says what each measures and why). Prints the host
 * fingerprint, the workload's own report, and as the last line the
 * result JSON. With --trace 1 it records spans around every layer
 * call, writes them as a Chrome trace, prints the span tree and the
 * per-layer table, and reports the per-layer metrics.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "report.h"
#include "stats.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{serve_local|serve_wire|emulate_scaleout|paper_sweep} "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = v;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (!(opt.seconds > 0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
            if (!opt.trace && std::strcmp(v, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (flag == "--trace-out") {
            opt.trace_path = v;
        } else {
            usage(("unknown argument " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + flag).c_str());
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

/**
 * Per-layer metrics read off the span names every workload shares
 * (the compiler's own per-pass spans come from Compiler::setTrace).
 */
void
layerMetricsFromSpans(const Spans &spans, RunResult &r)
{
    const auto durations = spans.durationsMs();
    auto set = [&](const std::string &metric, const std::string &span) {
        auto it = durations.find(span);
        if (it != durations.end() && r.metrics.count(metric) == 0)
            r.metrics[metric] = median(it->second);
    };
    set("compiler.compile_ms", "compiler.compile");
    for (const char *pass :
         {"expand-poly", "keyswitch", "lower-limb", "lower-isa", "regalloc"})
        set(std::string("compiler.pass.") + pass + "_ms",
            std::string("compiler.") + pass);
    set("sim.simulate_ms", "sim.simulate");
    set("fhe.keygen_ms", "fhe.keygen");
    set("fhe.encrypt_ms", "fhe.encrypt");
}

/**
 * The span tree: spans nest by time on each thread's row; print each
 * path's count, total and self time (total minus its children).
 */
void
printSpanTree(const Spans &spans)
{
    auto events = spans.recorderEvents();
    std::sort(events.begin(), events.end(), [](const auto &a, const auto &b) {
        if (a.tid != b.tid)
            return a.tid < b.tid;
        if (a.ts_us != b.ts_us)
            return a.ts_us < b.ts_us;
        return a.dur_us > b.dur_us;
    });
    struct Node
    {
        std::size_t count = 0;
        double total_ms = 0, child_ms = 0;
    };
    std::map<std::string, Node> paths;
    std::vector<std::pair<std::string, double>> stack; // path, end
    uint32_t row = ~0u;
    for (const auto &e : events) {
        if (e.tid != row) {
            stack.clear();
            row = e.tid;
        }
        while (!stack.empty() && e.ts_us >= stack.back().second)
            stack.pop_back();
        std::string path = stack.empty() ? e.name
                                         : stack.back().first + " > " +
                                               e.name;
        if (!stack.empty())
            paths[stack.back().first].child_ms += e.dur_us / 1e3;
        auto &n = paths[path];
        ++n.count;
        n.total_ms += e.dur_us / 1e3;
        stack.emplace_back(path, e.ts_us + e.dur_us);
    }
    std::printf("span tree (count, total ms, self ms):\n");
    for (const auto &[path, n] : paths)
        std::printf("  %-60s %8zu %12.3f %12.3f\n", path.c_str(), n.count,
                    n.total_ms, n.total_ms - n.child_ms);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 2 && std::strcmp(argv[1], "--role") == 0 &&
        std::strcmp(argv[2], "wire-worker") == 0)
        return runWireWorker(argc - 2, argv + 2);

    Options opt = parse(argc, argv);
    Spans spans(opt.trace);
    RunResult r;
    try {
        if (opt.workload == "serve_local")
            r = runServeLocal(opt, spans);
        else if (opt.workload == "serve_wire")
            r = runServeWire(opt, spans, "/proc/self/exe");
        else if (opt.workload == "emulate_scaleout")
            r = runEmulateScaleout(opt, spans);
        else if (opt.workload == "paper_sweep")
            r = runPaperSweep(opt, spans);
        else
            usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }

    std::printf("host: %s\n", hostFingerprint(opt, r).c_str());
    if (opt.trace) {
        // The traced run's last line holds the per-layer metrics; its
        // end-to-end ones go here, for the tracing overhead.
        std::printf("e2e: %s\n", resultJson(r, false).c_str());
        layerMetricsFromSpans(spans, r);
        printSpanTree(spans);
        std::printf("per-layer metrics:\n");
        for (const auto &def : perLayerMetrics()) {
            auto it = r.metrics.find(def.name);
            std::printf("  %-44s %16.6g %s\n", def.name.c_str(),
                        it == r.metrics.end() ? 0.0 : it->second,
                        def.unit.c_str());
        }
        if (!opt.trace_path.empty()) {
            if (!spans.write(opt.trace_path))
                std::fprintf(stderr, "cannot write %s\n",
                             opt.trace_path.c_str());
            else
                std::printf("trace: %s\n", opt.trace_path.c_str());
        }
    }
    std::fflush(stdout);
    std::printf("%s\n", resultJson(r, opt.trace).c_str());
    return 0;
}
