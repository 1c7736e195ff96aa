#include "report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sched.h>
#include <sstream>
#include <thread>


namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"throughput_ops_s", "ops/s"},
        {"latency_p50_ms", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"setup.context_s", "s"},
            {"setup.warmup_s", "s"},
            {"setup.spawn_s", "s"},
            {"compiler.compile_ms", "ms"},
            {"compiler.pass.expand-poly_ms", "ms"},
            {"compiler.pass.keyswitch_ms", "ms"},
            {"compiler.pass.lower-limb_ms", "ms"},
            {"compiler.pass.lower-isa_ms", "ms"},
            {"compiler.pass.regalloc_ms", "ms"},
            {"compiler.isa_instructions", "count"},
            {"sim.simulate_ms", "ms"},
            {"sim.instructions_per_s", "1/s"},
        };
        for (const char *b : {"bootstrap", "resnet", "helr", "bert"})
            for (const char *m : {"cinnamon-m", "cinnamon-4",
                                  "cinnamon-8", "cinnamon-12"})
                d.push_back({std::string("sim.modeled_s.") + b + "." + m,
                             "model_s"});
        const std::vector<MetricDef> rest = {
            {"fhe.keygen_ms", "ms"},
            {"fhe.encrypt_ms", "ms"},
            {"runtime.materialize_ms", "ms"},
            {"exec.digest_ms", "ms"},
            {"isa.emulate_ms", "ms"},
            {"isa.limb_ops", "count"},
            {"isa.limb_ops_per_s", "1/s"},
            {"isa.exec_ms.1chip_n15", "ms"},
            {"isa.exec_ms.2chip_n14", "ms"},
            {"isa.exec_ms.8chip_n15", "ms"},
            {"isa.pool_speedup.1chip_n15", "x"},
            {"isa.pool_speedup.2chip_n14", "x"},
            {"isa.pool_speedup.8chip_n15", "x"},
            {"serve.queue_ms", "ms"},
            {"serve.service_ms", "ms"},
            {"serve.generator_lag_ms", "ms"},
            {"serve.latency_tail_ms", "ms"},
            {"serve.plan_cache_hit_ratio", "ratio"},
            {"serve.batch_occupancy", "streams"},
            {"serve.unattributed_ms", "ms"},
            {"net.frame_encode_us", "us"},
            {"net.frame_decode_us", "us"},
            {"net.bytes_per_request", "B"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        return d;
    }();
    return defs;
}

std::size_t
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace {

std::string
cpuModel(bool *ifma)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line, model = "unknown";
    bool got_model = false;
    *ifma = false;
    while (std::getline(in, line)) {
        if (!got_model && line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                model = line.substr(colon + 2);
            got_model = true;
        }
        if (line.rfind("flags", 0) == 0 &&
            line.find(" avx512ifma") != std::string::npos)
            *ifma = true;
    }
    return model;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

} // namespace

std::string
hostFingerprint(const Options &opt, const RunResult &r)
{
    bool ifma = false;
    const std::string model = cpuModel(&ifma);
    std::ostringstream os;
    os << "{\"nproc\": " << hostCpus() << ", \"cpu\": " << quoted(model)
       << ", \"avx512ifma\": " << (ifma ? "true" : "false")
       << ", \"build\": " << quoted(PERFBENCH_BUILD_TYPE);
    for (const auto &[k, v] : r.shape)
        os << ", " << quoted(k) << ": " << quoted(v);
    os << ", \"workload\": " << quoted(opt.workload)
       << ", \"seed\": " << opt.seed << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << "}";
    return os.str();
}

std::string
resultJson(const RunResult &r, bool trace)
{
    std::ostringstream os;
    os << "{\"correct\": "
       << (r.check_failures.empty() ? "true" : "false")
       << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &def : trace ? perLayerMetrics() : endToEndMetrics()) {
        auto it = r.metrics.find(def.name);
        const double v = it == r.metrics.end() ? 0.0 : it->second;
        os << (first ? "" : ", ") << quoted(def.name)
           << ": {\"value\": " << number(v)
           << ", \"unit\": " << quoted(def.unit) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
