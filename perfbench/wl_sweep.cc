/**
 * @file
 * paper_sweep: a cold compile and simulation of the Table 2 grid at
 * makePaper parameters — bootstrap, ResNet, HELR and BERT on
 * Cinnamon-M/4/8/12. One operation is one (benchmark, machine) point:
 * every distinct kernel of the benchmark is compiled afresh for the
 * machine's chip group and simulated, and the phases are composed the
 * way workloads::BenchmarkRunner composes them. No crypto, emulation
 * or serving runs here.
 *
 * Checks: every kernel's SimResult satisfies the simulator's
 * conservation laws; HELR and BERT are no slower on Cinnamon-12 than
 * on Cinnamon-4 (Fig 11); and every point models the same seconds in
 * every round.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "bench.h"
#include "checks.h"
#include "common/task_pool.h"
#include "compiler/lowering.h"
#include "sim/simulator.h"
#include "stats.h"
#include "workloads/benchmarks.h"

namespace perfbench {

namespace {

namespace fhe = cinnamon::fhe;
namespace sim = cinnamon::sim;
namespace compiler = cinnamon::compiler;
using cinnamon::workloads::Benchmark;

struct Machine
{
    const char *name;
    std::size_t chips;
    std::size_t group; ///< chips per stream for wide benchmarks
    sim::HardwareConfig hw;
};

/** The per-chip model of a Cinnamon-N machine (as bench/ uses it). */
sim::HardwareConfig
cinnamonHw(std::size_t chips)
{
    sim::HardwareConfig hw = sim::HardwareConfig::cinnamonChip();
    hw.topology = chips > 8 ? sim::Topology::Switch : sim::Topology::Ring;
    return hw;
}

/** What one point measured. */
struct Point
{
    double seconds = 0.0; ///< modelled
    std::size_t instructions = 0;
};

/** Compile and simulate every distinct kernel of `bench`, cold. */
Point
runPoint(const fhe::CkksContext &ctx, const Benchmark &bench,
         const Machine &m, Spans &spans, RunResult &r,
         double *simulate_ms)
{
    const bool narrow = bench.name == "bootstrap" || bench.name == "resnet";
    const std::size_t group =
        narrow ? m.chips : std::min<std::size_t>(m.group, m.chips);
    const std::size_t max_streams = m.chips / group;

    compiler::CompilerConfig cfg;
    cfg.chips = group;
    cfg.num_streams = 1;
    cfg.phys_regs = m.hw.phys_regs;
    std::map<const compiler::Program *, sim::SimResult> results;
    Point p;
    for (const auto &phase : bench.phases) {
        auto it = results.find(phase.kernel.get());
        if (it == results.end()) {
            compiler::Compiler comp(ctx, cfg);
            comp.setTrace(spans.recorder());
            compiler::CompiledProgram prog;
            {
                auto s = spans.span("compiler.compile", "compiler");
                prog = comp.compile(*phase.kernel);
            }
            const auto t = Clock::now();
            sim::SimResult res;
            {
                auto s = spans.span("sim.simulate", "sim");
                res = sim::simulate(prog.machine, m.hw);
            }
            *simulate_ms += msSince(t);
            for (auto &f : checkConservation(
                     res, m.hw, bench.name + "/" + phase.name + "@" +
                                    m.name))
                r.fail(f);
            p.instructions += res.instructions;
            it = results.emplace(phase.kernel.get(), std::move(res)).first;
        }
        const std::size_t streams = std::max<std::size_t>(
            1, std::min<std::size_t>(phase.parallelism, max_streams));
        const double rounds =
            std::ceil(static_cast<double>(phase.invocations) /
                      static_cast<double>(streams));
        p.seconds += it->second.seconds * rounds;
    }
    return p;
}

} // namespace

RunResult
runPaperSweep(const Options &opt, Spans &spans)
{
    RunResult r;
    const std::size_t pool = hostCpus();
    cinnamon::TaskPool::global().resize(pool);

    auto t0 = Clock::now();
    fhe::CkksParams params = fhe::CkksParams::makePaper();
    params.levels = 52;
    params.special = (params.levels + params.dnum - 1) / params.dnum;
    const fhe::CkksContext ctx(params);
    r.metrics["setup.context_s"] = msSince(t0) / 1e3;

    t0 = Clock::now();
    const std::vector<Benchmark> suite = {
        cinnamon::workloads::bootstrapBenchmark(ctx),
        cinnamon::workloads::resnetBenchmark(ctx),
        cinnamon::workloads::helrBenchmark(ctx),
        cinnamon::workloads::bertBenchmark(ctx),
    };
    const std::vector<Machine> machines = {
        {"cinnamon-m", 1, 1, sim::HardwareConfig::monolithicChip()},
        {"cinnamon-4", 4, 4, cinnamonHw(4)},
        {"cinnamon-8", 8, 4, cinnamonHw(8)},
        {"cinnamon-12", 12, 4, cinnamonHw(12)},
    };
    // The grid has no random inputs: every run sweeps the same points
    // in Table 2 order, whatever the seed.
    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t b = 0; b < suite.size(); ++b)
        for (std::size_t m = 0; m < machines.size(); ++m)
            order.emplace_back(b, m);
    r.metrics["setup.warmup_s"] = msSince(t0) / 1e3;
    r.metrics["setup_s"] = msSince(opt.process_start) / 1e3;

    std::map<std::pair<std::size_t, std::size_t>, std::set<double>> modeled;
    std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> ms_of;
    double simulate_ms = 0.0;
    std::size_t round_instructions = 0, instructions = 0, rounds = 0;
    const auto start = Clock::now();
    do {
        round_instructions = 0;
        for (const auto &[b, m] : order) {
            const auto t = Clock::now();
            const Point p =
                runPoint(ctx, suite[b], machines[m], spans, r, &simulate_ms);
            ms_of[{b, m}].push_back(msSince(t));
            modeled[{b, m}].insert(p.seconds);
            round_instructions += p.instructions;
            ++r.attempted;
        }
        instructions += round_instructions;
        ++rounds;
    } while (msSince(start) < opt.seconds * 1e3);
    const double timed_s = msSince(start) / 1e3;
    r.metrics["peak_rss_mb"] = peakRssMb();
    r.metrics["throughput_ops_s"] =
        static_cast<double>(r.attempted) / timed_s;
    // Points differ in size by orders of magnitude; each point's median
    // counts once, as in emulate_scaleout.
    std::vector<double> point_p50;
    for (const auto &[key, ms] : ms_of)
        point_p50.push_back(median(ms));
    r.metrics["latency_p50_ms"] = geomean(point_p50);

    auto seconds = [&](std::size_t b, std::size_t m) {
        return *modeled[{b, m}].begin();
    };
    for (const auto &[key, values] : modeled)
        if (values.size() != 1)
            r.fail(suite[key.first].name + "@" + machines[key.second].name +
                   ": modelled seconds differ between rounds");
    for (std::size_t b = 0; b < suite.size(); ++b) {
        if (suite[b].name == "helr" || suite[b].name == "bert")
            for (auto &f : checkNoSlower(suite[b].name, seconds(b, 1),
                                         seconds(b, 3)))
                r.fail(f);
        for (std::size_t m = 0; m < machines.size(); ++m)
            r.metrics["sim.modeled_s." + suite[b].name + "." +
                      machines[m].name] = seconds(b, m);
    }
    r.metrics["compiler.isa_instructions"] =
        static_cast<double>(round_instructions);
    r.metrics["sim.instructions_per_s"] =
        static_cast<double>(instructions) / (simulate_ms / 1e3);
    for (const auto &[key, ms] : ms_of)
        std::printf("  %-10s %-12s %10.3f ms  %10.6g s modelled\n",
                    suite[key.first].name.c_str(), machines[key.second].name,
                    median(ms), seconds(key.first, key.second));
    std::printf("%zu rounds of %zu points in %.3f s; geometric mean of "
                "point medians %.3f ms\n",
                rounds, order.size(), timed_s, r.metrics["latency_p50_ms"]);

    r.shape = {{"compile_pool", std::to_string(pool)},
               {"params", "makePaper: n 2^16, 52 levels"},
               {"grid", "bootstrap,resnet,helr,bert x M,4,8,12"}};
    for (const auto &f : r.check_failures)
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
    return r;
}

} // namespace perfbench
