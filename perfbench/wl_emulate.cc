/**
 * @file
 * emulate_scaleout: compiled keyswitch kernels executed repeatedly on
 * exec::EmulateBackend with the execution pool at the host's CPU
 * count, in three machine shapes:
 *
 *   1chip_n15 — 1 chip at n = 2^15: no chip parallelism, so only limb
 *               slicing can use the pool;
 *   2chip_n14 — 2 chips at n = 2^14: chip advance plus slicing;
 *   8chip_n15 — 8 chips at n = 2^15: chip-parallel advance.
 *
 * One round executes each shape a fixed number of times, chosen so
 * each shape takes a similar share of the round on the reference host.
 * Every execution of a shape must produce the same digest, equal to a
 * run at pool parallelism 1, and its decryption must equal the
 * plaintext rotation.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "checks.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "compiler/lowering.h"
#include "compiler/runtime.h"
#include "exec/backend.h"
#include "fhe/evaluator.h"
#include "fhe/keys.h"
#include "stats.h"
#include "workloads/kernels.h"

namespace perfbench {

namespace {

namespace fhe = cinnamon::fhe;
namespace compiler = cinnamon::compiler;

/** Level the kernel's input is encrypted at. */
constexpr std::size_t kLevel = 8;
/** Rotation steps of the keyswitch kernel. */
constexpr int kSteps = 1;
constexpr double kRotationTolerance = 1e-4;
/** Executions at parallelism 1 per shape in the traced run. */
constexpr int kSerialReps = 3;

struct ShapeDef
{
    const char *name;
    std::size_t chips;
    std::size_t log_n;
    /** Executions of this shape per round. */
    int reps;
};

constexpr ShapeDef kShapes[] = {
    {"1chip_n15", 1, 15, 2},
    {"2chip_n14", 2, 14, 6},
    {"8chip_n15", 8, 15, 2},
};

/** One shape, set up: context, keys, bound input, compiled kernel. */
struct Shape
{
    ShapeDef def;
    const fhe::CkksContext *ctx = nullptr;
    std::unique_ptr<fhe::Encoder> encoder;
    std::unique_ptr<fhe::KeyGenerator> keygen;
    std::unique_ptr<fhe::SecretKey> sk;
    std::vector<fhe::Cplx> x;
    compiler::CompiledProgram compiled;
    std::unique_ptr<compiler::ProgramRuntime> runtime;

    std::vector<double> exec_ms;
    /** The round of each execution in exec_ms. */
    std::vector<std::size_t> exec_round;
    std::set<uint64_t> digests;
    uint64_t last_digest = 0;
    std::map<std::string, fhe::Ciphertext> last_outputs;
};

} // namespace

RunResult
runEmulateScaleout(const Options &opt, Spans &spans)
{
    RunResult r;
    const std::size_t pool = hostCpus();
    cinnamon::TaskPool::global().resize(pool);

    auto t0 = Clock::now();
    std::map<std::size_t, std::unique_ptr<fhe::CkksContext>> contexts;
    for (const auto &def : kShapes) {
        auto &ctx = contexts[def.log_n];
        if (!ctx)
            ctx = std::make_unique<fhe::CkksContext>(
                fhe::CkksParams::makeTest(1u << def.log_n, 12, 3));
    }
    r.metrics["setup.context_s"] = msSince(t0) / 1e3;

    t0 = Clock::now();
    std::vector<Shape> shapes;
    uint64_t state = opt.seed;
    for (const auto &def : kShapes) {
        Shape s;
        s.def = def;
        s.ctx = contexts[def.log_n].get();
        const fhe::CkksContext &ctx = *s.ctx;
        s.encoder = std::make_unique<fhe::Encoder>(ctx);
        {
            auto span = spans.span("fhe.keygen", "fhe");
            s.keygen = std::make_unique<fhe::KeyGenerator>(
                ctx, splitmix(state));
            s.sk = std::make_unique<fhe::SecretKey>(s.keygen->secretKey());
        }
        cinnamon::Rng rng(splitmix(state));
        s.x.resize(ctx.slots());
        for (auto &v : s.x)
            v = fhe::Cplx(rng.uniformReal(-1.0, 1.0), 0.0);
        fhe::Evaluator eval(ctx);
        fhe::Ciphertext ct;
        {
            auto span = spans.span("fhe.encrypt", "fhe");
            ct = eval.encrypt(s.encoder->encode(s.x, kLevel),
                              ctx.params().scale, *s.sk, rng);
        }
        compiler::CompilerConfig cfg;
        cfg.chips = def.chips;
        cfg.num_streams = 1;
        cfg.phys_regs = 64;
        compiler::Compiler comp(ctx, cfg);
        comp.setTrace(spans.recorder());
        {
            auto span = spans.span("compiler.compile", "compiler");
            s.compiled = comp.compile(
                cinnamon::workloads::keyswitchKernel(ctx, kLevel));
        }
        s.runtime = std::make_unique<compiler::ProgramRuntime>(
            ctx, *s.encoder, *s.keygen, *s.sk);
        s.runtime->bindInput("x", ct);
        // Two warm executions: the first materializes keys and
        // arenas, the second settles the pool.
        cinnamon::exec::EmulateBackend backend(*s.runtime, pool);
        {
            auto span = spans.span("runtime.run_cold", "runtime");
            backend.execute(s.compiled);
        }
        backend.execute(s.compiled);
        shapes.push_back(std::move(s));
    }
    r.metrics["setup.warmup_s"] = msSince(t0) / 1e3;
    r.metrics["setup_s"] = msSince(opt.process_start) / 1e3;

    // Timed phase: whole rounds until the time is up.
    double emulate_ms = 0.0;
    double limb_ops = 0.0, round_limb_ops = 0.0;
    std::size_t rounds = 0;
    std::vector<double> round_end_s;
    const auto start = Clock::now();
    do {
        round_limb_ops = 0.0;
        for (auto &s : shapes) {
            cinnamon::exec::EmulateBackend backend(*s.runtime, pool);
            for (int k = 0; k < s.def.reps; ++k) {
                const auto t = Clock::now();
                cinnamon::exec::ExecutionReport rep;
                {
                    auto span = spans.span("isa.exec", "isa");
                    rep = backend.execute(s.compiled);
                }
                const double ms = msSince(t);
                s.exec_ms.push_back(ms);
                s.exec_round.push_back(rounds);
                emulate_ms += ms;
                s.digests.insert(rep.digest);
                s.last_digest = rep.digest;
                round_limb_ops +=
                    static_cast<double>(rep.emu_stats.total());
                if (k + 1 == s.def.reps)
                    s.last_outputs = std::move(rep.outputs);
                ++r.attempted;
            }
        }
        limb_ops += round_limb_ops;
        ++rounds;
        round_end_s.push_back(msSince(start) / 1e3);
    } while (msSince(start) < opt.seconds * 1e3);
    const double timed_s = msSince(start) / 1e3;
    r.metrics["peak_rss_mb"] = peakRssMb();
    // The best of kParts stretches of whole rounds (README.md,
    // "Steadiness"). Every round executes the same operations.
    const double ops_per_round =
        static_cast<double>(r.attempted) / static_cast<double>(rounds);
    r.metrics["throughput_ops_s"] =
        ops_per_round * bestPartRate(round_end_s, std::min(kParts, rounds));
    // The shapes' executions differ in size; the median of the pooled
    // times would fall on one shape's tail. Each shape's median counts
    // once instead.
    auto shapeGeomean = [&](std::size_t lo, std::size_t hi) {
        std::vector<double> shape_p50;
        for (const auto &s : shapes) {
            std::vector<double> ms;
            for (std::size_t k = 0; k < s.exec_ms.size(); ++k)
                if (s.exec_round[k] >= lo && s.exec_round[k] < hi)
                    ms.push_back(s.exec_ms[k]);
            shape_p50.push_back(median(ms));
        }
        return geomean(shape_p50);
    };
    double best_p50 = 0.0;
    const std::size_t parts = std::min(kParts, rounds);
    for (std::size_t p = 0; p < parts; ++p) {
        const auto [lo, hi] = partRange(rounds, parts, p);
        const double g = shapeGeomean(lo, hi);
        if (best_p50 == 0.0 || g < best_p50)
            best_p50 = g;
    }
    r.metrics["latency_p50_ms"] = best_p50;

    // Checks: one digest per shape, equal to parallelism 1, and the
    // decryption equals the plaintext rotation.
    for (auto &s : shapes) {
        if (s.digests.size() != 1)
            r.fail(std::string(s.def.name) + ": " +
                   std::to_string(s.digests.size()) +
                   " distinct digests across repeated executions");
        cinnamon::exec::EmulateBackend serial(*s.runtime, 1);
        std::vector<double> serial_ms;
        const int reps = spans.on() ? kSerialReps : 1;
        for (int k = 0; k < reps; ++k) {
            const auto t = Clock::now();
            auto rep = serial.execute(s.compiled);
            serial_ms.push_back(msSince(t));
            if (rep.digest != s.last_digest)
                r.fail(std::string(s.def.name) +
                       ": digest at parallelism 1 differs from the pool's");
        }
        fhe::Evaluator eval(*s.ctx);
        auto it = s.last_outputs.find("y");
        if (it == s.last_outputs.end()) {
            r.fail(std::string(s.def.name) + ": output y missing");
        } else {
            const auto y = s.encoder->decode(eval.decrypt(it->second, *s.sk),
                                             it->second.scale);
            for (auto &f : checkRotation(s.x, y, kSteps, kRotationTolerance))
                r.fail(std::string(s.def.name) + ": " + f);
        }
        const std::string name = s.def.name;
        r.metrics["isa.exec_ms." + name] = median(s.exec_ms);
        r.metrics["isa.pool_speedup." + name] =
            median(serial_ms) / median(s.exec_ms);
        std::printf("%-10s chips %zu n 2^%zu: %zu executions, p50 %.3f ms "
                    "(parallelism %zu), %.3f ms at parallelism 1\n",
                    s.def.name, s.def.chips, s.def.log_n, s.exec_ms.size(),
                    median(s.exec_ms), pool, median(serial_ms));
    }
    r.metrics["isa.emulate_ms"] = shapeGeomean(0, rounds);
    r.metrics["isa.limb_ops"] = round_limb_ops;
    r.metrics["isa.limb_ops_per_s"] = limb_ops / (emulate_ms / 1e3);
    std::printf("%zu rounds in %.3f s: %.3f ops/s, geometric mean of "
                "shape medians %.3f ms; best of %zu parts: %.3f ops/s, "
                "%.3f ms\n",
                rounds, timed_s, static_cast<double>(r.attempted) / timed_s,
                shapeGeomean(0, rounds), parts,
                r.metrics["throughput_ops_s"], best_p50);

    r.shape = {{"exec_pool", std::to_string(pool)},
               {"shapes", "1chip_n15x2,2chip_n14x6,8chip_n15x2"},
               {"kernel", "keyswitch level 8, 12 primes, dnum 3"}};
    for (const auto &f : r.check_failures)
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
    return r;
}

} // namespace perfbench
