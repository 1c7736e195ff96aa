/**
 * @file
 * Self-tests of the benchmark: every correctness check fails when fed
 * a corrupted output (a flipped limb bit, swapped digests, a rotation
 * off by one, a lost request, broken simulator books, a slower large
 * machine) and holds on the real one; the statistics helpers compute
 * what they claim.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include "checks.h"
#include "common/random.h"
#include "compiler/lowering.h"
#include "exec/backend.h"
#include "fhe/evaluator.h"
#include "fhe/keys.h"
#include "serve/catalog.h"
#include "sim/simulator.h"
#include "stats.h"
#include "workloads/kernels.h"

using namespace perfbench;
namespace fhe = cinnamon::fhe;
namespace compiler = cinnamon::compiler;

namespace {

/** One request-seeded probe execution at n = 2^10, as served. */
struct Served
{
    std::unique_ptr<fhe::CkksContext> ctx;
    std::unique_ptr<fhe::Encoder> encoder;
    std::unique_ptr<cinnamon::serve::WorkloadCatalog> catalog;
    compiler::CompiledProgram compiled;

    Served()
    {
        ctx = std::make_unique<fhe::CkksContext>(
            fhe::CkksParams::makeTest(1 << 10, 16, 4));
        encoder = std::make_unique<fhe::Encoder>(*ctx);
        catalog = std::make_unique<cinnamon::serve::WorkloadCatalog>(*ctx);
        compiler::CompilerConfig cfg;
        cfg.chips = 4;
        compiled = compiler::Compiler(*ctx, cfg).compile(catalog->probe());
    }

    cinnamon::exec::ExecutionReport
    run(uint64_t seed) const
    {
        return cinnamon::exec::EmulateBackend::executeSeeded(
            *ctx, *encoder, catalog->probe(), compiled, seed);
    }

    /** The probe input the seed derivation draws. */
    std::vector<fhe::Cplx>
    input(uint64_t seed) const
    {
        cinnamon::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
        std::vector<fhe::Cplx> x(ctx->slots());
        for (auto &v : x)
            v = fhe::Cplx(rng.uniformReal(-1.0, 1.0), 0.0);
        return x;
    }

    std::vector<fhe::Cplx>
    decrypt(uint64_t seed, const fhe::Ciphertext &ct) const
    {
        fhe::KeyGenerator keygen(*ctx, seed);
        auto sk = keygen.secretKey();
        fhe::Evaluator eval(*ctx);
        return encoder->decode(eval.decrypt(ct, sk), ct.scale);
    }
};

const Served &
served()
{
    static const Served s;
    return s;
}

} // namespace

TEST(Quantile, InterpolatesBetweenOrderStatistics)
{
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile({10, 20, 30, 40, 50}, 0.25), 20.0);
    EXPECT_DOUBLE_EQ(median({7}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({2, 8}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1, 10, 100}), 10.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Quantile, TailKeepsTenSamplesBeyondIt)
{
    auto ramp = [](int n) {
        std::vector<double> v;
        for (int i = 1; i <= n; ++i)
            v.push_back(i);
        return v;
    };
    int pct = 0;
    EXPECT_DOUBLE_EQ(tailQuantile(ramp(1000), &pct), quantile(ramp(1000), 0.99));
    EXPECT_EQ(pct, 99);
    tailQuantile(ramp(200), &pct);
    EXPECT_EQ(pct, 95);
    tailQuantile(ramp(100), &pct);
    EXPECT_EQ(pct, 90);
    tailQuantile(ramp(40), &pct);
    EXPECT_EQ(pct, 75);
    EXPECT_DOUBLE_EQ(tailQuantile(ramp(20), &pct), 10.5);
    EXPECT_EQ(pct, 50);
}

TEST(Quantile, BestPartTakesTheLeastDisturbedStretch)
{
    using Range = std::pair<std::size_t, std::size_t>;
    EXPECT_EQ(partRange(10, 5, 0), Range(0, 2));
    EXPECT_EQ(partRange(11, 5, 4), Range(8, 11));
    // Parts {5,6} {1,2} {9,9}: medians 5.5, 1.5, 9.
    EXPECT_DOUBLE_EQ(bestPartMedian({5, 6, 1, 2, 9, 9}, 3), 1.5);
    EXPECT_DOUBLE_EQ(bestPartMedian({4, 2, 3}, 1), 3.0);
    EXPECT_DOUBLE_EQ(bestPartMedian({}, 5), 0.0);
    // Ends 0.5 1 | 3 5 | 5.5 6: two units in 1, 4 and 1 s.
    EXPECT_DOUBLE_EQ(bestPartRate({6, 0.5, 3, 1, 5.5, 5}, 3), 2.0);
    EXPECT_DOUBLE_EQ(bestPartRate({1, 2, 3, 4}, 1), 1.0);
    EXPECT_DOUBLE_EQ(bestPartRate({1, 2}, 3), 0.0);
}

TEST(Checks, DigestCheckCatchesAFlippedLimbBit)
{
    const auto &s = served();
    auto report = s.run(11);
    const uint64_t reference = cinnamon::exec::hashOutputs(report.outputs);
    EXPECT_TRUE(checkDigests({{1, report.digest}}, {{1, reference}}, "t")
                    .empty());

    report.outputs.at("window_sum").c0.limb(0)[0] ^= 1;
    const uint64_t flipped = cinnamon::exec::hashOutputs(report.outputs);
    EXPECT_FALSE(checkDigests({{1, flipped}}, {{1, reference}}, "t").empty());
}

TEST(Checks, DigestCheckCatchesSwappedAndMissingDigests)
{
    const auto &s = served();
    const uint64_t a = s.run(21).digest, b = s.run(22).digest;
    ASSERT_NE(a, b);
    EXPECT_TRUE(checkDigests({{1, a}, {2, b}}, {{1, a}, {2, b}}, "t").empty());
    EXPECT_EQ(checkDigests({{1, b}, {2, a}}, {{1, a}, {2, b}}, "t").size(), 2u);
    EXPECT_EQ(checkDigests({{1, a}, {2, b}}, {{1, a}}, "t").size(), 1u);
}

TEST(Checks, ProbeCheckCatchesARotationOffByOne)
{
    const auto &s = served();
    const uint64_t seed = 31;
    const auto report = s.run(seed);
    const auto x = s.input(seed);
    const auto window = s.decrypt(seed, report.outputs.at("window_sum"));
    const auto square = s.decrypt(seed, report.outputs.at("square"));
    EXPECT_TRUE(checkProbe(x, window, square, 1e-4).empty());

    // The window one slot to the left: x[i] .. x[i+3] instead of
    // x[i+1] .. x[i+4].
    std::vector<fhe::Cplx> shifted(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        shifted[i] = x[(i + x.size() - 1) % x.size()];
    EXPECT_FALSE(checkProbe(shifted, window, square, 1e-4).empty());
    // A corrupted ciphertext decrypts to noise.
    auto broken = report.outputs.at("square");
    broken.c0.limb(0)[0] ^= uint64_t(1) << 40;
    EXPECT_FALSE(
        checkProbe(x, window, s.decrypt(seed, broken), 1e-4).empty());
}

TEST(Checks, RotationCheckCatchesOffByOne)
{
    std::vector<fhe::Cplx> x(16), y1(16), y2(16);
    for (std::size_t i = 0; i < 16; ++i)
        x[i] = fhe::Cplx(0.1 * static_cast<double>(i), 0.0);
    for (std::size_t i = 0; i < 16; ++i) {
        y1[i] = x[(i + 1) % 16];
        y2[i] = x[(i + 2) % 16];
    }
    EXPECT_TRUE(checkRotation(x, y1, 1, 1e-9).empty());
    EXPECT_FALSE(checkRotation(x, y2, 1, 1e-9).empty());
    EXPECT_FALSE(checkRotation(x, y1, 0, 1e-9).empty());
}

TEST(Checks, AccountingCatchesALostRequest)
{
    EXPECT_TRUE(checkAccounting(10, 7, 1, 1, 1).empty());
    EXPECT_FALSE(checkAccounting(10, 9, 0, 0, 0).empty());
    EXPECT_FALSE(checkAccounting(10, 10, 1, 0, 0).empty());
}

TEST(Checks, ConservationCatchesBrokenBooks)
{
    const auto &s = served();
    compiler::CompilerConfig cfg;
    cfg.chips = 2;
    const auto prog = compiler::Compiler(*s.ctx, cfg)
                          .compile(cinnamon::workloads::keyswitchKernel(
                              *s.ctx, 8));
    cinnamon::sim::HardwareConfig hw =
        cinnamon::sim::HardwareConfig::cinnamonChip();
    hw.n = s.ctx->n();
    auto res = cinnamon::sim::simulate(prog.machine, hw);
    EXPECT_TRUE(checkConservation(res, hw, "ks").empty());
    res.instructions += 1;
    EXPECT_FALSE(checkConservation(res, hw, "ks").empty());
}

TEST(Checks, ScalingCheckCatchesASlowerLargeMachine)
{
    EXPECT_TRUE(checkNoSlower("helr", 1.0, 0.5).empty());
    EXPECT_TRUE(checkNoSlower("helr", 1.0, 1.0).empty());
    EXPECT_FALSE(checkNoSlower("bert", 1.0, 1.01).empty());
}
