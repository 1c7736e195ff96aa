/**
 * @file
 * The two serving workloads.
 *
 * serve_local: an in-process serve::Server, unbatched, no device
 * dwell, n = 2^12. serve_wire: the same requests through
 * serve::remote::RemoteFrontEnd over loopback to spawned worker
 * processes, with continuous batching, n = 2^10.
 *
 * Both run two timed phases on one warmed tier:
 *  - open loop: requests are due on a seeded schedule (Poisson for
 *    serve_local, bursty on/off for serve_wire) at a fixed rate of
 *    about half the saturated throughput measured on the reference
 *    host (for serve_wire, the rate while a burst is on: nearer
 *    saturation, queueing would amplify every drift of the host's
 *    speed); each latency runs from when the request was due, so a
 *    stall of the generator or the tier counts against later requests
 *    too;
 *  - saturated: a backlog of requests is kept queued for the phase
 *    (nothing is rejected: the queue is unbounded in practice), and
 *    throughput is the phase's requests over its wall time.
 *
 * Every completed digest is then checked against an execution the
 * benchmark makes itself from the seed derivation the serving path
 * documents (exec/backend.h), and that execution's decryption against
 * the probe computed in plain doubles. The traced run times the layers
 * of that copy of the request path (keygen, encrypt, cold and warm
 * ProgramRuntime::run, digest) and replays the wire frames.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "checks.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "compiler/lowering.h"
#include "compiler/runtime.h"
#include "exec/backend.h"
#include "fhe/evaluator.h"
#include "fhe/keys.h"
#include "net/frame.h"
#include "net/message.h"
#include "serve/catalog.h"
#include "serve/remote/frontend.h"
#include "serve/remote/supervisor.h"
#include "serve/remote/worker.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {

namespace {

using cinnamon::serve::RequestStatus;
using cinnamon::serve::Response;
using cinnamon::serve::Workload;
namespace fhe = cinnamon::fhe;
namespace compiler = cinnamon::compiler;

constexpr Workload kTags[] = {
    Workload::Bootstrap, Workload::ResNet,    Workload::Helr,
    Workload::Bert,      Workload::Keyswitch, Workload::ObliviousJoin,
};

/** Chips per chip group, as a Cinnamon deployment groups them. */
constexpr std::size_t kGroupSize = 4;

/** How often the driver looks at the tier's responses. */
constexpr std::chrono::milliseconds kPoll{5};

/** Decrypted probe outputs must match plain doubles this closely. */
constexpr double kProbeTolerance = 1e-4;

/** The serving parameter set at ring dimension `n`. */
fhe::CkksParams
serveParams(std::size_t n)
{
    // 16 primes: the catalog's miniature suite needs a 15-level chain.
    return fhe::CkksParams::makeTest(n, 16, 4);
}

/** The shape of one serving workload. */
struct ServeShape
{
    const char *name;
    std::size_t n;
    /** Mean open-loop arrival rate, requests/s. */
    double rate;
    /** Bursty arrivals: on for on_ms at rate / duty, then off. */
    bool bursty;
    double on_ms;
    double duty;
    /** Saturated phase: requests kept outstanding per server worker. */
    std::size_t backlog_per_worker;
};

/** One request the benchmark sent. */
struct Sent
{
    Workload tag = Workload::Keyswitch;
    uint64_t seed = 0;
    int phase = 0; ///< 0 warm-up, 1 open loop, 2 saturated
    double lag_ms = 0.0;  ///< open loop: submit time - due time
    double submit_us = 0.0; ///< trace clock, traced runs only
    double sent_s = 0.0;    ///< s from the driver's start
};

/**
 * Drives a tier (Server or RemoteFrontEnd: both have submit,
 * responses and drainAndStop) and remembers what was sent. Request
 * ids are assigned by the tier in submission order from 1, which the
 * verification cross-checks against each response's workload tag.
 */
template <class Tier>
class Driver
{
  public:
    Driver(Tier &tier, uint64_t seed, Spans &spans)
        : tier_(&tier), seed_state_(seed * 0x2545f4914f6cdd1dull + 17),
          spans_(&spans)
    {
    }

    /** A fresh request seed, distinct from every earlier one. */
    uint64_t
    nextSeed()
    {
        uint64_t s;
        do {
            s = splitmix(seed_state_);
        } while (!used_.insert(s).second);
        return s;
    }

    void
    submit(Workload tag, uint64_t seed, int phase, double lag_ms = 0.0)
    {
        Sent s{tag, seed, phase, lag_ms, 0.0, msSince(epoch_) / 1e3};
        if (spans_->on())
            s.submit_us = spans_->recorder()->nowUs();
        {
            auto span = spans_->span("serve.submit", "serve");
            tier_->submit(tag, seed);
        }
        sent_.push_back(s);
    }

    /**
     * Requests with a final response. The tiers only expose a copy of
     * all responses, taken under the lock their result path also takes,
     * so callers poll this every few milliseconds, not in a spin.
     */
    std::size_t finished() const { return tier_->responses().size(); }

    /** Block until every request sent so far has a final response. */
    void
    waitAll() const
    {
        while (finished() < sent_.size())
            std::this_thread::sleep_for(kPoll);
    }

    const std::vector<Sent> &sent() const { return sent_; }

  private:
    Tier *tier_;
    Clock::time_point epoch_ = Clock::now();
    uint64_t seed_state_;
    std::set<uint64_t> used_;
    std::vector<Sent> sent_;
    Spans *spans_;
};

/** Warm-up: every tag `rounds` times, all compiles and caches filled. */
template <class Tier>
void
warmUp(Driver<Tier> &d, std::size_t rounds)
{
    for (std::size_t r = 0; r < rounds; ++r) {
        for (Workload tag : kTags)
            d.submit(tag, d.nextSeed(), 0);
        d.waitAll();
    }
}

/**
 * Open-loop phase: arrivals on a seeded schedule for `seconds`.
 * Poisson at `rate`, or (bursty) Poisson at rate / duty during on
 * periods of on_ms out of every on_ms / duty.
 */
template <class Tier>
void
openLoop(Driver<Tier> &d, const ServeShape &shape, double seconds,
         uint64_t seed)
{
    cinnamon::Rng rng(seed ^ 0x6f70656e6c6f6f70ull);
    std::vector<double> due; // ms from phase start
    const double horizon_ms = seconds * 1e3;
    const double period_ms = shape.bursty ? shape.on_ms / shape.duty : 0;
    const double on_rate = shape.bursty ? shape.rate / shape.duty
                                        : shape.rate; // per s
    double t = 0.0; // ms of "on" time elapsed
    while (true) {
        const double u = rng.uniformReal(1e-12, 1.0);
        t += -std::log(u) / on_rate * 1e3;
        double wall = t;
        if (shape.bursty) {
            const double cycles = std::floor(t / shape.on_ms);
            wall = cycles * period_ms + (t - cycles * shape.on_ms);
        }
        if (wall >= horizon_ms)
            break;
        due.push_back(wall);
    }
    const auto start = Clock::now();
    for (double due_ms : due) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            due_ms)));
        const double lag = msSince(start) - due_ms;
        const Workload tag = kTags[rng.uniformMod(6)];
        d.submit(tag, d.nextSeed(), 1, std::max(0.0, lag));
    }
    d.waitAll();
}

/**
 * Saturated phase: keep `backlog` requests outstanding for `seconds`,
 * then drain. Returns the phase's wall seconds (first submit to last
 * completion).
 */
template <class Tier>
double
saturated(Driver<Tier> &d, std::size_t backlog, double seconds,
          uint64_t seed)
{
    cinnamon::Rng rng(seed ^ 0x7361747572617465ull);
    const auto start = Clock::now();
    while (msSince(start) < seconds * 1e3) {
        const std::size_t outstanding = d.sent().size() - d.finished();
        for (std::size_t i = outstanding; i < backlog; ++i)
            d.submit(kTags[rng.uniformMod(6)], d.nextSeed(), 2);
        std::this_thread::sleep_for(kPoll);
    }
    d.waitAll();
    return msSince(start) / 1e3;
}

/** The benchmark's own execution of one request. */
struct Reference
{
    uint64_t digest = 0;
    Failures failures;
    double keygen_ms = 0, encrypt_ms = 0, cold_ms = 0, warm_ms = 0,
           digest_ms = 0;
    std::size_t limb_ops = 0; ///< emulated limb operations
};

/**
 * Execute the probe for `seed` exactly as the serving path documents
 * (exec/backend.h): keys from KeyGenerator(ctx, seed), real inputs
 * drawn in input order from Rng(seed ^ 0x9e3779b97f4a7c15), the
 * compiled probe, hashOutputs. Then decrypt and check against plain
 * doubles. With `warm`, the program runs a second time on the same
 * runtime so the cold run's materialization can be separated out.
 */
Reference
referenceRun(const fhe::CkksContext &ctx, const fhe::Encoder &encoder,
             const compiler::Program &probe,
             const compiler::CompiledProgram &compiled, uint64_t seed,
             bool warm, Spans &spans)
{
    Reference ref;
    auto t = Clock::now();
    auto lap = [&t] {
        const auto now = Clock::now();
        const double ms = msBetween(t, now);
        t = now;
        return ms;
    };
    std::unique_ptr<fhe::KeyGenerator> keygen;
    std::unique_ptr<fhe::SecretKey> sk;
    {
        auto s = spans.span("fhe.keygen", "fhe");
        keygen = std::make_unique<fhe::KeyGenerator>(ctx, seed);
        sk = std::make_unique<fhe::SecretKey>(keygen->secretKey());
    }
    ref.keygen_ms = lap();
    fhe::Evaluator eval(ctx);
    cinnamon::Rng data_rng(seed ^ 0x9e3779b97f4a7c15ull);
    compiler::ProgramRuntime runtime(ctx, encoder, *keygen, *sk);
    runtime.setEmulatorWorkers(1);
    std::map<std::string, std::vector<fhe::Cplx>> inputs;
    {
        auto s = spans.span("fhe.encrypt", "fhe");
        for (const compiler::CtOp &op : probe.ops()) {
            if (op.kind != compiler::CtOpKind::Input)
                continue;
            std::vector<fhe::Cplx> values(ctx.slots());
            for (auto &v : values)
                v = fhe::Cplx(data_rng.uniformReal(-1.0, 1.0), 0.0);
            auto plain = encoder.encode(values, op.level);
            runtime.bindInput(op.name, eval.encrypt(plain,
                                                    ctx.params().scale,
                                                    *sk, data_rng));
            inputs[op.name] = std::move(values);
        }
    }
    ref.encrypt_ms = lap();
    std::map<std::string, fhe::Ciphertext> outputs;
    {
        auto s = spans.span("runtime.run_cold", "runtime");
        outputs = runtime.run(compiled);
    }
    ref.cold_ms = lap();
    ref.limb_ops = runtime.lastStats().total();
    {
        auto s = spans.span("exec.digest", "exec");
        ref.digest = cinnamon::exec::hashOutputs(outputs);
    }
    ref.digest_ms = lap();
    if (warm) {
        auto s = spans.span("runtime.run_warm", "runtime");
        runtime.run(compiled);
        ref.warm_ms = lap();
    }
    auto decrypt = [&](const char *name) {
        auto it = outputs.find(name);
        if (it == outputs.end())
            return std::vector<fhe::Cplx>();
        return encoder.decode(eval.decrypt(it->second, *sk),
                              it->second.scale);
    };
    ref.failures = checkProbe(inputs["x"], decrypt("window_sum"),
                              decrypt("square"), kProbeTolerance);
    return ref;
}

/** The probe compiled the way the serving path compiles it. */
compiler::CompiledProgram
compileProbe(const fhe::CkksContext &ctx, const compiler::Program &probe,
             Spans &spans)
{
    compiler::CompilerConfig cfg;
    cfg.chips = kGroupSize;
    cfg.num_streams = 1;
    cfg.phys_regs = cinnamon::serve::ServeOptions().hw.phys_regs;
    compiler::Compiler comp(ctx, cfg);
    comp.setTrace(spans.recorder());
    auto s = spans.span("compiler.compile", "compiler");
    return comp.compile(probe);
}

/**
 * Everything after the timed phases: verify every completed request,
 * account for every submitted one, and derive the metrics.
 */
void
finish(const ServeShape &shape,
       const fhe::CkksContext &ctx, const std::vector<Sent> &sent,
       const std::vector<Response> &responses, double saturated_s,
       Spans &spans, RunResult &r)
{
    // Final fates by id (Retried rows are intermediate).
    std::map<uint64_t, const Response *> final_of;
    std::size_t completed = 0, rejected = 0, expired = 0, failed = 0;
    for (const auto &resp : responses) {
        switch (resp.status) {
        case RequestStatus::Completed: ++completed; break;
        case RequestStatus::Rejected: ++rejected; break;
        case RequestStatus::Expired: ++expired; break;
        case RequestStatus::Failed: ++failed; break;
        case RequestStatus::Retried: continue;
        }
        final_of[resp.id] = &resp;
    }
    for (auto &f : checkAccounting(sent.size(), completed, rejected,
                                   expired, failed))
        r.fail(f);

    for (std::size_t i = 0; i < sent.size(); ++i) {
        if (sent[i].phase == 0)
            continue;
        ++r.attempted;
        auto it = final_of.find(i + 1);
        if (it == final_of.end() ||
            it->second->status != RequestStatus::Completed)
            ++r.failed;
    }

    // Independent executions of every completed request.
    cinnamon::serve::WorkloadCatalog catalog(ctx);
    fhe::Encoder encoder(ctx);
    const auto compiled = compileProbe(ctx, catalog.probe(), spans);
    std::vector<uint64_t> ids;
    std::map<uint64_t, uint64_t> served;
    for (const auto &[id, resp] : final_of) {
        if (resp->status != RequestStatus::Completed)
            continue;
        if (id == 0 || id > sent.size() ||
            sent[id - 1].tag != resp->workload) {
            r.fail("response id " + std::to_string(id) +
                   " does not match the submission order");
            continue;
        }
        ids.push_back(id);
        served[id] = resp->output_hash;
    }
    std::vector<Reference> refs(ids.size());
    cinnamon::TaskPool::global().resize(hostCpus());
    cinnamon::TaskPool::global().forEach(ids.size(), [&](std::size_t k) {
        refs[k] = referenceRun(ctx, encoder, catalog.probe(), compiled,
                               sent[ids[k] - 1].seed, spans.on(), spans);
    });
    std::map<uint64_t, uint64_t> reference;
    for (std::size_t k = 0; k < ids.size(); ++k) {
        reference[ids[k]] = refs[k].digest;
        for (auto &f : refs[k].failures)
            r.fail("request " + std::to_string(ids[k]) + ": " + f);
    }
    for (auto &f : checkDigests(served, reference, shape.name))
        r.fail(f);

    // End-to-end metrics.
    std::vector<double> latency, queue, service, lag, occupancy,
        sat_service, sat_ends;
    double sat_start_s = -1.0;
    for (const auto &s : sent)
        if (s.phase == 2 && sat_start_s < 0)
            sat_start_s = s.sent_s;
    std::size_t sat_requests = 0, timed = 0, timed_hits = 0;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        auto it = final_of.find(i + 1);
        if (it == final_of.end() ||
            it->second->status != RequestStatus::Completed)
            continue;
        const Response &resp = *it->second;
        if (sent[i].phase == 2) {
            ++sat_requests;
            sat_ends.push_back(sent[i].sent_s + resp.total_ms / 1e3 -
                               sat_start_s);
            // A batched request's service time covers its whole batch;
            // each member's share of it is what the copy below explains.
            sat_service.push_back(
                resp.service_ms /
                static_cast<double>(std::max<std::size_t>(
                    1, resp.batch_streams)));
        }
        if (sent[i].phase != 0) {
            ++timed;
            timed_hits += resp.compile_ms == 0.0 ? 1 : 0;
            occupancy.push_back(static_cast<double>(resp.batch_streams));
        }
        if (sent[i].phase != 1)
            continue;
        latency.push_back(sent[i].lag_ms + resp.total_ms);
        queue.push_back(resp.queue_ms);
        service.push_back(resp.service_ms);
        lag.push_back(sent[i].lag_ms);
    }
    // The best of kParts consecutive stretches of each phase (README.md,
    // "Steadiness"): open-loop latencies in submission order, saturated
    // completions in completion order.
    r.metrics["throughput_ops_s"] = bestPartRate(sat_ends, kParts);
    r.metrics["latency_p50_ms"] = bestPartMedian(latency, kParts);
    int tail_pct = 50;
    r.metrics["serve.latency_tail_ms"] = tailQuantile(latency, &tail_pct);
    r.metrics["serve.queue_ms"] = median(queue);
    r.metrics["serve.service_ms"] = median(service);
    r.metrics["serve.generator_lag_ms"] = median(lag);
    r.metrics["serve.plan_cache_hit_ratio"] =
        timed > 0 ? static_cast<double>(timed_hits) /
                        static_cast<double>(timed)
                  : 0.0;
    r.metrics["serve.batch_occupancy"] = mean(occupancy);
    std::printf("open loop: %zu requests, latency p50 %.3f ms (best of %zu "
                "parts %.3f ms), p%d %.3f ms, generator lag p50 %.3f ms; "
                "saturated: %zu requests in %.3f s, %.3f/s (best of %zu "
                "parts %.3f/s)\n",
                latency.size(), median(latency), kParts,
                r.metrics["latency_p50_ms"], tail_pct,
                r.metrics["serve.latency_tail_ms"], median(lag),
                sat_requests, saturated_s,
                saturated_s > 0 ? static_cast<double>(sat_requests) /
                                      saturated_s
                                : 0.0,
                kParts, r.metrics["throughput_ops_s"]);

    if (!spans.on() || refs.empty())
        return;
    std::vector<double> keygen, encrypt, cold, warm, digest, materialize;
    for (const auto &ref : refs) {
        keygen.push_back(ref.keygen_ms);
        encrypt.push_back(ref.encrypt_ms);
        cold.push_back(ref.cold_ms);
        warm.push_back(ref.warm_ms);
        digest.push_back(ref.digest_ms);
        materialize.push_back(ref.cold_ms - ref.warm_ms);
    }
    r.metrics["fhe.keygen_ms"] = median(keygen);
    r.metrics["fhe.encrypt_ms"] = median(encrypt);
    r.metrics["isa.emulate_ms"] = median(warm);
    r.metrics["runtime.materialize_ms"] = median(materialize);
    r.metrics["exec.digest_ms"] = median(digest);
    // The copy runs one request per CPU, as the saturated phase does,
    // so it is compared with that phase's service time.
    r.metrics["serve.unattributed_ms"] =
        median(sat_service) - (median(keygen) + median(encrypt) +
                           median(cold) + median(digest));
    const double limb_ops = static_cast<double>(refs.front().limb_ops);
    r.metrics["isa.limb_ops"] = limb_ops;
    r.metrics["isa.limb_ops_per_s"] = limb_ops / (median(warm) / 1e3);
}

/**
 * Record each served request as a span from its submission, split
 * into the queue and service times the tier reported. Requests go on
 * rows by id, so concurrent requests never share a row.
 */
void
recordServed(Spans &spans, const std::vector<Sent> &sent,
             const std::vector<Response> &responses)
{
    if (!spans.on())
        return;
    for (const auto &resp : responses) {
        if (resp.status != RequestStatus::Completed || resp.id == 0 ||
            resp.id > sent.size())
            continue;
        const double t = sent[resp.id - 1].submit_us;
        const auto row = static_cast<uint32_t>(10000 + resp.id % 256);
        spans.record("serve.request", "serve", t, resp.total_ms * 1e3, row);
        spans.record("serve.queue", "serve", t, resp.queue_ms * 1e3, row);
        spans.record("serve.service", "serve", t + resp.queue_ms * 1e3,
                     resp.service_ms * 1e3, row);
    }
}

void
printFailures(const RunResult &r)
{
    for (const auto &f : r.check_failures)
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
}

} // namespace

RunResult
runServeLocal(const Options &opt, Spans &spans)
{
    const ServeShape shape{"serve_local", 1u << 12, 25.0, false, 0, 1, 2};
    RunResult r;
    const std::size_t workers = hostCpus();

    auto t0 = Clock::now();
    fhe::CkksContext ctx(serveParams(shape.n));
    r.metrics["setup.context_s"] = msSince(t0) / 1e3;

    cinnamon::serve::ServeOptions so;
    so.chips = kGroupSize * workers;
    so.group_size = kGroupSize;
    so.workers = workers;
    so.exec_workers = 1; // one busy thread per server worker
    so.queue_capacity = 1u << 20;
    so.time_dilation = 0.0;
    so.batch_max_streams = 1;
    cinnamon::serve::Server server(ctx, so);
    server.start();
    Driver<cinnamon::serve::Server> d(server, opt.seed, spans);

    t0 = Clock::now();
    warmUp(d, 2);
    r.metrics["setup.warmup_s"] = msSince(t0) / 1e3;
    r.metrics["setup_s"] = msSince(opt.process_start) / 1e3;

    const auto plan_before = server.planCache().stats();
    openLoop(d, shape, opt.seconds * 0.5, opt.seed);
    const double sat_s = saturated(d, shape.backlog_per_worker * workers,
                                   opt.seconds * 0.5, opt.seed);
    server.drainAndStop();
    const auto plan_after = server.planCache().stats();
    r.metrics["peak_rss_mb"] = peakRssMb();

    r.shape = {{"ring_n", std::to_string(shape.n)},
               {"server_workers", std::to_string(workers)},
               {"exec_pool", "1"},
               {"batch_max_streams", "1"},
               {"open_loop_rate_s", std::to_string(shape.rate)}};
    const auto responses = server.responses();
    recordServed(spans, d.sent(), responses);
    finish(shape, ctx, d.sent(), responses, sat_s, spans, r);
    // In-process, the plan cache itself says whether a compile ran.
    const std::size_t lookups =
        plan_after.lookups() - plan_before.lookups();
    if (lookups > 0)
        r.metrics["serve.plan_cache_hit_ratio"] =
            static_cast<double>(plan_after.hits - plan_before.hits) /
            static_cast<double>(lookups);
    printFailures(r);
    return r;
}

RunResult
runServeWire(const Options &opt, Spans &spans, const std::string &self_exe)
{
    const ServeShape shape{"serve_wire", 1u << 10, 40.0, true, 200.0,
                           0.5, 4};
    RunResult r;
    const std::size_t cpus = hostCpus();
    const std::size_t workers = cpus > 1 ? cpus - 1 : 1;
    const std::size_t batch = 4;

    auto t0 = Clock::now();
    fhe::CkksContext ctx(serveParams(shape.n));
    r.metrics["setup.context_s"] = msSince(t0) / 1e3;

    t0 = Clock::now();
    cinnamon::serve::remote::FrontEndOptions fo;
    fo.workers = workers;
    fo.group_size = kGroupSize;
    fo.queue_capacity = 1u << 20;
    fo.batch_max_streams = batch;
    fo.batch_linger_ms = 2.0;
    fo.heartbeat_timeout_ms = 5000.0;
    cinnamon::serve::remote::RemoteFrontEnd frontend(fo);
    if (!frontend.start())
        throw std::runtime_error("cannot bind a loopback port");
    cinnamon::serve::remote::ProcessSupervisor supervisor;
    std::vector<pid_t> pids;
    for (std::size_t w = 0; w < workers; ++w) {
        const pid_t pid = supervisor.spawn(
            {self_exe, "--role", "wire-worker", "--port",
             std::to_string(frontend.port()), "--id", std::to_string(w),
             "--n", std::to_string(shape.n)});
        if (pid < 0)
            throw std::runtime_error("cannot spawn a worker process");
        pids.push_back(pid);
    }
    if (!frontend.waitForWorkers(workers, 60000.0))
        throw std::runtime_error("workers did not connect");
    r.metrics["setup.spawn_s"] = msSince(t0) / 1e3;

    Driver<cinnamon::serve::remote::RemoteFrontEnd> d(frontend, opt.seed,
                                                      spans);
    t0 = Clock::now();
    // Enough rounds that every worker compiled every tag's kernels and
    // every batched probe width.
    warmUp(d, 2 * workers);
    for (std::size_t k = 0; k < 2; ++k) {
        for (Workload tag : kTags)
            for (std::size_t m = 0; m < batch * workers; ++m)
                d.submit(tag, d.nextSeed(), 0);
        d.waitAll();
    }
    r.metrics["setup.warmup_s"] = msSince(t0) / 1e3;
    r.metrics["setup_s"] = msSince(opt.process_start) / 1e3;

    openLoop(d, shape, opt.seconds * 0.5, opt.seed);
    const double sat_s =
        saturated(d, shape.backlog_per_worker * batch * workers,
                  opt.seconds * 0.5, opt.seed);
    frontend.drainAndStop();
    for (pid_t pid : pids)
        supervisor.wait(pid);
    // The front-end's own peak plus the largest worker's, per process.
    r.metrics["peak_rss_mb"] = peakRssMb() + childrenPeakRssMb();

    r.shape = {{"ring_n", std::to_string(shape.n)},
               {"worker_processes", std::to_string(workers)},
               {"exec_pool", "1"},
               {"batch_max_streams", std::to_string(batch)},
               {"open_loop_rate_s", std::to_string(shape.rate)}};
    const auto responses = frontend.responses();
    recordServed(spans, d.sent(), responses);
    finish(shape, ctx, d.sent(), responses, sat_s, spans, r);

    if (spans.on()) {
        // Replay each completed request's Submit and Result frames
        // through the codec the tier uses.
        std::vector<std::vector<uint8_t>> frames;
        std::size_t bytes = 0, requests = 0;
        auto t = Clock::now();
        for (const auto &resp : responses) {
            if (resp.status != RequestStatus::Completed)
                continue;
            cinnamon::net::SubmitMsg sub;
            sub.request_id = resp.id;
            sub.workload = static_cast<uint16_t>(resp.workload);
            sub.seed = d.sent()[resp.id - 1].seed;
            cinnamon::net::ResultMsg res;
            res.request_id = resp.id;
            res.digest = resp.output_hash;
            res.sim_seconds = resp.sim_seconds;
            res.compile_ms = resp.compile_ms;
            res.service_ms = resp.service_ms;
            frames.push_back(cinnamon::net::encodeFrame(
                cinnamon::net::MsgType::Submit, sub.encode()));
            frames.push_back(cinnamon::net::encodeFrame(
                cinnamon::net::MsgType::Result, res.encode()));
            bytes += frames[frames.size() - 2].size() +
                     frames.back().size();
            ++requests;
        }
        const double encode_ms = msSince(t);
        t = Clock::now();
        cinnamon::net::FrameDecoder decoder;
        std::size_t decoded = 0;
        for (const auto &f : frames) {
            decoder.feed(f.data(), f.size());
            cinnamon::net::Frame frame;
            if (decoder.next(&frame) == cinnamon::net::DecodeStatus::Ok)
                ++decoded;
        }
        const double decode_ms = msSince(t);
        if (decoded != frames.size())
            r.fail("frame replay: decoded " + std::to_string(decoded) +
                   " of " + std::to_string(frames.size()) + " frames");
        if (!frames.empty()) {
            spans.record("net.encode", "net", 0, encode_ms * 1e3, 2000);
            spans.record("net.decode", "net", encode_ms * 1e3,
                         decode_ms * 1e3, 2000);
            r.metrics["net.frame_encode_us"] =
                encode_ms * 1e3 / static_cast<double>(frames.size());
            r.metrics["net.frame_decode_us"] =
                decode_ms * 1e3 / static_cast<double>(frames.size());
            r.metrics["net.bytes_per_request"] =
                static_cast<double>(bytes) / static_cast<double>(requests);
        }
    }
    printFailures(r);
    return r;
}

int
runWireWorker(int argc, char **argv)
{
    cinnamon::serve::remote::WorkerOptions wo;
    std::size_t n = 1u << 10;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--port") == 0)
            wo.port = static_cast<uint16_t>(std::atoi(argv[i + 1]));
        else if (std::strcmp(argv[i], "--id") == 0)
            wo.worker_id = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--n") == 0)
            n = std::strtoull(argv[i + 1], nullptr, 10);
    }
    wo.group_size = kGroupSize;
    wo.exec_workers = 1;
    wo.time_dilation = 0.0;
    fhe::CkksContext ctx(serveParams(n));
    return cinnamon::serve::remote::runWorker(ctx, wo);
}

} // namespace perfbench
