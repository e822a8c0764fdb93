/**
 * @file
 * The offline workloads: single_1t (one request at a time, one kernel
 * thread) and batch8_4t (rolloutBatch of 8 requests, four kernel
 * threads).
 *
 * A round is one call per (preset, mode), presets and modes interleaved
 * round-robin so a slow host phase hits every mode alike. Every round
 * draws fresh request seeds from the workload seed. Between rounds the
 * run repeats the cold set-up and a host probe; neither counts toward a
 * round's time.
 */
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <thread>

#include <sched.h>

#include "common/parallel.h"
#include "harness.h"
#include "probes.h"
#include "tracer.h"

namespace perfbench {

namespace {

using ditto::CompiledModel;
using ditto::FloatTensor;
using ditto::RunMode;

/** Round order of the modes: the exact pair first, then the approximation. */
constexpr RunMode kModes[] = {RunMode::QuantDirect, RunMode::QuantDitto,
                              RunMode::ApproxDitto};
constexpr int kNumModes = 3;
constexpr int kDirect = 0, kDitto = 1, kApprox = 2;

const char *const kCallSpan[] = {"rollout.direct", "rollout.ditto", "rollout.approx"};
const char *const kBatchSpan[] = {"rolloutBatch.direct", "rolloutBatch.ditto",
                                  "rolloutBatch.approx"};

struct OfflineShape
{
    int threads = 1;
    int batch = 1;
};

/** Images per preset whose ApproxDitto PSNR forms approx_psnr_db. */
constexpr int kPsnrImagesPerPreset = 16;
/** Images per preset checked against an FP32 rollout. */
constexpr int kFp32ImagesPerPreset = 8;
/** Wall-clock gap between repeats of the cold set-up, in seconds. */
constexpr double kSetupEverySeconds = 1.0;

/**
 * A batch output waiting for its single-rollout reference. Only a
 * digest of the image is kept, so pending checks do not grow the
 * resident set the run reports.
 */
struct PendingSlab
{
    int64_t op = 0;
    size_t preset = 0;
    RunMode mode = RunMode::QuantDitto;
    uint64_t seed = 0;
    uint64_t digest = 0;
};

/** An exact image waiting for its FP32 reference. */
struct PendingFp32
{
    int64_t op = 0;
    size_t preset = 0;
    uint64_t seed = 0;
    FloatTensor image;
};

/**
 * Run `fn(i)` for i in [0, n) on `workers` threads. Each thread's
 * kernels run serially (the pool is set to one thread before this).
 */
template <typename Fn>
void
parallelItems(size_t n, int workers, const Fn &fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w)
        pool.emplace_back([&] {
            for (size_t i = next++; i < n; i = next++)
                fn(i);
        });
    for (auto &t : pool)
        t.join();
}

/** The CPUs this process may run on, in ascending order. */
cpu_set_t
allowedSet()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
}

std::vector<int>
cpusOf(const cpu_set_t &set)
{
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    return cpus;
}

/** Restrict the calling thread to one CPU. */
void
pinToCpu(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
}

} // namespace

Outcome
runOffline(const Options &o)
{
    const bool batched = o.workload == "batch8_4t";
    OfflineShape shape;
    if (batched) {
        shape.threads = 4;
        shape.batch = 8;
    }
    ditto::setThreadCount(shape.threads);

    Tracer tracer(o.trace);
    const std::vector<ditto::ModelSpec> presets = allPresets();
    const size_t np = presets.size();

    std::vector<double> setupS;
    double s = 0.0;
    std::vector<CompiledModel> models;
    {
        ScopedSpan span(tracer, "compile.all");
        models = coldSetup(presets, o.workDir, &s);
    }
    setupS.push_back(s);

    // Warm-up round (untimed): lazy one-time work such as the SIMD
    // dispatch probe finishes before anything is measured.
    for (size_t p = 0; p < np; ++p) {
        std::vector<FloatTensor> noises(static_cast<size_t>(shape.batch),
                                        models[p].requestNoise(1));
        for (RunMode m : kModes)
            models[p].rolloutBatch(m, noises);
    }

    OpLedger ledger(o.corruptOp);
    // callMs[p][m]: per-image wall time of every call.
    std::vector<std::array<std::vector<double>, kNumModes>> callMs(np);
    std::vector<double> roundMs, roundCpuMsPerImage, probeMs, tracedMs, untracedMs;
    std::vector<std::vector<double>> approxPsnr(np);
    std::vector<PendingSlab> slabs;
    std::vector<PendingFp32> fp32;
    const int imagesPerRound = static_cast<int>(np) * kNumModes * shape.batch;

    // single_1t moves its one thread to the next allowed CPU every
    // round. On a shared host the vCPUs differ in speed from minute to
    // minute; left to the scheduler, a run reads whichever CPU it
    // happened to stay on, while rotating samples every CPU alike, as
    // the interleaved modes sample every host phase. Rotated and
    // unpinned runs, alternated, read the same median; the rotated ones
    // spread about half as wide (perfbench/README.md).
    const cpu_set_t allowed = allowedSet();
    const std::vector<int> cpus = cpusOf(allowed);

    const auto start = Clock::now();
    double nextSetup = kSetupEverySeconds;
    double peakRss = 0.0;
    for (uint64_t r = 0;; ++r) {
        const double elapsed = msBetween(start, Clock::now()) / 1000.0;
        if (elapsed >= o.seconds)
            break;
        if (elapsed >= nextSetup) {
            coldSetup(presets, o.workDir, &s);
            setupS.push_back(s);
            nextSetup += kSetupEverySeconds;
        }
        if (!batched)
            pinToCpu(cpus[r % cpus.size()]);
        probeMs.push_back(hostProbeMs());
        // The traced run alternates a pass over the CPUs of traced
        // rounds (every call and, on the single path, every step
        // spanned) with a pass of untraced ones. The tracing overhead is
        // the median ratio of each traced round to the untraced round
        // on the same CPU one pass later.
        const bool tracedRound = (r / cpus.size()) % 2 == 0;
        tracer.setActive(tracedRound);

        double rMs = 0.0, rCpu = 0.0;
        const uint64_t roundSpan = tracer.enabled() ? tracer.newId() : 0;
        const auto roundBegin = Clock::now();
        for (size_t p = 0; p < np; ++p) {
            const CompiledModel &model = models[p];
            std::vector<uint64_t> seeds;
            std::vector<FloatTensor> noises;
            for (int b = 0; b < shape.batch; ++b) {
                seeds.push_back(deriveSeed(o.seed, r, p * 64 + static_cast<uint64_t>(b)));
                noises.push_back(model.requestNoise(seeds.back()));
            }
            std::array<std::vector<FloatTensor>, kNumModes> images;
            std::array<int64_t, kNumModes> ops{};
            for (int mi = 0; mi < kNumModes; ++mi) {
                const RunMode mode = kModes[mi];
                const int64_t op = ledger.begin();
                ops[mi] = op;
                const double cpu0 = processCpuSeconds();
                const auto t0 = Clock::now();
                if (batched) {
                    std::vector<ditto::RolloutResult> res = model.rolloutBatch(mode, noises);
                    for (auto &rr : res)
                        images[mi].push_back(std::move(rr.finalImage));
                } else if (tracer.enabled()) {
                    // Traced rounds carry the full instrumentation of the
                    // traced run: a span per step through the observer.
                    ditto::RolloutResult res;
                    observedSteps(model, mode, noises[0], tracer, &res, nullptr, kCallSpan[mi], roundSpan);
                    images[mi].push_back(std::move(res.finalImage));
                } else {
                    images[mi].push_back(model.rollout(mode, noises[0]).finalImage);
                }
                const auto t1 = Clock::now();
                const double cpu1 = processCpuSeconds();
                if (batched)
                    tracer.span(kBatchSpan[mi], t0, t1, roundSpan);
                const double ms = msBetween(t0, t1);
                callMs[p][static_cast<size_t>(mi)].push_back(ms / shape.batch);
                rMs += ms;
                rCpu += (cpu1 - cpu0) * 1000.0;
                for (auto &img : images[mi])
                    ledger.maybeCorrupt(op, img);
            }

            // Checks (untimed). QuantDitto must equal QuantDirect bit for
            // bit; ApproxDitto must keep its quality floor against the
            // exact image of the same seed.
            for (int b = 0; b < shape.batch; ++b) {
                const size_t bi = static_cast<size_t>(b);
                const bool same = bitwiseEqual(images[kDitto][bi], images[kDirect][bi]);
                ledger.check(ops[kDitto], same, "QuantDitto != QuantDirect");
                const double q = std::min(psnrDb(images[kDirect][bi], images[kApprox][bi]), kPsnrCapDb);
                ledger.check(ops[kApprox], q >= kApproxFloorDb, "ApproxDitto below its PSNR floor");
                if (approxPsnr[p].size() < kPsnrImagesPerPreset)
                    approxPsnr[p].push_back(q);
                // Every slab against the single rollout of its seed. The
                // QuantDirect slab equals the QuantDitto slab (checked
                // above), so one exact reference covers both.
                if (batched) {
                    for (int mi : {kDitto, kApprox})
                        slabs.push_back({ops[mi], p, kModes[mi], seeds[bi], imageDigest(images[mi][bi])});
                }
                if (static_cast<int>(r) * shape.batch + b < kFp32ImagesPerPreset)
                    fp32.push_back({ops[kDirect], p, seeds[bi], images[kDirect][bi]});
            }
        }
        tracer.span("round", roundBegin, Clock::now(), 0, 0, roundSpan);
        roundMs.push_back(rMs);
        roundCpuMsPerImage.push_back(rCpu / imagesPerRound);
        (tracedRound ? tracedMs : untracedMs).push_back(rMs);
        peakRss = peakRssMb();
    }
    tracer.setActive(true);
    sched_setaffinity(0, sizeof allowed, &allowed);

    // Reference rollouts, outside the timed phase, on four threads that
    // each run their kernels serially (the 1-thread single path).
    ditto::setThreadCount(1);
    std::vector<uint8_t> okSlab(slabs.size(), 0), okFp32(fp32.size(), 0);
    parallelItems(slabs.size(), 4, [&](size_t i) {
        const PendingSlab &ps = slabs[i];
        const CompiledModel &m = models[ps.preset];
        okSlab[i] = imageDigest(m.rollout(ps.mode, m.requestNoise(ps.seed)).finalImage) == ps.digest;
    });
    parallelItems(fp32.size(), 4, [&](size_t i) {
        const PendingFp32 &pf = fp32[i];
        const CompiledModel &m = models[pf.preset];
        const FloatTensor ref = m.rollout(RunMode::Fp32, m.requestNoise(pf.seed)).finalImage;
        okFp32[i] = psnrDb(ref, pf.image) >= kDirectVsFp32FloorDb;
    });
    for (size_t i = 0; i < slabs.size(); ++i)
        ledger.check(slabs[i].op, okSlab[i], "batch slab != 1-thread single rollout");
    for (size_t i = 0; i < fp32.size(); ++i)
        ledger.check(fp32[i].op, okFp32[i], "QuantDirect below its PSNR floor against FP32");

    Outcome out;
    out.attempted = ledger.attempted();
    out.failed = ledger.failed();
    std::vector<double> psnrAll;
    for (const auto &v : approxPsnr)
        psnrAll.insert(psnrAll.end(), v.begin(), v.end());
    out.correct = psnrAll.size() == np * kPsnrImagesPerPreset && roundMs.size() >= 2;
    if (!out.correct)
        std::fprintf(stderr, "perfbench: too few rounds (%zu) for the fixed metrics\n",
                     roundMs.size());

    if (!o.trace) {
        std::array<std::vector<double>, kNumModes> perMode;
        for (size_t p = 0; p < np; ++p)
            for (int mi = 0; mi < kNumModes; ++mi)
                perMode[static_cast<size_t>(mi)].push_back(median(callMs[p][static_cast<size_t>(mi)]));
        const double p50 = median(roundMs);
        double psnrSum = 0.0;
        for (double q : psnrAll)
            psnrSum += q;
        out.add("setup_s", median(setupS), "s");
        out.add("peak_rss_mb", peakRss, "MiB");
        out.add("images_per_s", imagesPerRound / (p50 / 1000.0), "1/s");
        out.add("cpu_ms_per_image", median(roundCpuMsPerImage), "ms");
        out.add("ditto_ms", geomean(perMode[kDitto]), "ms");
        out.add("direct_ms", geomean(perMode[kDirect]), "ms");
        out.add("approx_ms", geomean(perMode[kApprox]), "ms");
        out.add("latency_p50_ms", p50, "ms");
        out.add("approx_psnr_db", psnrSum / static_cast<double>(std::max<size_t>(psnrAll.size(), 1)), "dB");
        std::fprintf(stderr, "perfbench: %s rounds=%zu setups=%zu\n", o.workload.c_str(),
                     roundMs.size(), setupS.size());
        return out;
    }

    addLayerProbes(out, models, shape.threads, tracer);
    addZeroServeMetrics(out);
    addHostMetrics(out, probeMs, tracedMs, untracedMs);
    const std::string path = o.workDir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
    if (!tracer.write(path))
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    else
        std::fprintf(stderr, "perfbench: %zu trace events in %s\n", tracer.spanCount(), path.c_str());
    return out;
}

} // namespace perfbench
