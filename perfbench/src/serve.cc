/**
 * @file
 * The serve_dup workload: a DenoiseServer over deep_unet with the
 * inter-request reuse cache on, 2 server workers x 1 kernel thread and
 * one client thread (this one).
 *
 * Traffic: half the requests draw their (seed, conditioning, mode)
 * identity from a small fixed pool (duplicates the reuse cache can
 * warm-start), half are fresh; modes are an even mix of QuantDitto,
 * QuantDirect and ApproxDitto and SLO classes mix 1:2:1
 * (interactive:standard:best-effort). The run alternates two kinds of
 * segment, each drained before the next, so a slow host phase hits
 * both alike:
 *   - closed loop: 16 requests outstanding, a new one submitted as each
 *     completes (saturation: images_per_s, cpu_ms_per_image);
 *   - open loop: Poisson arrivals at a fixed rate, about an eighth of
 *     the saturation rate measured on the seed commit, so that mostly
 *     one worker is busy at a time; each request is timed from when it
 *     was due (latencies and per-mode ms).
 * Between segments the run repeats the cold set-up and the host probe.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "common/parallel.h"
#include "harness.h"
#include "probes.h"
#include "runtime/presets.h"
#include "serve/server.h"
#include "tracer.h"

namespace perfbench {

namespace {

using ditto::CompiledModel;
using ditto::DenoiseRequest;
using ditto::DenoiseResult;
using ditto::FloatTensor;
using ditto::RunMode;

constexpr RunMode kModes[] = {RunMode::QuantDitto, RunMode::QuantDirect,
                              RunMode::ApproxDitto};
constexpr int kNumModes = 3;
constexpr int kDitto = 0, kDirect = 1, kApprox = 2;

constexpr int kWorkers = 2;
constexpr int kOutstanding = 16;       //!< closed-loop concurrency
constexpr double kOpenRatePerS = 40.0; //!< open-loop arrival rate
constexpr double kClosedSegS = 0.5;
constexpr double kOpenSegS = 2.0;
constexpr double kDupShare = 0.5;
// The reuse cache as the repo's own serving benches and tests run it:
// 64 MiB, checkpoint every 2 steps, a duplicate pool of 8 identities.
// The pool's checkpoints (8 x 4 x ~0.2 MiB of deep_unet DittoState) take
// a tenth of the budget; the rest holds the fresh requests' checkpoints
// until LRU eviction drops them.
constexpr int kPoolSize = 8;
constexpr int64_t kReuseCapBytes = 64ll << 20;
constexpr int kPsnrIdentities = 32;    //!< approx identities in approx_psnr_db
constexpr int kFp32Identities = 8;     //!< exact identities checked against FP32
constexpr double kPollSleepUs = 100.0;

/** A request's identity: what its image is a pure function of. */
struct Identity
{
    uint64_t seed = 0;
    uint64_t conditioning = 0;
    int mode = kDitto;
};

/** The seeded traffic plan: request i's identity and class. */
struct Plan
{
    uint64_t seed = 0;

    DenoiseRequest request(uint64_t i, Identity *id) const
    {
        const uint64_t u = deriveSeed(seed, i, 1);
        if (static_cast<double>(u >> 11) * 0x1.0p-53 < kDupShare) {
            const uint64_t k = deriveSeed(seed, i, 2) % kPoolSize;
            id->seed = deriveSeed(seed, 0x9001, k);
            id->conditioning = deriveSeed(seed, 0xC0DD, k);
            id->mode = static_cast<int>(k % kNumModes);
        } else {
            id->seed = deriveSeed(seed, i, 3);
            id->conditioning = deriveSeed(seed, i, 4);
            id->mode = static_cast<int>(deriveSeed(seed, i, 5) % kNumModes);
        }
        DenoiseRequest req;
        req.seed = id->seed;
        req.conditioning = id->conditioning;
        req.mode = kModes[id->mode];
        const uint64_t c = deriveSeed(seed, i, 6) % 4;
        req.slo = c == 0 ? ditto::SloClass::Interactive
                         : c == 3 ? ditto::SloClass::BestEffort : ditto::SloClass::Standard;
        return req;
    }

    /** Exponential inter-arrival gap of open-loop arrival j, in seconds. */
    double gapS(uint64_t j) const
    {
        const double u = (static_cast<double>(deriveSeed(seed, j, 7) >> 11) + 0.5) * 0x1.0p-53;
        return -std::log(u) / kOpenRatePerS;
    }
};

/** One submitted request, tracked until its result arrives. */
struct InFlight
{
    uint64_t ticket = 0;
    int64_t op = 0;
    Identity id;
    Clock::time_point due;
    bool paced = false; //!< open loop: latency counts from `due`
    uint64_t span = 0;
};

/** A served image waiting for its reference. */
struct Served
{
    int64_t op = 0;
    Identity id;
    int servedMode = kDitto; //!< after any overload degradation
    uint64_t digest = 0;
};

} // namespace

Outcome
runServe(const Options &o)
{
    ditto::setThreadCount(1);
    Tracer tracer(o.trace);
    const std::vector<ditto::ModelSpec> presets = {ditto::deepUnetSpec({})};
    std::vector<double> setupS;
    double s = 0.0;
    std::vector<CompiledModel> models;
    {
        ScopedSpan span(tracer, "compile.all");
        models = coldSetup(presets, o.workDir, &s);
    }
    setupS.push_back(s);
    const CompiledModel &model = models[0];
    // Warm-up (untimed): lazy one-time library work finishes first.
    for (RunMode m : kModes)
        model.rollout(m, model.requestNoise(1));

    ditto::ServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxWaitMicros = 2000;
    cfg.workers = kWorkers;
    // Far above anything the offered load can queue: no operation is
    // rejected, shed or degraded on a working server.
    cfg.queueCapacity = 1 << 16;
    cfg.shedHighWater = 1 << 15;
    cfg.shedLowWater = 1 << 14;
    cfg.reuse.capBytes = kReuseCapBytes;
    cfg.reuse.checkpointEvery = 2;

    OpLedger ledger(o.corruptOp);
    const Plan plan{o.seed};
    uint64_t nextReq = 0, nextArrival = 0;
    std::vector<Served> served;
    std::vector<double> closedIps, closedCpuMs, probeMs;
    // Closed-loop ms per image of each recorded cycle (0 when the segment
    // gave no figure); cycles 1, 3, ... are traced, 2, 4, ... are not.
    std::vector<double> cycleMsPerImg;
    std::vector<double> lat, lagMs, submitUs, queueMs, serviceMs;
    std::array<std::vector<double>, kNumModes> modeLat;
    uint64_t occSteps = 0, occRequests = 0, completed = 0;
    double peakRss = 0.0;
    ditto::ReuseCacheStats reuse;
    // Off during the first (warm-up) cycle: its requests are checked and
    // counted but not timed, so the reuse cache and the server's buffers
    // fill before anything is measured.
    bool recording = false;

    {
        ditto::DenoiseServer server(model, cfg);
        std::vector<InFlight> inflight;

        auto submit = [&](const Clock::time_point due, bool paced) {
            InFlight f;
            const DenoiseRequest req = plan.request(nextReq++, &f.id);
            f.op = ledger.begin();
            f.due = due;
            f.paced = paced;
            f.span = tracer.enabled() ? tracer.newId() : 0;
            const auto t0 = Clock::now();
            f.ticket = server.submit(req);
            const auto t1 = Clock::now();
            tracer.span("submit", t0, t1, f.span, f.ticket);
            if (recording) {
                submitUs.push_back(msBetween(t0, t1) * 1000.0);
                if (paced)
                    lagMs.push_back(msBetween(due, t0));
            }
            inflight.push_back(f);
        };
        // Collect every finished request; returns how many finished.
        auto collect = [&] {
            int done = 0;
            for (size_t i = 0; i < inflight.size();) {
                DenoiseResult res;
                if (!server.poll(inflight[i].ticket, &res)) {
                    ++i;
                    continue;
                }
                const auto now = Clock::now();
                const InFlight f = inflight[i];
                inflight[i] = inflight.back();
                inflight.pop_back();
                ++done;
                ++completed;
                tracer.span("request", f.due, now, 0, f.ticket, f.span);
                const bool ok = res.status == ditto::RequestStatus::Done;
                if (!ledger.check(f.op, ok, "request did not complete"))
                    continue;
                ledger.maybeCorrupt(f.op, res.image);
                int servedMode = f.id.mode;
                if (res.degraded)
                    servedMode = kApprox;
                served.push_back({f.op, f.id, servedMode, imageDigest(res.image)});
                if (!recording)
                    continue;
                queueMs.push_back(res.queueMicros / 1000.0);
                serviceMs.push_back(res.serviceMicros / 1000.0);
                // The latency figures count cold requests only, and the
                // overall median exact ones only. Warm starts (about half
                // the requests, at a third of the cold latency) and
                // ApproxDitto requests (half the exact latency) would put
                // a median at the seam between two populations, where it
                // jumps with their shares.
                if (f.paced && res.reusedSteps == 0) {
                    const double ms = msBetween(f.due, now);
                    if (f.id.mode != kApprox)
                        lat.push_back(ms);
                    modeLat[static_cast<size_t>(f.id.mode)].push_back(ms);
                }
            }
            return done;
        };
        auto pause = [] {
            std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(kPollSleepUs));
        };

        auto start = Clock::now();
        for (uint64_t cycle = 0;; ++cycle) {
            recording = cycle > 0;
            if (cycle == 1)
                start = Clock::now();
            if (recording && msBetween(start, Clock::now()) / 1000.0 >= o.seconds)
                break;
            // Server idle: repeat the cold set-up and probe the host.
            if (recording) {
                coldSetup(presets, o.workDir, &s);
                setupS.push_back(s);
                probeMs.push_back(hostProbeMs());
            }
            tracer.setActive(cycle % 2 == 1);
            if (tracer.enabled()) {
                const auto rs = server.reuseCache()->stats();
                tracer.counter("reuse.hits", Clock::now(), static_cast<double>(rs.hits));
                tracer.counter("reuse.bytes", Clock::now(), static_cast<double>(rs.bytes));
            }

            // Closed loop: keep kOutstanding in flight for kClosedSegS.
            {
                const ditto::ServerStats st0 = server.stats();
                const auto t0 = Clock::now();
                const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(kClosedSegS));
                for (int i = 0; i < kOutstanding; ++i)
                    submit(t0, false);
                // Throughput counts from the first completion to the last
                // one inside the window: the ramp while the first batches
                // form is left out, and the figure is not quantized to
                // whole completions per window.
                int inWindow = 0, firstDone = 0;
                Clock::time_point first, last;
                double cpuFirst = 0.0, cpuLast = 0.0;
                for (;;) {
                    const int done = collect();
                    const auto now = Clock::now();
                    if (now < end) {
                        if (done) {
                            const double cpu = processCpuSeconds();
                            if (inWindow == 0) {
                                first = now;
                                cpuFirst = cpu;
                                firstDone = done;
                            } else {
                                last = now;
                                cpuLast = cpu;
                            }
                            inWindow += done;
                        }
                        for (int i = 0; i < done; ++i)
                            submit(now, false);
                    } else if (inflight.empty()) {
                        break;
                    }
                    pause();
                }
                const ditto::ServerStats st1 = server.stats();
                tracer.span("segment.closed", t0, end);
                if (recording)
                    cycleMsPerImg.push_back(0.0);
                if (recording && last > first) {
                    // Images finished after the first completion event.
                    const double images = static_cast<double>(inWindow - firstDone);
                    const double ips = images / (msBetween(first, last) / 1000.0);
                    closedIps.push_back(ips);
                    closedCpuMs.push_back((cpuLast - cpuFirst) * 1000.0 / images);
                    cycleMsPerImg.back() = 1000.0 / ips;
                    occSteps += st1.steps - st0.steps;
                    occRequests += st1.stepRequests - st0.stepRequests;
                }
            }

            // Open loop: Poisson arrivals for kOpenSegS, then drain.
            {
                const auto t0 = Clock::now();
                std::vector<Clock::time_point> dues;
                double at = 0.0;
                for (;;) {
                    at += plan.gapS(nextArrival++);
                    if (at >= kOpenSegS)
                        break;
                    dues.push_back(t0 + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(at)));
                }
                size_t next = 0;
                for (;;) {
                    const auto now = Clock::now();
                    while (next < dues.size() && dues[next] <= now)
                        submit(dues[next++], true);
                    collect();
                    if (next == dues.size() && inflight.empty())
                        break;
                    pause();
                }
                tracer.span("segment.open", t0, Clock::now());
            }
            if (recording)
                peakRss = peakRssMb();
        }
        tracer.setActive(true);
        reuse = server.reuseCache()->stats();
        tracer.counter("reuse.hits", Clock::now(), static_cast<double>(reuse.hits));
        server.shutdown();
    }

    // Reference rollouts (untimed), one per distinct (identity, mode):
    // exact modes must equal model.rollout(mode, requestNoise(seed))
    // bit for bit, warm-started or not; ApproxDitto must equal the cold
    // ApproxDitto rollout and keep its floor against the exact image.
    // Walk the results in submission (plan) order so the identities the
    // FP32 check and approx_psnr_db take are fixed by the seed alone.
    std::sort(served.begin(), served.end(),
              [](const Served &a, const Served &b) { return a.op < b.op; });
    std::map<std::pair<uint64_t, int>, size_t> refIndex;
    std::vector<std::pair<uint64_t, int>> refs;
    std::vector<uint8_t> fp32Check;
    int exactRefs = 0;
    for (const Served &sv : served) {
        const auto key = std::make_pair(sv.id.seed, sv.servedMode);
        if (refIndex.emplace(key, refs.size()).second) {
            refs.push_back(key);
            const bool exact = sv.servedMode != kApprox;
            fp32Check.push_back(exact && exactRefs < kFp32Identities);
            exactRefs += exact ? 1 : 0;
        }
    }
    struct Ref
    {
        uint64_t digest = 0;
        double psnrVsExact = 0.0; //!< ApproxDitto only
        double psnrVsFp32 = 0.0;  //!< exact modes, first kFp32Identities only
    };
    std::vector<Ref> refOut(refs.size());
    std::atomic<size_t> nextRef{0};
    {
        std::vector<std::thread> pool;
        for (int w = 0; w < 4; ++w)
            pool.emplace_back([&] {
                for (size_t i = nextRef++; i < refs.size(); i = nextRef++) {
                    const FloatTensor noise = model.requestNoise(refs[i].first);
                    const FloatTensor img = model.rollout(kModes[refs[i].second], noise).finalImage;
                    refOut[i].digest = imageDigest(img);
                    if (refs[i].second == kApprox) {
                        const FloatTensor exact = model.rollout(RunMode::QuantDirect, noise).finalImage;
                        refOut[i].psnrVsExact = std::min(psnrDb(exact, img), kPsnrCapDb);
                    } else if (fp32Check[i]) {
                        const FloatTensor fp = model.rollout(RunMode::Fp32, noise).finalImage;
                        refOut[i].psnrVsFp32 = psnrDb(fp, img);
                    }
                }
            });
        for (auto &t : pool)
            t.join();
    }
    std::vector<double> psnr;
    std::vector<uint8_t> psnrTaken(refs.size(), 0);
    for (const Served &sv : served) {
        const size_t ri = refIndex.at({sv.id.seed, sv.servedMode});
        const Ref &rf = refOut[ri];
        ledger.check(sv.op, rf.digest == sv.digest, "served image != reference rollout");
        if (sv.servedMode == kApprox) {
            ledger.check(sv.op, rf.psnrVsExact >= kApproxFloorDb, "ApproxDitto below its PSNR floor");
            if (psnr.size() < kPsnrIdentities && !psnrTaken[ri]) {
                psnrTaken[ri] = 1;
                psnr.push_back(rf.psnrVsExact);
            }
        } else if (fp32Check[ri]) {
            ledger.check(sv.op, rf.psnrVsFp32 >= kDirectVsFp32FloorDb,
                         "exact image below its PSNR floor against FP32");
        }
    }

    Outcome out;
    out.attempted = ledger.attempted();
    out.failed = ledger.failed();
    out.correct = psnr.size() == kPsnrIdentities && !closedIps.empty();
    if (!out.correct)
        std::fprintf(stderr, "perfbench: too little traffic for the fixed metrics\n");

    if (!o.trace) {
        double psum = 0.0;
        for (double q : psnr)
            psum += q;
        out.add("setup_s", median(setupS), "s");
        out.add("peak_rss_mb", peakRss, "MiB");
        out.add("images_per_s", median(closedIps), "1/s");
        out.add("cpu_ms_per_image", median(closedCpuMs), "ms");
        out.add("ditto_ms", median(modeLat[kDitto]), "ms");
        out.add("direct_ms", median(modeLat[kDirect]), "ms");
        out.add("approx_ms", median(modeLat[kApprox]), "ms");
        out.add("latency_p50_ms", median(lat), "ms");
        out.add("approx_psnr_db", psum / static_cast<double>(std::max<size_t>(psnr.size(), 1)), "dB");
        std::fprintf(stderr,
                     "perfbench: serve_dup cold_exact_paced=%zu closed_segments=%zu setups=%zu "
                     "hit_rate=%.3f evictions=%llu occupancy=%.2f\n",
                     lat.size(), closedIps.size(), setupS.size(), reuse.hitRate(),
                     static_cast<unsigned long long>(reuse.evictions),
                     occSteps ? static_cast<double>(occRequests) / static_cast<double>(occSteps) : 0.0);
        return out;
    }

    addLayerProbes(out, models, 1, tracer);
    out.add("serve.queue_ms_p50", median(queueMs), "ms");
    out.add("serve.service_ms_p50", median(serviceMs), "ms");
    out.add("serve.submit_us_p50", median(submitUs), "us");
    out.add("serve.batch_occupancy",
            occSteps ? static_cast<double>(occRequests) / static_cast<double>(occSteps) : 0.0, "req/step");
    out.add("serve.generator_lag_ms_p99", percentile(lagMs, 0.99), "ms");
    out.add("reuse.hit_rate", reuse.hitRate(), "ratio");
    out.add("reuse.steps_saved_per_request",
            completed ? static_cast<double>(reuse.stepsSaved) / static_cast<double>(completed) : 0.0, "steps");
    out.add("reuse.resident_mb", static_cast<double>(reuse.bytes) / (1024.0 * 1024.0), "MiB");
    out.add("reuse.evictions", static_cast<double>(reuse.evictions), "count");
    std::vector<double> tracedMsPerImg, untracedMsPerImg;
    for (size_t i = 0; i + 1 < cycleMsPerImg.size(); i += 2) {
        if (cycleMsPerImg[i] > 0 && cycleMsPerImg[i + 1] > 0) {
            tracedMsPerImg.push_back(cycleMsPerImg[i]);
            untracedMsPerImg.push_back(cycleMsPerImg[i + 1]);
        }
    }
    addHostMetrics(out, probeMs, tracedMsPerImg, untracedMsPerImg);
    const std::string path = o.workDir + "/trace-serve_dup-" + std::to_string(o.seed) + ".json";
    if (!tracer.write(path))
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    else
        std::fprintf(stderr, "perfbench: %zu trace events in %s\n", tracer.spanCount(), path.c_str());
    return out;
}

} // namespace perfbench
