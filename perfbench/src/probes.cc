#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/parallel.h"
#include "runtime/presets.h"

namespace perfbench {

namespace {

using ditto::FloatTensor;
using ditto::RunMode;

/** Fixed probe input: independent of the run seed. */
constexpr uint64_t kProbeSeed = 0x5EED'0F'D177'0ULL;
constexpr int kProbeReps = 7;

int64_t
stateBytes(const ditto::CompiledModel::DittoState &s)
{
    int64_t b = 0;
    for (const auto &t : s.prevIn)
        b += t.numel() * static_cast<int64_t>(sizeof(int8_t));
    for (const auto &t : s.prevOut)
        b += t.numel() * static_cast<int64_t>(sizeof(int32_t));
    b += static_cast<int64_t>(s.consec.size() * sizeof(int32_t) +
                              s.skips.size() * sizeof(int64_t));
    return b;
}

double
dispatchUs()
{
    const ditto::RangeFn noop = [](int64_t, int64_t) {};
    const int64_t n = 4 * ditto::threadCount();
    std::vector<double> us;
    for (int rep = 0; rep < 9; ++rep) {
        constexpr int kCalls = 200;
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            ditto::parallelFor(0, n, 1, noop);
        us.push_back(msBetween(t0, Clock::now()) * 1000.0 / kCalls);
    }
    return median(us);
}

} // namespace

std::vector<double>
observedSteps(const ditto::CompiledModel &m, RunMode mode, const FloatTensor &noise,
              Tracer &tracer, ditto::RolloutResult *res, int64_t *state_bytes,
              const char *span, uint64_t parent_span)
{
    std::vector<double> steps;
    const auto t0 = Clock::now();
    auto prev = t0;
    const uint64_t parent = tracer.enabled() ? tracer.newId() : 0;
    const ditto::CompiledModel::StepObserver obs =
        [&](int, const FloatTensor &, const ditto::CompiledModel::DittoState &s) {
            const auto now = Clock::now();
            steps.push_back(msBetween(prev, now));
            tracer.span("step", prev, now, parent);
            if (state_bytes)
                *state_bytes = stateBytes(s);
            prev = Clock::now(); // exclude the observer's own work
        };
    *res = m.rollout(mode, noise, 0, obs);
    tracer.span(span, t0, Clock::now(), parent_span, 0, parent);
    return steps;
}

void
addLayerProbes(Outcome &out, const std::vector<ditto::CompiledModel> &models, int threads,
               Tracer &tracer)
{
    ditto::setThreadCount(threads);
    std::vector<double> first, diff, direct, approx, b1ratio;
    double stateSum = 0, diffCalc = 0, summation = 0, skips = 0, reused = 0;
    ditto::OpCounts core;
    for (size_t p = 0; p < models.size(); ++p) {
        const ditto::CompiledModel &m = models[p];
        const FloatTensor noise = m.requestNoise(kProbeSeed);
        std::vector<double> pf, pd, pdir, papx, pb1;
        for (int rep = 0; rep < kProbeReps; ++rep) {
            ditto::RolloutResult rd, rdir, rapx;
            int64_t sb = 0;
            const auto sd = observedSteps(m, RunMode::QuantDitto, noise, tracer, &rd, &sb);
            pf.push_back(sd.front());
            pd.push_back(median(std::vector<double>(sd.begin() + 1, sd.end())));
            const auto sdir = observedSteps(m, RunMode::QuantDirect, noise, tracer, &rdir, nullptr);
            pdir.push_back(median(sdir));
            const auto sapx = observedSteps(m, RunMode::ApproxDitto, noise, tracer, &rapx, nullptr);
            papx.push_back(median(sapx));

            // Batch-of-one against the single path (base: rollout()).
            const auto t0 = Clock::now();
            m.rollout(RunMode::QuantDitto, noise);
            const auto t1 = Clock::now();
            m.rolloutBatch(RunMode::QuantDitto, std::span(&noise, 1));
            const auto t2 = Clock::now();
            pb1.push_back(msBetween(t1, t2) / msBetween(t0, t1));

            if (rep == 0) {
                // Counts are a pure function of (model, noise, mode).
                stateSum += static_cast<double>(sb);
                diffCalc += static_cast<double>(rd.dittoOps.diffCalcElems);
                summation += static_cast<double>(rd.dittoOps.summationElems);
                core.merge(rd.dittoOps);
                int64_t s = 0;
                for (int64_t k : rapx.nodeSkips)
                    s += k;
                skips += static_cast<double>(s);
                reused += static_cast<double>(rapx.dittoOps.reusedElems);
            }
        }
        first.push_back(median(pf));
        diff.push_back(median(pd));
        direct.push_back(median(pdir));
        approx.push_back(median(papx));
        b1ratio.push_back(median(pb1));
    }
    const double n = static_cast<double>(models.size());
    out.add("runtime.first_step_ms", geomean(first), "ms");
    out.add("runtime.diff_step_ms", geomean(diff), "ms");
    out.add("runtime.direct_step_ms", geomean(direct), "ms");
    out.add("runtime.approx_step_ms", geomean(approx), "ms");
    out.add("runtime.batch1_over_single", geomean(b1ratio), "ratio");
    out.add("runtime.state_bytes", stateSum / n, "B");
    out.add("runtime.diffcalc_elems_per_image", diffCalc / n, "count");
    out.add("runtime.summation_elems_per_image", summation / n, "count");
    out.add("runtime.approx_skips_per_image", skips / n, "count");
    out.add("runtime.reused_elems_per_image", reused / n, "count");
    // Shares of the multiplies the diff steps issued; bops_vs_direct is
    // their BOPs over the same multiplies all on the 8-bit lane.
    const double total = static_cast<double>(std::max<int64_t>(core.total(), 1));
    out.add("core.zero_frac", static_cast<double>(core.zeroSkipped) / total, "ratio");
    out.add("core.low4_frac", static_cast<double>(core.low4) / total, "ratio");
    out.add("core.full8_frac", static_cast<double>(core.full8) / total, "ratio");
    out.add("core.bops_vs_direct", static_cast<double>(core.bops()) / (64.0 * total), "ratio");

    out.add("parallel.dispatch_us", dispatchUs(), "us");

    // The same 8-request batch of one fixed preset at 1 and 4 threads,
    // alternating so a host phase hits both counts alike.
    const ditto::CompiledModel probe =
        ditto::compile(ditto::ditBlockSpec({}), benchCompileOptions());
    std::vector<FloatTensor> noises;
    for (uint64_t i = 0; i < 8; ++i)
        noises.push_back(probe.requestNoise(kProbeSeed + i));
    std::vector<double> t1, t4;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        for (int th : {1, 4}) {
            ditto::setThreadCount(th);
            const auto t0 = Clock::now();
            probe.rolloutBatch(RunMode::QuantDitto, noises);
            (th == 1 ? t1 : t4).push_back(msBetween(t0, Clock::now()));
            tracer.span(th == 1 ? "rolloutBatch.1t" : "rolloutBatch.4t", t0, Clock::now());
        }
    }
    out.add("parallel.batch_1t_ms", median(t1), "ms");
    out.add("parallel.batch_4t_ms", median(t4), "ms");
    ditto::setThreadCount(threads);
}

void
addZeroServeMetrics(Outcome &out)
{
    const struct
    {
        const char *name;
        const char *unit;
    } kServeMetrics[] = {
        {"serve.queue_ms_p50", "ms"},          {"serve.service_ms_p50", "ms"},
        {"serve.submit_us_p50", "us"},         {"serve.batch_occupancy", "req/step"},
        {"serve.generator_lag_ms_p99", "ms"},  {"reuse.hit_rate", "ratio"},
        {"reuse.steps_saved_per_request", "steps"}, {"reuse.resident_mb", "MiB"},
        {"reuse.evictions", "count"},
    };
    for (const auto &m : kServeMetrics)
        out.add(m.name, 0.0, m.unit);
}

void
addHostMetrics(Outcome &out, const std::vector<double> &probe_ms,
               const std::vector<double> &traced_ms,
               const std::vector<double> &untraced_ms)
{
    out.add("host.probe_ms", median(probe_ms), "ms");
    std::vector<double> ratios;
    for (size_t i = 0; i < std::min(traced_ms.size(), untraced_ms.size()); ++i)
        if (untraced_ms[i] > 0)
            ratios.push_back(traced_ms[i] / untraced_ms[i]);
    out.add("trace.overhead_pct", ratios.empty() ? 0.0 : (median(ratios) - 1.0) * 100.0, "%");
}

} // namespace perfbench
