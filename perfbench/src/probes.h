/**
 * @file
 * Per-layer probes of the traced run: step timing through the public
 * StepObserver hook, OpCounts ratios, thread-pool dispatch and scaling.
 */
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <vector>

#include "harness.h"
#include "tracer.h"

namespace perfbench {

/**
 * One rollout through the public StepObserver hook, with a "step" span
 * per step under a `span` span (itself under `parent_span`) when tracing
 * is on. Returns the step times in ms; *state_bytes (if given) receives
 * the DittoState size after the last step.
 */
std::vector<double> observedSteps(const ditto::CompiledModel &m, ditto::RunMode mode,
                                  const ditto::FloatTensor &noise, Tracer &tracer,
                                  ditto::RolloutResult *res, int64_t *state_bytes,
                                  const char *span = "rollout.observed",
                                  uint64_t parent_span = 0);

/**
 * Run the runtime / core / parallel probes on `models` at `threads`
 * kernel threads and append their metrics (runtime.*, core.*,
 * parallel.*). Inputs are fixed (independent of the run seed), so the
 * count metrics repeat exactly across runs. Leaves the pool at
 * `threads` threads.
 */
void addLayerProbes(Outcome &out,
                    const std::vector<ditto::CompiledModel> &models,
                    int threads, Tracer &tracer);

/** serve.* and reuse.* reported as 0 by workloads that bypass them. */
void addZeroServeMetrics(Outcome &out);

/**
 * Median of the host probe samples, and the tracing overhead: the median
 * over i of traced_ms[i] / untraced_ms[i], less one. Entry i of the two
 * lists is a pair of neighbouring rounds (segments) run alike but for
 * tracing, so a slow host phase cancels out of each ratio.
 */
void addHostMetrics(Outcome &out, const std::vector<double> &probe_ms,
                    const std::vector<double> &traced_ms,
                    const std::vector<double> &untraced_ms);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
