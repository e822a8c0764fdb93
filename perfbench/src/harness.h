/**
 * @file
 * Shared pieces of the repo benchmark: run options, the result record,
 * order statistics, host probes, model set-up and the per-operation
 * output checker. See perfbench/README.md for what each workload runs
 * and why.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/compiled.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Seconds of CPU time used by the whole process so far. */
double processCpuSeconds();

/** Peak resident set size of the process so far, in MiB. */
double peakRssMb();

/** SplitMix64 finalizer: the benchmark's own seed derivation. */
uint64_t mixSeed(uint64_t x);

/** Derive an independent 64-bit value from a seed and two keys. */
uint64_t deriveSeed(uint64_t seed, uint64_t k0, uint64_t k1 = 0);

/**
 * @name Order statistics
 * All take their input by value (they sort a copy) and return 0 on an
 * empty input.
 * @{
 */

/** Linear-interpolation percentile, q in [0, 1] (numpy's default). */
double percentile(std::vector<double> v, double q);

double median(std::vector<double> v);

/** Geometric mean of strictly positive values. */
double geomean(const std::vector<double> &v);

/**
 * Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
 * default "exclusive" method), so figures printed here and by
 * perfbench/compare.py agree. Needs at least two values.
 */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/** (q3 - q1) / median: the run-to-run spread the bounds are held to. */
double iqrShare(const std::vector<double> &v);

/** @} */

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /**
     * Self-test hook: alter the output image of this operation (0-based
     * attempt index) before it is checked; -1 disables. A working
     * checker reports exactly that operation as failed.
     */
    int64_t corruptOp = -1;

    /** Directory for calibration caches and trace files. */
    std::string workDir = ".bench_build/perfbench-work";
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run prints as its final JSON line. */
struct Outcome
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/**
 * Per-operation bookkeeping: every timed call is one operation, and any
 * failed check marks it failed (once, however many checks fail).
 */
class OpLedger
{
  public:
    explicit OpLedger(int64_t corrupt_op) : corruptOp_(corrupt_op) {}

    /** Register a new operation; returns its index. */
    int64_t begin()
    {
        failed_.push_back(0);
        return static_cast<int64_t>(failed_.size()) - 1;
    }

    /** Apply the self-test alteration if `op` is the chosen one. */
    void maybeCorrupt(int64_t op, ditto::FloatTensor &img) const;

    /** Record a check result for `op`; returns `ok`. */
    bool check(int64_t op, bool ok, const char *what);

    int64_t attempted() const
    {
        return static_cast<int64_t>(failed_.size());
    }
    int64_t failed() const;

  private:
    int64_t corruptOp_ = -1;
    std::vector<uint8_t> failed_;
    int64_t reported_ = 0;
};

/** Bitwise equality of two float tensors (shape and every bit). */
bool bitwiseEqual(const ditto::FloatTensor &a, const ditto::FloatTensor &b);

/**
 * 64-bit FNV-1a digest of a tensor's shape and bytes: a compact stand-in
 * for a stored image when a bitwise comparison is deferred.
 */
uint64_t imageDigest(const ditto::FloatTensor &t);

/** PSNR of `img` against `ref` in dB (+inf when identical). */
double psnrDb(const ditto::FloatTensor &ref, const ditto::FloatTensor &img);

/**
 * @name Quality floors
 * QuantDirect against FP32 and ApproxDitto against the exact image of
 * the same seed. Both sit well below every preset's measured value and
 * the ApproxDitto one below FIDELITY_goldens.json's lowest floor.
 * @{
 */
inline constexpr double kDirectVsFp32FloorDb = 35.0;
inline constexpr double kApproxFloorDb = 25.0;
/** @} */

/** PSNR reported for an identical pair, kept finite so means stay defined. */
inline constexpr double kPsnrCapDb = 99.0;

/**
 * The five shipped presets in the fixed round order: mini_unet,
 * deep_unet, dit_block, mhsa_block, dit_adaln.
 */
std::vector<ditto::ModelSpec> allPresets();

/**
 * Compile options pinned by the benchmark (the environment's ApproxDitto
 * knobs must not move its figures): threshold 0.5, at most 3
 * consecutive skips, the defaults FIDELITY_goldens.json was taken at.
 */
ditto::CompileOptions benchCompileOptions();

/**
 * Cold set-up: compile and calibrate every preset against a fresh,
 * empty calibration cache directory under `work_dir`, so the real
 * calibration runs every time. Returns the models; *seconds receives
 * the wall time of the whole set-up.
 */
std::vector<ditto::CompiledModel>
coldSetup(const std::vector<ditto::ModelSpec> &specs, const std::string &work_dir,
          double *seconds);

/**
 * Fixed integer loop in the benchmark's own code; returns its wall time
 * in ms. Interleaved with the work so that a run that fell into a slow
 * host phase shows, never used to rescale anything.
 */
double hostProbeMs();

/** Workload entry points; `o.workload` selects the variant. */
Outcome runOffline(const Options &o);
Outcome runServe(const Options &o);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
