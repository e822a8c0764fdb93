#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <limits>

#include <sys/resource.h>

#include "runtime/presets.h"
#include "stats/fidelity.h"

namespace perfbench {

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
mixSeed(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

uint64_t
deriveSeed(uint64_t seed, uint64_t k0, uint64_t k1)
{
    return mixSeed(mixSeed(mixSeed(seed) ^ k0) ^ (k1 * 0xD1B54A32D192ED03ULL));
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    const int64_t ld = static_cast<int64_t>(v.size());
    if (ld < 2)
        return q;
    std::sort(v.begin(), v.end());
    // statistics.quantiles(method="exclusive") with n = 4.
    const int64_t n = 4, m = ld + 1;
    double cut[3];
    for (int64_t i = 1; i < n; ++i) {
        int64_t j = std::clamp<int64_t>(i * m / n, 1, ld - 1);
        const int64_t delta = i * m - j * n;
        cut[i - 1] = (v[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
                      v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                     static_cast<double>(n);
    }
    q.q1 = cut[0];
    q.q2 = cut[1];
    q.q3 = cut[2];
    return q;
}

double
iqrShare(const std::vector<double> &v)
{
    const Quartiles q = quartiles(v);
    return q.q2 != 0.0 ? (q.q3 - q.q1) / q.q2 : 0.0;
}

void
OpLedger::maybeCorrupt(int64_t op, ditto::FloatTensor &img) const
{
    if (op != corruptOp_ || img.numel() == 0)
        return;
    // Flip the lowest mantissa bit of one element: the smallest change
    // a bitwise check can see.
    float &v = img.data()[0];
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1u;
    std::memcpy(&v, &bits, sizeof bits);
}

bool
OpLedger::check(int64_t op, bool ok, const char *what)
{
    if (!ok && !failed_[static_cast<size_t>(op)]) {
        failed_[static_cast<size_t>(op)] = 1;
        if (reported_++ < 8)
            std::fprintf(stderr, "perfbench: operation %lld failed: %s\n",
                         static_cast<long long>(op), what);
    }
    return ok;
}

int64_t
OpLedger::failed() const
{
    return static_cast<int64_t>(std::count(failed_.begin(), failed_.end(), 1));
}

bool
bitwiseEqual(const ditto::FloatTensor &a, const ditto::FloatTensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

uint64_t
imageDigest(const ditto::FloatTensor &t)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    auto feed = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001B3ULL;
        }
    };
    for (int i = 0; i < t.shape().rank(); ++i) {
        const int64_t d = t.shape().dim(i);
        feed(&d, sizeof d);
    }
    feed(t.data().data(), static_cast<size_t>(t.numel()) * sizeof(float));
    return h;
}

double
psnrDb(const ditto::FloatTensor &ref, const ditto::FloatTensor &img)
{
    if (ref.shape() != img.shape())
        return -std::numeric_limits<double>::infinity();
    return ditto::compareImages(ref, img).psnrDb;
}

std::vector<ditto::ModelSpec>
allPresets()
{
    return {ditto::miniUnetSpec({}), ditto::deepUnetSpec({}), ditto::ditBlockSpec({}),
            ditto::mhsaBlockSpec({}), ditto::ditAdaLnSpec({})};
}

ditto::CompileOptions
benchCompileOptions()
{
    ditto::CompileOptions opts;
    opts.approxSkipThresh = 0.5;
    opts.approxMaxConsec = 3;
    return opts;
}

std::vector<ditto::CompiledModel>
coldSetup(const std::vector<ditto::ModelSpec> &specs, const std::string &work_dir,
          double *seconds)
{
    const std::string dir = work_dir + "/calib-cache";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    // The library reads DITTO_CACHE_DIR on every lookup; pointing it at
    // an empty directory makes every compile() calibrate for real and
    // keeps any user cache out of the measurement. Written only when it
    // changes: later set-ups run while server threads exist.
    const char *cur = std::getenv("DITTO_CACHE_DIR");
    if (!cur || dir != cur)
        setenv("DITTO_CACHE_DIR", dir.c_str(), 1);
    if (std::getenv("DITTO_NO_CACHE"))
        unsetenv("DITTO_NO_CACHE");

    const auto t0 = Clock::now();
    std::vector<ditto::CompiledModel> models;
    models.reserve(specs.size());
    for (const ditto::ModelSpec &spec : specs)
        models.push_back(ditto::compile(spec, benchCompileOptions()));
    *seconds = msBetween(t0, Clock::now()) / 1000.0;
    return models;
}

double
hostProbeMs()
{
    const auto t0 = Clock::now();
    uint64_t x = 0x243F6A8885A308D3ULL;
    for (int i = 0; i < 200000; ++i)
        x = mixSeed(x + static_cast<uint64_t>(i));
    // Keep the loop's result observable so it cannot be folded away.
    asm volatile("" : : "r"(x));
    return msBetween(t0, Clock::now());
}

} // namespace perfbench
