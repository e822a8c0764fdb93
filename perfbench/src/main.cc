/**
 * @file
 * perfbench: the repo benchmark.
 *
 *   perfbench --workload single_1t|batch8_4t|serve_dup --seed N
 *             --seconds S --trace 0|1 [--work-dir DIR]
 *   perfbench --self-test [--work-dir DIR]
 *
 * Prints diagnostics on stderr and, as the last line of stdout, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1 (which
 * also writes a Chrome trace_event file into the work directory). Exit
 * code 0 on a finished run, 1 on a failed self-test, 2 on bad usage.
 * perfbench/run.py builds this program and forwards its arguments.
 */
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload single_1t|batch8_4t|serve_dup --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n"
                 "       perfbench --self-test [--work-dir DIR]\n",
                 msg);
    return 2;
}

bool
parseU64(const char *s, uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end != '\0' || s[0] == '-')
        return false;
    *out = v;
    return true;
}

Outcome
runWorkload(const Options &o)
{
    std::error_code ec;
    std::filesystem::create_directories(o.workDir, ec);
    return o.workload == "serve_dup" ? runServe(o) : runOffline(o);
}

void
printJson(const Outcome &out)
{
    bool finite = true;
    for (const Metric &m : out.metrics)
        finite = finite && std::isfinite(m.value);
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                out.correct && finite ? "true" : "false",
                static_cast<long long>(out.attempted), static_cast<long long>(out.failed));
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

/**
 * Known-answer tests of the statistics, then one short run of every
 * workload with one operation's output altered: each must report
 * exactly that one operation as failed.
 */
int
selfTest(const std::string &work_dir)
{
    int bad = 0;
    auto expect = [&bad](bool ok, const char *what) {
        std::fprintf(stderr, "self-test %-44s %s\n", what, ok ? "ok" : "FAILED");
        bad += ok ? 0 : 1;
    };
    expect(near(percentile({5, 1, 4, 2, 3}, 0.5), 3.0), "percentile median of 1..5");
    expect(near(percentile({1, 2, 3, 4}, 0.25), 1.75), "percentile interpolates");
    expect(near(percentile({7}, 0.99), 7.0), "percentile of one value");
    expect(near(geomean({1, 4, 16}), 4.0), "geomean of 1,4,16");
    const Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25), "quartiles match Python");
    expect(near(iqrShare({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0), "IQR share of 1..10");

    // Operation 4 is deep_unet's QuantDitto call in the first round of
    // the offline workloads (modes run direct, ditto, approx per
    // preset); in serve_dup it is the fifth submitted request.
    for (const char *w : {"single_1t", "batch8_4t", "serve_dup"}) {
        Options o;
        o.workload = w;
        o.seed = 7;
        o.seconds = 1.0;
        o.corruptOp = 4;
        o.workDir = work_dir;
        const Outcome out = runWorkload(o);
        char what[96];
        std::snprintf(what, sizeof what, "%s reports the altered op (failed=%lld)", w,
                      static_cast<long long>(out.failed));
        expect(out.failed == 1 && out.attempted > 4, what);
    }
    std::fprintf(stderr, "self-test: %s\n", bad ? "FAILED" : "passed");
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool self = false, haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--self-test") {
            self = true;
        } else if (a == "--workload" && hasValue) {
            o.workload = argv[++i];
            haveWorkload = true;
        } else if (a == "--seed" && hasValue) {
            if (!parseU64(argv[++i], &o.seed))
                return usage("--seed takes a non-negative integer");
            haveSeed = true;
        } else if (a == "--seconds" && hasValue) {
            uint64_t s = 0;
            if (!parseU64(argv[++i], &s) || s < 1 || s > 600)
                return usage("--seconds takes a whole number from 1 to 600");
            o.seconds = static_cast<double>(s);
            haveSeconds = true;
        } else if (a == "--trace" && hasValue) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            o.trace = v == "1";
            haveTrace = true;
        } else if (a == "--work-dir" && hasValue) {
            o.workDir = argv[++i];
        } else {
            return usage(("unrecognized argument: " + a).c_str());
        }
    }
    if (self)
        return selfTest(o.workDir);
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are required");
    if (o.workload != "single_1t" && o.workload != "batch8_4t" && o.workload != "serve_dup")
        return usage(("unknown workload: " + o.workload).c_str());
    printJson(runWorkload(o));
    return 0;
}
