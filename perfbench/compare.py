#!/usr/bin/env python3
"""Collect benchmark result sets and judge them.

    # ten seeds of every workload from one checkout into results/run/
    python3 perfbench/compare.py collect --out results --seeds 1-10

    # parent and change, alternating which runs first for each seed
    python3 perfbench/compare.py collect --out results --seeds 1-10 \\
        --root parent=../parent-checkout --root change=.

    # run-to-run spread of one set against the bounds in BENCHMARK.json
    python3 perfbench/compare.py spread results/run

    # parent against change
    python3 perfbench/compare.py compare results/parent results/change

A result set is a directory of files named <workload>_<seed>.json, each
holding a run's output (its last non-empty line is the result object).

`compare` applies the rule of perfbench/README.md ("Comparing two commits"),
per workload and end-to-end metric:
  better      the change wins at least 9 in 10 seed-matched pairs (ties
              count for neither) and the medians differ by more than the
              parent's own quartile distance;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's spread (quartile distance over median) is
              wider than the bound, unless every change run beats every
              parent run (then: better);
  unchanged   otherwise.
Runs whose result reads "correct": false are dropped (with their seed
partner) and reported. A workload on which the change fails a larger
share of its operations than the parent is marked FAILED: none of its
metrics can read better. Exit code 1 when any metric regressed, any run
was dropped or any workload FAILED, else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def read_result(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def load_set(directory):
    """{workload: {seed: result}} of one result directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or "_" not in name:
            continue
        workload, seed = name[:-5].rsplit("_", 1)
        res = read_result(os.path.join(directory, name))
        if res is not None:
            out.setdefault(workload, {})[int(seed)] = res
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def metric_values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r.get("metrics", {})]


def failed_share(results):
    att = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / att if att else 0.0


def cmd_collect(args):
    bench = load_benchmark(args.benchmark)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = str(args.seconds or bench["run_seconds"])
    roots = []
    for spec in args.root or ["run=."]:
        label, _, path = spec.partition("=")
        roots.append((label, os.path.abspath(path)))
        os.makedirs(os.path.join(args.out, label), exist_ok=True)
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in workloads:
            order = roots if i % 2 == 0 else roots[::-1]
            for label, root in order:
                cmd = ["python3", os.path.join(root, "perfbench", "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", seconds, "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                path = os.path.join(args.out, label, "%s_%d.json" % (workload, seed))
                with open(path, "w") as f:
                    f.write(proc.stdout)
                last = proc.stdout.strip().splitlines()[-1:] or ["<no output>"]
                print("%-7s %-10s seed %-4d exit %d  %s" % (label, workload, seed, proc.returncode,
                                                          last[0][:120]), flush=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr[-2000:])
    return 0


def cmd_spread(args):
    bench = load_benchmark(args.benchmark)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    data = load_set(args.dir)
    worst = 0.0
    for workload, runs in sorted(data.items()):
        results = [runs[s] for s in sorted(runs)]
        print("%s: %d runs, failed share %.6g, all correct: %s" % (
            workload, len(results), failed_share(results), all(r["correct"] for r in results)))
        metrics = results[0]["metrics"].keys()
        for metric in metrics:
            vals = metric_values(results, metric)
            q1, q2, q3 = quartiles(vals)
            share = spread_share(vals)
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = "steady" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
                if metric != "setup_s":
                    worst = max(worst, share / bound)
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%  bound %-6s %s" % (
                metric, q2, q1, q3, 100 * share, "-" if bound is None else "%g%%" % (100 * bound), verdict))
    print("largest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


def cmd_compare(args):
    bench = load_benchmark(args.benchmark)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_set(args.parent), load_set(args.change)
    bad = False
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        dropped = [s for s in seeds if not (parent[workload][s]["correct"] and change[workload][s]["correct"])]
        seeds = [s for s in seeds if s not in dropped]
        pr = [parent[workload][s] for s in seeds]
        cr = [change[workload][s] for s in seeds]
        pf, cf = failed_share(pr), failed_share(cr)
        more_failed = cf > pf
        print("%s: %d seed-matched pairs; failed share parent %.6g change %.6g%s" % (
            workload, len(seeds), pf, cf, "  FAILED: the change fails more operations" if more_failed else ""))
        if dropped:
            print("  dropped seeds with a run that is not correct: %s" % ", ".join(map(str, dropped)))
        bad = bad or more_failed or bool(dropped)
        if not seeds:
            continue
        for metric in pr[0]["metrics"]:
            m = spec.get(metric, {})
            lower = m.get("better", "lower") == "lower"
            pv, cv = metric_values(pr, metric), metric_values(cr, metric)
            if len(pv) != len(cv) or not pv:
                continue
            wins = sum(1 for a, b in zip(pv, cv) if (b < a if lower else b > a))
            pq, cq = quartiles(pv), quartiles(cv)
            bound = m.get("bound")
            diff = cq[1] - pq[1]
            worse_by = (diff if lower else -diff) / pq[1] if pq[1] else 0.0
            all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
            if bound is None:
                verdict = "-"
            elif worse_by > bound:
                verdict = "REGRESSED"
                bad = True
            elif wins >= 0.9 * len(pv) and abs(diff) > pq[2] - pq[0]:
                verdict = "better"
            elif spread_share(pv) > bound:
                verdict = "better" if all_better else "unresolved"
            else:
                verdict = "unchanged"
            if more_failed and verdict == "better":
                verdict = "FAILED"
            print("  %-34s parent %-11.5g [%-11.5g %-11.5g] change %-11.5g [%-11.5g %-11.5g] "
                  "won %2d/%-2d %s" % (metric, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
                                       wins, len(pv), verdict))
    return 1 if bad else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK, help="BENCHMARK.json to read")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run seeds x workloads and store the results")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0, help="0: run_seconds of BENCHMARK.json")
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    c.add_argument("--root", action="append", help="LABEL=PATH of a checkout (repeatable)")
    s = sub.add_parser("spread", help="quartile spread of one result set")
    s.add_argument("dir")
    p = sub.add_parser("compare", help="judge a change against its parent")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args(argv)
    return {"collect": cmd_collect, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
