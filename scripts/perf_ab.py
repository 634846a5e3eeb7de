#!/usr/bin/env python3
"""Alternating A/B runs of the repository benchmark between two checkouts.

Usage (from the repository root):

    python3 scripts/perf_ab.py --base HEAD --workload ingest --seed 1 \\
        --claim visible_p50_us
    python3 scripts/perf_ab.py --base main --change my-branch \\
        --workload serve --seed 101 --pairs 5 --seconds 10
    python3 scripts/perf_ab.py --base HEAD --workload ingest --trace
    python3 scripts/perf_ab.py --self-test

The base side is REF checked out with `git worktree` under --workdir
(default .perf_ab/ at the repository root), one directory per commit. The
change side is the working tree itself unless --change names a REF, which
gets a worktree too. Each side therefore keeps its own .bench_build/, and a
worktree is reused by later invocations; `git worktree remove` drops one.

Each side first runs once for one second, which builds it and is discarded.
Then every pair runs BENCHMARK.json's `command` with --workload, --seed,
--seconds and --trace 0 on both sides, alternating which side goes first.
The last stdout line of a run is its JSON result.

For every end-to-end metric in BENCHMARK.json the report gives each side's
median and quartiles (statistics.quantiles, n=4), the number of pairs the
change won, and a verdict:

  met / not met  the --claim metric: met when the change wins at least 9 of
                 every 10 pairs and its median is better than the base's by
                 more than the base's interquartile range;
  unresolved     the base's spread (IQR over median) is wider than the
                 metric's bound and the two sides' runs overlap (neither
                 side's every run is beyond the other's), so the runs
                 cannot tell;
  worse          the change's median is worse than the base's by more than
                 the bound (as a share of the base median);
  ok             otherwise.

With --trace every run is a traced run (--trace 1), and the report covers
BENCHMARK.json's per-layer metrics instead: each side's median and
quartiles, the change's delta and its wins, and no verdict, since the
per-layer metrics carry no bounds. A traced run spends at most 10 s on
its passes, whatever --seconds says.

A run that exits nonzero, prints no JSON result, reports `correct` false, or
reports more `failed` operations than the other run of its pair fails the
comparison. The exit code is 0 when no run failed, no metric is worse or
unresolved, and the claim (if any) is met; otherwise 1.

--self-test checks the statistics and verdicts on built-in samples; it
builds and runs nothing.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLAIM_WIN_SHARE = 0.9


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---- statistics and verdicts ---------------------------------------------


def quartiles(values):
    """(q1, median, q3) of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def change_wins(spec, base, change):
    """Pairs (base[i], change[i]) in which the change is strictly better."""
    lower = spec["better"] == "lower"
    return sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))


def summarize(spec, base, change):
    """Quartiles, wins and delta of one metric over paired runs, with no
    verdict (the per-layer metrics have no bounds)."""
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    return {"name": spec["name"], "base": (b_q1, b_med, b_q3),
            "change": (c_q1, c_med, c_q3),
            "wins": change_wins(spec, base, change), "pairs": len(base),
            "delta": (c_med - b_med) / b_med if b_med else math.nan,
            "verdict": None}


def verdict(spec, base, change, claimed):
    """Summary of one metric over paired runs; `claimed` marks the claim."""
    lower = spec["better"] == "lower"
    summary = summarize(spec, base, change)
    b_q1, b_med, b_q3 = summary["base"]
    c_med = summary["change"][1]
    wins = summary["wins"]
    base_iqr = b_q3 - b_q1
    # Positive when the change is worse, as a share of the base median.
    worse_by = (c_med - b_med) if lower else (b_med - c_med)
    worse_share = worse_by / abs(b_med) if b_med else (
        math.inf if worse_by > 0 else 0.0)
    spread = base_iqr / abs(b_med) if b_med else (
        math.inf if base_iqr > 0 else 0.0)
    overlap = min(base) <= max(change) and min(change) <= max(base)
    if claimed:
        met = (wins >= math.ceil(CLAIM_WIN_SHARE * len(base))
               and -worse_by > base_iqr)
        label = "met" if met else "not met"
    elif spread > spec["bound"] and overlap:
        label = "unresolved"
    elif worse_share > spec["bound"]:
        label = "worse"
    else:
        label = "ok"
    summary["verdict"] = label
    return summary


def run_failures(pairs):
    """Why each failing run fails; `pairs` holds (base, change) results,
    each a parsed JSON result or None for a run that printed none."""
    problems = []
    for i, (base, change) in enumerate(pairs, 1):
        for side, mine, other in (("base", base, change),
                                  ("change", change, base)):
            if mine is None:
                problems.append("pair %d %s: no result" % (i, side))
            elif not mine.get("correct"):
                problems.append("pair %d %s: correct is false" % (i, side))
            elif other is not None and (mine.get("failed", 0)
                                        > other.get("failed", 0)):
                problems.append("pair %d %s: %d failed, the other side %d" % (
                    i, side, mine["failed"], other.get("failed", 0)))
    return problems


def passed(summaries, problems):
    return not problems and all(
        s["verdict"] in (None, "ok", "met") for s in summaries)


def format_report(summaries, problems):
    lines = ["%-28s %30s %30s %7s %6s  %s" % (
        "metric", "base q1/median/q3", "change q1/median/q3", "delta",
        "wins", "verdict")]
    for s in summaries:
        lines.append("%-28s %30s %30s %+6.1f%% %3d/%-2d  %s" % (
            s["name"], "%.4g / %.4g / %.4g" % s["base"],
            "%.4g / %.4g / %.4g" % s["change"], 100.0 * s["delta"],
            s["wins"], s["pairs"], s["verdict"] or "-"))
    lines.extend("FAILED RUN: " + p for p in problems)
    lines.append("perf_ab: %s" % ("pass" if passed(summaries, problems)
                                   else "FAIL"))
    return "\n".join(lines)


# ---- running the benchmark ------------------------------------------------


def git(*args, cwd=ROOT):
    done = subprocess.run(["git", "-C", cwd] + list(args),
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit("perf_ab: git %s failed: %s" % (" ".join(args),
                                                 done.stderr.strip()))
    return done.stdout.strip()


def worktree(ref, workdir):
    """A checkout of `ref` under `workdir`, created or reused."""
    sha = git("rev-parse", "--verify", ref + "^{commit}")
    path = os.path.join(workdir, sha[:12])
    if os.path.isdir(path):
        probe = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0 and probe.stdout.strip() == sha:
            return path
        git("worktree", "remove", "--force", path)
    os.makedirs(workdir, exist_ok=True)
    git("worktree", "add", "--detach", path, sha)
    return path


def bench_command(bench, args, seconds):
    return bench["command"] + ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(seconds),
                               "--trace", "1" if args.trace else "0"]


def run_once(bench, side_dir, args, seconds):
    cmd = bench_command(bench, args, seconds)
    done = subprocess.run(cmd, cwd=side_dir, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def compare(args):
    bench = load_benchmark()
    workdir = os.path.abspath(args.workdir)
    sides = {"base": worktree(args.base, workdir),
             "change": (worktree(args.change, workdir) if args.change
                        else ROOT)}
    for name, path in sides.items():
        print("%s: %s" % (name, path), flush=True)
        if run_once(bench, path, args, 1) is None:
            sys.exit("perf_ab: the %s side failed its warm-up run" % name)

    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        result = {side: run_once(bench, sides[side], args, args.seconds)
                  for side in order}
        pairs.append((result["base"], result["change"]))
        print("pair %d/%d (%s first): %s" % (
            i + 1, args.pairs, order[0], "  ".join(
                "%s %s" % (side, "FAILED" if result[side] is None else
                           json.dumps({k: v["value"] for k, v in
                                       result[side]["metrics"].items()}))
                for side in ("base", "change"))), flush=True)

    problems = run_failures(pairs)
    summaries = []
    for spec in bench["per_layer" if args.trace else "end_to_end"]:
        name = spec["name"]
        both = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                for b, c in pairs
                if b and c and name in b["metrics"] and name in c["metrics"]]
        if len(both) >= 2:
            base, change = (list(side) for side in zip(*both))
            summaries.append(summarize(spec, base, change) if args.trace
                             else verdict(spec, base, change,
                                          name == args.claim))
    print("%s seed %d, %d %spairs of %d s" % (
        args.workload, args.seed, args.pairs,
        "traced " if args.trace else "", args.seconds))
    print(format_report(summaries, problems))
    return 0 if passed(summaries, problems) else 1


# ---- self-test ------------------------------------------------------------


def self_test():
    lower = {"name": "visible_p50_us", "better": "lower", "bound": 0.25}
    higher = {"name": "throughput_per_s", "better": "higher", "bound": 0.25}
    failures = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    expect(quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5),
           "quartiles use statistics.quantiles(n=4)")
    base = [100, 102, 98, 101, 99, 103, 97, 100, 104, 96]
    faster = [85, 86, 84, 87, 83, 85, 86, 84, 88, 82]
    expect(change_wins(lower, base, faster) == 10, "wins count lower-better")
    expect(change_wins(higher, base, faster) == 0, "wins count higher-better")
    expect(verdict(lower, base, faster, True)["verdict"] == "met",
           "claim met: 10/10 wins, median gap beyond the base IQR")
    eight = faster[:8] + [105, 106]
    expect(verdict(lower, base, eight, True)["verdict"] == "not met",
           "claim not met at 8/10 wins")
    close = [v - 1.0 for v in base]
    expect(change_wins(lower, base, close) == 10
           and verdict(lower, base, close, True)["verdict"] == "not met",
           "claim not met when the median gap is inside the base IQR")
    expect(verdict(lower, base, [v + 5 for v in base], False)["verdict"]
           == "ok", "5% worse within a 25% bound is ok")
    expect(verdict(lower, base, [v * 1.4 for v in base], False)["verdict"]
           == "worse", "40% worse beyond a 25% bound is worse")
    expect(verdict(higher, base, [v * 0.7 for v in base], False)["verdict"]
           == "worse", "30% lower throughput is worse")
    expect(verdict(higher, base, [v * 1.4 for v in base], False)["verdict"]
           == "ok", "higher throughput is ok")
    noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    expect(verdict(lower, noisy, [v + 10 for v in noisy], False)["verdict"]
           == "unresolved", "a base spread wider than the bound with "
           "overlapping runs is unresolved")
    expect(verdict(lower, noisy, [1000 + v for v in noisy], False)["verdict"]
           == "worse", "a wide base spread without overlap is still worse")
    expect(verdict(lower, noisy, [v / 10 for v in noisy], False)["verdict"]
           == "ok", "a wide base spread is ok when every change run is "
           "better than every base run")

    layer = {"name": "distributed.reduce_us", "better": "lower"}
    traced = summarize(layer, base, faster)
    expect(traced["verdict"] is None and traced["wins"] == 10
           and traced["base"] == quartiles(base)
           and traced["change"] == quartiles(faster),
           "a per-layer summary has quartiles and wins but no verdict")
    report = format_report([traced], [])
    row = report.splitlines()[1].split()
    expect(row[0] == "distributed.reduce_us" and row[-1] == "-"
           and report.endswith("perf_ab: pass"),
           "a traced report passes without verdicts")
    expect(not passed([traced], ["x"]),
           "a failed traced run fails the comparison")
    bench = {"command": ["python3", "perfbench/run.py"]}
    args = argparse.Namespace(workload="ingest", seed=1, trace=True)
    expect(bench_command(bench, args, 30)[-2:] == ["--trace", "1"],
           "--trace runs traced passes")
    args.trace = False
    expect(bench_command(bench, args, 30)[-2:] == ["--trace", "0"],
           "the default runs untraced passes")

    good = {"correct": True, "failed": 0, "metrics": {}}
    expect(run_failures([(good, good)]) == [], "clean pairs pass")
    expect(len(run_failures([(good, dict(good, correct=False))])) == 1,
           "correct false fails the comparison")
    expect(len(run_failures([(good, dict(good, failed=3))])) == 1,
           "more failed than the other side fails the comparison")
    expect(len(run_failures([(None, good)])) == 1,
           "a run without a result fails the comparison")
    summary = [verdict(lower, base, faster, True)]
    expect(passed(summary, []) and not passed(summary, ["x"]),
           "a failed run fails the whole comparison")
    expect("perf_ab: pass" in format_report(summary, []),
           "the report ends with the outcome")

    print("perf_ab self-test: %s" % ("%d failed" % len(failures)
                                      if failures else "all passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="git ref of the base side")
    parser.add_argument("--change",
                        help="git ref of the change side; default: the "
                             "working tree")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--claim", help="end-to-end metric the change "
                                        "claims to improve")
    parser.add_argument("--trace", action="store_true",
                        help="run traced passes and report the per-layer "
                             "metrics (no verdicts)")
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".perf_ab"),
                        help="where the worktrees live (default .perf_ab/)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the statistics and verdicts; runs "
                             "nothing")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    bench = load_benchmark()
    if args.base is None or args.workload is None:
        parser.error("--base and --workload are required")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    if args.claim and args.claim not in [m["name"]
                                         for m in bench["end_to_end"]]:
        parser.error("--claim must name an end-to-end metric")
    if args.claim and args.trace:
        parser.error("--claim needs untraced runs; drop --trace")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    sys.exit(compare(args))


if __name__ == "__main__":
    main()
