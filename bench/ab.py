#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark against a base revision.

    python3 bench/ab.py BASE [--seed N]

Checks BASE out into a temporary linked worktree inside this checkout (so
both sides' durable stores sit on the same filesystem) and, for every
workload BENCHMARK.json names, runs PAIRS pairs of its command

    python3 perfbench/run.py --workload W --seed N+i --seconds <run_seconds> --trace 0

one run in each tree.  Both runs of a pair use the same seed, and the side
that goes first alternates.  Every run is printed.  Each end-to-end metric
gets each side's median and quartiles, the pairs the change won, the ratio
(change / BASE) and one verdict:

  REGRESSION  the change's median is worse than BASE's by more than the bound
  unresolved  BASE's IQR/median is wider than the bound, and not every
              change run beats every BASE run
  gain        the change wins >= 9 of 10 pairs and the medians differ by
              more than BASE's IQR
  no change   otherwise

TRACED_PAIRS traced pairs (--trace 1) per workload then fill a per-layer
table, sorted by how far each metric moved.  It attributes a move to a layer
and never gates.

Exit status: 0; 1 on a REGRESSION, on a run that is not correct, or when
the change fails a larger share of ops than BASE; 2 on a usage or git error;
3 when BENCHMARK.json or anything under its paths differs between BASE and
the working tree, since the two sides would not run the same benchmark.
The worktree is removed on every exit path.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
TRACED_PAIRS = 3
EXIT_BENCHMARK_DIFFERS = 3


def wins(base, change, better):
    """Pairs the change won; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - b) > 0 for b, c in zip(base, change))


def verdict(base, change, better, bound):
    """Classify one end-to-end metric from >= 2 pairs; base[i] and change[i] share a seed."""
    sign = 1 if better == "higher" else -1
    bm, cm = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    if sign * (bm - cm) > bound * abs(bm):
        return "REGRESSION"
    if q3 - q1 > bound * abs(bm) and not all(sign * (c - b) > 0 for c in change for b in base):
        return "unresolved"
    if 10 * wins(base, change, better) >= 9 * len(base) and sign * (cm - bm) > q3 - q1:
        return "gain"
    return "no change"


def failed_share(runs):
    attempted = sum(r["result"]["attempted"] for r in runs if r["result"])
    return sum(r["result"]["failed"] for r in runs if r["result"]) / attempted if attempted else 0.0


def exit_status(verdicts, base_runs, change_runs):
    incorrect = any(not (r["result"] or {}).get("correct") for r in base_runs + change_runs)
    worse_share = failed_share(change_runs) > failed_share(base_runs)
    return 1 if "REGRESSION" in verdicts or incorrect or worse_share else 0


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run(tree, command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    # a session of its own, so an interrupt can stop the benchmark process
    # that run.py starts as well as run.py
    p = subprocess.Popen(cmd, cwd=tree, text=True, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out = p.communicate()[0].splitlines()
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    meta = next((json.loads(l[5:]) for l in out if l.startswith("meta ")), {})
    try:
        result = json.loads(out[-1])
    except (IndexError, ValueError):
        result = None
    return {"meta": meta, "result": result}


def values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if r["result"] and name in r["result"]["metrics"]]


def pairs(trees, command, workload, seed, seconds, trace, count):
    """Run count interleaved pairs; returns {side: [run, ...]} in pair order."""
    runs = {"base": [], "change": []}
    for i in range(count):
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            r = run(trees[side], command, workload, seed + i, seconds, trace)
            runs[side].append(r)
            res = r["result"]
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()) \
                if res and not trace else ""
            state = "no result" if res is None else ("correct" if res["correct"] else "NOT CORRECT")
            print(f"{workload:<15} {'traced ' if trace else ''}pair {i + 1:>2} seed {seed + i:<4} "
                  f"{side:<6} {state:<11} {shown}".rstrip(), flush=True)
    return runs


def fmt(x):
    return f"{x:.4g}"


def report_end_to_end(workload, spec, runs):
    print(f"\n{workload}: end to end, median [q1, q3] of {len(runs['base'])} pairs")
    print(f"{'metric':<16} {'BASE':<34} {'change':<34} {'won':<6} {'ratio':<7} verdict")
    verdicts = []
    for m in spec:
        b, c = values(runs["base"], m["name"]), values(runs["change"], m["name"])
        n = min(len(b), len(c))
        b, c = b[:n], c[:n]
        if n < 2:
            print(f"{m['name']:<16} too few runs to compare")
            verdicts.append("unresolved")
            continue
        v = verdict(b, c, m["better"], m["bound"])
        verdicts.append(v)
        side = lambda xs: (f"{fmt(statistics.median(xs))} "
                           f"[{', '.join(fmt(q) for q in statistics.quantiles(xs, n=4)[::2])}]")
        ratio = statistics.median(c) / statistics.median(b) if statistics.median(b) else math.nan
        won = f"{wins(b, c, m['better'])}/{n}"
        print(f"{m['name']:<16} {side(b):<34} {side(c):<34} {won:<6} {ratio:<7.3f} {v}")
    return verdicts


def report_layers(workload, spec, runs):
    print(f"\n{workload}: per layer, {len(runs['base'])} traced pairs (attributes, never gates)")
    rows = []
    for m in spec:
        b, c = values(runs["base"], m["name"]), values(runs["change"], m["name"])
        if not b or not c:
            continue
        bm, cm = statistics.median(b), statistics.median(c)
        # a ratio means nothing across zero: such rows sort last
        ratio = cm / bm if bm > 0 and cm > 0 else None
        moved = abs(math.log(ratio)) if ratio else -1.0
        rows.append((moved, m["name"], bm, f"{fmt(min(b))}..{fmt(max(b))}", cm, ratio))
    print(f"{'metric':<26} {'BASE':<10} {'BASE min..max':<22} {'change':<10} ratio")
    for _, name, bm, span, cm, ratio in sorted(rows, key=lambda r: -r[0]):
        print(f"{name:<26} {fmt(bm):<10} {span:<22} {fmt(cm):<10} "
              f"{'-' if ratio is None else f'{ratio:.3f}'}")


def main():
    ap = argparse.ArgumentParser(description="interleaved A/B of perfbench against BASE")
    ap.add_argument("base", metavar="BASE", help="git revision to compare the working tree with")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    a = ap.parse_args()
    try:
        root = git(".", "rev-parse", "--show-toplevel")
        base = git(root, "rev-parse", "--verify", a.base + "^{commit}")
    except subprocess.CalledProcessError:
        print(f"ab: {a.base!r} is not a commit of this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    paths = ["BENCHMARK.json"] + bench["paths"]
    differs = subprocess.run(["git", "diff", "--quiet", base, "--", *paths], cwd=root).returncode
    if differs or git(root, "ls-files", "--others", "--exclude-standard", "--", *paths):
        print(f"ab: {' or '.join(paths)} differs between {a.base} and the working tree; "
              "the two sides would not run the same benchmark", file=sys.stderr)
        return EXIT_BENCHMARK_DIFFERS

    signal.signal(signal.SIGTERM, signal.default_int_handler)
    holder = tempfile.mkdtemp(prefix=".ab-", dir=root)
    trees = {"base": os.path.join(holder, "base"), "change": root}
    try:
        git(root, "worktree", "add", "--quiet", "--detach", trees["base"], base)
        workloads = [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        print(f"ab: {a.base} ({base[:12]}) vs the working tree: {len(workloads)} workloads, "
              f"{PAIRS} + {TRACED_PAIRS} traced pairs of {seconds} s runs", flush=True)
        verdicts, every = [], {"base": [], "change": []}
        for w in workloads:
            gated = pairs(trees, bench["command"], w, a.seed, seconds, 0, PAIRS)
            traced = pairs(trees, bench["command"], w, a.seed, seconds, 1, TRACED_PAIRS)
            verdicts += report_end_to_end(w, bench["end_to_end"], gated)
            report_layers(w, bench["per_layer"], traced)
            for side in every:
                every[side] += gated[side] + traced[side]
        print()
        for side in every:
            revs = sorted({r["meta"].get("git_rev", "?") for r in every[side]})
            steal = [r["meta"]["cpu_steal_share"] for r in every[side] if "cpu_steal_share" in r["meta"]]
            print(f"{side:<6} rev {', '.join(revs)}; median cpu_steal_share "
                  f"{fmt(statistics.median(steal)) if steal else '-'}; failed share "
                  f"{fmt(failed_share(every[side]))}")
        status = exit_status(verdicts, every["base"], every["change"])
        print(f"ab: {'FAIL' if status else 'ok'}")
        return status
    except subprocess.CalledProcessError as e:
        print(f"ab: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("ab: interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(holder, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root)


if __name__ == "__main__":
    sys.exit(main())
