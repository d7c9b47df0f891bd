#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report, per
end-to-end metric, the spread (interquartile distance over median) of
the values next to the metric's bound from BENCHMARK.json.

    python3 swbench/steady.py --workloads serve-hot --seeds 5
    python3 swbench/steady.py --seeds 10 --out runs.jsonl

Run from the root of a checkout.  A metric passes when its spread stays
below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values):
    """Interquartile distance over median, as the benchmark's gate
    computes it (statistics.quantiles, default method)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(workload, seed, seconds, trace=0):
    """One run's result line and its wall seconds, build included."""
    t0 = time.monotonic()
    p = subprocess.run(
        [sys.executable, "swbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if p.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, p.returncode, p.stderr[-2000:]))
    return last_json(p.stdout), time.monotonic() - t0


def summarize(workload, results, walls, bench):
    ok = True
    print("%s (%d runs, %.0f s each at the median, %.0f s at most)"
          % (workload, len(results), statistics.median(walls), max(walls)))
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        s = spread(vals)
        verdict = "ok" if s < m["bound"] / 3 else "WIDE"
        ok = ok and verdict == "ok"
        print("  %-16s median %-12.6g spread %.4f  bound %.2f  %s"
              % (m["name"], statistics.median(vals), s, m["bound"], verdict))
    failed = sum(r["failed"] for r in results)
    print("  failed operations: %d; all correct: %s" % (failed, all(r["correct"] for r in results)))
    return ok and failed == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    all_ok = True
    out = open(a.out, "a") if a.out else None
    for w in workloads:
        results, walls = [], []
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            r, wall = run_once(w, seed, bench["run_seconds"])
            results.append(r)
            walls.append(wall)
            if out:
                out.write(json.dumps({"workload": w, "seed": seed, "seconds": wall, "result": r}) + "\n")
                out.flush()
        all_ok = summarize(w, results, walls, bench) and all_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
