#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs every workload of BENCHMARK.json --runs times (default 10), each
run with another --seed, round-robin across workloads so host noise is
spread over all of them. For every end-to-end metric it records the
median, the quartiles (statistics.quantiles, n=4), min and max, and the
interquartile spread as a share of the median against the metric's
bound. It also runs --trace-runs traced runs per workload, and
--probe-runs runs of the ungated open-loop probe that shows why the
serving workloads are closed loop. Writes everything to --out.

  python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
      [--seed-base 1000] [--trace-runs 1] [--probe-runs 3]
      [--out perfbench/steadiness.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=600)
    wall = time.monotonic() - start
    lines = done.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{done.returncode}")
    result = json.loads(lines[-1])
    header = next((json.loads(line[len("# header "):]) for line in lines
                   if line.startswith("# header ")), {})
    notes = [line[2:] for line in lines if line.startswith("# ")
             and not line.startswith("# header ")]
    return {"seed": seed, "wall_s": round(wall, 2), "header": header,
            "notes": notes, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    summary = {"median": median, "q1": q1, "q3": q3, "min": min(values),
               "max": max(values), "spread": spread}
    if bound is not None:
        summary.update(bound=bound, spread_over_bound=spread / bound)
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--probe-runs", type=int, default=3)
    parser.add_argument("--out", default=os.path.join(HERE,
                                                      "steadiness.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            result = run_once(workload, args.seed_base + i, seconds, False)
            runs[workload].append(result)
            print(f"{workload} seed {result['seed']}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in result["metrics"].items()),
                flush=True)

    report = {"run_seconds": seconds, "runs_per_workload": args.runs,
              "seeds": [args.seed_base + i for i in range(args.runs)],
              "workloads": {}}
    steady = True
    for workload in workloads:
        results = runs[workload]
        metrics = {}
        for name in bounds:
            summary = summarize([r["metrics"][name] for r in results],
                                bounds[name])
            # setup_s is gated on its median only; every other spread
            # must stay under a third of its bound.
            summary["steady"] = (name == "setup_s" or
                                 summary["spread"] < bounds[name] / 3)
            steady &= summary["steady"]
            metrics[name] = summary
        traced = [run_once(workload, args.seed_base + i, seconds, True)
                  for i in range(args.trace_runs)]
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in results + traced),
            "ops_failed": sum(r["failed"] for r in results + traced),
            "metrics": metrics, "runs": results, "traced_runs": traced}
        steady &= report["workloads"][workload]["all_correct"]

    probes = [run_once("probe_open_loop", args.seed_base + i, seconds, False)
              for i in range(args.probe_runs)]
    if probes:
        report["open_loop_probe"] = {
            "ungated": True,
            "metrics": {name: summarize([p["metrics"][name] for p in probes],
                                        None)
                        for name in probes[0]["metrics"]},
            "runs": probes}
    report["steady"] = steady

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"\n{'workload':<18} {'metric':<12} {'median':>12} "
          f"{'spread':>8} {'bound':>6} {'min':>12} {'max':>12}")
    for workload, entry in report["workloads"].items():
        for name, s in entry["metrics"].items():
            flag = "" if s["steady"] else "  <-- above bound/3"
            print(f"{workload:<18} {name:<12} {s['median']:>12.6g} "
                  f"{s['spread']:>8.4f} {s['bound']:>6} {s['min']:>12.6g} "
                  f"{s['max']:>12.6g}{flag}")
    for name, s in report.get("open_loop_probe", {}).get("metrics",
                                                          {}).items():
        print(f"{'probe_open_loop':<18} {name:<12} {s['median']:>12.6g} "
              f"{s['spread']:>8.4f} {'-':>6} {s['min']:>12.6g} "
              f"{s['max']:>12.6g}")
    print(f"steady: {steady}; wrote {args.out}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
