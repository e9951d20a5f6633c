#!/usr/bin/env python3
"""Steadiness check for the benchmark: run each workload once per seed and
report, per end-to-end metric, the median, the quartiles, and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.

Run from the repository root after building the benchmark:

    python3 perfbench/steady.py --workloads engine_epochs --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --out set1.json
    python3 perfbench/steady.py --seeds 11-20 --trace 1 --out traced.json

Each run is `<command> --workload W --seed S --seconds N --trace T` with the
command and N taken from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer" if args.trace == "1" else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        runs = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(seconds), "--trace", args.trace]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{w} seed {s}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {s}: checks failed\n{out.stdout}")
            runs.append({"seed": s, "wall_s": round(wall, 2), "info": lines[:-1],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{w} seed {s}: {wall:.1f} s", file=sys.stderr)
        summary = {}
        for name, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / abs(med) if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": v}
            flag = ""
            if bounds[name] is not None and name != "setup_s":
                flag = "ok" if spread < bounds[name] / 3 else (
                    "WITHIN BOUND" if spread <= bounds[name] else "OUTSIDE BOUND")
            print(f"  {w:14s} {name:26s} median {med:14.4f}  spread {spread:7.4f}  {flag}")
        report["workloads"][w] = {"metrics": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
