"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/seeds.py --workloads nuser-table,trajectories --seeds 1-10 [--json OUT.json]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
tracing off, with ``run_seconds`` from BENCHMARK.json. For every
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound; likewise for the raw (unscaled) job
time, the speed scale and each operation's raw time, which have no bound.
With ``--json`` the summaries are written to a file as
``{workload: {metric: {median, q1, q3, spread}}}``, the shape of one entry
of ``end_to_end.sets`` in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            detail, res = run_once(workload, seed, spec["run_seconds"])
            if not res["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: {res['failed']} failed operations")
            runs.append({
                "seed": seed,
                **{k: v["value"] for k, v in res["metrics"].items()},
                "raw.wall_s": detail["wall_s"]["median"],
                "pace.scale": detail["pace"]["scale"],
                **{f"op.{k}": v["median"] for k, v in detail["named"].items()},
            })
            print(workload, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        summary = {}
        for name in runs[0]:
            if name == "seed":
                continue
            summary[name] = summarise([run[name] for run in runs])
            s = summary[name]
            print(f"{workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
                  f" spread {s['spread']:.4f} bound {bounds.get(name)}", flush=True)
        result[workload] = summary
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
