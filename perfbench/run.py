"""powerctl benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The run

1. times ``setup_s``: fresh interpreters that import powerctl, load a
   config and validate ``ModelParams`` (median of seven);
2. warms up with tiny calls at sizes the jobs do not use;
3. runs the workload's job in a closed loop (one operation after another,
   in this one process), at least once, starting another job while it
   would end less than half a job past ``--seconds``; ``wall_s`` is the
   median job time, scaled to the reference speed of ``pace.py`` (whose
   kernel runs between jobs, never inside one);
4. with ``--trace 1``, then runs one more job with every public function of
   every powerctl module wrapped in spans, and reports per-layer metrics.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it gives every operation's time by name (median, maximum,
sample count), the raw job and set-up times, the speed scale and the
environment. Records and spans are written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_threads():
    """Limit BLAS/OpenMP pools to the CPUs of this process; before numpy loads."""
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, NPROC))
        except ValueError:
            wanted = NPROC
        os.environ[var] = str(max(1, min(wanted, NPROC)))


ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"
SETUP_REPEATS = 7

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import powerctl
from powerctl import cli
from powerctl.model import ModelParams
cfg = cli.load_config(sys.argv[2])
ModelParams.good_bad(theta=cfg["theta"], beta1=cfg["beta1"], rho=cfg["rho"],
                     lam=cfg["lambda"], n0=cfg["n0"], p_max=cfg["p_max"])
print("ready", flush=True)
"""


def time_setup(cfg_path):
    """Seconds from spawning a fresh interpreter to powerctl being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_path)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line != "ready" or code != 0:
        raise RuntimeError(f"setup interpreter failed (exit {code}, said {line!r})")
    return elapsed


def warm_up(tmp):
    """Tiny calls through every layer, at sizes no job uses."""
    import numpy as np
    from powerctl import cli, equilibrium, finite, fluid, policy
    from workloads import params_of

    cfg = tmp / "warm.cfg"
    cfg.write_text("n_users = 2\nrho_list = 0.1\nhorizon = 1\n")
    out = tmp / "warm"
    out.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("equilibrium", "fluid", "vi", "compare"):
            cli.main([command, "--config", str(cfg), "--out", str(out)])
    params = params_of(cli.load_config(cfg))
    eq = equilibrium.optimal_equilibrium(params)
    m0 = np.full(4, 0.25)
    fluid.threshold_bias_batch(m0, [0.05], eq.E_star, eq.m_star, params, t_hard=1.0)
    finite.simulate(lambda c: 0, params, 2, 200, seed=0)
    finite.evaluate_policy_exact(lambda c: 0, params, 2)
    policy.make_bench_policy(params)


def run_job(workload, ctx, index, tracer=None):
    """One pass over the workload's calls; returns its timings and failures.

    The job's wall time ends after a ``gc.collect()``, so the garbage the
    job leaves behind is collected, and paid for, inside the job.
    """
    samples = defaultdict(float)
    attempted, errors = 0, []
    t0 = time.perf_counter()
    calls = workload.job(ctx)
    while True:
        try:
            call = next(calls)
        except StopIteration:
            break
        except Exception as exc:  # the job's own set-up failed: count it, stop the job
            attempted += 1
            errors.append(f"job set-up: {exc!r}")
            break
        attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = call.run()
                elapsed = time.perf_counter() - start
            else:
                tracer.run = f"{index}:{call.name}:{call.rep}"
                start = time.perf_counter()
                result = tracer.call(f"op.{call.name}", "bench", call.run)
                elapsed = time.perf_counter() - start
            ctx.facts[call.name] = call.check(result)
        except Exception as exc:  # a failed operation is counted; the job goes on
            errors.append(f"{call.name}: {exc!r}")
            continue
        samples[(call.metric, call.rep)] += elapsed
    gc.collect()
    return {
        "wall": time.perf_counter() - t0,
        "samples": samples,
        "attempted": attempted,
        "errors": errors,
    }


def summary(values):
    """Median, maximum and sample count, in seconds (too few samples for a percentile)."""
    if not values:
        return {"median": None, "max": None, "n": 0, "unit": "s"}
    return {"median": statistics.median(values), "max": max(values), "n": len(values), "unit": "s"}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment():
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "note": "compare runs its rows in a 4-thread pool, serialised by the GIL",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    _cap_threads()
    if not (SRC / "powerctl" / "__init__.py").is_file():
        print(f"error: no powerctl sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    import numpy as np
    from pace import REFERENCE_S, Pace
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup_cfg = tmp / "setup.cfg"
        setup_cfg.write_text("# CLI defaults\n")
        setups = [time_setup(setup_cfg) for _ in range(SETUP_REPEATS)]
        warm_up(tmp)

        ctx = Context(tmp, np.random.default_rng(args.seed))
        pace = Pace()
        jobs = []
        t_start = time.perf_counter()
        pace.sample_block()
        while not jobs or (
            time.perf_counter() - t_start + 0.5 * statistics.median(j["wall"] for j in jobs)
            < args.seconds
        ):
            jobs.append(run_job(workload, ctx, len(jobs)))
            if len(jobs) == 1:
                # later jobs can only raise it, by as much as the thread pool's timing allows
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            pace.sample_block()
        traced = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.instrument()
            traced = run_job(workload, ctx, len(jobs), tracer)
            tracer.write(OUT / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = jobs + ([traced] if traced else [])
    attempted = sum(job["attempted"] for job in runs)
    errors = [err for job in runs for err in job["errors"]]
    named = {
        metric: summary([v for job in jobs for (m, _), v in job["samples"].items() if m == metric])
        for metric in workload.metrics
    }
    walls = [job["wall"] for job in jobs]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs": len(jobs),
        "ops_attempted": attempted,
        "ops_failed": len(errors),
        "errors": errors,
        "named": named,
        "wall_s": summary(walls),
        "setup_s": summary(setups),
        "peak_rss_mb": peak_rss_mb,
        "pace": {
            "kernel_median_s": pace.median,
            "kernel_runs": len(pace.samples),
            "reference_s": REFERENCE_S,
            "scale": pace.scale,
        },
        "env": environment(),
    }

    if args.trace:
        from layers import per_layer

        values, bases = per_layer(tracer.spans, ctx.facts, statistics.median(walls), traced["wall"])
        record["bases"] = bases
        wanted = spec["per_layer"]
    else:
        values = {
            # seconds at the reference speed (pace.py); the raw median is on the line before
            "wall_s": statistics.median(walls) * pace.scale,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({k: record[k] for k in ("workload", "seed", "named", "wall_s",
                                               "setup_s", "pace", "ops_attempted",
                                               "ops_failed", "errors", "env")}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
