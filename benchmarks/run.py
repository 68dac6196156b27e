"""netvar benchmark: end-to-end and per-layer timings on seeded workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: paper_mc_table,
bootstrap_mc_k28, bootstrap_moments_v50 (see README.md).

--trace 0 runs every job as a child process, one at a time, repeating the
job list for S seconds, and reports the end-to-end metrics.  --trace 1
runs the same jobs in this process with and without spans around each
layer call, plus single-layer probes, and reports the per-layer metrics.
Every output is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from harness import ROOT, SRC, import_time, nproc, report_problems, run_job

WORK = ROOT / ".bench_work"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
ENV_KEYS = ("NETVAR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS", "PYTHONHASHSEED")


def info_unit(name: str) -> str:
    """Unit of an ungated figure printed after the metrics."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name == "pass_walls":
        return "s"
    return "ratio" if name.endswith("frac") else "count"


def setup(workload, seed: int, repeats: int, min_seconds: float = 0.0):
    """Set up ``repeats`` times, and more until ``min_seconds`` have passed;
    returns the last inputs and every set-up time."""
    import workloads as wl

    times = []
    while len(times) < repeats or sum(times) < min_seconds:
        started = time.perf_counter()
        workdir = WORK / workload.name
        workdir.mkdir(parents=True, exist_ok=True)
        inp = wl.Inputs(workdir, seed, nproc())
        workload.setup(inp)
        import_time(workdir)  # warm-up: byte-code and page caches
        times.append(time.perf_counter() - started)
    return inp, times


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "netvar").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "env": {key: os.environ.get(key, "unset") for key in ENV_KEYS},
    }


def measure_end_to_end(workload, inp, seconds, validator, setup_times):
    jobs = workload.jobs(inp)
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        runs = [run_job(workload, job, inp, validator) for job in jobs]
        measured += sum(r.wall for r in runs)
        passes.append(runs)
        if any(r.failed for r in runs):
            break
    runs = [r for p in passes for r in p]
    for job in workload.extra_jobs(inp):
        runs.append(run_job(workload, job, inp, validator))
        problems = workload.extra_check(inp)
        report_problems(job.name, problems)
        runs[-1].problems += problems
    attempted = len(runs)
    failed = sum(r.failed for r in runs)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(r.wall for r in p) for p in passes),
        # the largest over the run: the Monte Carlo pool's peak depends on
        # whether its workers happen to draw at the same moment
        "peak_rss_mib": max(r.rss_mib for r in runs),
    }
    info = {"passes": len(passes), "failed_frac": failed / attempted,
            "pass_walls": [sum(r.wall for r in p) for p in passes]}
    for name in {j.name for j in jobs}:
        info[f"{name}_s"] = statistics.median(
            sum(r.wall for r in p if r.job.name == name) for p in passes)
    mc_wall = sum(r.wall for p in passes for r in p if r.job.replicates)
    if mc_wall:
        info["replicates_per_s"] = sum(
            r.job.replicates for p in passes for r in p if r.job.replicates) / mc_wall
    return metrics, attempted, failed, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="netvar benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "netvar" / "cli.py").is_file():
        print(f"netvar sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    validator = wl.ReportValidator(SRC / "netvar" / "report_schema.json")
    env = environment()
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items() if k != "env")
          + " " + " ".join(f"{k}={v}" for k, v in env["env"].items()))

    # metric names and units come from the benchmark's own description
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        import traced

        inp, _ = setup(workload, args.seed, 1)
        metrics, attempted, failed, info = traced.measure(workload, inp, args.seconds, validator)
    else:
        inp, setup_times = setup(workload, args.seed, SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
        metrics, attempted, failed, info = measure_end_to_end(
            workload, inp, args.seconds, validator, setup_times)
    metrics = {name: metrics.get(name, 0.0) for name in units}

    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    for name, value in info.items():
        if name != "spans":
            print(f"# {name:46s} {value} {info_unit(name)}")
    for name, value in inp.props.items():
        print(f"# property {name} = {value}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, properties=inp.props,
                  info={k: v for k, v in info.items() if k != "spans"})
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in info:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(info["spans"]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
