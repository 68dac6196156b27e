"""The traced run: per-layer metrics for one workload.

1. The workload's jobs run in this process, alternately without and with
   spans (see tracing.py), for the given seconds.  Layer self times are
   medians over the traced passes; the tracing overhead is the median
   traced pass minus the median untraced pass.
2. The jobs run once more as child processes, untraced, for the
   per-subcommand wall times, report sizes and the part of each CLI job
   that no span covers (process start, imports, argparse).
3. Single-layer probes: a fresh ``import netvar.cli``; and, for Monte
   Carlo workloads, ``sample_null_statistics`` per statistic on the same
   (R, m, k, seed) as the job's calls, the share of replicates tied with
   the observed value, and the same ``mc_pvalues`` calls on one worker
   against nproc workers.
"""

import json
import statistics
import time
from contextlib import chdir, redirect_stdout

import numpy as np

import workloads as wl
from harness import check_output, import_time, report_problems, run_job
from tracing import Tracer, instrument

IMPORT_PROBES = 5
TIE_REL = 1e-9


def run_in_process(job, inp):
    """Run a job in this process; return its exit code."""
    from netvar import cli

    import paper_table

    if job.script:
        workers = int(job.args[job.args.index("--workers") + 1])
        table = paper_table.run_table(workers)
        (inp.workdir / job.report).write_text(json.dumps(table), encoding="utf-8")
        return 0
    with chdir(inp.workdir), open(job.report, "w", encoding="utf-8") as out, \
            redirect_stdout(out):
        return cli.main(job.args)


def root_name(job) -> str:
    return "script.paper_table" if job.script else "cli.main"


def in_process_passes(workload, inp, seconds, validator, tracer):
    """Alternate untraced and traced passes; returns their wall times (jobs
    only, checks excluded), the job ids of each traced pass, and the
    attempted and failed counts."""
    jobs = workload.jobs(inp)
    for job in jobs:  # warm-up: imports, caches and thread pools, not measured
        run_in_process(job, inp)
    plain, traced, traced_ids = [], [], []
    attempted = failed = 0
    exact = {}  # input path -> exact covariance numerators, first traced pass
    while not traced or (sum(plain) + sum(traced) < seconds and not failed):
        for with_spans in (False, True):
            wall, ids = 0.0, []
            for job in jobs:
                tracer.job = f"{len(traced)}:{job.name}"
                # the exact-identity check needs the workload's integer recomputation
                captured = {} if with_spans and not traced and "num" in inp.data else None
                attempted += 1
                started = time.perf_counter()
                try:
                    if with_spans:
                        with instrument(tracer, captured), tracer.span(root_name(job)):
                            code = run_in_process(job, inp)
                        ids.append(tracer.job)
                    else:
                        code = run_in_process(job, inp)
                except Exception as exc:  # a crash in netvar is a failed job
                    report_problems(job.name, [f"raised {exc!r}"])
                    failed += 1
                    continue
                finally:
                    wall += time.perf_counter() - started
                problems = check_output(workload, job, inp, validator) if code == 0 \
                    else [f"exit code {code}"]
                failed += bool(problems)
                for path, sigma in (captured or {}).items():
                    m = inp.data["incidence"].shape[0]
                    exact[path] = wl.exact_numerators(sigma, m * m)
            (traced if with_spans else plain).append(wall)
            if with_spans:
                traced_ids.append(ids)
            if "cov" in exact and "samples" in exact:
                attempted += 1
                problems = same_exact_covariance(exact, inp)
                report_problems("samples-vs-cov", problems)
                failed += bool(problems)
                exact.clear()
    return plain, traced, traced_ids, attempted, failed


def same_exact_covariance(exact, inp) -> list:
    """The --samples and --cov paths must hold identical exact entries,
    equal to the benchmark's integer recomputation."""
    a, b = exact["samples"], exact["cov"]
    if a is None or b is None or not np.array_equal(a, b):
        return ["exact covariance entries differ between --samples and --cov"]
    if not np.array_equal(a, inp.data["num"]):
        return ["exact covariance entries differ from the integer recomputation"]
    return []


def mc_probes(workload, inp):
    """Per-statistic null sampling time, tie shares and thread speedup."""
    from netvar import montecarlo
    from netvar.variability import StatKind

    calls = workload.mc_calls(inp)
    out, problems = {}, []
    if not calls:
        return out, problems
    for kind in StatKind:
        seconds = 0.0
        ties = total = 0
        draws = {}
        for sigma, m, replicates, seed in calls:
            key = (m, sigma.k, replicates, seed)
            if key not in draws:
                started = time.perf_counter()
                draws[key] = montecarlo.sample_null_statistics(kind, m, sigma.k, replicates, seed)
                seconds += time.perf_counter() - started
            t0 = float(montecarlo.observed_statistic_exact(kind, sigma))
            ties += int((np.abs(draws[key] - t0) <= TIE_REL * abs(t0)).sum())
            total += replicates
        out[f"montecarlo.sample_null_statistics.{kind.value}_s"] = seconds
        out[f"montecarlo.tie_share.{kind.value}"] = ties / total
    one = many = 0.0
    kinds = tuple(StatKind)
    for sigma, m, replicates, seed in calls:
        started = time.perf_counter()
        a = montecarlo.mc_pvalues(sigma, kinds, replicates, m, seed, workers=1)
        one += time.perf_counter() - started
        started = time.perf_counter()
        b = montecarlo.mc_pvalues(sigma, kinds, replicates, m, seed, workers=inp.nproc)
        many += time.perf_counter() - started
        if [e.p_value for e in a] != [e.p_value for e in b]:
            problems.append(f"m={m}: workers=1 and workers={inp.nproc} p-values differ")
    out["montecarlo.thread_speedup"] = one / many
    report_problems("thread-speedup", problems)
    return out, problems


def measure(workload, inp, seconds, validator):
    tracer = Tracer()
    plain, traced, traced_ids, attempted, failed = in_process_passes(
        workload, inp, seconds, validator, tracer)

    per_pass = [tracer.self_times(set(ids)) for ids in traced_ids]
    names = {name for times in per_pass for name in times}
    metrics = {f"{name}_s": statistics.median(t.get(name, 0.0) for t in per_pass)
               for name in names if not name.startswith(("cli.main", "script."))}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    calls = workload.mc_calls(inp)
    if calls:
        mc_time = statistics.median(
            sum(s[3] - s[2] for s in tracer.spans
                if s[0] in ids and s[1] == "montecarlo.mc_pvalues")
            for ids in traced_ids)
        metrics["montecarlo.replicates_per_s"] = sum(c[2] for c in calls) / mc_time
        metrics["montecarlo.edge_bits_per_s"] = sum(c[2] * c[1] * c[0].k for c in calls) / mc_time

    last = dict(zip((i.split(":", 1)[1] for i in traced_ids[-1]), traced_ids[-1]))
    unattributed = report_bytes = 0.0
    for job in workload.jobs(inp):
        run = run_job(workload, job, inp, validator)
        attempted += 1
        failed += run.failed
        if job.script:
            continue
        metrics[f"cli.{job.name}_s"] = metrics.get(f"cli.{job.name}_s", 0.0) + run.wall
        report_bytes += (inp.workdir / job.report).stat().st_size
        if job.name in last:
            unattributed += run.wall - tracer.covered("cli.main", last[job.name])
    if report_bytes:
        metrics["cli.report_bytes"] = report_bytes
        metrics["cli.unattributed_s"] = unattributed
    metrics["cli.import_s"] = statistics.median(
        import_time(inp.workdir) for _ in range(IMPORT_PROBES))

    probes, problems = mc_probes(workload, inp)
    metrics.update(probes)
    if probes:
        attempted += 1
        failed += bool(problems)

    metrics["graphs.edge_lines"] = inp.props.get("edge_lines", 0)
    info = {"traced_passes": len(traced), "spans": tracer.as_json()}
    return metrics, attempted, failed, info
