"""Running jobs: child processes one at a time, their wall time, peak RSS
and exit code, and the output checks on what they wrote."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 150.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The caller's environment (thread and BLAS settings untouched) with
    the checkout's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, workdir: Path, stdout_name: str):
    """Run one child to completion: wall seconds, its own peak RSS in MiB,
    and its exit code.  Standard error goes next to standard output."""
    with open(workdir / stdout_name, "wb") as out, \
            open(workdir / (stdout_name + ".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def import_time(workdir: Path) -> float:
    """Wall time of a fresh interpreter importing netvar.cli."""
    wall, _, code = run_child([sys.executable, "-c", "import netvar.cli"], workdir, "import.out")
    if code != 0:
        raise RuntimeError("cannot import netvar.cli from src/")
    return wall


class JobRun:
    def __init__(self, job, wall, rss_mib, code, problems):
        self.job, self.wall, self.rss_mib, self.code = job, wall, rss_mib, code
        self.problems = problems

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def check_output(workload, job, inp, validator) -> list:
    try:
        problems = workload.check(job, inp, validator)
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        problems = [f"unreadable output: {exc!r}"]
    report_problems(job.name, problems)
    return problems


def report_problems(where: str, problems: list) -> None:
    for p in problems:
        print(f"check failed [{where}]: {p}", file=sys.stderr)


def run_job(workload, job, inp, validator) -> JobRun:
    """Run a job as a child process and check what it wrote."""
    if job.script:
        argv = [sys.executable, str(HERE / job.script)] + job.args
    else:
        argv = [sys.executable, "-m", "netvar.cli"] + job.args
    wall, rss, code = run_child(argv, inp.workdir, job.stdout)
    if code != 0:
        err = (inp.workdir / (job.stdout + ".err")).read_text(errors="replace")
        problems = [f"exit code {code}: {err.strip()[-300:]}"]
        report_problems(job.name, problems)
    else:
        problems = check_output(workload, job, inp, validator)
    return JobRun(job, wall, rss, code, problems)
