"""The three seeded workloads: inputs, job lists and output checks.

Every input is generated here from the seed; netvar sees only the files
and arguments.  Checks never compare against a recorded random stream:
Monte Carlo output is compared with exact null values, and covariance
output with an independent integer/numpy recomputation.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

NUMBER_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
# (section, key) of report entries that can hold k x k numbers
MATRIX_FIELDS = (("covariance", "matrix"), ("moments", "sigma"), ("moments", "p_hat2"))


@dataclass
class Job:
    """One netvar invocation: a CLI subcommand, or the paper's table script."""

    name: str
    args: list  # CLI arguments after "netvar", or script arguments
    report: str  # file the job's standard output goes to
    script: str | None = None  # set for a Python script instead of the CLI
    replicates: int = 0  # Monte Carlo replicates the job draws

    @property
    def stdout(self) -> str:
        return self.report if self.script is None else self.report + ".log"


@dataclass
class Inputs:
    workdir: Path
    seed: int
    nproc: int
    props: dict = field(default_factory=dict)  # measured workload properties
    data: dict = field(default_factory=dict)  # what the checks need


def write_sample_set(path: Path, incidence: np.ndarray, v: int) -> int:
    """Write the sample-set text format; returns the number of edge lines."""
    names = [f"n{i}" for i in range(v)]
    pairs = [f"{names[a]} {names[b]}" for a in range(v) for b in range(a + 1, v)]
    lines = ["nodes " + " ".join(names)]
    for row in incidence:
        lines.append("graph")
        lines.extend(pairs[j] for j in np.flatnonzero(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return int(incidence.sum())


def count_moments(incidence: np.ndarray):
    """Column sums and m^2 times the plug-in covariance, as exact integers."""
    x = incidence.astype(np.int64)
    m = x.shape[0]
    s1 = x.sum(axis=0)
    num = m * (x.T @ x) - np.outer(s1, s1)
    return s1, num


def write_decimal_csv(path: Path, num: np.ndarray, m: int) -> None:
    """Write num / m^2 as exact 6-decimal CSV (needs m^2 to divide 10^6)."""
    scale = 10**6 // (m * m)
    if scale * m * m != 10**6:
        raise ValueError(f"m^2 = {m * m} does not divide 10^6")
    scaled = num * scale
    text = {}
    for v in np.unique(scaled).tolist():
        text[v] = ("-" if v < 0 else "") + f"{abs(v) // 10**6}.{abs(v) % 10**6:06d}"
    lines = [",".join(map(text.__getitem__, row)) for row in scaled.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def plugin_covariance(incidence: np.ndarray) -> np.ndarray:
    """Plug-in covariance in floating point, independent of netvar."""
    x = incidence.astype(np.float64)
    m = x.shape[0]
    p = x.mean(axis=0)
    return (x.T @ x) / m - np.outer(p, p)


def statistics_close(report: dict, cov: np.ndarray) -> list:
    """Trace and Frobenius statistics against a numpy recomputation, 1e-9 rel."""
    k = cov.shape[0]
    trace = float(np.trace(cov))
    # sum((lambda - k/4)^2) = ||cov||_F^2 - (k/2) tr(cov) + k^3/16
    frob = float((cov * cov).sum()) - 0.5 * k * trace + k**3 / 16.0
    got = {s["kind"]: s["raw"] for s in report["statistics"]}
    bad = []
    for kind, want in (("total", trace), ("frobenius", frob)):
        if not math.isclose(got[kind], want, rel_tol=1e-9, abs_tol=1e-12):
            bad.append(f"{kind} statistic {got[kind]!r} != recomputed {want!r}")
    return bad


class ReportValidator:
    """Validates reports against ``report_schema.json``.

    k x k number matrices are checked by a direct type scan (equivalent to
    the schema's array-of-arrays-of-numbers rule, which is asserted); the
    rest of the report goes through jsonschema unchanged.  This keeps the
    check at well under a second for a 20 MB report.
    """

    def __init__(self, schema_path: Path):
        import jsonschema

        self.schema = json.loads(schema_path.read_text(encoding="utf-8"))
        cls = jsonschema.validators.validator_for(self.schema)
        self.validator = cls(self.schema)
        props = self.schema["properties"]
        for section, key in MATRIX_FIELDS:
            if props[section]["properties"][key] != NUMBER_MATRIX:
                raise ValueError(f"schema rule for {section}.{key} changed; update the check")

    def errors(self, report: dict) -> list:
        slim = dict(report)
        bad = []
        for section, key in MATRIX_FIELDS:
            if isinstance(report.get(section), dict) and key in report[section]:
                matrix = report[section][key]
                slim[section] = dict(report[section], **{key: []})
                if not isinstance(matrix, list) or not all(
                    type(row) is list and all(type(v) in (int, float) for v in row)
                    for row in matrix
                ):
                    bad.append(f"{section}.{key} is not an array of arrays of numbers")
        bad.extend(e.message[:200] for e in self.validator.iter_errors(slim))
        return bad


def load_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def mc_count_errors(entries, replicates: int) -> list:
    bad = []
    for e in entries:
        count = e["p_value"] * replicates
        if abs(count - round(count)) > 1e-6 * max(1.0, count):
            bad.append(f"{e['stat']}: p*R = {count!r} is not an integer")
    return bad


class Workload:
    name = ""

    def setup(self, inp: Inputs) -> None:
        """Generate the inputs from ``inp.seed`` into ``inp.workdir``."""

    def extra_jobs(self, inp: Inputs) -> list:
        """Jobs run once per run, after the measured passes."""
        return []

    def extra_check(self, inp: Inputs) -> list:
        return []

    def mc_calls(self, inp: Inputs) -> list:
        """(sigma, m, replicates, seed) of every mc_pvalues call in a pass."""
        return []


class PaperMcTable(Workload):
    name = "paper_mc_table"

    def jobs(self, inp: Inputs) -> list:
        return [Job("paper_table", ["--workers", str(inp.nproc), "--out", "paper_table.json"],
                    "paper_table.json", script="paper_table.py", replicates=15 * 100_000)]

    def check(self, job: Job, inp: Inputs, validator) -> list:
        table = load_report(inp.workdir / job.report)
        cells = table["cells"]
        bad = [] if len(cells) == 45 else [f"{len(cells)} cells, expected 45"]
        for c in cells:
            exact = oracles.paper_exact(c["stat"], c["matrix"], c["m"])
            band = oracles.mc_band(exact, c["replicates"])
            if abs(c["p_value"] - exact) > band:
                bad.append(f"{c['stat']} sigma{c['matrix']} m={c['m']}: "
                           f"{c['p_value']} vs exact {exact} (band {band:.3g})")
        bad.extend(mc_count_errors(cells, 100_000))
        return bad

    def mc_calls(self, inp: Inputs):
        from netvar.moments import CovMatrix

        import paper_table

        return [(CovMatrix.from_csv_text(text), m, paper_table.REPLICATES, paper_table.MC_SEED)
                for text in oracles.PAPER_CSV.values() for m in oracles.M_GRID]


class BootstrapMcK28(Workload):
    name = "bootstrap_mc_k28"
    v, m, replicates = 8, 200, 50_000
    invariance_replicates = 5_000

    def setup(self, inp: Inputs) -> None:
        rng = np.random.default_rng([inp.seed, 28])
        k = self.v * (self.v - 1) // 2
        incidence = (rng.random((self.m, k)) < 0.5).astype(np.uint8)
        path = inp.workdir / "k28.txt"
        inp.props["edge_lines"] = write_sample_set(path, incidence, self.v)
        inp.props["never_present_share"] = float((incidence.sum(axis=0) == 0).mean())
        inp.props["samples_bytes"] = path.stat().st_size
        inp.data["incidence"] = incidence

    def jobs(self, inp: Inputs) -> list:
        base = ["--samples", "k28.txt", "--format", "json"]
        mc = ["mc", "--samples", "k28.txt", "--replicates", str(self.replicates),
              "--seed", str(inp.seed), "--workers", str(inp.nproc), "--format", "json"]
        return [Job("mc", mc, "mc.json", replicates=self.replicates)] + [
            Job(cmd, [cmd] + base, f"{cmd}.json") for cmd in ("moments", "stats", "test", "classify")
        ]

    def total_exact(self, inp: Inputs) -> float:
        if "total_exact" not in inp.data:
            s1 = inp.data["incidence"].sum(axis=0).astype(np.int64)
            observed = int(((2 * s1 - self.m) ** 2).sum())  # 4 m^2 T* of the sample
            tail = oracles.total_null_upper_tail(self.m, len(s1))
            inp.data["total_exact"] = float(tail[observed])
        return inp.data["total_exact"]

    def check(self, job: Job, inp: Inputs, validator) -> list:
        report = load_report(inp.workdir / job.report)
        bad = validator.errors(report)
        incidence = inp.data["incidence"]
        m = incidence.shape[0]
        if job.name.startswith("mc"):
            entries = {e["stat"]: e for e in report["mc"]}
            bad.extend(mc_count_errors(report["mc"], job.replicates))
            exact = self.total_exact(inp)
            band = oracles.mc_band(exact, job.replicates)
            if abs(entries["total"]["p_value"] - exact) > band:
                bad.append(f"total p {entries['total']['p_value']} vs exact {exact}")
            inp.data.setdefault("mc_p", {})[job.report] = {
                s: e["p_value"] for s, e in entries.items()}
        elif job.name == "moments":
            want = incidence.sum(axis=0) / m
            if report["moments"]["p_hat"] != want.tolist():
                bad.append("p_hat differs from column sums / m")
        elif job.name == "stats":
            bad.extend(statistics_close(report, plugin_covariance(incidence)))
        elif job.name == "test":
            tt = next(t for t in report["tests"] if t["method"] == "t_T")
            want = 4.0 * m * float(np.trace(plugin_covariance(incidence)))
            if not math.isclose(tt["statistic"], want, rel_tol=1e-9):
                bad.append(f"t_T statistic {tt['statistic']} != {want}")
        elif job.name == "classify":
            structures = report["entropy"]["structures"]
            if sum(s["count"] for s in structures) != m:
                bad.append("structure counts do not sum to m")
        return bad

    def extra_jobs(self, inp: Inputs) -> list:
        """Once per run: a shorter mc call (seven chunks) on one worker and on
        nproc workers must give identical p-values."""
        jobs = []
        for workers in (1, inp.nproc):
            args = self.jobs(inp)[0].args[:]
            args[args.index("--replicates") + 1] = str(self.invariance_replicates)
            args[args.index("--workers") + 1] = str(workers)
            jobs.append(Job(f"mc_workers{workers}", args, f"mc_workers{workers}.json",
                            replicates=self.invariance_replicates))
        return jobs

    def extra_check(self, inp: Inputs) -> list:
        p = inp.data.get("mc_p", {})
        one, many = p.get("mc_workers1.json"), p.get(f"mc_workers{inp.nproc}.json")
        if many is not None and one != many:
            return [f"workers=1 p-values {one} != workers={inp.nproc} {many}"]
        return []

    def mc_calls(self, inp: Inputs):
        from netvar.graphs import parse_sample_set
        from netvar.moments import estimate_moments

        text = (inp.workdir / "k28.txt").read_text(encoding="utf-8")
        sigma = estimate_moments(parse_sample_set(text)).sigma
        return [(sigma, self.m, self.replicates, inp.seed)]


class BootstrapMomentsV50(Workload):
    name = "bootstrap_moments_v50"
    v, m = 50, 500

    def setup(self, inp: Inputs) -> None:
        rng = np.random.default_rng([inp.seed, 50])
        k = self.v * (self.v - 1) // 2
        kind = rng.random(k)
        # ~8% true edges kept w.p. 0.8, ~28% spurious w.p. 0.05, the rest never
        p = np.where(kind < 0.08, 0.8, np.where(kind < 0.36, 0.05, 0.0))
        incidence = (rng.random((self.m, k)) < p).astype(np.uint8)
        s1, num = count_moments(incidence)
        write_decimal_csv(inp.workdir / "v50.csv", num, self.m)
        samples = inp.workdir / "v50.txt"
        inp.props["edge_lines"] = write_sample_set(samples, incidence, self.v)
        inp.props["never_present_share"] = float((s1 == 0).mean())
        inp.props["samples_bytes"] = samples.stat().st_size
        inp.props["csv_bytes"] = (inp.workdir / "v50.csv").stat().st_size
        inp.data.update(incidence=incidence, num=num)

    def jobs(self, inp: Inputs) -> list:
        return [
            Job("stats", ["stats", "--samples", "v50.txt", "--format", "json"], "stats.json"),
            Job("test", ["test", "--cov", "v50.csv", "--m", str(self.m),
                         "--methods", "tt,tg1,tn", "--format", "json"], "test.json"),
        ]

    def check(self, job: Job, inp: Inputs, validator) -> list:
        report = load_report(inp.workdir / job.report)
        bad = validator.errors(report)
        m = self.m
        exact = inp.data["num"] / float(m * m)  # correctly rounded exact rationals
        if job.name == "stats":
            got = np.array(report["covariance"]["matrix"])
            # the samples path must carry the exact rationals, to rounding
            if got.shape != exact.shape or not np.allclose(got, exact, rtol=0, atol=1e-15):
                bad.append("reported covariance differs from the exact plug-in covariance")
            bad.extend(statistics_close(report, plugin_covariance(inp.data["incidence"])))
        else:
            tests = {t["method"]: t for t in report["tests"]}
            k = exact.shape[0]
            trace = float(np.trace(exact))
            frob_quarter = float((exact * exact).sum()) - 0.5 * trace + k / 16.0
            want = {"t_T": 4.0 * m * trace, "t_N": 8.0 * m * frob_quarter,
                    "t_G1": -math.sqrt(m)}  # singular: never-present edges
            for method, value in want.items():
                got = tests[method].get("statistic")
                if got is None or not math.isclose(got, value, rel_tol=1e-9):
                    bad.append(f"{method} statistic {got} != recomputed {value}")
        return bad


WORKLOADS = {w.name: w for w in (PaperMcTable(), BootstrapMcK28(), BootstrapMomentsV50())}


def exact_numerators(sigma, den: int):
    """Exact entries of a CovMatrix as integer numerators over ``den``, or
    None when some entry is not a multiple of 1/den."""
    out = np.empty((sigma.k, sigma.k), dtype=np.int64)
    for i, row in enumerate(sigma.exact_entries()):
        for j, f in enumerate(row):
            q, r = divmod(den, f.denominator)
            if r:
                return None
            out[i, j] = f.numerator * q
    return out
