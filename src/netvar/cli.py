"""Command-line front end.

Subcommands::

    netvar moments   --samples F                 empirical moments + diagnostics
    netvar stats     --samples F | --cov F       variability statistics
    netvar test      --samples F | --cov F --m N asymptotic significance tests
    netvar mc        --samples F | --cov F --m N Monte Carlo significance values
    netvar classify  --samples F                 entropy classification

Input is selected explicitly by flag (``--samples`` for the sample-set
text format, ``--cov`` for a covariance CSV), never sniffed.  :func:`main`
runs one input step (:func:`_start`): load the input, check its covariance
bounds, and start the report with the part all reports share (schema,
command, input, warnings); then it runs the subparser's handler on them.
Statistics, bounds diagnostics and test results are the library's
dataclasses, written with their fields in declaration order; vectors and
matrices stay the library's arrays until :func:`emit`, and only JSON output
converts them, each while it is written.  JSON output carries full float
precision; the table view prints 7 significant digits.
Exit code is 0 only when no errors occurred; warnings do not affect it.
Ctrl-C exits 130.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from enum import Enum

from . import asymptotic
from .graphs import SampleSet, parse_sample_set
from .moments import CovMatrix, Diagnostic, MomentEstimate, estimate_moments, validate_covariance
from .variability import StatKind, classify_entropy, describe, frobenius_bounds

SCHEMA_VERSION = "1"
METHOD_NAMES = tuple(asymptotic.METHODS)
MC_STATS = {"vart": StatKind.TOTAL, "varg": StatKind.GENERALIZED, "varn": StatKind.FROBENIUS}


@dataclass
class Inputs:
    path: str
    sigma: CovMatrix
    m: int | None
    samples: SampleSet | None  # None for covariance input
    estimate: MomentEstimate | None  # None for covariance input


def _csv_list(valid, flag):
    def convert(text):
        items = [t.strip() for t in text.split(",") if t.strip()]
        if not items or not set(items) <= set(valid) or len(set(items)) < len(items):
            raise argparse.ArgumentTypeError(
                f"{flag} takes a comma-separated subset of {','.join(valid)}, "
                "each name at most once"
            )
        return items

    return convert


def _int_in(flag, valid, expected):
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"{flag} takes {expected}, got {text!r}")
        return value

    return convert


def _positive_int(flag):
    return _int_in(flag, lambda v: v >= 1, "an integer >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netvar",
        description="Variability statistics and significance tests for "
        "bootstrapped network structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, cov_input=True, need_m=False):
        p.set_defaults(run=run, need_m=need_m)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--samples", metavar="FILE", help="sample-set text file")
        if cov_input:
            src.add_argument("--cov", metavar="FILE", help="covariance CSV file")
            p.add_argument("--m", type=_positive_int("--m"),
                           help="sample count behind a covariance CSV"
                           + (" (required with --cov)" if need_m else ""))
            p.add_argument("--force", action="store_true",
                           help="proceed when the covariance CSV violates its bounds")
        p.add_argument("--estimator", choices=("plugin", "unbiased"),
                       help="covariance estimator for sample-set input (default plugin)")
        p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("moments", help="empirical edge moments")
    add_common(p, cmd_moments, cov_input=False)

    p = sub.add_parser("stats", help="variability statistics")
    add_common(p, cmd_stats)
    p.add_argument("--rank-policy", choices=("strict", "reduce"), default="reduce")

    p = sub.add_parser("test", help="asymptotic significance tests")
    add_common(p, cmd_test, need_m=True)
    p.add_argument("--methods", type=_csv_list(METHOD_NAMES, "--methods"),
                   default=list(METHOD_NAMES), metavar="tt,tg1,tg2,tn")

    p = sub.add_parser("mc", help="Monte Carlo significance values")
    add_common(p, cmd_mc, need_m=True)
    p.add_argument("--mc-stat", type=_csv_list(tuple(MC_STATS), "--mc-stat"),
                   default=list(MC_STATS), metavar="vart,varg,varn")
    p.add_argument("--replicates", type=_positive_int("--replicates"), default=100_000)
    p.add_argument("--seed", type=_int_in("--seed", lambda v: 0 <= v < 2**64,
                                          "an integer in [0, 2^64)"), default=0)
    p.add_argument("--workers", type=_positive_int("--workers"), default=None,
                   help="Monte Carlo worker threads")

    p = sub.add_parser("classify", help="entropy classification of a sample set")
    add_common(p, cmd_classify, cov_input=False)

    return parser


def _start(args) -> tuple[Inputs, dict, Diagnostic | None]:
    """Load the input, check its covariance bounds and begin the report.

    Returns the inputs, the report's common part and the bounds diagnostic
    (None for ``classify``, which checks no bounds).
    """
    if args.command == "mc" and args.estimator == "unbiased":
        raise ValueError("mc takes no --estimator unbiased: its null replicates are plug-in "
                         "covariances (denominator m^2), so a bias-corrected observed value "
                         "gets uncalibrated p-values")
    samples = est = None
    if args.samples:
        with open(args.samples, "r", encoding="utf-8") as fh:
            samples = parse_sample_set(fh)
        m = getattr(args, "m", None)
        if m is not None and m != samples.m:
            raise ValueError(f"--m {m} differs from the {samples.m} graphs in {args.samples}")
        est = estimate_moments(samples, args.estimator or "plugin")
        inputs = Inputs(args.samples, est.sigma, samples.m, samples, est)
    else:
        if args.estimator is not None:
            raise ValueError("--estimator applies to --samples input only, not to --cov")
        if args.need_m and args.m is None:
            raise ValueError("--m is required with --cov for this command")
        with open(args.cov, "r", encoding="utf-8") as fh:
            inputs = Inputs(args.cov, CovMatrix.from_csv_text(fh.read()), args.m, None, None)
    warnings = []
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "input": {
            "source": "samples" if samples else "covariance",
            "path": inputs.path,
            "m": inputs.m,
            "k": inputs.sigma.k,
            "nodes": list(samples.nodes.labels) if samples else None,
            "estimator": est.estimator if est else None,
        },
        "warnings": warnings,
    }
    if args.command == "classify":
        return inputs, report, None
    diag = validate_covariance(inputs.sigma)
    if not diag.valid:  # the first 10 violations (a diagnostics block lists every one)
        more = len(diag.violations) - 10
        lines = "; ".join([f"{_located(v.kind, v.where)}: {v.value:.7g} vs bound {v.bound:.7g}"
                           for v in diag.violations[:10]] + [f"and {more} more"] * (more > 0))
        if samples:
            # estimated covariances only breach the bounds through the
            # bias-corrected estimator; report, do not refuse
            warnings.append(f"estimated covariance outside the bounds: {lines}")
        elif not args.force:
            raise ValueError(f"covariance violates its bounds ({lines}); use --force to proceed")
        else:
            warnings.append(f"covariance bounds violated, continuing under --force: {lines}")
    if inputs.sigma.clamped:
        warnings.append(
            f"eigenvalues within {abs(inputs.sigma.min_raw_eigenvalue):.3g} below 0 clamped to 0"
        )
    return inputs, report, diag


def _located(kind: str, where) -> str:
    """``kind[i, j]``, or the bare kind of a whole-matrix violation (empty index)."""
    return f"{kind}{list(where)}" if where else kind


def _record(result) -> dict:
    """A result dataclass as a report record: its fields in declaration order, enums
    by value (the table prints ``kind`` as a string); JSON writes tuples as lists."""
    return asdict(result, dict_factory=lambda items: {
        key: v.value if isinstance(v, Enum) else v for key, v in items})


def cmd_moments(args, inputs, report, diag) -> dict:
    est = inputs.estimate
    report["moments"] = {
        "p_hat": est.p_hat,
        "p_hat2": est.p_hat2,
        "sigma": est.sigma.entries,
        "eigenvalues": est.sigma.eigenvalues,
    }
    report["diagnostics"] = _record(diag)
    summary = classify_entropy(inputs.samples)
    report["entropy"] = {
        "classification": summary.classification,
        "structures": [{"edges": bits, "count": n} for bits, n in summary.frequencies],
    }
    return report


def cmd_stats(args, inputs, report, diag) -> dict:
    values = describe(inputs.sigma, args.rank_policy)
    report["warnings"].extend(f"generalized variance rank-reduced to k_effective={sv.k_effective}"
                              for sv in values if sv.rank_deficient)
    lo, hi = frobenius_bounds(inputs.sigma.k)
    report["covariance"] = {
        "matrix": inputs.sigma.entries,
        "eigenvalues": inputs.sigma.eigenvalues,
    }
    report["diagnostics"] = _record(diag)
    report["statistics"] = [_record(sv) for sv in values]
    report["frobenius_bounds"] = {"min": lo, "max": hi}
    return report


def cmd_test(args, inputs, report, _) -> dict:
    labels = {"tt": "t_T", "tg1": "t_G1", "tg2": "t_G2", "tn": "t_N"}
    report["tests"] = []
    for name in args.methods:
        try:
            report["tests"].append(_record(asymptotic.METHODS[name](inputs.sigma, inputs.m)))
        except ValueError as exc:
            report["tests"].append({"method": labels[name], "error": str(exc)})
    return report


def cmd_mc(args, inputs, report, _) -> dict:
    from . import montecarlo  # imported here only: the other commands skip its start-up
    kinds = tuple(MC_STATS[name] for name in args.mc_stat)
    estimates = montecarlo.mc_pvalues(
        inputs.sigma, kinds, args.replicates, inputs.m, args.seed, workers=args.workers
    )
    report["mc"] = [{
        **_record(est),
        "estimator": "proportion",
        # rule of three: 3/R > ln 20 / R > 1 - 0.05^(1/R), the one-sided 95% Clopper-Pearson limit
        "p_value_upper_bound": min(1.0, 3 / est.replicates) if est.below_resolution else None,
    } for est in estimates]
    report["warnings"].extend(
        f"{e['stat']}: no replicate reached the observed statistic; "
        f"p < {e['p_value_upper_bound']:.7g} at 95% confidence"
        for e in report["mc"] if e["p_value_upper_bound"] is not None
    )
    return report


def cmd_classify(args, inputs, report, _) -> dict:
    summary = classify_entropy(inputs.samples)
    values = describe(inputs.sigma, "reduce")
    report["entropy"] = {
        "classification": summary.classification,
        "structures": [
            {"edges": bits, "count": n, "frequency": n / inputs.m}
            for bits, n in summary.frequencies
        ],
        "distance_from_max_entropy": {sv.kind.value: sv.complemented for sv in values},
    }
    return report


def _fmt(x) -> str:
    return f"{x:.7g}"


def _emit_table(report, out):
    inp = report["input"]
    size = ", ".join(f"{key}={inp[key]}" for key in ("m", "k") if inp[key] is not None)
    print(f"netvar {report['command']}: {inp['source']} {inp['path']} ({size})", file=out)
    if report.get("moments"):
        print("p_hat: " + " ".join(_fmt(v) for v in report["moments"]["p_hat"]), file=out)
        print("sigma:", file=out)
        for row in report["moments"]["sigma"]:  # one row's Python floats: they format faster
            print("  " + " ".join(f"{v:12.7g}" for v in row.tolist()), file=out)
        print("eigenvalues: "
              + " ".join(_fmt(v) for v in report["moments"]["eigenvalues"]), file=out)
    if report.get("covariance"):
        print("eigenvalues: "
              + " ".join(_fmt(v) for v in report["covariance"]["eigenvalues"]), file=out)
    if report.get("diagnostics"):
        d = report["diagnostics"]
        print(f"covariance bounds: {'ok' if d['valid'] else 'VIOLATED'}", file=out)
        for v in d["violations"]:
            print(f"  {_located(v['kind'], v['where'])}: {_fmt(v['value'])} vs "
                  f"{_fmt(v['bound'])}", file=out)
    if report.get("statistics"):
        print(f"{'statistic':12s} {'raw':>14s} {'normalized':>14s} {'complemented':>14s}",
              file=out)
        for sv in report["statistics"]:
            flag = f" (rank-reduced, k_eff={sv['k_effective']})" if sv["rank_deficient"] else ""
            print(f"{sv['kind']:12s} {sv['raw']:14.7g} {sv['normalized']:14.7g} "
                  f"{sv['complemented']:14.7g}{flag}", file=out)
    if report.get("tests"):
        print(f"{'method':8s} {'statistic':>14s} {'p_raw':>14s} {'p_adjusted':>14s}", file=out)
        for r in report["tests"]:
            if "error" in r:
                print(f"{r['method']:8s} error: {r['error']}", file=out)
            else:
                print(f"{r['method']:8s} {r['statistic']:14.7g} {r['p_raw']:14.7g} "
                      f"{r['p_adjusted']:14.7g}", file=out)
    if report.get("mc"):
        print(f"{'statistic':12s} {'p_value':>12s} {'stderr':>12s} {'observed':>14s} "
              f"{'R':>9s} {'seed':>6s}", file=out)
        for e in report["mc"]:
            p = _fmt(e["p_value"]) if not e["p_value_upper_bound"] else \
                f"<{_fmt(e['p_value_upper_bound'])}"
            err = "-" if e["stderr"] is None else _fmt(e["stderr"])
            print(f"{e['stat']:12s} {p:>12s} {err:>12s} "
                  f"{e['observed_statistic']:14.7g} {e['replicates']:9d} {e['seed']:6d}",
                  file=out)
    if report.get("entropy"):
        ent = report["entropy"]
        print(f"entropy: {ent['classification']}", file=out)
        for s in ent["structures"]:
            freq = f" ({_fmt(s['frequency'])})" if "frequency" in s else ""
            print(f"  {s['edges']} x{s['count']}{freq}", file=out)
        if "distance_from_max_entropy" in ent:
            d = ent["distance_from_max_entropy"]
            print("distance from maximum entropy: "
                  + " ".join(f"{k}={_fmt(v)}" for k, v in d.items()), file=out)
    for w in report["warnings"]:
        print(f"warning: {w}", file=out)


def emit(report: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":  # one write: json.dump's many small writes are each a syscall unbuffered
        out.write(json.dumps(report, indent=2, default=lambda a: a.tolist()) + "\n")
    else:
        _emit_table(report, out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            report = args.run(args, *_start(args))
        except (ValueError, OSError, MemoryError) as exc:
            print(f"netvar: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 1
        emit(report, args.format)
    except KeyboardInterrupt:
        print("netvar: interrupted", file=sys.stderr)
        return 130
    failed = any("error" in r for r in report.get("tests", ()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
