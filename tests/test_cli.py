import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from netvar import cli, moments, montecarlo
from netvar.variability import StatKind

MAX_ENT = "nodes A B\ngraph\nA B\ngraph\n"  # hand-built below where k=2 needed
SAMPLES_3 = "nodes A B C\ngraph\nA B\nA C\ngraph\nA B\ngraph\n"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def schema():
    import importlib.resources

    with importlib.resources.files("netvar").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def json_report(argv, capsys, schema):
    code, out, err = run(argv + ["--format", "json"], capsys)
    report = json.loads(out)
    jsonschema.validate(report, schema)
    return code, report, err


def test_moments_max_entropy_file(tmp_path, capsys, schema):
    text = "nodes A B C\n" + "".join(
        "graph\n" + "".join(f"{e}\n" for e in edges)
        for edges in ([["A B", "A C"], ["A B"], ["A C"], []][i] for i in range(4))
    )
    path = write(tmp_path, "s.txt", text)
    code, report, _ = json_report(["moments", "--samples", path], capsys, schema)
    assert code == 0
    sigma = report["moments"]["sigma"]
    assert sigma[0][0] == 0.25 and sigma[1][1] == 0.25 and sigma[0][1] == 0.0
    assert report["entropy"]["classification"] == "intermediate"
    assert report["input"]["nodes"] == ["A", "B", "C"]


def test_moments_minimum_entropy(tmp_path, capsys, schema):
    path = write(tmp_path, "s.txt", "nodes A B\ngraph\nA B\ngraph\nA B\n")
    code, report, _ = json_report(["moments", "--samples", path], capsys, schema)
    assert report["entropy"]["classification"] == "minimum"
    assert all(v == 0.0 for row in report["moments"]["sigma"] for v in row)


def test_moments_hand_enumerated_covariance(tmp_path, capsys, schema):
    path = write(tmp_path, "s.txt", SAMPLES_3)
    code, report, _ = json_report(["moments", "--samples", path], capsys, schema)
    # edges in column order: AB, AC, BC; cov(AB, AC) = 1/3 - 2/3 * 2/3 * ...
    assert report["moments"]["sigma"][0][1] == pytest.approx(1 / 9)


def test_stats_sigma1_table(tmp_path, capsys):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    code, out, _ = run(
        ["stats", "--cov", path, "--m", "10", "--rank-policy", "strict"], capsys
    )
    assert code == 0
    assert "0.96" in out and "0.896" in out and "0.9642667" in out


def test_stats_from_samples_equals_stats_from_exported_cov(tmp_path, capsys, schema):
    path = write(tmp_path, "s.txt", SAMPLES_3)
    _, by_samples, _ = json_report(["stats", "--samples", path], capsys, schema)
    # export the covariance at full precision and re-enter through --cov
    rows = by_samples["covariance"]["matrix"]
    csv = "\n".join(",".join(repr(v) for v in row) for row in rows)
    cov_path = write(tmp_path, "cov.csv", csv + "\n")
    _, by_cov, _ = json_report(
        ["stats", "--cov", cov_path, "--m", "3"], capsys, schema
    )
    assert by_cov["statistics"] == by_samples["statistics"]
    assert by_cov["diagnostics"] == by_samples["diagnostics"]
    assert by_cov["frobenius_bounds"] == by_samples["frobenius_bounds"]
    assert by_cov["input"]["m"] == by_samples["input"]["m"] == 3


def test_stats_zero_matrix_normalized_extremes(tmp_path, capsys, schema):
    path = write(tmp_path, "z.csv", "0,0\n0,0\n")
    _, report, _ = json_report(["stats", "--cov", path, "--rank-policy", "strict"],
                               capsys, schema)
    by_kind = {s["kind"]: s for s in report["statistics"]}
    assert by_kind["total"]["normalized"] == 0.0
    assert by_kind["generalized"]["normalized"] == 0.0
    assert by_kind["frobenius"]["normalized"] == 0.0
    assert by_kind["frobenius"]["raw"] == 0.5


def test_stats_invalid_covariance_needs_force(tmp_path, capsys, schema):
    path = write(tmp_path, "bad.csv", "0.3,0\n0,0.1\n")
    code, out, err = run(["stats", "--cov", path], capsys)
    assert code == 1
    assert "violates its bounds" in err
    code, report, _ = json_report(["stats", "--cov", path, "--force"], capsys, schema)
    assert code == 0
    assert not report["diagnostics"]["valid"]
    assert any("--force" in w for w in report["warnings"])


def test_test_command_reference_significance_values(tmp_path, capsys, schema):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    code, report, _ = json_report(["test", "--cov", path, "--m", "10"], capsys, schema)
    assert code == 0
    by_method = {t["method"]: t for t in report["tests"]}
    assert by_method["t_T"]["p_raw"] == pytest.approx(0.4911379, abs=5e-8)
    assert by_method["t_T"]["p_adjusted"] == pytest.approx(0.906041, abs=5e-7)
    assert by_method["t_G2"]["p_raw"] == pytest.approx(0.6039442, abs=5e-8)
    assert by_method["t_G2"]["p_adjusted"] == pytest.approx(0.9052188, abs=5e-8)
    assert by_method["t_N"]["p_raw"] == pytest.approx(0.9652055, abs=5e-8)
    assert by_method["t_N"]["p_adjusted"] == pytest.approx(0.9645473, abs=5e-8)


def test_test_command_quarter_identity(tmp_path, capsys, schema):
    path = write(tmp_path, "qi.csv", "0.25,0\n0,0.25\n")
    _, report, _ = json_report(
        ["test", "--cov", path, "--m", "50", "--methods", "tn"], capsys, schema
    )
    assert report["tests"][0]["p_raw"] == 1.0


def test_test_command_per_method_error(tmp_path, capsys, schema):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    code, report, _ = json_report(
        ["test", "--cov", path, "--m", "1", "--methods", "tg2,tt"], capsys, schema
    )
    assert code == 1  # an error entry is an error, but other methods still ran
    assert report["tests"][0] == {
        "method": "t_G2",
        "error": "gamma shape non-positive: need m + 1 > k, got m=1, k=2",
    }
    assert report["tests"][1]["method"] == "t_T"


def test_test_requires_m_with_cov(tmp_path, capsys):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    code, _, err = run(["test", "--cov", path], capsys)
    assert code == 1 and "--m is required" in err


def test_mc_command_reproducible_reports(tmp_path, capsys, schema):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    argv = ["mc", "--cov", path, "--m", "10", "--replicates", "4000", "--seed", "9"]
    code, out1, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    _, out2, _ = run(argv + ["--format", "json"], capsys)
    assert out1 == out2  # byte-identical for a fixed seed
    report = json.loads(out1)
    jsonschema.validate(report, schema)
    assert {e["stat"] for e in report["mc"]} == {"total", "generalized", "frobenius"}
    for e in report["mc"]:
        assert e["seed"] == 9 and e["replicates"] == 4000


def test_mc_reports_identical_across_worker_counts(capsys):
    # k = 6, m = 16: past the single-thread boundary, so 2 and 8 run threads
    kinds, replicates = tuple(StatKind), 9000
    assert montecarlo._plan(kinds, replicates, 16, 6, 4, 2)[-1] >= 2
    argv = ["mc", "--samples", str(GOLDEN / "k6.txt"), "--mc-stat", "vart,varg,varn",
            "--replicates", str(replicates), "--seed", "4", "--format", "json"]
    outs = {run(argv + ["--workers", w], capsys)[1] for w in ("1", "2", "8")}
    assert len(outs) == 1


@pytest.mark.parametrize("workers", ["0", "-3", "abc"])
def test_mc_workers_below_one_is_usage_error(tmp_path, capsys, workers):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", "--cov", path, "--m", "10", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_mc_workers_past_the_ceiling_is_an_error(tmp_path, capsys):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    argv = ["mc", "--cov", path, "--m", "2", "--replicates", "1000000000", "--workers", "100000"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "netvar: error: worker count must be <= 256, got 100000\n"


@pytest.mark.parametrize("command", ["moments", "classify"])
def test_force_is_usage_error_without_covariance_input(tmp_path, capsys, command):
    # sample-set input never refuses its covariance, so --force has nothing to override
    path = write(tmp_path, "s.txt", SAMPLES_3)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--samples", path, "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2", "1.5"])
def test_m_below_one_is_usage_error(tmp_path, capsys, value):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["test", "--cov", path, "--m", value])
    assert exc.value.code == 2
    assert "--m takes an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5", "1e5"])
def test_mc_replicates_below_one_is_usage_error(tmp_path, capsys, value):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", "--cov", path, "--m", "10", "--replicates", value])
    assert exc.value.code == 2
    assert "--replicates takes an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["test", "--methods", "tt,tt"],
    ["test", "--methods", "tg1,tn,tg1"],
    ["test", "--methods", "tt,tx"],
    ["test", "--methods", ","],
    ["mc", "--mc-stat", "vart,vart"],
    ["mc", "--mc-stat", "varg,varn,varg"],
    ["mc", "--mc-stat", "var"],
])
def test_bad_or_repeated_name_list_is_usage_error(tmp_path, capsys, argv):
    # rejected while parsing the arguments: the missing input is never opened
    path = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + ["--cov", path, "--m", "10"] + argv[1:])
    assert exc.value.code == 2
    assert f"{argv[1]} takes a comma-separated subset of" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", str(2**64), "abc", "1.5"])
def test_mc_seed_out_of_range_is_usage_error(tmp_path, capsys, value):
    # rejected while parsing the arguments: the missing input is never opened
    path = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", "--cov", path, "--m", "10", "--seed", value])
    assert exc.value.code == 2
    assert "--seed takes an integer in [0, 2^64)" in capsys.readouterr().err
    for edge in (0, 2**64 - 1):
        args = cli.build_parser().parse_args(["mc", "--cov", path, "--m", "10", "--seed", str(edge)])
        assert args.seed == edge


def test_m_that_contradicts_the_sample_set_fails(tmp_path, capsys):
    path = write(tmp_path, "s.txt", SAMPLES_3)
    code, out, err = run(["mc", "--samples", path, "--m", "50", "--replicates", "10"], capsys)
    assert code == 1 and out == ""
    assert "--m 50" in err and "3 graphs" in err
    # the sample set's own count is accepted
    code, _, _ = run(["mc", "--samples", path, "--m", "3", "--replicates", "10"], capsys)
    assert code == 0


def test_mc_below_resolution_annotation(tmp_path, capsys, schema):
    path = write(tmp_path, "s2.csv", "0.1056,-0.0336\n-0.0336,0.2016\n")
    _, report, _ = json_report(
        ["mc", "--cov", path, "--m", "100", "--replicates", "2000", "--seed", "3",
         "--mc-stat", "vart"],
        capsys, schema,
    )
    entry = report["mc"][0]
    assert entry["p_value"] == 0.0 and entry["stderr"] is None
    # the rule of three: above the one-sided 95% Clopper-Pearson limit 1 - 0.05^(1/R)
    assert entry["p_value_upper_bound"] == 3 / 2000 > 1 - 0.05 ** (1 / 2000)
    assert any("p < 0.0015 at 95% confidence" in w for w in report["warnings"])


MC_GOLDEN = ["--replicates", "2000", "--seed", "20090607"]


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("table", "txt")])
@pytest.mark.parametrize("name, argv", [
    ("mc_s1_m10", ["mc", "--cov", "s1.csv", "--m", "10", *MC_GOLDEN]),
    # frobenius reaches no replicate: covers the warning and p_value_upper_bound
    ("mc_k6", ["mc", "--samples", "k6.txt", "--mc-stat", "vart,varg,varn", *MC_GOLDEN]),
    # t_T and t_N only: t_G1, t_G2 and the eigenvalues of `stats` are eigensolver output
    ("test_s1_m10", ["test", "--cov", "s1.csv", "--m", "10", "--methods", "tt,tn"]),
    ("test_k6", ["test", "--samples", "k6.txt", "--methods", "tt,tn"]),
])
def test_mc_golden_report(name, argv, fmt, ext, capsys, monkeypatch):
    # the statistics and observed values in these reports are exact or correctly
    # rounded, and no eigensolver output enters them, so the bytes are the same on
    # every platform; the t_T and t_N p-values also go through libm's exp, log and lgamma
    monkeypatch.chdir(GOLDEN)  # the report records the input path as given
    code, out, err = run([*argv, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.{ext}").read_text()


@pytest.mark.parametrize("argv", [["moments"], ["stats"], ["test"], ["classify"],
                                  ["mc", "--replicates", "50"]], ids=lambda argv: argv[0])
def test_each_command_sums_its_covariance_once(argv, capsys, monkeypatch):
    # every statistic, test and bound reads the covariance's one cached CovMatrix.sums;
    # the Monte Carlo replicate batches (k, k, n) are summed apart from it
    calls, sums = [], moments._sums

    def counted(num, *args):
        calls.append(num.ndim)
        return sums(num, *args)

    monkeypatch.setattr(moments, "_sums", counted)
    monkeypatch.setattr(montecarlo, "_sums", counted)
    monkeypatch.chdir(GOLDEN)
    code, _, err = run([*argv, "--samples", "k6.txt"], capsys)
    assert (code, err, calls.count(2)) == (0, "", 1)


def test_classify_command(tmp_path, capsys, schema):
    path = write(tmp_path, "s.txt", "nodes A B\ngraph\nA B\ngraph\nA B\n")
    code, report, _ = json_report(["classify", "--samples", path], capsys, schema)
    assert report["entropy"]["classification"] == "minimum"
    dist = report["entropy"]["distance_from_max_entropy"]
    assert dist["total"] == 1.0  # no variability at all

    path = write(tmp_path, "mix.txt", "nodes A B\ngraph\nA B\ngraph\n")
    _, report, _ = json_report(["classify", "--samples", path], capsys, schema)
    assert report["entropy"]["classification"] == "intermediate"
    assert [s["count"] for s in report["entropy"]["structures"]] == [1, 1]
    assert dist_keys(report) == {"total", "generalized", "frobenius"}


def dist_keys(report):
    return set(report["entropy"]["distance_from_max_entropy"])


def test_classify_rejects_covariance_input(tmp_path, capsys):
    # classify has no --cov flag at all
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    with pytest.raises(SystemExit):
        cli.main(["classify", "--cov", path])


def test_parse_error_reports_line(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "nodes A B\ngraph\nA Z\n")
    code, _, err = run(["moments", "--samples", path], capsys)
    assert code == 1
    assert "line 3" in err and "unknown node label" in err


@pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity", "1e999999999", "1e-999999999"])
def test_bad_csv_cell_fails_fast_with_line(tmp_path, capsys, cell):
    # huge exponents are rejected from the float value, before any exact
    # conversion could build 10^999999999
    import time

    path = write(tmp_path, "bad.csv", f"# header\n0.24,0.04\n0.04,{cell}\n")
    started = time.perf_counter()
    code, out, err = run(["stats", "--cov", path], capsys)
    assert time.perf_counter() - started < 2.0
    assert code == 1 and out == ""
    assert err.startswith("netvar: error: line 3: ")


def test_estimator_flag(tmp_path, capsys, schema):
    path = write(tmp_path, "s.txt", SAMPLES_3)
    _, plug, _ = json_report(["stats", "--samples", path], capsys, schema)
    _, unb, _ = json_report(
        ["stats", "--samples", path, "--estimator", "unbiased"], capsys, schema
    )
    raw_p = next(s for s in plug["statistics"] if s["kind"] == "total")["raw"]
    raw_u = next(s for s in unb["statistics"] if s["kind"] == "total")["raw"]
    assert raw_u == pytest.approx(raw_p * 3 / 2)


def test_estimator_with_cov_is_rejected(tmp_path, capsys):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    code, out, err = run(["stats", "--cov", path, "--estimator", "unbiased"], capsys)
    assert code == 1 and out == ""
    assert "--estimator" in err
    code, _, _ = run(["stats", "--cov", path], capsys)
    assert code == 0


def test_mc_rejects_the_unbiased_estimator(tmp_path, capsys, schema, monkeypatch):
    # the MC null replicates are plug-in covariances: a bias-corrected observed
    # value would be compared with them, so the run stops before any draw
    path = write(tmp_path, "s.txt", SAMPLES_3)
    argv = ["mc", "--samples", path, "--replicates", "10"]

    def no_draws(*args, **kwargs):
        raise AssertionError("replicates drawn")

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "mc_pvalues", no_draws)
        code, out, err = run(argv + ["--estimator", "unbiased"], capsys)
    assert code == 1 and out == ""
    assert err == (
        "netvar: error: mc takes no --estimator unbiased: its null replicates are plug-in "
        "covariances (denominator m^2), so a bias-corrected observed value gets "
        "uncalibrated p-values\n"
    )
    code, plugin, _ = json_report(argv + ["--estimator", "plugin"], capsys, schema)
    assert code == 0 and plugin["input"]["estimator"] == "plugin"
    assert json_report(argv, capsys, schema)[1] == plugin


def test_table_output_is_seven_digits(tmp_path, capsys):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    _, out, _ = run(["test", "--cov", path, "--m", "10"], capsys)
    assert "0.4911379" in out  # 7 significant digits, as printed
    assert "0.49113793" not in out


def test_json_full_precision(tmp_path, capsys, schema):
    path = write(tmp_path, "s.txt", SAMPLES_3)
    _, report, _ = json_report(["moments", "--samples", path], capsys, schema)
    # shortest round-trip repr: parsing back gives the identical double
    assert report["moments"]["sigma"][0][1] == 1 / 3 - 2 / 3 * 1 / 3


def test_moments_table(tmp_path, capsys):
    path = write(tmp_path, "s.txt", SAMPLES_3)
    code, out, _ = run(["moments", "--samples", path], capsys)
    assert code == 0
    assert out == (
        f"netvar moments: samples {path} (m=3, k=3)\n"
        "p_hat: 0.6666667 0.3333333 0\n"
        "sigma:\n"
        "     0.2222222    0.1111111            0\n"
        "     0.1111111    0.2222222            0\n"
        "             0            0            0\n"
        "eigenvalues: 0.3333333 0.1111111 0\n"
        "covariance bounds: ok\n"
        "entropy: intermediate\n"
        "  000 x1\n"
        "  100 x1\n"
        "  110 x1\n"
    )


def test_moments_table_reports_estimated_breach_as_warning(tmp_path, capsys):
    path = write(tmp_path, "s.txt", SAMPLES_3)
    code, out, _ = run(["moments", "--samples", path, "--estimator", "unbiased"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index("covariance bounds: VIOLATED") + 1:][:2] == [
        "  diagonal_range[0]: 0.3333333 vs 0.25",
        "  diagonal_range[1]: 0.3333333 vs 0.25",
    ]
    assert lines[-1] == (
        "warning: estimated covariance outside the bounds: "
        "diagonal_range[0]: 0.3333333 vs bound 0.25; diagonal_range[1]: 0.3333333 vs bound 0.25"
    )


def test_classify_table(tmp_path, capsys):
    path = write(tmp_path, "s.txt", SAMPLES_3)
    code, out, _ = run(["classify", "--samples", path], capsys)
    assert code == 0
    assert out == (
        f"netvar classify: samples {path} (m=3, k=3)\n"
        "entropy: intermediate\n"
        "  000 x1 (0.3333333)\n"
        "  100 x1 (0.3333333)\n"
        "  110 x1 (0.3333333)\n"
        "distance from maximum entropy: total=0.4074074 generalized=0.4074074 "
        "frobenius=0.4205761\n"
    )


def test_stats_table_lists_violations_under_force(tmp_path, capsys):
    path = write(tmp_path, "bad.csv", "0.3,0\n0,0.1\n")
    code, out, _ = run(["stats", "--cov", path, "--force"], capsys)
    assert code == 0
    assert out == (
        f"netvar stats: covariance {path} (k=2)\n"  # no --m: the header omits m
        "eigenvalues: 0.3 0.1\n"
        "covariance bounds: VIOLATED\n"
        "  diagonal_range[0]: 0.3 vs 0.25\n"
        "statistic               raw     normalized   complemented\n"
        "total                   0.4            0.8            0.2\n"
        "generalized            0.03           0.48           0.52\n"
        "frobenius               0.2            0.8            0.2\n"
        "warning: covariance bounds violated, continuing under --force: "
        "diagonal_range[0]: 0.3 vs bound 0.25\n"
    )


def test_whole_matrix_violations_print_without_index(tmp_path, capsys, schema):
    path = write(tmp_path, "neg.csv", "0.25,0.25\n0.25,0.2\n")
    code, out, _ = run(["stats", "--cov", path, "--force"], capsys)
    assert code == 0
    assert out == (
        f"netvar stats: covariance {path} (k=2)\n"
        "eigenvalues: 0.4762469 -0.02624689\n"
        "covariance bounds: VIOLATED\n"
        "  cauchy_schwarz[0, 1]: 0.25 vs 0.2236068\n"
        "  negative_eigenvalue: -0.02624689 vs 0\n"
        "statistic               raw     normalized   complemented\n"
        "total                  0.45            0.9            0.1\n"
        "generalized       0.4762469              1              0 (rank-reduced, k_eff=1)\n"
        "frobenius            0.2775      0.5933333      0.4066667\n"
        "warning: covariance bounds violated, continuing under --force: "
        "cauchy_schwarz[0, 1]: 0.25 vs bound 0.2236068; "
        "negative_eigenvalue: -0.02624689 vs bound 0\n"
        "warning: generalized variance rank-reduced to k_effective=1\n"
    )
    hot = write(tmp_path, "hot.csv", "0.3,0\n0,0.3\n")
    _, report, _ = json_report(["test", "--cov", hot, "--m", "10", "--force",
                                "--methods", "tt"], capsys, schema)
    assert report["warnings"] == [
        "covariance bounds violated, continuing under --force: "
        "diagonal_range[0]: 0.3 vs bound 0.25; diagonal_range[1]: 0.3 vs bound 0.25; "
        "trace_bound: 0.6 vs bound 0.5"
    ]


def test_a_bounds_message_lists_the_first_ten_violations(tmp_path, capsys, schema):
    # k diagonal entries of 0.3 breach their range and, together, the trace
    # bound: ten violations are listed in full, eleven as the first ten and a
    # count; the diagnostics block of stats lists every one
    def diagonal(k):
        return "".join(",".join("0.3" if i == j else "0" for j in range(k)) + "\n"
                       for i in range(k))

    def listed(k):
        return "; ".join(f"diagonal_range[{i}]: 0.3 vs bound 0.25" for i in range(k))

    nine, ten = write(tmp_path, "d9.csv", diagonal(9)), write(tmp_path, "d10.csv", diagonal(10))
    _, report, _ = json_report(["stats", "--cov", nine, "--force"], capsys, schema)
    assert report["warnings"] == ["covariance bounds violated, continuing under --force: "
                                  f"{listed(9)}; trace_bound: 2.7 vs bound 2.25"]
    _, report, _ = json_report(["stats", "--cov", ten, "--force"], capsys, schema)
    assert report["warnings"] == ["covariance bounds violated, continuing under --force: "
                                  f"{listed(10)}; and 1 more"]
    assert len(report["diagnostics"]["violations"]) == 11
    assert run(["stats", "--cov", ten], capsys) == (1, "", (
        f"netvar: error: covariance violates its bounds ({listed(10)}; and 1 more); "
        "use --force to proceed\n"))


def test_a_forced_hadamard_report_stays_small(tmp_path, capsys):
    # Sylvester's H_256 (entries +-1) breaks its bounds 57,409 times; the
    # warning names ten of them, not megabytes of them
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(8):
        h = np.block([[h, h], [h, -h]])
    path = write(tmp_path, "h256.csv", "".join(",".join(map(str, r)) + "\n" for r in h.tolist()))
    code, out, _ = run(["test", "--cov", path, "--m", "300", "--force", "--format", "json"],
                       capsys)
    (warning,) = json.loads(out)["warnings"]
    assert code == 0 and len(out) < 4096
    assert warning.endswith("diagonal_range[9]: 1 vs bound 0.25; and 57399 more")


def test_a_json_report_is_one_write():
    # each write of an unbuffered stream (PYTHONUNBUFFERED=1) is a system call
    report = {"schema_version": "1", "warnings": ["w"], "mc": [{"p_value": 0.5, "x": None}]}
    text, writes = io.StringIO(), []
    json.dump(report, text, indent=2)
    cli.emit(report, "json", type("Out", (), {"write": lambda self, s: writes.append(s)})())
    assert writes == [text.getvalue() + "\n"]


def test_test_table_per_method_error_row(tmp_path, capsys):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    code, out, _ = run(["test", "--cov", path, "--m", "1", "--methods", "tg2,tt"], capsys)
    assert code == 1
    assert out.splitlines()[1:] == [
        "method        statistic          p_raw     p_adjusted",
        "t_G2     error: gamma shape non-positive: need m + 1 > k, got m=1, k=2",
        "t_T                1.92      0.6171071      0.9762491",
    ]


def test_import_leaves_numpy_random_unloaded():
    # numpy.random (with secrets, hmac and hashlib) adds start-up time to
    # every subcommand; only a Monte Carlo draw needs it, and loads it then
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, netvar.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_import_leaves_montecarlo_unloaded():
    # only `mc` uses montecarlo; the package loads it on first use of its names,
    # and montecarlo itself starts its worker threads without concurrent.futures
    # (which loads logging)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, netvar.cli\n"
        "loaded = {'netvar.montecarlo', 'concurrent.futures', 'logging'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "import netvar\n"
        "assert netvar.mc_pvalues is netvar.montecarlo.mc_pvalues\n"
        "loaded = {'concurrent.futures', 'logging'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "star = {}\n"
        "exec('from netvar import *', star)\n"
        "assert set(netvar.__all__) <= set(star) and not hasattr(netvar, 'no_such_name')\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_import_loads_each_module_on_first_use_of_its_names():
    # `import netvar` loads no submodule and no numpy; a name loads its
    # module, and what that module imports, and nothing else
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, netvar\n"
        "ours = lambda: {name for name in sys.modules if name.startswith('netvar.')}\n"
        "assert not ours() and 'numpy' not in sys.modules, ours()\n"
        "netvar.CovMatrix\n"
        "assert ours() == {'netvar.moments', 'netvar.graphs'}, ours()\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("flag, name, text", [
    ("--samples", "s.txt", SAMPLES_3), ("--cov", "c.csv", "0.24,0.04\n0.04,0.24\n")])
def test_an_input_with_a_byte_order_mark_gives_the_same_report(flag, name, text, tmp_path,
                                                              capsys, monkeypatch):
    # some editors start a UTF-8 file with U+FEFF; the report records the path as
    # given, so each copy is read by the same relative name
    reports = []
    for encoding in ("utf-8", "utf-8-sig"):  # the second writes the mark
        (tmp_path / encoding).mkdir()
        (tmp_path / encoding / name).write_text(text, encoding=encoding)
        monkeypatch.chdir(tmp_path / encoding)
        reports.append(run(["stats", flag, name, "--format", "json"], capsys))
    assert (tmp_path / "utf-8-sig" / name).read_bytes().startswith(b"\xef\xbb\xbf")
    assert reports[0][0] == 0 and reports[0] == reports[1]


@pytest.mark.parametrize("interrupted", ["command", "emit"])
def test_ctrl_c_prints_one_line_and_exits_130(interrupted, tmp_path, capsys, monkeypatch):
    # no traceback: the exit status a shell gives a process ended by SIGINT
    def ctrl_c(*args):
        raise KeyboardInterrupt

    if interrupted == "command":
        monkeypatch.setattr(cli, "cmd_stats", ctrl_c)
    else:
        monkeypatch.setattr(cli, "emit", ctrl_c)
    path = write(tmp_path, "c.csv", "0.25\n")
    assert run(["stats", "--cov", path], capsys) == (130, "", "netvar: interrupted\n")


def test_samples_and_cov_give_the_same_floats(tmp_path, capsys, schema):
    # 2 nodes, 5 graphs, the edge in 1: the covariance is 4/25 both ways
    samples = write(tmp_path, "s.txt", "nodes A B\ngraph\nA B\n" + "graph\n" * 4)
    cov = write(tmp_path, "c.csv", "0.16\n")
    _, by_samples, _ = json_report(["stats", "--samples", samples], capsys, schema)
    _, by_cov, _ = json_report(["stats", "--cov", cov, "--m", "5"], capsys, schema)
    assert by_samples["covariance"] == by_cov["covariance"]
    assert by_samples["covariance"]["matrix"] == [[0.16]]
    assert by_samples["statistics"] == by_cov["statistics"]


def test_clamped_eigenvalue_warning(tmp_path, capsys, schema):
    path = write(tmp_path, "c.csv", "0.25,0\n0,-1e-10\n")
    code, report, _ = json_report(["stats", "--cov", path], capsys, schema)
    assert code == 0 and report["diagnostics"]["valid"]
    assert "eigenvalues within 1e-10 below 0 clamped to 0" in report["warnings"]


def netvar_json(argv, cwd):
    """A report of the ``netvar`` command as a user runs it, in its own process;
    stderr (where numpy prints its warnings) must stay empty."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "netvar.cli", *argv, "--format", "json"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.stderr == "", done.stderr
    return done.returncode, json.loads(done.stdout)


S1 = "0.24,0.04\n0.04,0.24\n"
ENTRY = "netvar: error: covariance entries must lie in [-1, 1], got {}\n"


def past(m, k):
    return f"sample count {m} at k = {k} edges is past the bound m k <= 2^32"


DOMAIN_ROWS = [  # id, argv ("in" is the input file), its text, exit code, and the one
    # error line, or (for a report) the per-method test errors
    # entries: the ends of [-1, 1] are in under --force, the next floats out
    ("entry-1", ["stats", "--cov", "in", "--force"], "1\n", 0, []),
    ("entry-minus-1", ["mc", "--cov", "in", "--m", "10", "--force", "--replicates", "100"],
     "-1\n", 0, []),
    ("entry-past-1", ["stats", "--cov", "in", "--force"], "1.0000000000000002\n", 1,
     ENTRY.format("1.0000000000000002")),
    ("entry-past-minus-1", ["test", "--cov", "in", "--m", "10", "--force"],
     "0,-1.0000000000000002\n-1.0000000000000002,0\n", 1, ENTRY.format("-1.0000000000000002")),
    # past 1 exactly, though its float is 1: named by its exact value
    ("entry-past-1-exactly", ["stats", "--cov", "in", "--force"], "1.00000000000000001\n", 1,
     ENTRY.format("100000000000000001/100000000000000000")),
    # a bias-corrected estimate from m = 2 reaches 1/2
    ("unbiased-m2", ["stats", "--samples", "in", "--estimator", "unbiased"],
     "nodes A B\ngraph\nA B\ngraph\n", 0, []),
    # m k: 2^32 is in, 2^32 + 1 out (t_T's gamma shape is 2^31 at the bound)
    ("test-mk-2^32", ["test", "--cov", "in", "--m", str(2**32)], "0.25\n", 0, []),
    ("test-mk-past", ["test", "--cov", "in", "--m", str(2**32 + 1)], "0.25\n", 1,
     [past(2**32 + 1, 1)]),
    ("mc-mk-past", ["mc", "--cov", "in", "--m", str(2**32 + 1)], "0.25\n", 1,
     f"netvar: error: {past(2**32 + 1, 1)}\n"),
    # inputs that ended in a traceback, a RuntimeWarning or numpy's words
    *((f"test-m-1e{len(str(m)) - 1}", ["test", "--cov", "in", "--m", str(m)], S1, 1, [past(m, 2)])
      for m in (10**12, 10**16, 10**300, 10**400)),
    *((f"mc-m-1e{len(str(m)) - 1}", ["mc", "--cov", "in", "--m", str(m)], S1, 1,
       f"netvar: error: {past(m, 2)}\n") for m in (10**12, 10**300)),
    ("test-1e300", ["test", "--cov", "in", "--m", "10", "--force"], "1e300\n", 1,
     ENTRY.format("1e+300")),
    ("mc-rank-one-1e308", ["mc", "--cov", "in", "--m", "10", "--force"],
     "1e308,1e308\n1e308,1e308\n", 1, ENTRY.format("1e+308")),
    ("stats-1e308", ["stats", "--cov", "in", "--force"], "1e308,0\n0,1e308\n", 1,
     ENTRY.format("1e+308")),
    ("test-1e200", ["test", "--cov", "in", "--m", "10", "--force"], "1e200,0\n0,0.1\n", 1,
     ENTRY.format("1e+200")),
]


@pytest.mark.parametrize("argv, text, code, want",
                         [pytest.param(*row, id=name) for name, *row in DOMAIN_ROWS])
def test_the_admissible_domain_on_both_sides_of_each_bound(argv, text, code, want, tmp_path,
                                                           capsys, monkeypatch):
    # every input ends in a report (here: its per-method test errors) or in
    # one error line, with no traceback and no RuntimeWarning (an error here)
    (tmp_path / "in").write_text(text)
    monkeypatch.chdir(tmp_path)
    got, out, err = run(argv + ["--format", "json"], capsys)
    if err:
        assert (got, out, err) == (code, "", want)
    else:
        errors = {t["error"] for t in json.loads(out).get("tests", ()) if "error" in t}
        assert (got, sorted(errors)) == (code, want)


def test_the_sample_bound_of_a_monte_carlo_plan():
    # checked before any scratch is allocated: a worker at the bound holds ~1.6 GiB
    for m, k in ((2**32, 1), (2**31, 2)):
        assert montecarlo._plan(tuple(StatKind), 1, m, k, 0, 2)[2:] == (k, 0, [1], 1)
    with pytest.raises(ValueError, match=re.escape(past(2**32 + 1, 1))):
        montecarlo._plan((StatKind.TOTAL,), 1, 2**32 + 1, 1, 0, 1)


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 1.6 GiB"), MemoryError()],
                         ids=["message", "bare"])
def test_out_of_memory_is_one_error_line(error, tmp_path, capsys, monkeypatch):
    def scratch(*args):
        raise error

    monkeypatch.setattr(montecarlo, "_scratch", scratch)
    path = write(tmp_path, "c.csv", "0.25\n")
    assert run(["mc", "--cov", path, "--m", "10"], capsys) == (
        1, "", f"netvar: error: {str(error) or 'MemoryError'}\n")


def test_forced_rank_one_matrix_at_the_domain_end(tmp_path, capsys, schema):
    # eigenvalues [2, 0]: the zero makes the strict determinant and its
    # ratio 0, so t_G1 = -sqrt(m) and t_G2 = 0; the tests run as a user runs them
    path = write(tmp_path, "rank1.csv", "1,1\n1,1\n")
    code, report, _ = json_report(["stats", "--cov", path, "--force", "--rank-policy", "strict"],
                                  capsys, schema)
    gen = next(s for s in report["statistics"] if s["kind"] == "generalized")
    assert (code, gen["raw"], gen["normalized"]) == (0, 0.0, 0.0)
    code, report = netvar_json(["test", "--cov", "rank1.csv", "--m", "10", "--force"], tmp_path)
    tests = {t["method"]: t for t in report["tests"]}
    assert code == 0 and not [t for t in report["tests"] if "error" in t]
    assert tests["t_G1"]["statistic"] == -math.sqrt(10) and tests["t_G2"]["statistic"] == 0.0
