import json

import jsonschema
import pytest

from netvar import cli

MAX_ENT = "nodes A B\ngraph\nA B\ngraph\n"  # hand-built below where k=2 needed
SAMPLES_3 = "nodes A B C\ngraph\nA B\nA C\ngraph\nA B\ngraph\n"


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


def test_mc_reports_identical_across_worker_counts(tmp_path, capsys):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    argv = ["mc", "--cov", path, "--m", "10", "--replicates", "9000", "--seed", "4",
            "--format", "json"]
    outs = {run(argv + ["--workers", w], capsys)[1] for w in ("1", "2", "8")}
    assert len(outs) == 1


@pytest.mark.parametrize("workers", ["0", "-3", "abc"])
def test_mc_workers_below_one_is_usage_error(tmp_path, capsys, workers):
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", "--cov", path, "--m", "10", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


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


def test_m_that_contradicts_the_sample_set_fails(tmp_path, capsys):
    path = write(tmp_path, "s.txt", SAMPLES_3)
    code, out, err = run(["mc", "--samples", path, "--m", "50", "--replicates", "10"], capsys)
    assert code == 1 and out == ""
    assert "--m 50" in err and "3 graphs" in err
    # the sample set's own count is accepted
    code, _, _ = run(["mc", "--samples", path, "--m", "3", "--replicates", "10"], capsys)
    assert code == 0


def test_mc_bad_netvar_threads_is_reported(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NETVAR_THREADS", "abc")
    path = write(tmp_path, "s1.csv", "0.24,0.04\n0.04,0.24\n")
    code, _, err = run(["mc", "--cov", path, "--m", "10", "--replicates", "100"], capsys)
    assert code == 1
    assert "NETVAR_THREADS" in err


def test_mc_below_resolution_annotation(tmp_path, capsys, schema):
    path = write(tmp_path, "s2.csv", "0.1056,-0.0336\n-0.0336,0.2016\n")
    _, report, _ = json_report(
        ["mc", "--cov", path, "--m", "100", "--replicates", "2000", "--seed", "3",
         "--mc-stat", "vart"],
        capsys, schema,
    )
    entry = report["mc"][0]
    assert entry["p_value"] == 0.0
    assert entry["p_value_upper_bound"] == pytest.approx(1 / 2000)
    assert any("p <" in w for w in report["warnings"])


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
