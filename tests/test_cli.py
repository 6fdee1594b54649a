"""cli-report: subcommands, exit codes, determinism, round-trips."""

import json
import math

import pytest

from iharazeta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_analyze_petersen(capsys):
    report = run_json(capsys, "analyze", "petersen", "--k", "20")
    assert report["schema"] == 2
    assert report["graph"] == {"n": 10, "q": 2, "edges": 15, "loops": 0,
                               "bipartite": False, "connected": True}
    assert report["verdicts"]["spectral"]["is_ramanujan"]
    assert report["verdicts"]["hk"]["is_ramanujan"]
    assert report["functional_equation"]["ok"]
    assert report["route_agreement"]["ok"]
    assert report["estimator"]["status"] == "not_applicable"
    assert len(report["h"]["spectral"]) == 20
    assert "timings" in report


@pytest.mark.parametrize("spec", ["prism:26", "prism:30", "complete:6",
                                  "complete:30"])
def test_analyze_exits_zero_past_float_range_and_cancellation(capsys, spec):
    # prism:26/30 have xi values past the float range at sample points;
    # complete:6/30 have h_k terms that cancel to O(n)
    report = run_json(capsys, "analyze", spec, "--k", "50", "--no-timings")
    assert report["functional_equation"]["ok"]
    assert report["route_agreement"]["ok"]


def test_analyze_prism24_refutation(capsys):
    report = run_json(capsys, "analyze", "prism:24", "--k", "60")
    assert not report["verdicts"]["spectral"]["is_ramanujan"]
    assert not report["verdicts"]["hk"]["is_ramanujan"]
    assert report["verdicts"]["hasse_weil"]["first_violation_k"] is not None
    est = report["estimator"]
    assert est["status"] == "ok"
    target = (2 * math.cos(math.pi / 12) + 1) / math.sqrt(2)
    assert abs(est["estimate"] - target) < 1e-3


def test_analyze_require_ramanujan_exit_code(capsys):
    code, _, _ = run(capsys, "analyze", "prism:24", "--k", "40",
                     "--require-ramanujan")
    assert code == 1
    code, _, _ = run(capsys, "analyze", "petersen", "--k", "40",
                     "--require-ramanujan")
    assert code == 0


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n1 x\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


def test_analyze_not_regular_exit(tmp_path, capsys):
    path = tmp_path / "star.edges"
    path.write_text("0 1\n0 2\n0 3\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2


def test_census_k4(capsys):
    payload = run_json(capsys, "census", "complete:4", "--k", "3")
    assert payload["c"] == ["4", "0", "12", "24"]
    assert payload["n"] == ["0", "0", "24"]


def test_census_with_oracle(capsys):
    payload = run_json(capsys, "census", "cycle:5", "--k", "5",
                       "--oracle-k", "5")
    assert payload["n"] == ["0", "0", "0", "0", "10"]
    assert payload["oracle_n"] == payload["n"]


def test_census_rejects_k0(capsys):
    code, _, _ = run(capsys, "census", "petersen", "--k", "0")
    assert code == 2


def test_series_all_routes_agree(capsys):
    code, out, _ = run(capsys, "series", "kmm:3", "--k", "8", "--route", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,spectral,ck,series"
    assert len(lines) == 9
    for line in lines[1:]:
        k, *vals = line.split(",")
        floats = [float(v) for v in vals]
        assert max(floats) - min(floats) < 1e-6
        if int(k) % 2 == 1:
            assert floats == [8.0] * 3


def test_series_header_only_for_k0(capsys):
    code, out, _ = run(capsys, "series", "petersen", "--k", "0")
    assert code == 0
    assert out.strip() == "k,spectral,ck,series"


def test_series_single_route(capsys):
    code, out, _ = run(capsys, "series", "petersen", "--k", "50",
                       "--route", "spectral")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,h_k,route"
    assert len(lines) == 51
    assert all(float(line.split(",")[1]) >= -1e-8 for line in lines[1:])


def test_zeta_payload(capsys):
    payload = run_json(capsys, "zeta", "petersen")
    assert payload["degree"] == 30
    assert payload["zeta_inverse_coefficients"][0] == 1.0
    assert len(payload["xi_denominator"]) == 19


def test_check_payload(capsys):
    payload = run_json(capsys, "check", "kmm:3", "--k", "20")
    assert payload["verdicts"]["spectral"]["is_ramanujan"]
    assert payload["functional_equation"]["ok"]


def test_estimate_prism(capsys):
    payload = run_json(capsys, "estimate", "prism:24", "--k", "100")
    assert payload["status"] == "ok"
    assert payload["converged"]


def test_estimate_ramanujan_not_applicable(capsys):
    payload = run_json(capsys, "estimate", "petersen", "--k", "60")
    assert payload["status"] == "not_applicable"


def test_generate_and_round_trip(tmp_path, capsys):
    path = tmp_path / "prism6.edges"
    code, _, _ = run(capsys, "generate", "prism:6", "--out", str(path))
    assert code == 0
    report_file = run_json(capsys, "analyze", str(path), "--k", "15",
                           "--no-timings")
    report_gen = run_json(capsys, "analyze", "prism:6", "--k", "15",
                          "--no-timings")
    report_file.pop("source")
    report_gen.pop("source")
    assert report_file == report_gen


def test_determinism_without_timings(capsys):
    _, out1, _ = run(capsys, "analyze", "petersen", "--k", "15", "--no-timings")
    _, out2, _ = run(capsys, "analyze", "petersen", "--k", "15", "--no-timings")
    assert out1 == out2


def test_determinism_modulo_timings(capsys):
    r1 = run_json(capsys, "analyze", "kmm:3", "--k", "10")
    r2 = run_json(capsys, "analyze", "kmm:3", "--k", "10")
    r1.pop("timings")
    r2.pop("timings")
    assert r1 == r2


def test_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv("IHARA_SEED", "7")
    report = run_json(capsys, "analyze", "petersen", "--k", "10")
    assert report["seed"] == 7
    assert report["functional_equation"]["ok"]


def test_seed_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("IHARA_SEED", "not-a-number")
    code, _, err = run(capsys, "analyze", "petersen", "--k", "10")
    assert code == 2


def test_k_cap(capsys):
    code, _, err = run(capsys, "analyze", "petersen", "--k", "300")
    assert code == 2
    assert "200" in err


def test_k_cost_warning(capsys):
    code, _, err = run(capsys, "estimate", "complete:4", "--k", "120")
    assert code == 0
    assert "costly" in err


def test_series_json_format(capsys):
    payload = run_json(capsys, "series", "kmm:3", "--k", "6",
                       "--route", "all", "--format", "json")
    assert set(payload["routes"]) == {"spectral", "ck", "series"}
    assert payload["routes"]["ck"][0] == 8.0


def test_csv_format_rejected_elsewhere(capsys):
    code, _, err = run(capsys, "analyze", "petersen", "--format", "csv")
    assert code == 2
    assert "series" in err


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "complete:4", "--k", "10",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["graph"]["n"] == 4
