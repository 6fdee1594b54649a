"""The experiment scripts run from a plain checkout, as the README shows them."""

import os
import subprocess
import sys
from pathlib import Path

from iharazeta.graphs import parse_generator
from iharazeta.report import analyze

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(tmp_path, *argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_hk_sign_scan_runs_without_pythonpath(tmp_path):
    assert _run_script(tmp_path, "hk_sign_scan.py", "--max-ring", "6",
                       "--k", "20")[-1].split()[0] == "6"


def test_estimator_convergence_ends_at_analyze_estimate(tmp_path):
    # the deepest pair the script prints is the one analyze's estimator uses
    *_, last = _run_script(tmp_path, "estimator_convergence.py")
    report = analyze(parse_generator("prism:24"), "prism:24", 100,
                     include_timings=False)
    assert last.split()[0] == "98"
    assert last.split()[2] == f"{report['estimator']['estimate']:.10f}"


def test_check_ladder_runs_without_pythonpath(tmp_path):
    header, *rows = _run_script(tmp_path, "check_ladder.py", "--k", "50")
    assert header.split()[:7] == ["K", "graph", "exit", "spectral", "witness",
                                  "k_pinned", "max_residual"]
    assert len(rows) == 24
    for row in rows:
        k, spec, code, spectral, witness = row.split()[:5]
        assert k == "50" and code in ("0", "1"), row
        # the spectral verdict and the exact h_k witness agree at K = 50
        assert (spectral == "True") == (witness == "None"), row


def test_check_ladder_tabulates_an_edge_list_file(tmp_path):
    # the doubled 12-cycle, a multigraph no generator string gives, sits at
    # max |lam| = 2 sqrt(q) exactly and reads Ramanujan at K = 200
    (tmp_path / "doubled12.edges").write_text(
        "".join(f"{i} {(i + 1) % 12}\n" * 2 for i in range(12)))
    header, row = _run_script(tmp_path, "check_ladder.py", "doubled12.edges",
                              "--k", "200")
    assert header.split()[:7] == ["K", "graph", "exit", "spectral", "witness",
                                  "k_pinned", "max_residual"]
    assert row.split()[:5] == ["200", "doubled12.edges", "0", "True", "None"]


def test_output_digests_are_stable_lines(tmp_path):
    first = _run_script(tmp_path, "output_digests.py", "petersen", "complete:4")
    assert first == _run_script(tmp_path, "output_digests.py", "petersen",
                                "complete:4")
    labels = ["analyze", "analyze-k200", "census", "series-csv", "series-json",
              "series-k200", "check", "estimate", "zeta"]
    assert [line.split()[:2] for line in first] == [
        [label, spec] for spec in ("petersen", "complete:4") for label in labels]
    empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    for line in first:
        _, _, out, err, code = line.split()
        assert len(out) == 64 and int(out, 16) and out != empty, line
        assert (err, code) == (empty, "0"), line
