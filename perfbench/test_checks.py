"""The output checks accept the program's real outputs and reject corrupted
copies; the tracer's self times add up.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import iharazeta  # noqa: E402
from iharazeta import cli  # noqa: E402
from iharazeta.graphs import adjacency_matrix, parse_generator  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import HOT, IMPORTERS, WORKLOADS  # noqa: E402

CASES = {
    "analyze-ram": ("analyze", "petersen", 30),
    "analyze-non": ("analyze", "prism:16", 50),
    "census-bip": ("census", "prism:6", 40),
    "census-odd": ("census", "petersen", 40),
    "estimate-non": ("estimate", "prism:24", 100),
    "estimate-ram": ("estimate", "hypercube:3", 100),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("out") / "out.json"
    result = {}
    for case, (command, spec, K) in CASES.items():
        assert cli.main([command, spec, "--k", str(K), "--no-timings",
                         "--out", str(path)]) == 0
        result[case] = json.loads(path.read_text())
    return result


def run_check(case: str, out: dict) -> list[str]:
    command, spec, K = CASES[case]
    return checks.CHECKS[command](checks.Graph(spec), out, K)


@pytest.mark.parametrize("case", sorted(CASES))
def test_real_output_passes(outputs, case):
    assert run_check(case, outputs[case]) == []


def bump(seq: list[str], k: int, delta: int = 1) -> None:
    seq[k] = str(int(seq[k]) + delta)


def set_path(out: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        out = out[key]
    out[path[-1]] = value


CORRUPTIONS = {
    "eigenvalue nudged": ("analyze-ram", lambda o: o["spectrum"].__setitem__(
        3, o["spectrum"][3] + 1e-6)),
    "nontrivial eigenvalue nudged": ("analyze-non", lambda o: o["nontrivial_spectrum"]
                                     .__setitem__(0, o["nontrivial_spectrum"][0] * 1.001)),
    "analyze C_k off by one": ("analyze-ram", lambda o: bump(o["census"]["c"], 7)),
    "analyze N_k off by one": ("analyze-non", lambda o: bump(o["census"]["n"], 20, -1)),
    "spectral verdict flipped": ("analyze-ram", lambda o: set_path(
        o, ("verdicts", "spectral", "is_ramanujan"), False)),
    "spectral verdict flipped, non-Ramanujan": ("analyze-non", lambda o: set_path(
        o, ("verdicts", "spectral", "is_ramanujan"), True)),
    "hk verdict flipped": ("analyze-ram", lambda o: o["verdicts"]["hk"].update(
        is_ramanujan=False, witness=4)),
    "hk verdict flipped, non-Ramanujan": ("analyze-non", lambda o: o["verdicts"]["hk"]
                                          .update(is_ramanujan=True, witness=None)),
    "h_k nudged": ("analyze-non", lambda o: o["h"]["from_ck"].__setitem__(
        10, o["h"]["from_ck"][10] + 0.01)),
    "h_k negative on a Ramanujan graph": ("analyze-ram", lambda o: o["h"]["series"]
                                          .__setitem__(5, -1e-3)),
    "census C_k off by one, even k": ("census-bip", lambda o: bump(o["c"], 12)),
    "census C_k off by one, odd k": ("census-bip", lambda o: bump(o["c"], 13)),
    "census C_k off by one, last k": ("census-odd", lambda o: bump(o["c"], 40)),
    "census N_k off by one": ("census-odd", lambda o: bump(o["n"], 30)),
    "census truncated": ("census-odd", lambda o: o["n"].pop()),
    "estimate nudged": ("estimate-non", lambda o: o.update(
        estimate=o["estimate"] * 1.01,
        implied_max_abs_eigenvalue=o["implied_max_abs_eigenvalue"] * 1.01)),
    "analyze estimate nudged": ("analyze-non", lambda o: o["estimator"].update(
        estimate=o["estimator"]["estimate"] * 1.2,
        implied_max_abs_eigenvalue=o["estimator"]["implied_max_abs_eigenvalue"] * 1.2)),
    "estimate status flipped": ("estimate-non", lambda o: o.update(status="not_applicable")),
    "estimate status flipped, Ramanujan": ("estimate-ram", lambda o: o.update(
        status="ok", estimate=2.2, implied_max_abs_eigenvalue=2.2 * 2 ** 0.5,
        k_used=[98, 100])),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_is_rejected(outputs, name):
    case, corrupt = CORRUPTIONS[name]
    out = copy.deepcopy(outputs[case])
    corrupt(out)
    assert run_check(case, out)


def test_estimator_interval_is_tight_where_the_gap_is_wide():
    # prism:24 has one outside pair of eigenvalues, so the bound is ~1e-9 wide
    g = checks.Graph("prism:24")
    lo, hi = checks.estimator_interval(g, 98)
    assert lo <= g.max_abs <= hi and hi - lo < 1e-6


def test_own_graphs_match_the_programs_spectra():
    specs = {g for _, _, graphs, _ in WORKLOADS.values() for g in graphs}
    for spec in sorted(specs | {spec for _, spec, _ in CASES.values()}):
        mine = checks.Graph(spec)
        theirs = np.linalg.eigvalsh(adjacency_matrix(parse_generator(spec)).astype(float))
        assert np.allclose(np.sort(theirs)[::-1], mine.spectrum, atol=1e-9), spec
        assert 2 * mine.n <= checks.MAX_EXACT_ORDER


def test_primes_and_mobius():
    for p in checks.PRIMES:
        assert all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert [checks.mobius(k) for k in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_tracer_self_times_add_up(tmp_path):
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    original = iharazeta.report.build_census
    tracer.install(iharazeta, IMPORTERS)
    try:
        assert iharazeta.report.build_census is not original
        assert traced_main(["analyze", "petersen", "--k", "20", "--no-timings",
                            "--out", str(tmp_path / "o.json")]) == 0
    finally:
        tracer.uninstall()
    assert iharazeta.report.build_census is original
    seconds, calls = tracer.self_times()
    root = tracer.end[0] - tracer.start[0]
    assert calls["cli.main"] == 1 and tracer.parent[0] == -1
    assert abs(sum(seconds.values()) - root) < 1e-9
    assert all(s >= 0 for s in seconds.values())
    assert all(calls[name] == 1 for name in HOT if not name.startswith(("census.nk_", "zetaxi.f")))
