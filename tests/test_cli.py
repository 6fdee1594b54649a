"""cli-report: subcommands, exit codes, determinism, round-trips."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import iharazeta
import iharazeta.cli as cli_mod
import iharazeta.graphs as graphs_mod
import iharazeta.report as report_mod

import iharazeta.census as census_mod
from iharazeta.census import CycleCensus, characteristic_polynomial, walk_plan
from iharazeta.cli import main
from iharazeta.graphs import parse_generator, write_edge_list
from iharazeta.report import report_to_json

from conftest import ALL_FIXTURES, get_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("command", ["analyze", "check"])
def test_functional_equation_leaves_numpy_random_unloaded(command):
    # numpy.random costs a fresh process about 7 MB and 20 ms to import
    src = os.path.dirname(os.path.dirname(iharazeta.__file__))
    code = ("import contextlib, io, sys\n"
            "from iharazeta.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main([{command!r}, 'petersen', '--k', '10']) == 0\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random loaded'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


# sha256 of `ihara census <g> --k 150 --no-timings`: exact integers, so the
# digest is the same on every platform
CENSUS_K150_SHA256 = {
    "hypercube:6": "17c7e06a04416bb66a1ba233462f586706e03ce374b76f60125c7553c61f331a",
    "complete:30": "78a71879732761abfed0c42d5a9b98c66fed76e5e11068a7fce17aabb5fe387e",
    "prism:24": "00dd2eda7d208d3407db48017e6f0fa1fb947a29173e7fe0cbba6ad5cdd8f772",
    "circulant:40:1,7": "3f7cd9c43ee06158c9c43c77e65aedd9910f28c7975b1dd89837193cba0519b7",
    "hypercube:5": "5ed3c263033188b5ba32145f77aec35af8c09bbf28463931748d72d2eed29be0",
    "kmm:16": "6b16473b1f0a859ae60fd16da8d952c04f18c5c196539fc3dc9e6cce36800bbf",
}


@pytest.mark.parametrize("spec", sorted(CENSUS_K150_SHA256))
def test_census_k150_output_is_pinned(capsys, spec):
    code, out, err = run(capsys, "census", spec, "--k", "150", "--no-timings")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_K150_SHA256[spec]


def test_analyze_petersen(capsys):
    report = run_json(capsys, "analyze", "petersen", "--k", "20")
    assert report["schema"] == 5
    assert report["graph"] == {"n": 10, "q": 2, "edges": 15, "loops": 0,
                               "bipartite": False, "connected": True}
    assert report["verdicts"]["spectral"]["is_ramanujan"]
    assert report["verdicts"]["hk"]["is_ramanujan"]
    assert "functional_equation" not in report and "seed" not in report
    assert "route_agreement" not in report and report["zeta_census_check"]["ok"]
    assert report["estimator"]["status"] == "not_applicable"
    assert len(report["h"]["spectral"]) == 20
    assert "timings" in report


@pytest.mark.parametrize("spec", ["prism:26", "prism:30", "complete:6",
                                  "complete:30"])
def test_analyze_exits_zero_past_float_range_and_cancellation(capsys, spec):
    # prism:26/30 have xi values past the float range at u in [0.1, 0.9],
    # where no step of analyze evaluates xi; complete:6/30 have h_k terms
    # that cancel to O(n)
    report = run_json(capsys, "analyze", spec, "--k", "50", "--no-timings")
    assert report["zeta_census_check"]["ok"]


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
    # analyze and check refuse by one rule, and only under the flag
    for cmd in ("analyze", "check"):
        code, _, _ = run(capsys, cmd, "prism:24", "--k", "40",
                         "--require-ramanujan")
        assert code == 1
        code, _, _ = run(capsys, cmd, "petersen", "--k", "40",
                         "--require-ramanujan")
        assert code == 0
        code, _, _ = run(capsys, cmd, "prism:24", "--k", "40")
        assert code == 0


@pytest.mark.parametrize("spec", ["hypercube:4", "kmm:6", "circulant:12:1,3",
                                  "complete:10", "complete:16", "kmm:10",
                                  "kmm:30"])
def test_check_spectral_nk_within_budget(capsys, spec):
    # N_k = 0 at bipartite odd k and N_k past 2^53 once tripped a fixed
    # rounding tolerance in the spectral N_k check, which the spectral h_k
    # budget now makes
    payload = run_json(capsys, "check", spec, "--k", "50", "--no-timings")
    assert payload["zeta_census_check"]["ok"]


def test_spectral_nk_budget_checked_above_operator_edge_limit(monkeypatch, capsys):
    # prism:101 has a 404 x 404 Ihara-Bass companion, past the size limit
    # the operator cross-check once had; the check now runs there, passes,
    # and the spectral h_k budget check must still run after it
    monkeypatch.setattr("iharazeta.report.hk_spectral_budget",
                        lambda values, q, n, h, bipartite: np.full(len(h), -1.0))
    code, _, err = run(capsys, "analyze", "prism:101", "--k", "20")
    assert code == 3
    assert "error budget" in err


# the analyze-k50 benchmark graphs
ANALYZE_K50_GRAPHS = ["petersen", "kmm:5", "hypercube:3", "cycle:7", "prism:6",
                      "prism:12", "circulant:30:1,4", "prism:16", "prism:20",
                      "prism:24"]


@pytest.mark.parametrize("spec", ANALYZE_K50_GRAPHS)
def test_spectral_route_off_by_one_part_in_1e9_exits_internal(monkeypatch, capsys,
                                                              spec):
    # a spectral h_k route scaled by 1 + 1e-9 stays within 1e-6 relative,
    # but not within its a-priori budget
    real = report_mod.hk_spectral
    monkeypatch.setattr(report_mod, "hk_spectral",
                        lambda *args: real(*args) * (1.0 + 1e-9))
    code, _, err = run(capsys, "analyze", spec, "--k", "50", "--no-timings")
    assert code == 3
    assert "error budget" in err


@pytest.mark.parametrize("spec", ANALYZE_K50_GRAPHS)
def test_series_route_off_by_one_part_in_1e9_exits_internal(monkeypatch, capsys,
                                                            spec):
    # the series route meets the spectral route's a-priori budget, and the
    # failure names it
    real = report_mod.hk_series
    monkeypatch.setattr(report_mod, "hk_series",
                        lambda *args: real(*args) * (1.0 + 1e-9))
    code, _, err = run(capsys, "analyze", spec, "--k", "50", "--no-timings")
    assert code == 3
    assert re.match(r"internal consistency failure: series h_\d+ strays .* "
                    r"beyond its error budget", err), err


@pytest.mark.parametrize("route", ["hk_spectral", "hk_series"])
def test_float_route_off_at_a_bipartite_odd_k_exits_internal(monkeypatch, capsys,
                                                             route):
    # every route gives h_49 = 2(n-2) = 196 exactly on prism:100, so its
    # budget is from_ck's rounding alone; 0.01 more is 5e-5 relative, inside
    # the 0.046 that the T_k table's terms would add there
    real = getattr(report_mod, route)

    def shifted(*args):
        h = real(*args).copy()
        h[48] += 0.01
        return h

    monkeypatch.setattr(report_mod, route, shifted)
    code, _, err = run(capsys, "analyze", "prism:100", "--k", "50", "--no-timings")
    assert code == 3
    name = route.removeprefix("hk_")
    assert err.startswith(f"internal consistency failure: {name} h_49 strays"), err


def test_spectral_budget_stays_finite_at_k200(capsys):
    # complete:60 at K = 200: nothing on stderr, so no RuntimeWarning from
    # the budget's powers
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "check", "complete:60", "--k", "200",
                           "--no-timings")
    assert (code, err) == (0, "")


def test_operator_check_runs_on_dense_graphs(monkeypatch, capsys):
    # complete:60 has 3540 oriented edges but a 120 x 120 companion, so the
    # operator cross-check runs, and a wrong N_k from it is an internal fault
    monkeypatch.setattr("iharazeta.report.geodesic_cycles_operator",
                        lambda g, K, prime: [0] * K)
    code, _, err = run(capsys, "analyze", "complete:60", "--k", "20")
    assert code == 3
    assert "operator traces disagree" in err


def test_uncaught_exception_exits_internal(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise OverflowError("stage blew up")

    monkeypatch.setattr("iharazeta.report.xi_rational", broken)
    code, out, err = run(capsys, "analyze", "petersen", "--k", "10")
    assert code == 3
    assert out == ""
    assert err == "internal error: OverflowError: stage blew up\n"


def test_corrupt_census_trace_exits_internal(monkeypatch, capsys):
    # a trace that fails Newton's divisibility check is an internal fault
    # (exit 3), not bad input (exit 2); past n = 7 the census forms chi_A
    # from its traces, and cycle:7 at K = 20 reads N_k off the Bass
    # determinant
    monkeypatch.setattr(
        "iharazeta.census.characteristic_polynomial",
        lambda head: characteristic_polynomial([head[0] + 1] + head[1:]))
    code, out, err = run(capsys, "census", "cycle:7", "--k", "20")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ArithmeticError: ")


# (graph, K, k): a census N_k one off past k_pinned, where the spectral h_k
# budget misses it, and past k = 20 or on prism:101 (n > 200), where an
# operator check of N_1..N_20 on n <= 200 would miss it too; the operator
# traces modulo census.CHECK_PRIME at every k <= K catch each
OFF_BY_ONE_CENSUS = [("complete:60", 50, 21), ("complete:60", 200, 200),
                     ("kmm:30", 200, 40), ("circulant:200:1,5,17", 200, 100),
                     ("petersen", 200, 200), ("prism:24", 200, 200),
                     ("prism:101", 200, 200)]


def _operator_failure(k):
    return ("internal consistency failure: non-backtracking operator "
            "traces disagree with the closed-walk conversion for "
            f"N_{k} modulo {census_mod.CHECK_PRIME}\n")


@pytest.mark.parametrize("spec, K, k", OFF_BY_ONE_CENSUS)
def test_off_by_one_census_fails_the_operator_check(monkeypatch, capsys, spec, K, k):
    real = report_mod.build_census

    def corrupted(g, q, K):
        census = real(g, q, K)
        nk = list(census.nk)
        nk[k - 1] += 1
        return CycleCensus(c=census.c, nk=tuple(nk))

    monkeypatch.setattr(report_mod, "build_census", corrupted)
    monkeypatch.setattr(cli_mod, "COSTLY_WORK", math.inf)
    assert run(capsys, "analyze", spec, "--k", str(K)) == (3, "", _operator_failure(k))


def test_census_short_of_primes_fails_the_operator_check(monkeypatch, capsys):
    # every exact plan takes half its primes, so the census of
    # circulant:200:1,5,17 wraps modulo their product; K <= n, so no Newton
    # step runs to notice, and the check plan's one prime catches it
    real = census_mod._plan

    def short(*args, **kwargs):
        plan = real(*args, **kwargs)
        half = plan.primes[:max(1, len(plan.primes) // 2)]
        return dataclasses.replace(plan, primes=half)

    monkeypatch.setattr(census_mod, "_plan", short)
    monkeypatch.setattr(cli_mod, "COSTLY_WORK", math.inf)
    code, out, err = run(capsys, "analyze", "circulant:200:1,5,17", "--k", "200")
    assert (code, out) == (3, "")
    assert re.fullmatch(_operator_failure(r"\d+"), err), err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n1 x\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


TRIANGLE = "0 1\n1 2\n2 0\n"
# inputs that name no connected regular graph: edge lists (a triangle plus
# one line) whose vertex count passes the limit or far exceeds their edges,
# and generator strings with the wrong number or size of parameters; each
# with its one error line
MALFORMED_INPUTS = (
    [(f"{name}.edges", text, f"{n} vertices exceed the limit of 4096")
     for name, text, n in (
         ("far-loop", TRIANGLE + "1099511627775 1099511627775\n", 2 ** 40),
         ("header", "n 2147483648\n" + TRIANGLE, 2 ** 31),
         ("mid-loop", TRIANGLE + "9999999 9999999\n", 10 ** 7))]
    + [("near-loop.edges", TRIANGLE + "3999 3999\n", "4 edges cannot connect 4000 vertices")]
    + [(spec, None, f"{name} takes parameters ({params}), got {got}")
       for spec, name, params, got in (
           ("complete", "complete", "n", 0),
           ("cycle", "cycle", "n", 0),
           ("kmm", "kmm", "m", 0),
           ("hypercube", "hypercube", "d", 0),
           ("circulant", "circulant", "n, s, ...", 0),
           ("prism:3:4", "prism", "m", 2),
           ("complete:3:4", "complete", "n", 2),
           ("petersen:3", "petersen", "", 1))]
    + [("kmm:1", None, "kmm needs m >= 2"),
       ("cycle:100000", None, "100000 vertices exceed the limit of 4096"),
       ("circulant:0:1", None, "need at least 3 vertices, got n=0")])


@pytest.mark.parametrize("source, text, message", MALFORMED_INPUTS,
                         ids=[source for source, _, _ in MALFORMED_INPUTS])
def test_malformed_input_fails_before_any_census(monkeypatch, tmp_path, capsys,
                                                 source, text, message):
    # every subcommand validates the graph before it plans or allocates
    # anything: one error line, exit 2, no cost note, no internal error and
    # no n x n adjacency matrix
    def unused(g):
        raise AssertionError("an n x n adjacency matrix formed")

    monkeypatch.setattr(graphs_mod.Multigraph, "adjacency", property(unused))
    commands = ["analyze", "check", "series", "census", "zeta", "estimate"]
    if text is None:
        commands.append("generate")
    else:
        (tmp_path / source).write_text(text)
        source = str(tmp_path / source)
    for command in commands:
        assert run(capsys, command, source) == (2, "", f"error: {message}\n"), command


# generator strings with too many vertices (or, for circulant:0:1, too few)
OUT_OF_RANGE_GENERATORS = {
    "hypercube:26": "2^26", "hypercube:20000": "2^20000",
    "hypercube:100000000": "2^100000000", "complete:100000": 10 ** 5,
    "cycle:1000000000": 10 ** 9, "kmm:1000000": 2 * 10 ** 6, "prism:1000000000": 2 * 10 ** 9,
    "circulant:1000000000:1": 10 ** 9, "circulant:0:1": 0}


@pytest.mark.parametrize("spec, n", OUT_OF_RANGE_GENERATORS.items())
def test_out_of_range_generator_fails_before_its_edges_form(capsys, spec, n):
    # build_graph bounds the vertex count before it reads the first of the
    # family's lazy edges, so no edge list forms; hypercube bounds its
    # dimension before 1 << d forms
    message = (f"need at least 3 vertices, got n={n}" if n == 0
               else f"{n} vertices exceed the limit of 4096")
    for command in ("census", "analyze", "generate"):
        tracemalloc.start()
        try:
            result = run(capsys, command, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, "", f"error: {message}\n"), command
        assert peak < 2 ** 20, (command, peak)


@pytest.mark.parametrize("spec", ["complete:100", "kmm:40", "circulant:1000:1,2,3", "file"])
def test_too_many_edges_fail_one_past_the_limit(tmp_path, monkeypatch, capsys, spec):
    # build_graph reads at most MAX_EDGES + 1 pairs and then refuses, so a
    # lazy edge list never forms past the limit (1000 here, 2^20 shipped);
    # a file's pairs are parsed before build_graph counts them
    commands = ("census", "analyze", "generate")
    if spec == "file":
        spec, commands = str(tmp_path / "k100.edges"), commands[:2]
        with open(spec, "w") as fh:
            fh.write(write_edge_list(parse_generator("complete:100")))
    monkeypatch.setattr(graphs_mod, "MAX_EDGES", 1000)
    for command in commands:
        tracemalloc.start()
        try:
            result = run(capsys, command, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, "", "error: the edges exceed the limit of 1000\n"), command
        assert spec.endswith(".edges") or peak < 2 ** 18, (command, peak)


def test_analyze_not_regular_exit(tmp_path, capsys):
    path = tmp_path / "star.edges"
    path.write_text("0 1\n0 2\n0 3\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2


def test_bipartite_census_past_gram_column_sum_limit(tmp_path, capsys):
    # a 4-cycle with every edge 5793 times: q+1 = 11586, where the Gram
    # matrix's column sums (q+1)^2 pass 2^27 and the census powers A itself;
    # A's spectrum is 11586, 0, 0, -11586
    path = tmp_path / "heavy4.edges"
    path.write_text("n 4\n" + "".join(f"{i} {(i + 1) % 4}\n" * 5793
                                       for i in range(4)))
    census = run_json(capsys, "census", str(path), "--k", "6")
    assert census["c"] == ["4"] + [str(2 * 11586 ** k if k % 2 == 0 else 0)
                                   for k in range(1, 7)]
    code, _, err = run(capsys, "zeta", str(path))
    assert (code, err) == (0, "")


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


def test_census_oracle_past_its_budget_exits_2(capsys):
    # the brute-force oracle refuses a k whose enumeration passes its step
    # budget; kmm:90 refuses k = 3 (2 * 90^2 * 89^2 steps) before k = 1, 2
    code, out, err = run(capsys, "census", "kmm:90", "--k", "3", "--oracle-k", "3")
    assert (code, out) == (2, "")
    assert err == ("error: about 1.28e+08 enumeration steps needed (budget 1e+08); "
                   "use geodesic_cycles_operator instead\n")


def test_census_oracle_refuses_before_it_enumerates(capsys):
    # the oracle prices its costliest k first: petersen at k = 30 needs
    # 30 * 2^29 steps, so it refuses at once, not after enumerating k <= 22
    start = time.perf_counter()
    result = run(capsys, "census", "petersen", "--k", "30", "--oracle-k", "30")
    assert time.perf_counter() - start < 2
    assert result == (2, "", "error: about 1.61e+10 enumeration steps needed "
                             "(budget 1e+08); use geodesic_cycles_operator instead\n")


def test_census_rejects_negative_oracle_k(capsys):
    # a negative horizon once gave an empty oracle, reported as a fault
    code, out, err = run(capsys, "census", "petersen", "--k", "10",
                         "--oracle-k", "-1")
    assert (code, out, err) == (2, "", "error: --oracle-k must be >= 0\n")
    payload = run_json(capsys, "census", "petersen", "--k", "10",
                       "--oracle-k", "0")
    assert "oracle_n" not in payload


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


def test_series_ck_route_skips_eigensolver(monkeypatch, capsys):
    def unused(*args, **kwargs):
        raise AssertionError("the ck route needs no spectrum")

    monkeypatch.setattr("iharazeta.cli.eigenvalues_symmetric", unused)
    code, out, _ = run(capsys, "series", "kmm:3", "--k", "8", "--route", "ck")
    assert code == 0
    assert out.splitlines() == ["k,h_k,route", "1,8,ck", "2,16,ck", "3,8,ck",
                                "4,0,ck", "5,8,ck", "6,16,ck", "7,8,ck",
                                "8,0,ck"]


@pytest.mark.parametrize("spec", ["circulant:80:1,2,3,4,5,6",
                                  "circulant:100:1,2,3,4,5,6"])
def test_xi_cross_check_near_the_pole_exits_zero(capsys, spec):
    # q = 11: the pole q^(-1/2) ~ 0.3015 lies inside [0.1, 0.9], where
    # |Xi| reaches 2^769 and 2^962; the series route reads Xi's rows alone
    code, out, err = run(capsys, "check", spec, "--k", "50")
    assert code == 0, err
    assert json.loads(out)["zeta_census_check"]["ok"]


@pytest.mark.parametrize("spec, k", [
    *((spec, k) for k in (150, 200)
      for spec in ("prism:16", "prism:20", "prism:24", "prism:50", "prism:100",
                   "hypercube:7", "circulant:200:1,5,17")),
    ("circulant:200:1,5,17", 50)])
def test_check_on_bipartite_graphs_reaches_a_verdict(capsys, spec, k):
    # the float h_k routes once cancelled +/-lam at odd k and exited 3
    # ("h_k routes disagree") on each of these
    code, _, err = run(capsys, "check", spec, "--k", str(k), "--no-timings")
    assert code in (0, 1), err


@pytest.mark.parametrize("k", [50, 150, 200])
def test_check_doubled_12_cycle_at_equality(tmp_path, capsys, k):
    # every edge of the 12-cycle doubled: bipartite, q = 3, and a nontrivial
    # eigenvalue 4 cos(pi/6) of exactly 2 sqrt(q)
    path = tmp_path / "doubled12.edges"
    path.write_text("n 12\n" + "".join(f"{i} {(i + 1) % 12}\n" * 2
                                        for i in range(12)))
    code, out, err = run(capsys, "check", str(path), "--k", str(k),
                         "--require-ramanujan", "--no-timings")
    assert code == 0, err
    payload = json.loads(out)
    verdicts = payload["verdicts"]
    assert verdicts["spectral"]["is_ramanujan"]
    assert verdicts["spectral"]["max_nontrivial_abs"] == pytest.approx(
        2 * math.sqrt(3), abs=1e-10)
    assert verdicts["hk"]["is_ramanujan"] and verdicts["hk"]["horizon"] == k
    assert verdicts["hasse_weil"]["all_satisfied"]
    assert verdicts["hk_upper"]["ok"] is True


def _repeated_triangle(tmp_path, copies):
    """The 3-cycle with each edge listed copies times: q = 2 copies - 1, and
    the nontrivial eigenvalue -copies twice, far past 2 sqrt(q)."""
    path = tmp_path / f"triangle{copies}.edges"
    path.write_text("0 1\n1 2\n2 0\n" * copies)
    return str(path)


@pytest.mark.parametrize("copies, k", [(700, 200), (5000, 160)])
def test_hasse_weil_rhs_past_the_double_range_is_null(tmp_path, capsys, copies, k):
    # q^(k/2) passes the double range (1399^100, 9999^80): the rhs was
    # float(q ** (k // 2)) and exited 3 with an OverflowError
    path = _repeated_triangle(tmp_path, copies)
    q = 2 * copies - 1
    for command in ("analyze", "check"):
        payload = run_json(capsys, command, path, "--k", str(k), "--no-timings")
        records = payload["verdicts"]["hasse_weil"]["records"]
        assert [r["k"] for r in records] == list(range(1, k + 1))
        for r in records:
            # rhs = 2(n - 1) q^(k/2) = 4 q^(k/2), null past the double range
            log_rhs = math.log(4) + r["k"] / 2 * math.log(q)
            if r["rhs"] is None:
                assert log_rhs > math.log(sys.float_info.max) - 1e-12, r
            else:
                assert math.log(r["rhs"]) == pytest.approx(log_rhs, rel=1e-12), r
            assert isinstance(r["lhs"], str) and isinstance(r["satisfied"], bool)
        assert records[-1]["rhs"] is None


@pytest.mark.parametrize("argv", [["analyze"], ["check"], ["series"],
                                  ["series", "--route", "ck"],
                                  ["series", "--route", "series"],
                                  ["estimate"]], ids=" ".join)
def test_h_past_the_double_range_is_bad_input(tmp_path, capsys, argv):
    # each edge of the 3-cycle 5000 times: |h_k| ~ 2 * 50^k passes the
    # double range at k = 182.  analyze, check and series exited 3 with an
    # OverflowError from hk_from_ck; estimate printed a null estimate and
    # numpy RuntimeWarnings
    path = _repeated_triangle(tmp_path, 5000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], path, *argv[1:], "--k", "200")
    assert (code, out) == (2, "")
    assert err == "error: h_182 passes the double range; take a horizon below 182\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, argv[0], path, *argv[1:], "--k", "181")[0] == 0


def _reject_constant(token):
    raise AssertionError(f"invalid JSON token {token}")


def _float_or_inf(c):
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


@pytest.mark.parametrize("argv", [["analyze", "complete:60", "--k", "50"],
                                  ["zeta", "complete:60"]])
def test_overflowed_coefficients_print_as_null(capsys, argv):
    # Z(u)^-1 of complete:60 has degree 3540, and its float expansion
    # overflows.  Neither command prints that expansion, both print strict
    # JSON, and the writer they use turns its overflowed floats into null
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    assert "zeta" not in payload and "zeta_inverse_coefficients" not in payload
    if argv[0] != "zeta":
        payload = run_json(capsys, "zeta", "complete:60")
    det = [int(d) for d in payload["det_coefficients"]]
    e = payload["one_minus_u2_power"]
    exact = [0] * (len(det) + 2 * e)
    for i in range(e + 1):
        b = (-1) ** i * math.comb(e, i)
        for j, d in enumerate(det):
            exact[2 * i + j] += b * d
    assert len(exact) == payload["degree"] + 1
    floats = [_float_or_inf(c) for c in exact]
    coefficients = json.loads(report_to_json({"c": floats}),
                              parse_constant=_reject_constant)["c"]
    assert coefficients[0] == 1.0 and None in coefficients
    for c, x in zip(coefficients, exact):
        assert c is None if math.isinf(_float_or_inf(x)) else (
            c == pytest.approx(x, rel=1e-11))


def test_zeta_prints_only_decimal_strings(capsys):
    # Z(u)^-1 of complete:60 has degree 3540; its determinant's 121
    # coefficients run to hundreds of digits, and every one prints exactly
    code, out, err = run(capsys, "zeta", "complete:60")
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    det = payload["det_coefficients"]
    assert len(det) == 121 and all(isinstance(d, str) for d in det)
    assert det[0] == "1" and max(map(len, det)) > 100
    d = [int(x) for x in det]
    assert all(d[120 - j] == 58 ** (60 - j) * d[j] for j in range(61))
    assert (payload["one_minus_u2_power"], payload["degree"]) == (1710, 3540)


def test_zeta_payload(capsys):
    payload = run_json(capsys, "zeta", "petersen")
    assert payload["schema"] == 3
    assert payload["degree"] == 30 and payload["one_minus_u2_power"] == 5
    assert len(payload["det_coefficients"]) == 21
    assert payload["det_coefficients"][0] == "1"
    assert payload["det_coefficients"][20] == str(2 ** 10)
    assert set(payload) == {"schema", "source", "det_coefficients",
                            "one_minus_u2_power", "degree"}
    # K4: (1 - 3u + 2u^2)(1 + u + 2u^2)^3
    assert run_json(capsys, "zeta", "complete:4")["det_coefficients"] == [
        "1", "0", "2", "-8", "-3", "-16", "8", "0", "16"]


def test_unreadable_input_is_bad_input(tmp_path, capsys):
    code, out, err = run(capsys, "analyze", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ")


def test_unwritable_out_is_bad_input(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "census", "petersen", "--k", "5",
                         "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ")
    assert not path.exists()


@pytest.mark.parametrize("cmd", ["analyze", "check"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_fails_before_the_pipeline(monkeypatch, tmp_path, capsys,
                                                  cmd, where):
    # a missing directory, or an --out that is a directory, exits 2 before
    # any work starts, and leaves no file behind
    def unused(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr("iharazeta.cli.analyze", unused)
    monkeypatch.setattr("iharazeta.cli._load_graph", unused)
    path = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, cmd, "circulant:150:1,2,3", "--k", "150",
                         "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_check_payload(capsys):
    payload = run_json(capsys, "check", "kmm:3", "--k", "20")
    assert payload["verdicts"]["spectral"]["is_ramanujan"]
    assert set(payload) == {"schema", "source", "k_horizon", "verdicts",
                            "operator_check", "zeta_census_check"}
    assert payload["schema"] == 5


@pytest.mark.parametrize("spec", ["petersen", "kmm:3", "prism:24"])
def test_check_prints_a_projection_of_analyze(capsys, spec):
    # the same six keys of the same report, byte for byte
    report = run_json(capsys, "analyze", spec, "--k", "30")
    code, out, err = run(capsys, "check", spec, "--k", "30")
    assert (code, err) == (0, "")
    keys = ("schema", "source", "k_horizon", "verdicts", "operator_check",
            "zeta_census_check")
    assert out == report_to_json({key: report[key] for key in keys}) + "\n"


@pytest.mark.parametrize("spec", ["petersen", "kmm:3"])
def test_report_names_its_operator_check(capsys, spec):
    # nonbipartite and bipartite (the half-size check plan) alike: analyze
    # and check name the one prime and the horizon of the operator check
    expected = {"prime": census_mod.CHECK_PRIME, "k_checked": 30}
    for command in ("analyze", "check"):
        payload = run_json(capsys, command, spec, "--k", "30", "--no-timings")
        assert payload["operator_check"] == expected


def test_analyze_never_samples_the_functional_equation(monkeypatch, tmp_path,
                                                       capsys):
    # Xi(1/(qu)) = Xi(u) holds row by row for any spectrum, so analyze does
    # not evaluate the float residual, and its report has no seed
    def unused(*args, **kwargs):
        raise AssertionError("the functional-equation residual ran")

    monkeypatch.setattr("iharazeta.zetaxi.functional_equation_residual", unused)
    monkeypatch.setattr(report_mod, "functional_equation_residual", unused,
                        raising=False)
    for name in ALL_FIXTURES + ["doubled_cycle4"]:
        path = tmp_path / f"{name}.edges"
        path.write_text(write_edge_list(get_graph(name)))
        code, out, err = run(capsys, "analyze", str(path), "--k", "30")
        assert code == 0, (name, err)
        report = json.loads(out)
        assert "seed" not in report and "functional_equation" not in report


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


def test_k_cap(capsys):
    code, _, err = run(capsys, "analyze", "petersen", "--k", "300")
    assert code == 2
    assert "200" in err


def _k_note(k):
    return f"note: --k {k} is costly; census entries grow like (q+1)^k\n"


def test_k_cost_warning(capsys):
    # the note goes by the Plan.work of the census's walk_plan, steps x
    # primes x size^3, against COSTLY_WORK; no census runs here.  cycle:101 at K = 101 (5.2e8 units)
    # and circulant:101:1,7,19 at K = 100 (1.1e9) took 21-33 and 51-77 ms,
    # where complete:150 at K = 150 (2.2e10) took 1.3 s
    cases = [("cycle:101", 101, 5 * 101 ** 4, False),
             ("circulant:101:1,7,19", 100, 11 * 100 * 101 ** 3, False),
             ("complete:60", 200, 15 * 60 ** 4, False),
             ("hypercube:7", 200, 15 * 64 ** 4, False),
             ("cycle:202", 202, 9 * 101 ** 4, False),
             ("cycle:201", 200, 9 * 200 * 201 ** 3, True),
             ("complete:150", 150, 44 * 150 ** 4, True)]
    for spec, K, work, noted in cases:
        g = parse_generator(spec)
        assert walk_plan(g, K).work == work
        assert (work > cli_mod.COSTLY_WORK) == noted
        cli_mod._cost_note(g, K)
        assert capsys.readouterr().err == (_k_note(K) if noted else "")
    # the census of complete:4 takes 4 matrix-power steps at any K
    code, _, err = run(capsys, "census", "complete:4", "--k", "120")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv", [
    ["census", "petersen", "--k", "50"], ["analyze", "petersen", "--k", "50"],
    ["check", "prism:24", "--k", "150"], ["series", "kmm:6", "--k", "30", "--route", "ck"],
    ["zeta", "petersen"]], ids=lambda argv: " ".join(argv))
def test_one_census_plan_per_call(monkeypatch, capsys, argv):
    # the cost note and the census share the graph's one weight-0 plan; a
    # second call parses a fresh graph and plans again
    real, weights = census_mod._plan, []

    def counted(a, weight, *args, **kwargs):
        weights.append(weight)
        return real(a, weight, *args, **kwargs)

    monkeypatch.setattr(census_mod, "_plan", counted)
    monkeypatch.setattr(cli_mod, "COSTLY_WORK", -1)
    for calls in (1, 2):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err.startswith("note: ")
        assert weights.count(0) == calls


@pytest.mark.parametrize("argv", [
    ["census", "complete:30", "--k", "150"], ["analyze", "complete:30", "--k", "150"],
    ["series", "complete:30", "--k", "150", "--route", "ck"], ["zeta", "complete:30"]],
    ids=lambda argv: argv[0])
def test_plan_memory_limit_exits_bad_input(monkeypatch, capsys, argv):
    # a plan whose power stacks would pass MAX_PLAN_BYTES is refused in
    # walk_plan, before the cost note prints or any stack is allocated
    K = int(argv[3]) if len(argv) > 2 else 30
    plan = walk_plan(parse_generator("complete:30"), K)
    assert plan.memory == 3 * len(plan.primes) * 30 ** 2 * 8
    monkeypatch.setattr(census_mod, "MAX_PLAN_BYTES", plan.memory - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: the census to horizon {K} needs {plan.memory} bytes of "
                   f"power stacks, above the limit of {plan.memory - 1}\n")
    monkeypatch.setattr(census_mod, "MAX_PLAN_BYTES", plan.memory)
    assert run(capsys, *argv)[0] == 0


def _n_note(n):
    return f"note: the census to n = {n} is costly; census entries grow like (q+1)^k\n"


# every census that a command runs is costly when COSTLY_WORK is -1, so the
# note appears exactly where a census runs (test_k_cost_warning checks the
# real bound); --k notes name the horizon, zeta's the census to n
CENSUS_RUNS = (["analyze"], ["check"], ["census"], ["series", "--route", "ck"],
               ["series"])
COST_NOTES = (
    [([cmd, graph, "--k", k, *rest], _k_note(k))
     for graph, k in (("cycle:101", "101"), ("cycle:101", "100"),
                      ("prism:24", "150"), ("complete:30", "150"),
                      ("complete:4", "101"))
     for cmd, *rest in CENSUS_RUNS]
    + [
        (["census", "complete:4", "--k", "100"], _k_note(100)),
        (["series", "cycle:101", "--k", "101", "--route", "spectral"], ""),
        (["series", "cycle:101", "--k", "101", "--route", "series"], ""),
        (["series", "complete:4", "--k", "101", "--route", "spectral"], ""),
        (["series", "complete:4", "--k", "101", "--route", "series"], ""),
        (["estimate", "cycle:101", "--k", "200"], ""),
        (["estimate", "complete:4", "--k", "200"], ""),
        (["zeta", "cycle:101"], _n_note(101)),
        (["zeta", "cycle:100"], _n_note(100)),
        (["zeta", "hypercube:7"], _n_note(128)),
        (["zeta", "prism:100"], _n_note(200)),
        (["zeta", "circulant:200:1,5,17"], _n_note(200)),
        (["zeta", "cycle:102"], _n_note(102)),
        (["zeta", "cycle:200"], _n_note(200)),
        (["zeta", "cycle:202"], _n_note(202)),
    ])


@pytest.mark.parametrize("argv, note", COST_NOTES,
                         ids=[" ".join(argv) for argv, _ in COST_NOTES])
def test_cost_note_where_a_census_runs(monkeypatch, capsys, argv, note):
    monkeypatch.setattr(cli_mod, "COSTLY_WORK", -1)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, note)


def test_series_json_format(capsys):
    payload = run_json(capsys, "series", "kmm:3", "--k", "6",
                       "--route", "all", "--format", "json")
    assert set(payload["routes"]) == {"spectral", "ck", "series"}
    assert payload["routes"]["ck"][0] == 8.0


SUBCOMMANDS = ("analyze", "series", "census", "zeta", "check", "estimate",
               "generate")
# each argv either fails in argparse with SystemExit(2) (None) or, with
# --out <file> appended, exits 0
CLI_SURFACE = (
    [([cmd, "petersen", "--tol", "1e-6"], None) for cmd in SUBCOMMANDS]
    + [([cmd, "petersen", "--format", fmt], None)
       for cmd in ("analyze", "census", "zeta", "check", "estimate")
       for fmt in ("json", "csv")]
    + [(["zeta", "petersen", "--k", "5"], None)]
    # the argvs of the benchmark's workloads and of scripts/check_ladder.py
    + [([cmd, "petersen", "--k", "10", "--no-timings"], 0)
       for cmd in ("analyze", "census", "estimate", "check")]
    + [(["zeta", "petersen", "--no-timings"], 0),
       (["series", "petersen", "--k", "10", "--format", "json", "--no-timings"], 0)])


@pytest.mark.parametrize("argv, code", CLI_SURFACE,
                         ids=[" ".join(argv) for argv, _ in CLI_SURFACE])
def test_cli_surface(tmp_path, capsys, argv, code):
    if code is None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    else:
        path = tmp_path / "out.json"
        assert main(argv + ["--out", str(path)]) == code
        assert json.loads(path.read_text())["source"] == "petersen"


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "complete:4", "--k", "10",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["graph"]["n"] == 4
