"""report: pipeline assembly, consistency traps, JSON determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iharazeta.analysis as analysis_mod
import iharazeta.cli as cli_mod
import iharazeta.hk as hk_mod
import iharazeta.report as report_mod
from iharazeta.analysis import (estimate_max_eigenvalue, even_k_bounds,
                                hasse_weil_check, hk_upper_bound,
                                hk_upper_check, ramanujan_hk,
                                ramanujan_spectral)
from iharazeta.census import CycleCensus
from iharazeta.report import InternalConsistencyError, analyze, report_to_json

from conftest import (ALL_FIXTURES, LADDER, NON_RAMANUJAN_FIXTURES, get_excess,
                      get_graph, get_hk_routes, get_nontrivial, get_profile)


def test_report_shape_petersen():
    rep = analyze(get_graph("petersen"), "petersen", 12)
    assert rep["schema"] == report_mod.SCHEMA_VERSION == 5
    assert set(rep) == {"schema", "version", "source", "k_horizon", "graph",
                        "spectrum", "nontrivial_spectrum",
                        "scaled_nontrivial_spectrum", "census", "h",
                        "operator_check",
                        "zeta_census_check", "verdicts", "estimator", "notes",
                        "timings"}
    assert rep["k_horizon"] == 12
    assert set(rep["h"]) == {"spectral", "from_ck", "series"}
    assert all(len(v) == 12 for v in rep["h"].values())
    assert len(rep["census"]["c"]) == 13 and len(rep["census"]["n"]) == 12
    assert all(isinstance(x, str) for x in rep["census"]["c"])
    assert rep["verdicts"]["hk"]["horizon"] == 12
    assert "zeta" not in rep


@pytest.mark.parametrize("name", ["petersen", "prism6"])
def test_analyze_takes_one_excess_pass(monkeypatch, name):
    # the h_k verdict, the from_ck route, Hasse-Weil, the cap and the even-k
    # gate all read the same (a_k, side) pairs
    calls, original = [], hk_mod.hk_excess

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (hk_mod, analysis_mod, report_mod, cli_mod):
        if hasattr(module, "hk_excess"):
            monkeypatch.setattr(module, "hk_excess", counted)
    rep = analyze(get_graph(name), name, 40)
    assert len(calls) == 1
    assert rep["verdicts"]["hasse_weil"]["records"] and rep["verdicts"]["hk_upper"]["ok"]


@pytest.mark.parametrize("name", ALL_FIXTURES + ["doubled_cycle4"])
def test_report_prints_the_analysis_blocks(name):
    # every fixture conftest builds: the verdicts and the estimate reach the
    # report exactly as the analysis functions return them
    g, prof, K = get_graph(name), get_profile(name), 50
    excess, ns = get_excess(name, K), get_nontrivial(name)
    rep = analyze(g, name, K)
    spectral = ramanujan_spectral(ns, prof.q)
    assert rep["verdicts"] == {
        "spectral": spectral,
        "hk": ramanujan_hk(excess, K),
        "hasse_weil": hasse_weil_check(excess, prof.q, g.n, prof.bipartite),
        "even_k_bounds": even_k_bounds(excess, g.n, prof.q, prof.bipartite,
                                       ns.max_abs()),
        "hk_upper": {"bound": hk_upper_bound(g.n, prof.bipartite),
                     "ok": hk_upper_check(excess) if spectral["is_ramanujan"] else None},
    }
    assert (rep["estimator"]["status"] == "ok") == (name in NON_RAMANUJAN_FIXTURES)
    if rep["estimator"]["status"] == "ok":
        assert rep["estimator"] == estimate_max_eigenvalue(
            get_hk_routes(name, K)["spectral"], prof.q)


# the leading k at K=50 where q^(k/2) times the spectral h_k budget is below
# 1/2, so that the check pins the census N_k there
K_PINNED = {"complete:60": 9, "kmm:30": 11, "complete:30": 12, "complete:16": 16,
            "hypercube:6": 23, "petersen": 50}


@pytest.mark.parametrize("spec", sorted(K_PINNED))
def test_zeta_census_check_reports_k_pinned(spec):
    g, prof, K = get_graph(spec), get_profile(spec), 50
    check = analyze(g, spec, K)["zeta_census_check"]
    assert (check["k_checked"], check["k_pinned"]) == (K, K_PINNED[spec])
    budget = hk_mod.hk_spectral_budget(get_nontrivial(spec).values, prof.q, g.n,
                                       get_hk_routes(spec, K)["from_ck"],
                                       prof.bipartite)
    scaled = [prof.q ** (k / 2) * b for k, b in enumerate(budget.tolist(), start=1)]
    pinned = K_PINNED[spec]
    assert all(x < 0.5 for x in scaled[:pinned])
    assert pinned == K or scaled[pinned] >= 0.5
    assert check["ok"] and 0.0 <= check["max_residual"] <= 1.0


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("spec", ["petersen", "prism:24", "complete:16"])
def test_hk_budget_rejects_off_by_one_census(monkeypatch, spec, shift):
    # with the operator traces stubbed to agree with the census, a census
    # N_k one off at any k <= k_pinned that h_k reads fails the spectral
    # h_k budget, named by its k; a bipartite graph's odd N_k are 0 by
    # construction and read by no h_k, and the bipartite census's parity
    # check rejects them
    g, K, real = get_graph(spec), 50, report_mod.build_census
    pinned = analyze(g, spec, K)["zeta_census_check"]["k_pinned"]
    bipartite = get_profile(spec).bipartite
    built = []
    monkeypatch.setattr(report_mod, "geodesic_cycles_operator",
                        lambda g, K, prime: list(built[-1].nk))
    for k in range(1, pinned + 1):
        expected = f"odd length k={k}$" if bipartite and k % 2 else f"h_{k} strays"

        def corrupted(g, q, K):
            census = real(g, q, K)
            nk = list(census.nk)
            nk[k - 1] += shift
            built.append(CycleCensus(c=census.c, nk=tuple(nk)))
            return built[-1]

        monkeypatch.setattr(report_mod, "build_census", corrupted)
        with pytest.raises(InternalConsistencyError, match=expected):
            analyze(g, spec, K)


@pytest.mark.parametrize("k", [1, 21, 49])
def test_bipartite_census_with_an_odd_closed_walk_is_rejected(monkeypatch, k):
    # no h_k and no operator trace reads a bipartite graph's odd C_k
    real = report_mod.build_census

    def corrupted(g, q, K):
        census = real(g, q, K)
        c = list(census.c)
        c[k] += 2
        return CycleCensus(c=tuple(c), nk=census.nk)

    monkeypatch.setattr(report_mod, "build_census", corrupted)
    with pytest.raises(InternalConsistencyError, match=f"odd length k={k}$"):
        analyze(get_graph("prism:24"), "prism:24", 50)


@pytest.mark.parametrize("spec", [*LADDER, "double_triangle", "looped_cycle4"])
def test_spectral_route_within_budget(spec):
    # on every ladder graph and multigraph fixture the spectral h_k stay
    # within their budget around the census's at K = 50, 150 and 200
    for K in (50, 150, 200):
        check = analyze(get_graph(spec), spec, K)["zeta_census_check"]
        assert check["ok"] and check["k_checked"] == K
        assert 0.0 <= check["max_residual"] <= 1.0


@pytest.mark.parametrize("name", ["double_triangle", "looped_cycle4"])
def test_pipeline_handles_multigraphs(name):
    rep = analyze(get_graph(name), name, 25)
    assert rep["zeta_census_check"]["ok"]
    assert rep["operator_check"]["k_checked"] == 25
    g = get_graph(name)
    assert rep["census"]["c"][1] == str(2 * g.loop_count)


def test_q1_note_present():
    rep = analyze(get_graph("cycle5"), "cycle:5", 10)
    assert any("q = 1" in note for note in rep["notes"])
    rep = analyze(get_graph("petersen"), "petersen", 5)
    assert rep["notes"] == []


def test_consistency_trap_fires(monkeypatch):
    real = report_mod.build_census

    def corrupted(g, q, K):
        census = real(g, q, K)
        bad_nk = list(census.nk)
        bad_nk[2] += 1
        return CycleCensus(c=census.c, nk=tuple(bad_nk))

    monkeypatch.setattr(report_mod, "build_census", corrupted)
    with pytest.raises(InternalConsistencyError):
        analyze(get_graph("k4"), "k4", 10)


def test_json_rounds_to_twelve_digits():
    text = report_to_json({"x": 0.1234567890123456789, "nested": [1.0 / 3.0]})
    parsed = json.loads(text)
    assert parsed["x"] == 0.123456789012
    assert parsed["nested"][0] == 0.333333333333


def test_json_sorted_and_stable():
    rep = analyze(get_graph("kmm3"), "kmm:3", 8, include_timings=False)
    rep2 = analyze(get_graph("kmm3"), "kmm:3", 8, include_timings=False)
    assert report_to_json(rep) == report_to_json(rep2)
    keys = list(json.loads(report_to_json(rep)).keys())
    assert keys == sorted(keys)


def _rounded(obj):
    # the reference rounding: every float to 12 significant digits, and a
    # non-finite float to None, before json.dumps writes it
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def _reference_json(obj):
    return json.dumps(_rounded(obj), sort_keys=True, indent=2)


WRITER_PAYLOADS = {
    "empty": {"d": {}, "l": [], "nested": [[], {}, [[]]]},
    "empty-top-dict": {},
    "empty-top-list": [],
    "records": {"records": [{"k": 2, "lhs": "12", "rhs": 8.48528137423857,
                             "satisfied": True},
                            {"k": 4, "lhs": "-3", "rhs": 0.1, "satisfied": False}]},
    "mixed": [1, 2.5, None, 3, 0.1 + 0.2, None, -7],
    "non-finite-list": [math.inf, -math.inf, math.nan, 1.0, 2.0],
    "non-finite-scalars": {"a": math.inf, "b": -math.inf, "c": math.nan},
    "edge-floats": [-0.0, 1e16, 1234567890123.0, 1e-7, 1.0 / 3.0, 2.0 ** 60],
    "edge-float-scalars": {"z": -0.0, "big": 1e16, "int-like": 1234567890123.0,
                           "tiny": 1e-7},
    "numpy-floats": {"x": np.float64(1.0 / 7.0), "inf": np.float64("inf"),
                     "list": [np.float64(0.1), np.float64(-0.0), np.float64("nan")],
                     "mixed": [np.float64(2.5), 2.5]},
    "big-ints": {"n": 10 ** 40, "list": [-(2 ** 70), 0, 2 ** 63]},
    "strings": ["plain", "caf\u00e9", "\u2603 snow", "quote \" and \\", "line\nbreak"],
    "non-ascii-keys": {"\u00e9t\u00e9": 1, "a": "\u00fc", "b": ["\u00df"]},
    "bools": [True, False, {"t": True, "f": False, "n": None}],
    "scalar-float": 0.1 + 0.2,
    "scalar-str": "\u00e9",
    # every form "%.12g" takes: a fraction, an integral value, e- and e+
    # exponents, the 1e12..1e16 band where repr has no exponent, subnormals
    "float-forms": [0.0, -0.0, 1.0, -3.0, 0.5, 123456789012.0, 999999999999.6,
                    1e12, -1.5e12, 1e15, 1234567890123456.0, 9.99999999999e15,
                    1e16, 1e17, -2.0 ** 60, 1e-4, 9.99999999999999e-5, 1e-5,
                    -1.5e-7, 1e-300, 2.2250738585072014e-308, 2.225e-308,
                    1e-310, 5e-324, -5e-324, 1.7976931348623157e308],
    "float-form-scalars": {"zero": 0.0, "neg-zero": -0.0, "integral": 7.0,
                           "e+": 1e13, "e-": 3e-9, "subnormal": 5e-324},
    "numpy-float-forms": [np.float64(x) for x in (0.0, -0.0, 2.0, 1e13, 5e-324, 0.1)],
    # record lists: one template for one key set, the walk for any other
    "records-differing-keys": [{"k": 1, "a": 2.0}, {"k": 2, "b": 3.0}],
    "records-nested": [{"k": 1, "v": [1.0, 2.5]}, {"k": 2, "v": {"x": None, "y": [[]]}}],
    "records-non-finite": [{"k": 2, "rhs": math.inf}, {"k": 4, "rhs": 1.5},
                           {"k": 6, "rhs": math.nan}],
    "records-mixed-values": [{"a": 1, "b": True}, {"a": "x", "b": None},
                             {"a": 2.0, "b": False}, {"a": None, "b": 3}],
    "records-empty": [{}, {}],
    "records-percent-keys": [{"50%": 1.0, "%s": "%d"}, {"50%": 2, "%s": "%%"}],
    "records-deep": {"outer": [{"k": k, "inner": [{"j": j, "x": j / 3.0} for j in range(3)]}
                               for k in range(3)]},
}


@pytest.mark.parametrize("name", sorted(WRITER_PAYLOADS))
def test_writer_matches_json_dumps_of_rounded_payload(name):
    payload = WRITER_PAYLOADS[name]
    assert report_to_json(payload) == _reference_json(payload)


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=2000, deadline=None)
def test_float_text_is_the_repr_of_the_rounded_float(x):
    assert report_to_json(x) == repr(float(f"{x:.12g}"))
    assert report_to_json([x]) == f"[\n  {repr(float(f'{x:.12g}'))}\n]"


@given(st.lists(st.floats() | st.integers() | st.none() | st.booleans(), max_size=6),
       st.lists(st.dictionaries(st.sampled_from("kab"), st.floats() | st.text(max_size=3)),
                max_size=4))
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps_on_generated_lists(values, records):
    payload = {"values": values, "records": records}
    assert report_to_json(payload) == _reference_json(payload)


def _cli_payload(monkeypatch, argv):
    # the payload object a subcommand hands to the writer
    captured = []
    monkeypatch.setattr(cli_mod, "report_to_json",
                        lambda obj: captured.append(obj) or "")
    assert cli_mod.main(argv) == 0
    return captured[0]


@pytest.mark.parametrize("spec", ["petersen", "prism:24", "complete:60"])
@pytest.mark.parametrize("command", [["analyze", "--k", "50"],
                                     ["census", "--k", "150"], ["zeta"],
                                     ["estimate", "--k", "100"]],
                         ids=["analyze", "census", "zeta", "estimate"])
def test_writer_matches_json_dumps_on_real_payloads(monkeypatch, spec, command):
    payload = _cli_payload(monkeypatch, [command[0], spec] + command[1:])
    assert report_to_json(payload) == _reference_json(payload)


@pytest.mark.parametrize("payload", [{"n": np.int64(3)}, [np.int64(3)],
                                     np.int64(3), {"s": {1, 2}}])
def test_writer_rejects_what_json_dumps_rejects(payload):
    with pytest.raises(TypeError):
        _reference_json(payload)
    with pytest.raises(TypeError):
        report_to_json(payload)
