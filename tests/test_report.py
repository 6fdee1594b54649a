"""report: pipeline assembly, consistency traps, JSON determinism."""

import json

import pytest

import iharazeta.report as report_mod
from iharazeta.census import CycleCensus
from iharazeta.report import (AnalysisConfig, InternalConsistencyError,
                              analyze, env_seed, report_to_json)

from conftest import get_graph


def test_report_shape_petersen():
    rep = analyze(get_graph("petersen"), "petersen", AnalysisConfig(k_horizon=12))
    assert rep["schema"] == report_mod.SCHEMA_VERSION == 2
    assert rep["k_horizon"] == 12
    assert set(rep["h"]) == {"spectral", "from_ck", "series"}
    assert all(len(v) == 12 for v in rep["h"].values())
    assert len(rep["census"]["c"]) == 13 and len(rep["census"]["n"]) == 12
    assert all(isinstance(x, str) for x in rep["census"]["c"])
    assert rep["verdicts"]["hk"]["horizon"] == 12
    assert rep["zeta"]["degree"] == 30


@pytest.mark.parametrize("name", ["double_triangle", "looped_cycle4"])
def test_pipeline_handles_multigraphs(name):
    rep = analyze(get_graph(name), name, AnalysisConfig(k_horizon=25))
    assert rep["route_agreement"]["ok"]
    assert rep["functional_equation"]["ok"]
    g = get_graph(name)
    assert rep["census"]["c"][1] == str(2 * g.loop_count)


def test_q1_note_present():
    rep = analyze(get_graph("cycle5"), "cycle:5", AnalysisConfig(k_horizon=10))
    assert any("q = 1" in note for note in rep["notes"])
    rep = analyze(get_graph("petersen"), "petersen", AnalysisConfig(k_horizon=5))
    assert rep["notes"] == []


def test_consistency_trap_fires(monkeypatch):
    real = report_mod.build_census

    def corrupted(g, q, K):
        census = real(g, q, K)
        bad_nk = list(census.nk)
        bad_nk[2] += 1
        return CycleCensus(c=census.c, nk=tuple(bad_nk), horizon=census.horizon)

    monkeypatch.setattr(report_mod, "build_census", corrupted)
    with pytest.raises(InternalConsistencyError):
        analyze(get_graph("k4"), "k4", AnalysisConfig(k_horizon=10))


def test_env_seed(monkeypatch):
    monkeypatch.delenv("IHARA_SEED", raising=False)
    assert env_seed() == 42
    monkeypatch.setenv("IHARA_SEED", "1234")
    assert env_seed() == 1234
    monkeypatch.setenv("IHARA_SEED", "zzz")
    with pytest.raises(ValueError):
        env_seed()


def test_json_rounds_to_twelve_digits():
    text = report_to_json({"x": 0.1234567890123456789, "nested": [1.0 / 3.0]})
    parsed = json.loads(text)
    assert parsed["x"] == 0.123456789012
    assert parsed["nested"][0] == 0.333333333333


def test_json_sorted_and_stable():
    rep = analyze(get_graph("kmm3"), "kmm:3",
                  AnalysisConfig(k_horizon=8, include_timings=False))
    rep2 = analyze(get_graph("kmm3"), "kmm:3",
                   AnalysisConfig(k_horizon=8, include_timings=False))
    assert report_to_json(rep) == report_to_json(rep2)
    keys = list(json.loads(report_to_json(rep)).keys())
    assert keys == sorted(keys)
