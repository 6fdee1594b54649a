"""Full analysis pipeline and machine-readable report assembly.

One call runs: profile -> spectrum -> exact census -> zeta/xi -> the three
h_k routes (spectral, from_ck, series) -> every certification check ->
estimator, and returns a plain dict shaped like the emitted JSON.  The h_k
verdict and the checks that need exact values read the from_ck route.
Cross-route disagreements beyond tolerance raise InternalConsistencyError:
they indicate a bug, not a mathematical verdict.  report_to_json is the one
JSON writer for every subcommand's output.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from . import __version__
from .analysis import (DomainError, EstimatorNotApplicable,
                       EstimatorSignMismatch, estimate_max_eigenvalue,
                       even_k_bound, hasse_weil_check, hk_upper_bound,
                       hk_upper_check, ramanujan_hk, ramanujan_spectral)
from .census import (build_census, geodesic_cycles_operator,
                     nk_from_spectrum_rounded)
from .graphs import Multigraph, adjacency_matrix, profile
from .hk import (ROUTE_FROM_CK, ROUTE_SERIES, ROUTE_SPECTRAL, HkSequence,
                 hk_from_ck, hk_spectral, max_route_deviation)
from .spectral import eigenvalues_symmetric, nontrivial_spectrum, scaled_spectrum
from .zetaxi import (functional_equation_points, functional_equation_residual,
                     hk_series, log_series_zeta_check, xi_from_zeta,
                     xi_rational, zeta_inverse, zeta_inverse_factors)

SCHEMA_VERSION = 2
DEFAULT_SEED = 42
# largest oriented-edge count for which the trace(B^k) cross-check runs
OPERATOR_CROSSCHECK_EDGE_LIMIT = 400
OPERATOR_CROSSCHECK_K = 20


class InternalConsistencyError(RuntimeError):
    """Independent computation routes disagreed beyond tolerance."""


@dataclass(frozen=True)
class AnalysisConfig:
    k_horizon: int = 50
    seed: int = DEFAULT_SEED
    spectral_tol: float = 1e-8
    route_tol: float = 1e-6
    fe_points: int = 100
    fe_tol: float = 1e-8
    zeta_check_k: int = 10
    include_timings: bool = True


def env_seed(default: int = DEFAULT_SEED) -> int:
    """Sample-point seed, overridable through the IHARA_SEED variable."""
    raw = os.environ.get("IHARA_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"IHARA_SEED must be an integer, got {raw!r}") from None


def _float_list(values) -> list[float]:
    return [float(v) for v in values]


def _decimal_strings(values) -> list[str]:
    return [str(int(v)) for v in values]


def analyze(g: Multigraph, source: str,
            cfg: AnalysisConfig | None = None) -> dict:
    """Run the whole pipeline on a validated graph and assemble the report."""
    cfg = cfg or AnalysisConfig()
    K = cfg.k_horizon
    timings: dict[str, float] = {}
    notes: list[str] = []

    t0 = time.perf_counter()
    prof = profile(g)
    q, n = prof.q, g.n
    if q == 1:
        notes.append("q = 1: the trivial poles +/-1 and +/-q^-1 coincide; "
                     "pole classification is degenerate")
    timings["profile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spectrum = eigenvalues_symmetric(adjacency_matrix(g))
    ns = nontrivial_spectrum(spectrum, prof)
    scaled = scaled_spectrum(ns)
    timings["spectrum"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    census = build_census(g, q, K)
    if g.oriented_edge_count <= OPERATOR_CROSSCHECK_EDGE_LIMIT:
        upto = min(K, OPERATOR_CROSSCHECK_K)
        operator_nk = geodesic_cycles_operator(g, upto)
        if list(operator_nk) != list(census.nk[:upto]):
            raise InternalConsistencyError(
                "non-backtracking operator traces disagree with the "
                "closed-walk conversion for N_k")
        spectral_nk = [nk_from_spectrum_rounded(spectrum, q, n, k)
                       for k in range(1, upto + 1)]
        if spectral_nk != list(census.nk[:upto]):
            raise InternalConsistencyError(
                "spectral N_k evaluation disagrees with the exact census")
    timings["census"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    zfactors = zeta_inverse_factors(spectrum, q, n)
    zinv = zeta_inverse(spectrum, q, n)
    xi = xi_rational(ns, q)
    xi_alt = xi_from_zeta(zinv, q, n, prof.bipartite, zeta_factors=zfactors)
    for u in (0.12, -0.21, 0.3):
        a, b = xi(u), xi_alt(u)
        if abs(a - b) > cfg.route_tol * max(1.0, abs(a), abs(b)):
            raise InternalConsistencyError(
                f"xi constructions disagree at u={u}: {a!r} vs {b!r}")
    seed = cfg.seed
    residuals = []
    for u in functional_equation_points(cfg.fe_points, seed):
        residuals.append(functional_equation_residual(xi, q, float(u)))
    fe_max = max(residuals) if residuals else 0.0
    zeta_ok, zeta_records = log_series_zeta_check(
        census, zinv, min(K, cfg.zeta_check_k), zeta_factors=zfactors)
    if not zeta_ok:
        raise InternalConsistencyError(
            "zeta log-derivative series does not reproduce the census")
    timings["zeta_xi"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    series = HkSequence(values=hk_series(xi, q, K), route=ROUTE_SERIES, q=q,
                        n=n, bipartite=prof.bipartite)
    seqs = {seq.route: seq for seq in (
        hk_spectral(scaled, K, q, n, prof.bipartite),
        hk_from_ck(census.c, q, n, prof.bipartite, K),
        series)}
    route_dev = max_route_deviation(list(seqs.values()))
    if route_dev > cfg.route_tol:
        raise InternalConsistencyError(
            f"h_k routes disagree: max relative deviation {route_dev:.3e}")
    timings["hk_routes"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    verdict_spec = ramanujan_spectral(ns, q, tol=cfg.spectral_tol)
    exact_seq = seqs[ROUTE_FROM_CK]
    verdict_hk = ramanujan_hk(exact_seq)
    hw = hasse_weil_check(census.nk, q, n, prof.bipartite)
    bounds = []
    for k in range(2, K + 1, 2):
        if exact_seq.h(k) < 0:
            continue
        try:
            bound = even_k_bound(k, n, q, prof.bipartite)
        except DomainError:
            continue
        bounds.append({
            "k": k,
            "bound": bound,
            "satisfied": bool(ns.max_abs() <= bound + 1e-9),
        })
    upper_ok = (hk_upper_check(exact_seq, n, prof.bipartite)
                if verdict_spec.is_ramanujan else None)
    timings["checks"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    estimator: dict = {"status": "ok"}
    try:
        est = estimate_max_eigenvalue(seqs[ROUTE_SPECTRAL], q)
        estimator.update({
            "estimate": est.estimate,
            "mu": est.mu,
            "implied_max_abs_eigenvalue": est.implied_max_abs_eigenvalue,
            "k_used": list(est.k_used),
            "converged": est.converged,
        })
    except EstimatorNotApplicable as exc:
        estimator = {"status": "not_applicable", "detail": str(exc)}
    except EstimatorSignMismatch as exc:
        estimator = {"status": "sign_mismatch", "detail": str(exc)}
    timings["estimator"] = time.perf_counter() - t0

    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "source": source,
        "k_horizon": K,
        "seed": seed,
        "graph": {
            "n": n,
            "q": q,
            "edges": g.edge_count,
            "loops": g.loop_count,
            "bipartite": prof.bipartite,
            "connected": prof.connected,
        },
        "spectrum": _float_list(spectrum.values),
        "nontrivial_spectrum": _float_list(ns.values),
        "scaled_nontrivial_spectrum": _float_list(scaled),
        "census": {
            "c": _decimal_strings(census.c),
            "n": _decimal_strings(census.nk),
        },
        "h": {route: _float_list(seq.values) for route, seq in seqs.items()},
        "route_agreement": {
            "max_relative_deviation": route_dev,
            "tolerance": cfg.route_tol,
            "ok": True,
        },
        "zeta": {
            "zeta_inverse_coefficients": _float_list(zinv.coefficients),
            "degree": zinv.degree,
            "xi_numerator": _float_list(xi.numerator.coefficients),
            "xi_denominator": _float_list(xi.denominator.coefficients),
        },
        "functional_equation": {
            "points": cfg.fe_points,
            "max_residual": fe_max,
            "tolerance": cfg.fe_tol,
            "ok": bool(fe_max < cfg.fe_tol),
        },
        "zeta_census_check": {
            "k_checked": len(zeta_records),
            "max_residual": max((r[3] for r in zeta_records), default=0.0),
            "ok": zeta_ok,
        },
        "verdicts": {
            "spectral": {
                "is_ramanujan": verdict_spec.is_ramanujan,
                "max_nontrivial_abs": verdict_spec.max_nontrivial_abs,
                "threshold": verdict_spec.threshold,
                "witness": verdict_spec.witness,
            },
            "hk": {
                "is_ramanujan": verdict_hk.is_ramanujan,
                "horizon": verdict_hk.horizon,
                "witness": verdict_hk.witness,
            },
            "hasse_weil": {
                "branch": hw.branch,
                "all_satisfied": hw.all_satisfied,
                "first_violation_k": hw.first_violation,
                "records": [
                    {"k": r.k, "lhs": str(r.lhs), "rhs": r.rhs,
                     "satisfied": r.satisfied}
                    for r in hw.records
                ],
            },
            "even_k_bounds": bounds,
            "hk_upper": {
                "bound": hk_upper_bound(n, prof.bipartite),
                "ok": upper_ok,
            },
        },
        "estimator": estimator,
        "notes": notes,
    }
    if cfg.include_timings:
        report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return report


def _round_floats(obj, digits: int = 12):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v, digits) for v in obj]
    return obj


def report_to_json(report: dict) -> str:
    """Deterministic JSON: sorted keys, floats at 12 significant digits,
    arbitrary-precision integers already rendered as decimal strings."""
    return json.dumps(_round_floats(report), sort_keys=True, indent=2)
