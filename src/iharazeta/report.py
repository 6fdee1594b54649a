"""Full analysis pipeline and machine-readable report assembly.

One call runs: profile -> spectrum -> exact census -> xi -> the three h_k
routes (spectral, from_ck, series) -> every certification check ->
estimator, and returns a plain dict shaped like the emitted JSON.  Xi is
built once, for the series route; its functional equation is not sampled,
since every row 1 - lam*u + q*u^2 satisfies it for any real lam.  The h_k
verdict, the from_ck route and the checks that need exact values all read
one pass of hk.hk_excess over the census N_k: the signs of h_k in
integers.  Every census N_k is checked against the operator traces modulo
census.CHECK_PRIME (the report's operator_check names the prime and the
horizon), a bipartite census's odd C_k and N_k to be 0 at every k, and
every from_ck h_k against both float routes within the one a-priori
hk.hk_spectral_budget (zetaxi.log_series_zeta_check).  Disagreements
raise InternalConsistencyError: they indicate a bug, not a mathematical
verdict.  report_to_json is the one JSON writer for every subcommand's
output.
"""

from __future__ import annotations

import math
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .analysis import (estimate_max_eigenvalue, even_k_bounds,
                       hasse_weil_check, hk_upper_bound, hk_upper_check,
                       ramanujan_hk, ramanujan_spectral)
from .census import CHECK_PRIME, build_census, geodesic_cycles_operator
from .graphs import Multigraph, adjacency_matrix, profile
from .hk import hk_excess, hk_from_ck, hk_spectral, hk_spectral_budget
from .spectral import eigenvalues_symmetric, nontrivial_spectrum, scaled_spectrum
from .zetaxi import hk_series, log_series_zeta_check, xi_rational, zeta_inverse

# the schema of analyze's report and check's digest of it
SCHEMA_VERSION = 5
# the rounding of every float a report prints
_TWELVE_DIGITS = "{:.12g}".format
_SMALLEST_NORMAL = sys.float_info.min
_LITERALS = {True: "true", False: "false", None: "null"}


class InternalConsistencyError(RuntimeError):
    """Independent computation routes disagreed beyond their error bound."""


def _decimal_strings(values) -> list[str]:
    return [str(int(v)) for v in values]


def analyze(g: Multigraph, source: str, K: int,
            include_timings: bool = True) -> dict:
    """Run the whole pipeline to horizon K on a validated graph and assemble
    the report."""
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
    spectrum = eigenvalues_symmetric(adjacency_matrix(g), prof.bipartition)
    ns = nontrivial_spectrum(spectrum, prof)
    scaled = scaled_spectrum(ns)
    timings["spectrum"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    census = build_census(g, q, K)
    wrong = next((k for k, (x, y) in enumerate(zip(geodesic_cycles_operator(
        g, K, CHECK_PRIME), census.nk), start=1) if (x - y) % CHECK_PRIME), 0)
    if wrong:
        raise InternalConsistencyError(
            "non-backtracking operator traces disagree with the closed-walk "
            f"conversion for N_{wrong} modulo {CHECK_PRIME}")
    if prof.bipartite:
        odd = next((k for k in range(1, K + 1, 2)
                    if census.c[k] or census.nk[k - 1]), 0)
        if odd:
            raise InternalConsistencyError(
                f"bipartite census counts odd length k={odd}")
    timings["census"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    xi = xi_rational(zeta_inverse(ns), q)
    timings["zeta_xi"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    excess = hk_excess(census.nk, q, n, prof.bipartite)
    exact = hk_from_ck(excess, q, n, prof.bipartite, K)
    floats = {"spectral": hk_spectral(scaled, K, prof.bipartite),
              "series": hk_series(xi, K)}
    zeta_check, problem = log_series_zeta_check(
        floats, exact, hk_spectral_budget(ns.values, q, n, exact, prof.bipartite), q)
    if problem:
        raise InternalConsistencyError(problem)
    timings["hk_routes"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spectral = ramanujan_spectral(ns, q)
    verdicts = {
        "spectral": spectral,
        "hk": ramanujan_hk(excess, K),
        "hasse_weil": hasse_weil_check(excess, q, n, prof.bipartite),
        "even_k_bounds": even_k_bounds(excess, n, q, prof.bipartite,
                                       spectral["max_nontrivial_abs"]),
        "hk_upper": {
            "bound": hk_upper_bound(n, prof.bipartite),
            "ok": hk_upper_check(excess) if spectral["is_ramanujan"] else None,
        },
    }
    timings["checks"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    estimator = estimate_max_eigenvalue(floats["spectral"], q)
    timings["estimator"] = time.perf_counter() - t0

    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "source": source,
        "k_horizon": K,
        "graph": {
            "n": n,
            "q": q,
            "edges": g.edge_count,
            "loops": g.loop_count,
            "bipartite": prof.bipartite,
            "connected": prof.connected,
        },
        "spectrum": spectrum.tolist(),
        "nontrivial_spectrum": ns.values.tolist(),
        "scaled_nontrivial_spectrum": scaled.tolist(),
        "census": {
            "c": _decimal_strings(census.c),
            "n": _decimal_strings(census.nk),
        },
        "h": {"from_ck": exact.tolist(), **{r: h.tolist() for r, h in floats.items()}},
        "operator_check": {"prime": CHECK_PRIME, "k_checked": K},
        "zeta_census_check": zeta_check,
        "verdicts": verdicts,
        "estimator": estimator,
        "notes": notes,
    }
    if include_timings:
        report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return report


def _float_text(text: str, x: float) -> str:
    """repr(float(text)) for text = x at 12 significant digits, or "null"
    for a non-finite x.  Only an e+ form and a magnitude below the smallest
    normal double take that round trip: any other text of at most 12 digits
    already is the shortest repr of its double, less the ".0" of an integral
    value."""
    if "e" in text:
        return text if "e-" in text and abs(x) >= _SMALLEST_NORMAL else repr(float(text))
    if "." in text:
        return text
    return text + ".0" if math.isfinite(x) else "null"  # JSON has no NaN or infinity


def _float_texts(values: list) -> list[str]:
    """Each of values (floats) as _float_text writes it; a list whose every
    text has a fraction and no exponent is written as it is formatted."""
    texts = list(map(_TWELVE_DIGITS, values))
    joined = "".join(texts)
    if "e" in joined or joined.count(".") != len(texts):
        texts = list(map(_float_text, texts, values))
    return texts


def _record_texts(records: list[dict], pad: str) -> list[str] | None:
    """Dicts that all share one nonempty key set, each written at
    indentation pad through one template, every key's values in one batch;
    None for any other list of dicts."""
    keys = records[0].keys()
    if not keys or any(r.keys() != keys for r in records):
        return None
    inner = pad + "  "
    names = sorted(keys)
    template = ("{\n" + ",\n".join(
        f"{inner}{encode_basestring_ascii(name).replace('%', '%%')}: %s"
        for name in names) + f"\n{pad}}}")
    columns = [_item_texts([r[name] for r in records], inner) for name in names]
    return [template % row for row in zip(*columns)]


def _item_texts(values: list, pad: str) -> list[str]:
    """Each of values as JSON at indentation pad, a list of only floats,
    only strings, only ints or only bools and None in one batch."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return _float_texts(values)
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds <= {bool, type(None)}:
        return list(map(_LITERALS.__getitem__, values))
    if kinds == {dict}:
        texts = _record_texts(values, pad)
        if texts is not None:
            return texts
    return [_to_json(value, pad) for value in values]


def _to_json(obj, pad: str = "") -> str:
    """obj as JSON nested at indentation pad, each float rounded as it is
    written."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return _LITERALS[obj]
    if isinstance(obj, float):
        return _float_text(_TWELVE_DIGITS(obj), obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{encode_basestring_ascii(key)}: {_to_json(value, inner)}"
                 for key, value in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        items = _item_texts(obj, inner)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    first, last = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return first + last
    return f"{first}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{last}"


def report_to_json(report: dict) -> str:
    """Deterministic JSON: sorted keys, floats at 12 significant digits,
    non-finite floats as null, arbitrary-precision integers already rendered
    as decimal strings.  Written in one walk, the text is json.dumps(report,
    sort_keys=True, indent=2) of the rounded report; keys must be str, and
    a value json.dumps cannot write raises TypeError."""
    return _to_json(report)
