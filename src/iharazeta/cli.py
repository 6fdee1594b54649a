"""Command-line front end.

Subcommands: analyze, series, census, zeta, check, estimate, generate.
Inputs are either an edge-list file path or a generator string such as
"petersen" or "prism:24".  Exit codes: 0 success, 1 certification refused
under --require-ramanujan, 2 invalid input, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys

from .analysis import (EstimatorNotApplicable, EstimatorSignMismatch,
                       estimate_max_eigenvalue)
from .census import (BruteForceBudgetExceeded, RoundingResidualTooLarge,
                     build_census, geodesic_cycles_bruteforce)
from .graphs import (GraphError, Multigraph, adjacency_matrix, parse_generator,
                     profile, read_edge_list, write_edge_list)
from .hk import hk_from_ck, hk_spectral
from .report import (SCHEMA_VERSION, AnalysisConfig, InternalConsistencyError,
                     analyze, env_seed, report_to_json)
from .spectral import (eigenvalues_symmetric, nontrivial_spectrum,
                       scaled_spectrum)
from .zetaxi import hk_series, xi_rational, zeta_inverse

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

# h_k routes of the series subcommand, in CSV column order
SERIES_ROUTES = ["spectral", "ck", "series"]


def _load_graph(source: str) -> Multigraph:
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return read_edge_list(fh.read())
    return parse_generator(source)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _config(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(k_horizon=args.k, seed=env_seed(),
                          spectral_tol=args.tol,
                          include_timings=not args.no_timings)


def _pipeline_pieces(g: Multigraph):
    prof = profile(g)
    spectrum = eigenvalues_symmetric(adjacency_matrix(g))
    return prof, spectrum, nontrivial_spectrum(spectrum, prof)


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    report = analyze(g, source=args.input, cfg=_config(args))
    _emit(report_to_json(report), args.out)
    if args.require_ramanujan:
        verdicts = report["verdicts"]
        if not (verdicts["spectral"]["is_ramanujan"]
                and verdicts["hk"]["is_ramanujan"]):
            return EXIT_REFUTED
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    K = args.k
    prof, _, ns = _pipeline_pieces(g)
    q, n = prof.q, g.n
    routes: dict[str, list[float]] = {}
    want = SERIES_ROUTES if args.route == "all" else [args.route]
    if K >= 1:
        if "spectral" in want:
            routes["spectral"] = list(hk_spectral(scaled_spectrum(ns), K, q, n,
                                                  prof.bipartite).values)
        if "ck" in want:
            census = build_census(g, q, K)
            routes["ck"] = list(hk_from_ck(census.c, q, n, prof.bipartite, K).values)
        if "series" in want:
            routes["series"] = list(hk_series(xi_rational(ns, q), q, K))
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "source": args.input, "k_horizon": K,
                   "routes": {r: [float(v) for v in vals]
                              for r, vals in routes.items()}}
        _emit(report_to_json(payload), args.out)
        return EXIT_OK
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.route == "all":
        writer.writerow(["k"] + SERIES_ROUTES)
        for k in range(1, K + 1):
            writer.writerow([k] + [f"{routes[r][k - 1]:.12g}" for r in SERIES_ROUTES])
    else:
        writer.writerow(["k", "h_k", "route"])
        for k in range(1, K + 1):
            writer.writerow([k, f"{routes[args.route][k - 1]:.12g}", args.route])
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise GraphError("census horizon must be >= 1")
    g = _load_graph(args.input)
    prof = profile(g)
    census = build_census(g, prof.q, args.k)
    payload = {
        "schema": SCHEMA_VERSION,
        "source": args.input,
        "k_horizon": args.k,
        "c": [str(x) for x in census.c],
        "n": [str(x) for x in census.nk],
    }
    if args.oracle_k:
        upto = min(args.oracle_k, args.k)
        oracle = [geodesic_cycles_bruteforce(g, k) for k in range(1, upto + 1)]
        payload["oracle_n"] = [str(x) for x in oracle]
        if oracle != list(census.nk[:upto]):
            raise InternalConsistencyError(
                "brute-force oracle disagrees with the census")
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_zeta(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    prof, spectrum, ns = _pipeline_pieces(g)
    zinv = zeta_inverse(spectrum, prof.q, g.n)
    xi = xi_rational(ns, prof.q)
    payload = {
        "schema": SCHEMA_VERSION,
        "source": args.input,
        "zeta_inverse_coefficients": [float(c) for c in zinv.coefficients],
        "degree": zinv.degree,
        "xi_numerator": [float(c) for c in xi.numerator.coefficients],
        "xi_denominator": [float(c) for c in xi.denominator.coefficients],
    }
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    report = analyze(g, source=args.input, cfg=_config(args))
    verdicts = report["verdicts"]
    payload = {
        "schema": SCHEMA_VERSION,
        "source": args.input,
        "k_horizon": args.k,
        "verdicts": verdicts,
        "functional_equation": report["functional_equation"],
        "route_agreement": report["route_agreement"],
    }
    _emit(report_to_json(payload), args.out)
    if args.require_ramanujan:
        if not (verdicts["spectral"]["is_ramanujan"]
                and verdicts["hk"]["is_ramanujan"]):
            return EXIT_REFUTED
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    prof, _, ns = _pipeline_pieces(g)
    seq = hk_spectral(scaled_spectrum(ns), args.k, prof.q, g.n, prof.bipartite)
    try:
        est = estimate_max_eigenvalue(seq, prof.q)
        payload = {
            "status": "ok",
            "estimate": est.estimate,
            "mu": est.mu,
            "implied_max_abs_eigenvalue": est.implied_max_abs_eigenvalue,
            "k_used": list(est.k_used),
            "converged": est.converged,
        }
    except EstimatorNotApplicable as exc:
        payload = {"status": "not_applicable", "detail": str(exc)}
    except EstimatorSignMismatch as exc:
        payload = {"status": "sign_mismatch", "detail": str(exc)}
    payload.update({"schema": SCHEMA_VERSION, "source": args.input,
                    "k_horizon": args.k})
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    g = parse_generator(args.spec)
    _emit(write_edge_list(g), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser for every main() call; building a fresh one per call
    leaves reference cycles behind for the garbage collector."""
    parser = argparse.ArgumentParser(
        prog="ihara",
        description="Ihara zeta/xi analysis of connected regular multigraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, k_default: int = 50,
               fmt_default: str = "json") -> None:
        p.add_argument("input", help="edge-list file path or generator string")
        p.add_argument("--k", type=int, default=k_default,
                       help=f"series horizon (default {k_default}, max 200)")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--format", choices=["json", "csv"], default=fmt_default,
                       help=f"output format (default {fmt_default})")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="spectral Ramanujan comparison tolerance")
        p.add_argument("--no-timings", action="store_true",
                       help="omit wall-clock timings for byte-stable output")

    p = sub.add_parser("analyze", help="full pipeline, JSON report")
    common(p)
    p.add_argument("--require-ramanujan", action="store_true",
                   help="exit 1 unless both verdicts certify")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("series", help="h_k table as CSV")
    common(p, fmt_default="csv")
    p.add_argument("--route", default="all",
                   choices=SERIES_ROUTES + ["all"])
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("census", help="exact C_k and N_k sequences as JSON")
    common(p)
    p.add_argument("--oracle-k", type=int, default=0,
                   help="cross-check N_k by brute force up to this k")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("zeta", help="zeta/xi coefficient arrays as JSON")
    common(p)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("check", help="verdicts only, JSON")
    common(p)
    p.add_argument("--require-ramanujan", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("estimate", help="dominant-eigenvalue estimator")
    common(p, k_default=100)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("generate", help="write a generator's edge list")
    p.add_argument("spec", help="generator string, e.g. prism:24")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    k = getattr(args, "k", None)
    try:
        if k is not None:
            if args.command != "series" and k < 1:
                raise GraphError("--k must be >= 1")
            if k < 0:
                raise GraphError("--k must be >= 0")
            if k > 200:
                raise GraphError("--k capped at 200 (cost grows with (q+1)^k)")
            if k > 100:
                print(f"note: --k {k} is costly; census entries grow like "
                      "(q+1)^k", file=sys.stderr)
        if getattr(args, "format", None) == "csv" and args.command != "series":
            raise GraphError(f"--format csv is only supported by 'series', "
                             f"not '{args.command}'")
        return args.func(args)
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BruteForceBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (InternalConsistencyError, RoundingResidualTooLarge) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
