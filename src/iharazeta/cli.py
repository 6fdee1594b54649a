"""Command-line front end.

Subcommands: analyze, series, census, zeta, check, estimate, generate.
Inputs are either an edge-list file path or a generator string such as
"petersen" or "prism:24".  Exit codes: 0 success, 1 certification refused
under --require-ramanujan, 2 invalid input (an input file that cannot be
read, an --out path that cannot be written, and a horizon at which some
h_k passes the double range included), 3 internal consistency failure.
Exit 1 means only "refuted": any other uncaught exception also exits 3, with
one line "internal error: <type>: <message>" on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import os
import sys

from .analysis import estimate_max_eigenvalue
from .census import (BruteForceBudgetExceeded, build_census, walk_plan,
                     characteristic_polynomial, geodesic_cycles_bruteforce)
from .graphs import (GraphError, GraphProfile, Multigraph, adjacency_matrix,
                     parse_generator, profile, read_edge_list, write_edge_list)
from .hk import hk_excess, hk_from_ck, hk_spectral
from .report import InternalConsistencyError, analyze, report_to_json
from .spectral import (eigenvalues_symmetric, nontrivial_spectrum,
                       scaled_spectrum)
from .zetaxi import bass_determinant, hk_series, xi_rational, zeta_inverse

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

# the schema of the census, series, zeta and estimate outputs; analyze and
# check print report.SCHEMA_VERSION
DATA_SCHEMA = 3
# h_k routes of the series subcommand, in CSV column order
SERIES_ROUTES = ["spectral", "ck", "series"]
# a census of more work (the Plan.work of its census.walk_plan) prints a
# cost note on stderr.  build_census takes 5-10e-11 s a unit at size >= 60
# (x86-64, one BLAS thread): 5.2e8 units and 30 ms for cycle:101 at K = 101,
# 9.6e9 and 0.61 s for circulant:150:1,2,3,50 at K = 150, 1.5e10 and 0.79 s
# for cycle:201 at K = 200, 2.2e10 and 1.9 s for complete:150 at K = 150
COSTLY_WORK = 10 ** 10


def _load_graph(source: str) -> tuple[Multigraph, GraphProfile]:
    """The graph that source names, and its profile: every subcommand but
    generate validates here, before any census is planned."""
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {source}: {exc.strerror or exc}") from exc
        g = read_edge_list(text)
    else:
        g = parse_generator(source)
    return g, profile(g)


def _check_out(out: str | None) -> None:
    """Fail an --out path that names a directory, or a file in a directory
    that does not exist, before any work starts; nothing is created."""
    if out and os.path.isdir(out):
        raise ValueError(f"cannot write {out}: {os.strerror(errno.EISDIR)}")
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"cannot write {out}: {os.strerror(errno.ENOENT)}")


def _cost_note(g: Multigraph, K: int, what: str | None = None) -> None:
    """Say on stderr that what (by default "--k K") is costly when the census
    of g to horizon K does more than COSTLY_WORK units of work (the
    Plan.work of its walk_plan).  Called where a census runs."""
    if walk_plan(g, K).work > COSTLY_WORK:
        print(f"note: {what or f'--k {K}'} is costly; census entries grow "
              "like (q+1)^k", file=sys.stderr)


def _verdict_exit(args: argparse.Namespace, verdicts: dict) -> int:
    """EXIT_REFUTED under --require-ramanujan unless both verdicts certify;
    EXIT_OK otherwise."""
    certified = verdicts["spectral"]["is_ramanujan"] and verdicts["hk"]["is_ramanujan"]
    return EXIT_REFUTED if args.require_ramanujan and not certified else EXIT_OK


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    """analyze's report, or check's projection of it onto args.keys."""
    g, _ = _load_graph(args.input)
    _cost_note(g, args.k)
    report = analyze(g, args.input, args.k, include_timings=not args.no_timings)
    if args.keys:
        report = {key: report[key] for key in args.keys}
    _emit(report_to_json(report), args.out)
    return _verdict_exit(args, report["verdicts"])


def cmd_series(args: argparse.Namespace) -> int:
    g, prof = _load_graph(args.input)
    K = args.k
    q, n = prof.q, g.n
    routes: dict = {}
    want = SERIES_ROUTES if args.route == "all" else [args.route]
    if K >= 1:
        if "spectral" in want or "series" in want:
            ns = nontrivial_spectrum(eigenvalues_symmetric(
                adjacency_matrix(g), prof.bipartition), prof)
        if "spectral" in want:
            routes["spectral"] = hk_spectral(scaled_spectrum(ns), K, prof.bipartite)
        if "ck" in want:
            _cost_note(g, K)
            excess = hk_excess(build_census(g, q, K).nk, q, n, prof.bipartite)
            routes["ck"] = hk_from_ck(excess, q, n, prof.bipartite, K)
        if "series" in want:
            routes["series"] = hk_series(xi_rational(zeta_inverse(ns), q), K)
    if args.format == "json":
        payload = {"schema": DATA_SCHEMA, "source": args.input, "k_horizon": K,
                   "routes": {r: h.tolist() for r, h in routes.items()}}
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
    g, prof = _load_graph(args.input)
    _cost_note(g, args.k)
    census = build_census(g, prof.q, args.k)
    payload = {
        "schema": DATA_SCHEMA,
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
    """Z(u)^-1 = (1-u^2)^e det(I - uA + qu^2 I), exactly: the determinant's
    coefficients from chi_A, which the census to horizon n gives."""
    g, prof = _load_graph(args.input)
    q, n = prof.q, g.n
    _cost_note(g, n, f"the census to n = {n}")
    chi = characteristic_polynomial(build_census(g, q, n).c[1:])
    payload = {"schema": DATA_SCHEMA, "source": args.input,
               "det_coefficients": [str(d) for d in bass_determinant(chi, q)],
               "one_minus_u2_power": n * (q - 1) // 2, "degree": n * (q + 1)}
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    g, prof = _load_graph(args.input)
    ns = nontrivial_spectrum(eigenvalues_symmetric(
        adjacency_matrix(g), prof.bipartition), prof)
    payload = estimate_max_eigenvalue(
        hk_spectral(scaled_spectrum(ns), args.k, prof.bipartite), prof.q)
    payload.update({"schema": DATA_SCHEMA, "source": args.input,
                    "k_horizon": args.k})
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    g = parse_generator(args.spec)
    profile(g)
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

    def common(p: argparse.ArgumentParser, k_default: int | None = 50) -> None:
        """input, --out and --no-timings; --k too unless k_default is None."""
        p.add_argument("input", help="edge-list file path or generator string")
        if k_default is not None:
            p.add_argument("--k", type=int, default=k_default,
                           help=f"series horizon (default {k_default}, max 200)")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--no-timings", action="store_true",
                       help="omit wall-clock timings for byte-stable output")

    for name, description, keys in (
            ("analyze", "full pipeline, JSON report", None),
            ("check", "verdicts only, JSON",
             ("schema", "source", "k_horizon", "verdicts", "operator_check",
              "zeta_census_check"))):
        p = sub.add_parser(name, help=description)
        common(p)
        p.add_argument("--require-ramanujan", action="store_true",
                       help="exit 1 unless both verdicts certify")
        p.set_defaults(func=cmd_analyze, keys=keys)

    p = sub.add_parser("series", help="h_k table as CSV")
    common(p)
    p.add_argument("--format", choices=["json", "csv"], default="csv",
                   help="output format (default csv)")
    p.add_argument("--route", default="all",
                   choices=SERIES_ROUTES + ["all"])
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("census", help="exact C_k and N_k sequences as JSON")
    common(p)
    p.add_argument("--oracle-k", type=int, default=0,
                   help="cross-check N_k by brute force up to this k")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("zeta", help="exact Z(u)^-1 as JSON: the integer "
                       "coefficients of det(I - uA + qu^2 I) and the power "
                       "of (1 - u^2)")
    common(p, k_default=None)
    p.set_defaults(func=cmd_zeta)

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
        if getattr(args, "oracle_k", 0) < 0:
            raise GraphError("--oracle-k must be >= 0")
        _check_out(args.out)
        return args.func(args)
    except (ValueError, BruteForceBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
