"""One benchmark process: set up, run one workload's passes, check outputs.

Started by run.py in a fresh interpreter with BLAS/OpenMP threads pinned to
one.  It imports iharazeta (with numpy and mpmath), runs a warm-up pass over
the workload's graph list, then repeats timed passes for --seconds.  Every
operation is one call of the `ihara` command-line entry point, writing its
JSON output to a file, and is followed by a run of the speed kernel
(speed.py) so that its time can be given at the reference speed.  Outputs
are checked after the timed passes by checks.py.  The last stdout line is a
JSON summary for run.py.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

# (subcommand, K, graphs, largest graph); README.md says why each was chosen
WORKLOADS = {
    "analyze-k50": ("analyze", 50, [
        "petersen", "kmm:5", "hypercube:3", "cycle:7", "prism:6", "prism:12",
        "circulant:30:1,4", "prism:16", "prism:20", "prism:24"], "prism:24"),
    "census-k150": ("census", 150, [
        "petersen", "kmm:16", "hypercube:5", "circulant:30:1,4", "complete:30",
        "circulant:40:1,7", "prism:24", "hypercube:6"], "hypercube:6"),
    "estimate-k100": ("estimate", 100, [
        "circulant:30:1,4", "prism:24", "prism:30", "hypercube:6",
        "circulant:64:1,5", "prism:40", "prism:50"], "prism:50"),
}
# modules whose imports from other layers are wrapped in a traced pass
IMPORTERS = ("cli", "report", "census", "zetaxi")
LAYERS = ("cli", "report", "graphs", "spectral", "census", "hk", "zetaxi", "analysis")
HOT = ("spectral.eigenvalues_symmetric", "census.build_census",
       "census.geodesic_cycles_operator", "census.nk_from_spectrum_rounded",
       "zetaxi.hk_series", "zetaxi.log_series_zeta_check",
       "zetaxi.functional_equation_residual", "zetaxi.zeta_inverse", "hk.hk_from_ck",
       "hk.hk_spectral", "analysis.estimate_max_eigenvalue", "report.report_to_json")


class Runner:
    """Runs operations, times them, keeps each distinct output for checking."""

    def __init__(self, command: str, K: int, graphs: list[str], out_path: Path):
        self.command, self.K, self.graphs = command, K, graphs
        self.out_path = out_path
        self.outputs: dict[str, set[bytes]] = {g: set() for g in graphs}
        self.attempted = 0
        self.failures: list[str] = []
        self.kernel = 0.0  # the latest speed.kernel_seconds() reading

    def run_op(self, main, g: str) -> float:
        """One operation; returns its wall time in seconds."""
        argv = [self.command, g, "--k", str(self.K), "--no-timings",
                "--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        err = io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # an uncaught error is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if code != 0:
            self.failures.append(f"{self.command} {g}: exit {code} {err.getvalue()[-300:]}")
        else:
            self.outputs[g].add(self.out_path.read_bytes())
        return seconds

    def run_pass(self, main) -> tuple[dict[str, float], dict[str, float]]:
        """One pass over the graph list, with the speed kernel after each
        operation; returns each operation's raw seconds and its seconds at
        the reference speed."""
        raw, ref = {}, {}
        for g in self.graphs:
            raw[g] = self.run_op(main, g)
            after = speed.kernel_seconds()
            ref[g] = speed.at_reference(raw[g], self.kernel, after)
            self.kernel = after
        return raw, ref

    def check(self, checks) -> list[str]:
        problems = []
        for g, outputs in self.outputs.items():
            if not outputs:
                continue
            if len(outputs) > 1:
                problems.append(f"{g}: {len(outputs)} different outputs across passes")
            graph = checks.Graph(g)
            for raw in outputs:
                problems += [f"{g}: {p}" for p in
                             checks.CHECKS[self.command](graph, json.loads(raw), self.K)]
        return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; 0 stops after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--kernel-before", type=float, required=True,
                        help="speed.kernel_median() measured just before that")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    import iharazeta  # loads numpy and mpmath too
    from iharazeta import cli

    command, K, graphs, largest = WORKLOADS[args.workload]
    graphs = list(graphs)
    random.Random(args.seed).shuffle(graphs)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / f"out-{os.getpid()}.json"
    runner = Runner(command, K, graphs, out_path)
    try:
        for g in graphs:  # warm-up, discarded
            runner.run_op(cli.main, g)
        setup_raw = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        result = {"setup_raw_s": setup_raw, "setup_s": speed.at_reference(
            setup_raw, args.kernel_before, speed.kernel_median())}

        runner.kernel = speed.kernel_seconds()
        untraced: list[tuple[dict[str, float], dict[str, float]]] = []
        traced: list[tuple[dict[str, float], dict[str, float]]] = []
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            traced_main = tracer.wrap("cli.main", cli.main)
        end = time.perf_counter() + args.seconds
        while time.perf_counter() < end:
            untraced.append(runner.run_pass(cli.main))
            if tracer is not None:
                tracer.install(iharazeta, IMPORTERS)
                try:
                    traced.append(runner.run_pass(traced_main))
                finally:
                    tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if untraced:
            for suffix, k in (("_raw_s", 0), ("_s", 1)):
                result["pass" + suffix] = statistics.median(
                    sum(times[k].values()) for times in untraced)
                result["largest" + suffix] = statistics.median(
                    times[k][largest] for times in untraced)
        if tracer is not None and traced:
            result["per_layer"] = per_layer(tracer, [raw for raw, _ in untraced],
                                            [raw for raw, _ in traced])
            tracer.dump(args.out_dir / f"spans-{args.workload}.json")
    finally:
        out_path.unlink(missing_ok=True)

    import checks  # only now, so that set-up time covers the program alone
    result["problems"] = runner.check(checks)
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    print(json.dumps(result))
    return 0


def per_layer(tracer, untraced, traced) -> dict[str, float]:
    """Self time and calls per pass, per layer and per hot function, in raw
    seconds; untraced and traced hold each pass's raw operation times."""
    seconds, calls = tracer.self_times()
    passes = len(traced)
    metrics = {}
    for layer in LAYERS:
        names = [n for n in seconds if n.split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = sum(seconds[n] for n in names) / passes
        metrics[f"{layer}.calls"] = sum(calls[n] for n in names) / passes
    for name in HOT:
        metrics[f"{name}.self_s"] = seconds.get(name, 0.0) / passes
        metrics[f"{name}.calls"] = calls.get(name, 0) / passes
    traced_mean = statistics.fmean(sum(t.values()) for t in traced)
    metrics["trace.pass_s"] = traced_mean
    metrics["trace.overhead_s"] = traced_mean - statistics.fmean(
        sum(t.values()) for t in untraced)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
