"""Ladder benchmark of `ihara analyze`, written to BENCH_<label>.json.

Runs iharazeta.cli.main(["analyze", g, "--k", K, "--out", <tmp>]) over a
fixed ladder of graphs at K = 50, 150 and 200, with BLAS/OpenMP threads
pinned to one.  Each run is a fresh child process that runs the whole ladder
once as a warm-up and then times every (graph, K) once, in ladder order.
Given two or more source trees (--src, each with its --label), the script
interleaves their children run by run, the order reversed on every other run,
so that drift of the machine over the session falls on every tree alike;
wall times of trees measured in separate invocations drift apart by up to
30%.  Per tree, graph and K the tree's file records:

- the exit code (the same in every run, or the run is reported as unstable);
- wall_s: the median end-to-end time of the cli.main call;
- stages_s: the median of each stage of the report's own `timings`;
- writer_s: the median time of report_to_json, which cli.main calls once;
- layers_s: per layer the report calls (the eigensolver, the exact census,
  the operator traces and the series extraction), the median of its total
  time in one cli.main call.

The file also records src_lines, the line count (as `wc -l`) of the
package's *.py files under the tree, and under `oneshot` the cost a
command-line user pays per call: each of ONESHOT runs as `ihara` in a fresh
interpreter (output to /dev/null), once to warm the file cache and then once
per run, the trees interleaved the same way, and the file records the median
wall time from spawn to exit and the median peak resident set size of the
child (its ru_maxrss, from os.wait4).

report_to_json and the layers are timed by wrapping the names cli and
report import them under; a name that a tree does not import goes untimed,
so trees on either side of a layer's removal can still alternate.

It is not part of the test suite.

    python bench/run.py --label mine                     # this checkout's src/
    python bench/run.py --label base --src /path/to/other/checkout/src \
                        --label mine --src src           # alternated, two files
    python bench/run.py --compare bench/BENCH_base.json bench/BENCH_mine.json
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
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
LADDER = ("petersen", "prism:24", "prism:50", "hypercube:7", "complete:30",
          "prism:100")
HORIZONS = (50, 150, 200)
MIN_RUNS = 5
WRITER = ("cli", "report_to_json")
LAYERS = (("report", "eigenvalues_symmetric"), ("report", "build_census"),
          ("report", "geodesic_cycles_operator"), ("report", "hk_series"))
ONESHOT = (("analyze", "petersen", "--k", "50"), ("check", "petersen", "--k", "50"),
           ("census", "complete:30", "--k", "150"), ("estimate", "prism:50", "--k", "100"))
CASES = tuple((g, K) for K in HORIZONS for g in LADDER)
# a one-shot child's program: argv[1] is the src directory, the rest is ihara's argv
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from iharazeta.cli import main; raise SystemExit(main(sys.argv[2:]))")
# a ladder child's program: argv[1] is this directory, argv[2] the src directory
LADDER_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); from pathlib import Path; "
                "from run import ladder_once; print(json.dumps(ladder_once(Path(sys.argv[2]))))")


def _median(values):
    return statistics.median(values) if values else None


def _timed(fn, name: str, totals: dict[str, float]):
    """fn, adding the time of each call to totals[name]."""
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] = totals.get(name, 0.0) + time.perf_counter() - t0
    return wrapper


def ladder_once(src: Path) -> list[dict]:
    """Time the ladder once after one warm-up, with the program imported
    from `src`; one raw sample per (graph, K).  Runs in a child process."""
    sys.path.insert(0, str(src))
    from iharazeta import cli, report

    modules = {"cli": cli, "report": report}
    totals: dict[str, float] = {}
    for mod, name in (WRITER, *LAYERS):
        if hasattr(modules[mod], name):
            setattr(modules[mod], name, _timed(getattr(modules[mod], name), name, totals))
    samples = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for run in range(2):
            for g, K in CASES:
                if os.path.exists(out):
                    os.remove(out)
                totals.clear()
                with contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    code = cli.main(["analyze", g, "--k", str(K), "--out", out])
                    wall = time.perf_counter() - t0
                if run == 0:  # warm-up
                    continue
                stages = {}
                if code == 0:
                    with open(out, encoding="utf-8") as fh:
                        stages = json.load(fh)["timings"]
                samples.append({"code": code, "wall": wall,
                                "writer": totals.pop(WRITER[1], None),
                                "stages": stages, "layers": dict(totals)})
    return samples


def _ladder_child(src: Path) -> list[dict]:
    """ladder_once(src) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", LADDER_CHILD, str(BENCH_DIR), str(src)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def _alternate(trees, runs: int):
    """(run, tree) for each run, the trees in order on even runs and in
    reverse on odd ones, so that drift over the session hits each alike."""
    for run in range(runs):
        for tree in (trees if run % 2 == 0 else trees[::-1]):
            yield run, tree


def measure(srcs: list[Path], runs: int) -> dict[Path, list[dict]]:
    """Per src tree, one record per (graph, K): the medians over `runs`
    child processes, each timing the ladder once after a warm-up, the
    trees' children interleaved run by run."""
    samples = {src: [] for src in srcs}
    for _, src in _alternate(srcs, runs):
        samples[src].append(_ladder_child(src))
    results = {}
    for src, children in samples.items():
        rows = []
        for i, (g, K) in enumerate(CASES):
            s = [child[i] for child in children]
            codes = {x["code"] for x in s}
            stage_names = dict.fromkeys(name for x in s for name in x["stages"])
            layer_names = dict.fromkeys(name for x in s for name in x["layers"])
            rows.append({
                "graph": g, "k": K,
                "exit_code": codes.pop() if len(codes) == 1 else "unstable",
                "wall_s": _median([x["wall"] for x in s]),
                "stages_s": {name: _median([x["stages"][name] for x in s
                                            if name in x["stages"]])
                             for name in stage_names},
                "writer_s": _median([x["writer"] for x in s if x["writer"] is not None]),
                "layers_s": {name: _median([x["layers"][name] for x in s
                                            if name in x["layers"]])
                             for name in layer_names},
            })
        results[src] = rows
    return results


def _spawn(src: Path, argv: tuple[str, ...]) -> tuple[int, float, float]:
    """Run `ihara argv` from src in a fresh interpreter; its exit code, wall
    time in seconds and peak RSS in MB (ru_maxrss is in KiB on Linux)."""
    devnull = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CHILD, str(src), *argv],
                         os.environ, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def measure_oneshot(srcs: list[Path], runs: int) -> dict[Path, list[dict]]:
    """Per src tree, each ONESHOT command in runs + 1 fresh interpreters,
    the first a warm-up and the trees interleaved run by run; one record per
    command with the median wall time and peak RSS."""
    samples = {src: {argv: [] for argv in ONESHOT} for src in srcs}
    for run, src in _alternate(srcs, runs + 1):
        for argv in ONESHOT:
            sample = _spawn(src, argv)
            if run:
                samples[src][argv].append(sample)
    return {src: [{
        "command": " ".join(argv),
        "exit_codes": sorted({code for code, _, _ in s}),
        "wall_s": _median([wall for _, wall, _ in s]),
        "peak_rss_mb": _median([rss for _, _, rss in s]),
    } for argv, s in per_src.items()] for src, per_src in samples.items()}


def src_lines(src: Path) -> int:
    """Line count of the iharazeta package's *.py files under src."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "iharazeta").glob("*.py"))


def _ms(seconds) -> str:
    return "-" if seconds is None else f"{1e3 * seconds:.2f}"


def compare(base_path: str, change_path: str) -> None:
    """Print the src line counts, the median wall, writer and build_census
    times and the one-shot costs of two BENCH files side by side (files
    without src_lines, layers_s or oneshot show "-")."""
    base, change = (json.loads(Path(p).read_text(encoding="utf-8"))
                    for p in (base_path, change_path))
    print(f"src lines: {base.get('src_lines', '-')} -> {change.get('src_lines', '-')}")
    rows = {(r["graph"], r["k"]): r for r in base["results"]}
    print(f"{'graph':<12} {'K':>4} {'exit':>9}  {base['label'] + ' wall':>16} "
          f"{change['label'] + ' wall':>16} {'ratio':>6}  writer (ms)"
          f"{'build_census (ms)':>26}")
    for r in change["results"]:
        b = rows[r["graph"], r["k"]]
        writer = " -> ".join(_ms(x["writer_s"]) for x in (b, r))
        census = " -> ".join(_ms(x.get("layers_s", {}).get("build_census"))
                             for x in (b, r))
        print(f"{r['graph']:<12} {r['k']:>4} {b['exit_code']!s:>4}->{r['exit_code']!s:<3}"
              f"  {1e3 * b['wall_s']:>13.1f} ms {1e3 * r['wall_s']:>13.1f} ms "
              f"{r['wall_s'] / b['wall_s']:>6.2f}  {writer:<16} {census:>20}")
    shots = {r["command"]: r for r in base.get("oneshot", [])}
    if not shots and not change.get("oneshot"):
        return
    print(f"\n{'one-shot command':<30} {'wall (ms)':>20} {'ratio':>6} "
          f"{'peak RSS (MB)':>20} {'ratio':>6}")
    for r in change.get("oneshot", []):
        b = shots.get(r["command"])
        if b is None:
            print(f"{r['command']:<30} {'-':>20}")
            continue
        print(f"{r['command']:<30} {1e3 * b['wall_s']:>9.1f} -> {1e3 * r['wall_s']:<7.1f} "
              f"{r['wall_s'] / b['wall_s']:>6.2f} {b['peak_rss_mb']:>9.2f} -> "
              f"{r['peak_rss_mb']:<7.2f} {r['peak_rss_mb'] / b['peak_rss_mb']:>6.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", action="append", default=[],
                        help="names the output BENCH_<label>.json; once per --src")
    parser.add_argument("--runs", type=int, default=MIN_RUNS,
                        help=f"timed runs of the ladder (at least {MIN_RUNS})")
    parser.add_argument("--src", type=Path, action="append", default=[],
                        help="directory that holds the iharazeta package "
                             "(default: this checkout's src/)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="print two BENCH files side by side and exit")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    srcs = [src.resolve() for src in args.src or [BENCH_DIR.parent / "src"]]
    if (not args.label or len(args.label) != len(srcs) or len(set(args.label)) < len(srcs)
            or len(set(srcs)) < len(srcs) or args.runs < MIN_RUNS):
        parser.error(f"give one distinct --label per distinct --src (one --label "
                     f"without --src), and --runs >= {MIN_RUNS}")
    import numpy as np

    oneshot = measure_oneshot(srcs, args.runs)
    results = measure(srcs, args.runs)
    paths = []
    for label, src in zip(args.label, srcs):
        report = {
            "label": label,
            "src_lines": src_lines(src),
            "runs": args.runs,
            "alternated_with": [other for other in args.label if other != label],
            "blas_threads": 1,
            "machine": {"platform": platform.platform(), "processor": platform.machine(),
                        "cpus": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__},
            "ladder_wall_s": sum(r["wall_s"] for r in results[src]),
            "results": results[src],
            "oneshot": oneshot[src],
        }
        path = BENCH_DIR / f"BENCH_{label}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        paths.append(path)
        print(f"{label}: {src}")
        for r in results[src]:
            print(f"  {r['graph']:<12} K={r['k']:<4} exit {r['exit_code']}  "
                  f"{1e3 * r['wall_s']:8.1f} ms  writer {_ms(r['writer_s'])} ms  "
                  f"build_census {_ms(r['layers_s'].get('build_census'))} ms")
        for r in oneshot[src]:
            print(f"  {r['command']:<30} exit {r['exit_codes']}  {1e3 * r['wall_s']:8.1f} ms  "
                  f"peak RSS {r['peak_rss_mb']:.2f} MB")
        print(f"wrote {path}")
    for change in paths[1:]:
        print()
        compare(str(paths[0]), str(change))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
