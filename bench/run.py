"""Ladder benchmark of `ihara analyze`, written to BENCH_<label>.json.

Runs iharazeta.cli.main(["analyze", g, "--k", K, "--out", <tmp>]) in-process,
with BLAS/OpenMP threads pinned to one, over a fixed ladder of graphs at
K = 50, 150 and 200.  After one warm-up run of the whole ladder, each run times
every (graph, K) once, in ladder order.  Per graph and K the file records:

- the exit code (the same in every run, or the run is reported as unstable);
- wall_s: the median end-to-end time of the cli.main call;
- stages_s: the median of each stage of the report's own `timings`;
- writer_s: the median time of report_to_json, which cli.main calls once;
- layers_s: per layer the report calls (the eigensolver, the exact census,
  the operator traces and the series extraction), the median of its total
  time in one cli.main call.

The file also records src_lines, the line count (as `wc -l`) of the
package's *.py files under --src, and under `oneshot` the cost a command-line
user pays per call: each of ONESHOT runs as `ihara` in a fresh interpreter
(output to /dev/null), once to warm the file cache and then once per run, and
the file records the median wall time from spawn to exit and the median
peak resident set size of the child (its ru_maxrss, from os.wait4).

report_to_json and the layers are timed by wrapping the names cli and
report import them under.

It is not part of the test suite.

    python bench/run.py --label mine                     # this checkout's src/
    python bench/run.py --label base --src /path/to/other/checkout/src
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
# the child's program: argv[1] is the src directory, the rest is ihara's argv
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from iharazeta.cli import main; raise SystemExit(main(sys.argv[2:]))")


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


def measure(src: Path, runs: int) -> list[dict]:
    """Time the ladder `runs` times after one warm-up, with the program
    imported from `src`; one record per (graph, K)."""
    sys.path.insert(0, str(src))
    from iharazeta import cli, report

    modules = {"cli": cli, "report": report}
    totals: dict[str, float] = {}
    originals = [(modules[mod], name, getattr(modules[mod], name))
                 for mod, name in (WRITER, *LAYERS)]
    for module, name, real in originals:
        setattr(module, name, _timed(real, name, totals))
    cases = [(g, K) for K in HORIZONS for g in LADDER]
    samples = {case: {"codes": set(), "wall": [], "writer": [], "stages": {},
                      "layers": {}} for case in cases}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for run in range(runs + 1):
            for g, K in cases:
                if os.path.exists(out):
                    os.remove(out)
                totals.clear()
                with contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.perf_counter()
                    code = cli.main(["analyze", g, "--k", str(K), "--out", out])
                    wall = time.perf_counter() - t0
                if run == 0:  # warm-up
                    continue
                sample = samples[g, K]
                sample["codes"].add(code)
                sample["wall"].append(wall)
                if WRITER[1] in totals:
                    sample["writer"].append(totals.pop(WRITER[1]))
                for name, t in totals.items():
                    sample["layers"].setdefault(name, []).append(t)
                if code == 0:
                    with open(out, encoding="utf-8") as fh:
                        for stage, t in json.load(fh)["timings"].items():
                            sample["stages"].setdefault(stage, []).append(t)
    for module, name, real in originals:
        setattr(module, name, real)
    return [{
        "graph": g, "k": K,
        "exit_code": s["codes"].pop() if len(s["codes"]) == 1 else "unstable",
        "wall_s": _median(s["wall"]),
        "stages_s": {stage: _median(t) for stage, t in s["stages"].items()},
        "writer_s": _median(s["writer"]),
        "layers_s": {name: _median(t) for name, t in s["layers"].items()},
    } for (g, K), s in samples.items()]


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


def measure_oneshot(src: Path, runs: int) -> list[dict]:
    """Each ONESHOT command in runs + 1 fresh interpreters, the first a
    warm-up; one record per command with the median wall time and peak RSS."""
    samples = {argv: [] for argv in ONESHOT}
    for run in range(runs + 1):
        for argv in ONESHOT:
            sample = _spawn(src, argv)
            if run:
                samples[argv].append(sample)
    return [{
        "command": " ".join(argv),
        "exit_codes": sorted({code for code, _, _ in s}),
        "wall_s": _median([wall for _, wall, _ in s]),
        "peak_rss_mb": _median([rss for _, _, rss in s]),
    } for argv, s in samples.items()]


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
    parser.add_argument("--label", help="names the output BENCH_<label>.json")
    parser.add_argument("--runs", type=int, default=MIN_RUNS,
                        help=f"timed runs of the ladder (at least {MIN_RUNS})")
    parser.add_argument("--src", type=Path, default=BENCH_DIR.parent / "src",
                        help="directory that holds the iharazeta package")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="print two BENCH files side by side and exit")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.label or args.runs < MIN_RUNS:
        parser.error(f"--label is required and --runs must be >= {MIN_RUNS}")
    import numpy as np

    src = args.src.resolve()
    oneshot = measure_oneshot(src, args.runs)
    results = measure(src, args.runs)
    report = {
        "label": args.label,
        "src_lines": src_lines(src),
        "runs": args.runs,
        "blas_threads": 1,
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "ladder_wall_s": sum(r["wall_s"] for r in results),
        "results": results,
        "oneshot": oneshot,
    }
    path = BENCH_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    for r in results:
        print(f"{r['graph']:<12} K={r['k']:<4} exit {r['exit_code']}  "
              f"{1e3 * r['wall_s']:8.1f} ms  writer {_ms(r['writer_s'])} ms  "
              f"build_census {_ms(r['layers_s'].get('build_census'))} ms")
    for r in oneshot:
        print(f"{r['command']:<30} exit {r['exit_codes']}  {1e3 * r['wall_s']:8.1f} ms  "
              f"peak RSS {r['peak_rss_mb']:.2f} MB")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
