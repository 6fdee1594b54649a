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
package's *.py files under --src.

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


def src_lines(src: Path) -> int:
    """Line count of the iharazeta package's *.py files under src."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "iharazeta").glob("*.py"))


def _ms(seconds) -> str:
    return "-" if seconds is None else f"{1e3 * seconds:.2f}"


def compare(base_path: str, change_path: str) -> None:
    """Print the src line counts and the median wall, writer and
    build_census times of two BENCH files side by side (files without
    src_lines or layers_s show "-")."""
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
    }
    path = BENCH_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    for r in results:
        print(f"{r['graph']:<12} K={r['k']:<4} exit {r['exit_code']}  "
              f"{1e3 * r['wall_s']:8.1f} ms  writer {_ms(r['writer_s'])} ms  "
              f"build_census {_ms(r['layers_s'].get('build_census'))} ms")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
