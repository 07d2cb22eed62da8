"""Benchmark of rgw: runs one workload and prints its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload rate_corpus --seed 1 --seconds 25 --trace 0

The workloads are ``rate_corpus``, ``tree_campaign`` and ``readme_cli``; each
lives in the module of that name. A run sets the workload up (imports the
package from ``src/`` and generates its inputs from ``--seed``) five times,
warms it up once, then runs a closed loop, one call at a time, for about
``--seconds``. Every operation's output is checked.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, taken from spans that the
benchmark records in memory around each call into the package, and the
tracing overhead. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
line before it holds the provenance, the failures and the workload's own
report, such as the slowest rate solves with their inputs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rate_corpus", "tree_campaign", "readme_cli")
SETUPS = 5
# importing is interpreter-bound work, whatever the workload
SETUP_REFERENCE = "python"
REQUIRED = ("BENCHMARK.json", "src/rgw/__init__.py", "demos/laws/uniform12.json",
            "tests/golden/rate_flagship.csv",
            "tests/golden/classify_flagship.csv",
            "tests/golden/survival_grid.csv")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS", "RGW_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rgw, rgw.cli; "
                "print(time.perf_counter() - t)")

sys.path.insert(0, str(HERE))
from harness import (Bench, quantile, self_seconds_by_layer,  # noqa: E402
                     slowdown, span_cost_s)


def set_up(module, seed: int):
    """Import time (in a fresh interpreter) plus input generation: the median
    over SETUPS corrected for the host's slowdown, the median as measured,
    and the last workload built."""
    samples, corrected = [], []
    for _ in range(SETUPS):
        before = slowdown(SETUP_REFERENCE)
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                                str(ROOT / "src")], cwd=ROOT, check=True,
                               capture_output=True, text=True, timeout=120)
        start = perf_counter()
        workload = module.Workload(ROOT, seed)
        samples.append(float(probe.stdout) + perf_counter() - start)
        after = slowdown(SETUP_REFERENCE)
        corrected.append(2.0 * samples[-1] / (before + after))
    return statistics.median(corrected), statistics.median(samples), workload


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(load_before: float) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
    }


def span_summary(spans) -> dict:
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += s.end - s.start
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"not a checkout of rgw: missing {', '.join(missing)}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    load_before = os.getloadavg()[0]
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(args.workload)
    import rgw
    if not Path(rgw.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"rgw imported from {rgw.__file__}, not src/\n")
        return 2

    setup_s, setup_wall_s, workload = set_up(module, args.seed)
    workload.warm_up()
    bench = Bench(args.workload, traced=bool(args.trace),
                  reference=module.REFERENCE)
    start = perf_counter()
    workload.run(bench, args.seconds)
    wall_s = perf_counter() - start

    layers = workload.layer_metrics()
    measured = {
        "setup_s": setup_s,
        "round_s": workload.round_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {m["name"]: measured[m["name"]] for m in spec["end_to_end"]}
    # the workload's own headline figures
    headline = {alias: (metrics.get(name, layers.get(name)), units[name])
                for alias, name in module.HEADLINE.items()}
    headline.update(wall_s=(wall_s, "s"),
                    failed_share=(len(bench.failures) / bench.attempted, "1"),
                    setup_wall_s=(setup_wall_s, "s"),
                    round_wall_s=(quantile(bench.round_s, 0.5), "s"),
                    slowdown=(quantile(bench.slowdowns, 0.5), "1"))
    if args.trace:
        self_s = self_seconds_by_layer(bench.spans)
        layers.update({f"{layer}.self_s": self_s.get(layer, 0.0)
                       for layer in ("bench", "rate", "simulate", "cli")})
        layers["trace.spans"] = len(bench.spans)
        # what the run's spans cost over untraced timers: the traced and
        # untraced runs differ by more than this from drift alone
        layers["trace.overhead_s"] = len(bench.spans) * span_cost_s()
        unknown = set(layers) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: "
                           f"{sorted(unknown)}")
        metrics = {m["name"]: layers.get(m["name"], 0.0)
                   for m in spec["per_layer"]}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    if not args.trace:
        for name, (value, unit) in headline.items():
            print(f"  {name:34s} {value:.6g} {unit}")
    report = {"provenance": provenance(load_before),
              "headline": headline,
              "failures": bench.failures[:20],
              **workload.report()}
    if args.trace:
        report["spans"] = span_summary(bench.spans)
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
