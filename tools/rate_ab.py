"""Time a benchmark round under two source trees in one process.

Usage:

    python tools/rate_ab.py PARENT_SRC CHANGE_SRC [--round rate|spine]
        [--rounds 80] [--corpus 0] [--seed 77]

PARENT_SRC and CHANGE_SRC are ``src`` directories that each hold an ``rgw``
package, for instance ``src`` of a ``git archive`` of the parent commit and
``src`` of the working tree. The two packages are imported side by side, as
``rgw_parent`` and ``rgw_change``.

The rate round (the default) is read from the checkout's
``perfbench/rate_corpus.py``: the flagship grid at q = 1/3 and then the
fixed block ``make_corpus(SLICE_SEED, BLOCK)``. A case builds the law and
the target, solves ``reinforced_rate`` and evaluates the log-mgf and its
gradient at the tilt, its near ties closed as the benchmark closes them.
First both sides run the round, plus ``--corpus`` cases of
``make_corpus(--seed, N)``, and the script counts the cases whose value,
tilt, residual, iterations, nodes, log-mgf or gradient differ in any bit.

The spine round is ``verify --full --seed 42``'s ``spine_urn_lln`` work:
five 10^6-step spine urns of the flagship at q = 1/3, one for each slice
point, on verify's own streams. First both sides run it, and the script
counts the runs whose frequencies or final ball counts differ in any bit.

Then the sides alternate rounds, the one that goes first switching every
pair, so a drift in the host's speed falls on both alike; each round is
timed by the process's CPU time. The script prints each side's median round
and quartiles, the ratio of the medians and the pairs in which the change's
round was the faster; the spine round also prints each side's median
nanoseconds per urn step and the CPUs the process may use.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(src: str, name: str):
    """The ``rgw`` package under ``src``, imported as the package ``name``."""
    init = Path(src).resolve() / "rgw" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def solve_case(pkg, case, tie_tol: float) -> tuple:
    """The outputs of one benchmark case, as float.hex and ints."""
    nu = pkg.OffspringLaw(case.support, case.nu)
    dual = pkg.reinforced_rate(pkg.ProbVector(case.support, case.rho), nu,
                               case.q)
    lam = dual.tilt.values
    lam = np.where((lam < 0.0) & (lam >= -tie_tol), 0.0, lam)
    tilt = pkg.LogWeights(case.support, lam)
    mgf = pkg.reinforced_log_mgf(tilt, nu, case.q)
    grad = pkg.reinforced_log_mgf_grad(tilt, nu, case.q)
    floats = [dual.value, *dual.tilt.values, dual.residual, mgf,
              *grad.weights]
    return (dual.iterations, dual.nodes, *(float(x).hex() for x in floats))


# verify --full's spine slice, steps and seed (see verify.verify_suite)
SPINE_SLICE = (0.5, 0.75, 1.0, 1.25, 1.4)
SPINE_STEPS = 1_000_000
SPINE_SEED = 42


def spine_runs(pkg) -> list[tuple]:
    """verify --full's spine urns, each as float.hex frequencies and ints."""
    ver = pkg.verify
    rng = pkg.RngStream(SPINE_SEED, 900)
    runs = []
    for i, t in enumerate(SPINE_SLICE):
        freq, state = pkg.simulate_spine_urn(
            ver._FLAGSHIP, ver._Q_FLAGSHIP, ver._flagship_activities(t),
            SPINE_STEPS, rng.child(300 + i))
        runs.append((*(float(x).hex() for x in freq.weights),
                     *state.counts.tolist()))
    return runs


def rate_round(sides, args):
    """The rate round's work for one side, after its bit comparison."""
    # rate_corpus imports rgw by name; it calls it only from code not run here
    sys.modules.setdefault("rgw", sides["change"])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import rate_corpus as rc

    grid = [rc.Case("flagship", (1, 2), np.array([0.5, 0.5]),
                    np.array([p, 1.0 - p]), rc.FLAGSHIP_Q)
            for p in (i / 20 for i in range(1, 20))]
    round_cases = grid + rc.make_corpus(rc.SLICE_SEED, rc.BLOCK, "slice")
    checked = round_cases + (rc.make_corpus(args.seed, args.corpus)
                             if args.corpus else [])
    differ = sum(solve_case(sides["parent"], case, rc.TIE_TOL)
                 != solve_case(sides["change"], case, rc.TIE_TOL)
                 for case in checked)
    print(f"bit comparison: {differ} of {len(checked)} cases differ")

    def work(pkg):
        for case in round_cases:
            solve_case(pkg, case, rc.TIE_TOL)
    return work


def spine_round(sides, args):
    """The spine round's work for one side, after its bit comparison."""
    runs = {label: spine_runs(pkg) for label, pkg in sides.items()}
    differ = sum(p != c for p, c in zip(runs["parent"], runs["change"]))
    print(f"bit comparison: {differ} of {len(SPINE_SLICE)} runs differ")
    return spine_runs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--round", choices=("rate", "spine"), default="rate",
                        help="the work timed")
    parser.add_argument("--rounds", type=int, default=80,
                        help="timed rounds per side")
    parser.add_argument("--corpus", type=int, default=0,
                        help="corpus cases added to the rate round's bit "
                             "comparison")
    parser.add_argument("--seed", type=int, default=77,
                        help="seed of those corpus cases")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for the quartiles")

    sides = {"parent": load(args.parent_src, "rgw_parent"),
             "change": load(args.change_src, "rgw_change")}
    work = (spine_round if args.round == "spine" else rate_round)(sides, args)

    times: dict[str, list[float]] = {"parent": [], "change": []}
    order = ["parent", "change"]
    for _ in range(args.rounds):
        for label in order:
            start = time.process_time()
            work(sides[label])
            times[label].append(time.process_time() - start)
        order.reverse()
    for label, t in times.items():
        q1, med, q3 = statistics.quantiles(t, n=4)
        print(f"{label}: median {med:.4f} s, quartiles {q1:.4f} - {q3:.4f} s "
              f"over {len(t)} rounds")
    ratio = statistics.median(times["change"]) / statistics.median(
        times["parent"])
    faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"change / parent median: {ratio:.3f}; change faster in {faster} "
          f"of {args.rounds} pairs")
    if args.round == "spine":
        steps = len(SPINE_SLICE) * SPINE_STEPS
        per_step = {label: statistics.median(t) / steps * 1e9
                    for label, t in times.items()}
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        print(f"ns per spine step: parent {per_step['parent']:.1f}, change "
              f"{per_step['change']:.1f}; {cpus} CPUs")


if __name__ == "__main__":
    main()
