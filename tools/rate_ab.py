"""Time the benchmark's rate round under two source trees in one process.

Usage:

    python tools/rate_ab.py PARENT_SRC CHANGE_SRC [--rounds 80] [--corpus 0]
        [--seed 77]

PARENT_SRC and CHANGE_SRC are ``src`` directories that each hold an ``rgw``
package, for instance ``src`` of a ``git archive`` of the parent commit and
``src`` of the working tree. The round is read from the checkout's
``perfbench/rate_corpus.py``: the flagship grid at q = 1/3 and then the
fixed block ``make_corpus(SLICE_SEED, BLOCK)``. A case builds the law and
the target, solves ``reinforced_rate`` and evaluates the log-mgf and its
gradient at the tilt, its near ties closed as the benchmark closes them.

The two packages are imported side by side, as ``rgw_parent`` and
``rgw_change``. First both run the round, plus ``--corpus`` cases of
``make_corpus(--seed, N)``, and the script counts the cases whose value,
tilt, residual, iterations, nodes, log-mgf or gradient differ in any bit.
Then the sides alternate rounds, the one that goes first switching every
pair, so a drift in the host's speed falls on both alike; each round is
timed by the process's CPU time. The script prints each side's median round
and quartiles, the ratio of the medians and the pairs in which the change's
round was the faster.
"""

from __future__ import annotations

import argparse
import importlib.util
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=80,
                        help="timed rounds per side")
    parser.add_argument("--corpus", type=int, default=0,
                        help="corpus cases added to the bit comparison")
    parser.add_argument("--seed", type=int, default=77,
                        help="seed of the compared corpus cases")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for the quartiles")

    sides = {"parent": load(args.parent_src, "rgw_parent"),
             "change": load(args.change_src, "rgw_change")}
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

    times: dict[str, list[float]] = {"parent": [], "change": []}
    order = ["parent", "change"]
    for _ in range(args.rounds):
        for label in order:
            pkg = sides[label]
            start = time.process_time()
            for case in round_cases:
                solve_case(pkg, case, rc.TIE_TOL)
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


if __name__ == "__main__":
    main()
