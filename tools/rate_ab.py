"""Time a benchmark round under two source trees in one process.

Usage:

    python tools/rate_ab.py PARENT_SRC CHANGE_SRC
        [--round rate|spine|tree|triangulation|batch] [--rounds 80]
        [--corpus 0] [--seed 77]

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

The tree round is the three campaigns, deep, wide and census, of the
checkout's ``perfbench/tree_campaign.py`` at that workload's seed for
``--seed``. First both sides run it, and the script counts the outputs,
populations, truncated_at, classes and census of each campaign, that differ
in any bit.

The triangulation round is the two campaigns of ``verify --full --seed
42``'s ``triangulation`` check, on verify's own streams: the flagship, 10^5
replicas to depth 6, at q = 0 and at q = 1/3. First both sides run them,
and the script counts the outputs, populations, truncated_at and classes of
each campaign, that differ in any bit, and names each one that differs by
its memory parameter and field.

The batch round is one singleton-heavy urn batch: ``gibbs_conditional_estimate``
over 8 uniform atoms on 1..8 at q = 1/3, n = 40 and 10^5 replicas, its
halfspace the draws' mean value at least 4.5, on the stream ``--seed``. Most
of its classes hold one replica from step 15 on. First both sides run it,
and the script counts the outputs, the mean frequencies and the acceptance
rate, that differ in any bit.

Then the sides alternate rounds, the one that goes first switching every
pair, so a drift in the host's speed falls on both alike. A rate or spine
round is timed by the process's CPU time, and so is a batch round, which
runs on the calling thread; a tree or triangulation round by wall-clock
time, as a campaign runs its passes on threads, with its CPU time printed
beside. The script prints each side's median round and quartiles, the ratio
of the medians and the pairs in which the change's round was the faster; the
spine round also prints each side's median nanoseconds per urn step, the
tree round each side's median wall time for each shape and the wide shape's
median nanoseconds per class (its median wall time over its
``classes.sum()``), and every round but the rate round the CPUs the process
may use.
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


def same_output(parent, change) -> bool:
    """Whether two campaign outputs are equal bit for bit: arrays in dtype
    and every entry, censuses in every layer's entries and their order."""
    if isinstance(parent, np.ndarray):
        return parent.dtype == change.dtype and np.array_equal(parent, change)
    return parent == change and (
        parent is None
        or [list(layer) for layer in parent]
        == [list(layer) for layer in change])


def tree_round(sides, args):
    """The tree round's work for one side, after its bit comparison."""
    # tree_campaign imports rgw by name, and harness for its timers
    sys.modules.setdefault("rgw", sides["change"])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tree_campaign as tc

    workload = tc.Workload(None, args.seed)

    def campaign(pkg, shape):
        _, n, replicas, histograms = tc.SHAPES[shape]
        law = pkg.OffspringLaw(workload.law.support, workload.law.weights)
        return pkg.simulate_tree_campaign(law, tc.Q, n, replicas,
                                          pkg.RngStream(workload.seed, shape),
                                          keep_histograms=histograms)

    outputs = {label: [(c.populations, c.truncated_at, c.classes, c.histograms)
                       for c in (campaign(pkg, shape)
                                 for shape in range(len(tc.SHAPES)))]
               for label, pkg in sides.items()}
    pairs = [(p, c) for parent, change in zip(outputs["parent"],
                                              outputs["change"])
             for p, c in zip(parent, change)]
    differ = sum(not same_output(p, c) for p, c in pairs)
    print(f"bit comparison: {differ} of {len(pairs)} outputs differ")

    # each campaign's wall time, by side and shape, for the shape medians
    shape_times = {pkg.__name__: {name: [] for name, *_ in tc.SHAPES}
                   for pkg in sides.values()}
    wide = [name for name, *_ in tc.SHAPES].index("wide")
    wide_classes = {label: int(out[wide][2].sum())
                    for label, out in outputs.items()}

    def work(pkg):
        for shape, (name, *_) in enumerate(tc.SHAPES):
            start = time.perf_counter()
            campaign(pkg, shape)
            shape_times[pkg.__name__][name].append(time.perf_counter() - start)

    def report():
        for label, pkg in sides.items():
            medians = ", ".join(f"{name} {statistics.median(t):.4f} s"
                                for name, t in shape_times[pkg.__name__].items())
            print(f"{label} shape medians (wall): {medians}")
        per_class = {label: statistics.median(shape_times[pkg.__name__]["wide"])
                     / wide_classes[label] * 1e9
                     for label, pkg in sides.items()}
        print(f"ns per class (wide, {wide_classes['change']} classes): "
              f"parent {per_class['parent']:.1f}, change "
              f"{per_class['change']:.1f}")
    work.report = report
    return work


# verify --full's triangulation campaigns: the flagship to depth 6 at each
# of its memory parameters, on stream 100 + 10 qi + 6 of verify's seed
TRIANGULATION_QS = (0.0, 1.0 / 3.0)
TRIANGULATION_DEPTH = 6
TRIANGULATION_REPLICAS = 100_000
TRIANGULATION_SEED = 42


def triangulation_outputs(pkg) -> dict[str, np.ndarray]:
    """verify --full's triangulation campaigns, as their populations,
    truncated_at and classes, each named by its memory parameter and
    field."""
    ver = pkg.verify
    rng = pkg.RngStream(TRIANGULATION_SEED, 900)
    outputs = {}
    for qi, q in enumerate(TRIANGULATION_QS):
        camp = pkg.simulate_tree_campaign(
            ver._FLAGSHIP, q, TRIANGULATION_DEPTH, TRIANGULATION_REPLICAS,
            rng.child(100 + 10 * qi + TRIANGULATION_DEPTH))
        for field in ("populations", "truncated_at", "classes"):
            outputs[f"q={q:.4g} {field}"] = getattr(camp, field)
    return outputs


def triangulation_round(sides, args):
    """The triangulation round's work for one side, after its bit
    comparison."""
    parent, change = (triangulation_outputs(pkg) for pkg in sides.values())
    differ = [name for name in parent
              if not same_output(parent[name], change[name])]
    print(f"bit comparison: {len(differ)} of {len(parent)} outputs differ"
          + (f": {', '.join(differ)}" if differ else ""))
    return triangulation_outputs


# the batch round's urn batch, most of its classes singletons from step 15 on
BATCH_SUPPORT = tuple(range(1, 9))
BATCH_Q = 1.0 / 3.0
BATCH_STEPS = 40
BATCH_REPLICAS = 100_000
BATCH_THRESHOLD = 4.5


def batch_outputs(pkg, seed: int) -> tuple:
    """The batch round's Gibbs estimate, as float.hex."""
    law = pkg.OffspringLaw(BATCH_SUPPORT, (1.0 / len(BATCH_SUPPORT),)
                           * len(BATCH_SUPPORT))
    mean, acceptance = pkg.gibbs_conditional_estimate(
        law, BATCH_Q, BATCH_STEPS, BATCH_SUPPORT, BATCH_THRESHOLD,
        BATCH_REPLICAS, pkg.RngStream(seed))
    return (*(float(x).hex() for x in mean.weights), float(acceptance).hex())


def batch_round(sides, args):
    """The batch round's work for one side, after its bit comparison."""
    parent, change = (batch_outputs(pkg, args.seed) for pkg in sides.values())
    differ = sum(p != c for p, c in zip(parent, change))
    print(f"bit comparison: {differ} of {len(parent)} outputs differ")
    return lambda pkg: batch_outputs(pkg, args.seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--round", choices=("rate", "spine", "tree",
                                            "triangulation", "batch"),
                        default="rate",
                        help="the work timed")
    parser.add_argument("--rounds", type=int, default=80,
                        help="timed rounds per side")
    parser.add_argument("--corpus", type=int, default=0,
                        help="corpus cases added to the rate round's bit "
                             "comparison")
    parser.add_argument("--seed", type=int, default=77,
                        help="seed of those corpus cases, the tree "
                             "round's workload seed or the batch round's "
                             "stream; the spine and triangulation rounds "
                             "run on verify's seed 42")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for the quartiles")

    sides = {"parent": load(args.parent_src, "rgw_parent"),
             "change": load(args.change_src, "rgw_change")}
    work = {"rate": rate_round, "spine": spine_round,
            "tree": tree_round, "triangulation": triangulation_round,
            "batch": batch_round}[args.round](sides, args)

    wall = args.round in ("tree", "triangulation")
    times: dict[str, list[float]] = {"parent": [], "change": []}
    cpu: dict[str, list[float]] = {"parent": [], "change": []}
    order = ["parent", "change"]
    for _ in range(args.rounds):
        for label in order:
            start, cpu_start = time.perf_counter(), time.process_time()
            work(sides[label])
            cpu[label].append(time.process_time() - cpu_start)
            times[label].append(time.perf_counter() - start if wall
                                else cpu[label][-1])
        order.reverse()
    clock = "wall" if wall else "CPU"
    for label, t in times.items():
        q1, med, q3 = statistics.quantiles(t, n=4)
        print(f"{label}: median {med:.4f} s {clock}, quartiles {q1:.4f} - "
              f"{q3:.4f} s over {len(t)} rounds")
    if wall:
        for label, t in cpu.items():
            q1, med, q3 = statistics.quantiles(t, n=4)
            print(f"{label}: median {med:.4f} s CPU, quartiles {q1:.4f} - "
                  f"{q3:.4f} s")
    ratio = statistics.median(times["change"]) / statistics.median(
        times["parent"])
    faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"change / parent median: {ratio:.3f}; change faster in {faster} "
          f"of {args.rounds} pairs")
    if args.round == "spine":
        steps = len(SPINE_SLICE) * SPINE_STEPS
        per_step = {label: statistics.median(t) / steps * 1e9
                    for label, t in times.items()}
        print(f"ns per spine step: parent {per_step['parent']:.1f}, change "
              f"{per_step['change']:.1f}")
    if args.round == "tree":
        work.report()
    if args.round != "rate":
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        print(f"{cpus} CPUs")


if __name__ == "__main__":
    main()
