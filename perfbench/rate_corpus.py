"""Workload ``rate_corpus``: dual solves over a seeded random-law corpus.

A case is ``reinforced_rate``, then ``reinforced_log_mgf`` and
``reinforced_log_mgf_grad`` at the returned tilt. A run alternates a round
with a block of random cases from the seeded corpus; a traced run first
solves the slow Tier-1 tail case. A round is the same work every time, in
every run: the flagship (p, 1-p) grid at q = 1/3, which has a closed form,
then one stratified block drawn from the fixed ``SLICE_SEED``, so it runs
both solver paths (Newton below q = 0.6, boundary layer first from there),
laws of 2-4 atoms and a 0.2 s solve from the near side of the tail.
``round_s`` is the median host-corrected round (see ``harness``): steadier
than one long solve or a median over the corpus, whose cases differ by seed.

Random laws have 2-4 atoms from 0..6 and Dirichlet weights floored at 1e-3;
the target is Dirichlet floored the same way and q is uniform on
[0.02, 0.98]. Cases come in blocks of 24 that hold each support size 8 times
and put one q in each of 24 equal strata, so corpora of different seeds have
the same mix. A random solve still running after ``LIMIT_S`` is stopped and
counted as over the limit, not as failed, with a solve time of ``LIMIT_S``,
a lower bound; the tail report lists it with its inputs.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import NamedTuple

import numpy as np

from harness import Bench, OverLimit, quantile, time_limit
from rgw import (LogWeights, OffspringLaw, ProbVector, reinforced_log_mgf,
                 reinforced_log_mgf_grad, reinforced_rate)

LIMIT_S = 1.0
RESIDUAL_TOL = 1e-9  # the solver's default tolerance
GAP_TOL = 1e-6
# On the boundary-layer path (q >= 0.6) reinforced_rate can return a tilt
# whose entries differ from its maximum by 1e-45 to 1e-13, below what the
# tilt-space quadrature resolves: reinforced_log_mgf and its gradient then
# raise ValueError or NumericError. Those entries are set to the maximum
# before the check, which moves the Fenchel-Young gap by at most 2 * TIE_TOL
# (the gradient of the log-mgf is a probability vector), far below GAP_TOL;
# rate.near_tied_tilts counts the cases.
TIE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-6
BLOCK = 24
SIZES = (2, 3, 4)
ATOMS = np.arange(7)
Q_RANGE = (0.02, 0.98)
CORPUS_CASES = 4800
# the round's block: its cases solve in 2-250 ms each, so a round repeats
# often enough in one run for its median to be steady
SLICE_SEED = 1
FLAGSHIP_Q = 1.0 / 3.0
TAIL_REPORT = 5
REFERENCE = "python"  # quadrature callbacks and Python loops

HEADLINE = {"rate_solve_p50_ms": "rate.solve_ms_p50",
            "rate_solve_p95_ms": "rate.solve_ms_p95",
            "rate_solve_max_ms": "rate.solve_ms_max",
            "rate_cases_over_limit": "rate.cases_over_limit"}


class Case(NamedTuple):
    kind: str  # "tail", "flagship", "slice" or "random"
    support: tuple[int, ...]
    nu: np.ndarray
    rho: np.ndarray
    q: float


# the slowest solve of tests/test_rate.py (test_young_fenchel_inequality,
# its 17th draw), in full precision
TAIL_CASE = Case("tail", (0, 3, 4),
                 np.array([0.03708219586937944, 0.8513874857025535,
                           0.111530318428067]),
                 np.array([0.21708222741701733, 0.4836259482102835,
                           0.2992918243726993]), 0.5417393085850224)


def closed_form_rate(p: float) -> float:
    """Rate of (p, 1-p) for the uniform law on {1, 2} at q = 1/3."""
    p = min(p, 1.0 - p)
    return (p * math.log(3.0 * p / (p + 1.0)) - math.log(2.0)
            + math.log(3.0 / (p + 1.0)))


def _floored_dirichlet(gen: np.random.Generator, size: int) -> np.ndarray:
    w = np.maximum(gen.dirichlet(np.ones(size)), 1e-3)
    return w / w.sum()


def make_corpus(seed: int, count: int, kind: str = "random") -> list[Case]:
    gen = np.random.default_rng(seed)
    lo, hi = Q_RANGE
    cases = []
    while len(cases) < count:
        strata = gen.permutation(BLOCK)
        sizes = gen.permutation(np.resize(SIZES, BLOCK))
        for stratum, size in zip(strata, sizes):
            q = lo + (hi - lo) * (stratum + gen.uniform()) / BLOCK
            support = np.sort(gen.choice(ATOMS, size=int(size), replace=False))
            cases.append(Case(kind, tuple(int(k) for k in support),
                              _floored_dirichlet(gen, int(size)),
                              _floored_dirichlet(gen, int(size)), float(q)))
    return cases


class Workload:
    def __init__(self, root, seed: int):
        self.grid = [Case("flagship", (1, 2), np.array([0.5, 0.5]),
                          np.array([p, 1.0 - p]), FLAGSHIP_Q)
                     for p in (i / 20 for i in range(1, 20))]
        self.slice = make_corpus(SLICE_SEED, BLOCK, "slice")
        self.corpus = make_corpus(seed, CORPUS_CASES)
        self.records: list[dict] = []
        self.round_corrected: list[float] = []

    def warm_up(self) -> None:
        for case in (self.grid[3], self.slice[0]):
            law = OffspringLaw(case.support, case.nu)
            reinforced_rate(ProbVector(case.support, case.rho), law, case.q)

    def round(self, bench: Bench) -> None:
        for case in self.grid + self.slice:
            self.solve(bench, case)

    def run(self, bench: Bench, seconds: float) -> None:
        start = perf_counter()
        if bench.traced:
            # up to 20 s on one solve: too long to repeat, so too noisy to
            # gate, and it would halve the corpus sampled in a timed run
            self.solve(bench, TAIL_CASE)
        i = 0
        while True:
            with bench.corrected("bench.round") as timer:
                self.round(bench)
            bench.round_s.append(timer.seconds)
            self.round_corrected.append(timer.corrected)
            for _ in range(BLOCK):
                self.solve(bench, self.corpus[i % len(self.corpus)])
                i += 1
                if perf_counter() - start >= seconds:
                    return

    def solve(self, bench: Bench, case: Case) -> None:
        bench.attempted += 1
        what = f"{case.kind} case q={case.q!r} support={case.support}"
        nu = OffspringLaw(case.support, case.nu)
        rho = ProbVector(case.support, case.rho)
        record = {"case": case, "censored": False}
        self.records.append(record)
        with bench.span("bench.case"):
            dual = None
            try:
                with time_limit(LIMIT_S if case.kind == "random" else None):
                    with bench.span("rate.reinforced_rate") as solve:
                        dual = reinforced_rate(rho, nu, case.q)
            except OverLimit:
                record["censored"] = True
            except Exception as exc:  # any error of the solve fails the case
                bench.fail(what, f"reinforced_rate: {exc!r}")
            # a solve cut off at the limit took at least LIMIT_S
            record["solve_ms"] = (LIMIT_S if record["censored"]
                                  else solve.seconds) * 1e3
            if dual is None:
                return
            # the tilt is normalized to a largest entry of 0; entries within
            # TIE_TOL of it are closed to exact ties (see TIE_TOL)
            lam = dual.tilt.values
            near = (lam < 0.0) & (lam >= -TIE_TOL)
            lam = np.where(near, 0.0, lam)
            tilt = LogWeights(case.support, lam)
            try:
                with bench.span("rate.reinforced_log_mgf") as mgf_t:
                    mgf = reinforced_log_mgf(tilt, nu, case.q)
                with bench.span("rate.reinforced_log_mgf_grad") as grad_t:
                    reinforced_log_mgf_grad(tilt, nu, case.q)
            except Exception as exc:
                bench.fail(what, f"at the tilt {lam.tolist()}, the returned "
                                 f"{dual.tilt.values.tolist()} with ties "
                                 f"closed: {exc!r}")
                return
            gap = abs(dual.value - (float(np.dot(case.rho, lam)) - mgf))
            cf_err = (abs(dual.value - closed_form_rate(case.rho[0]))
                      if case.kind == "flagship" else 0.0)
            record.update(near_tied=bool(near.any()),
                          mgf_us=mgf_t.seconds * 1e6,
                          grad_us=grad_t.seconds * 1e6,
                          iterations=dual.iterations, residual=dual.residual,
                          gap=gap, cf_err=cf_err)
            problems = []
            if not dual.residual <= RESIDUAL_TOL:
                problems.append(f"residual {dual.residual:.3g}")
            if not 0.0 <= dual.value <= -math.log(case.q):
                problems.append(f"value {dual.value!r} outside [0, -log q]")
            if not gap <= GAP_TOL:
                problems.append(f"Fenchel-Young gap {gap:.3g}")
            if not cf_err <= CLOSED_FORM_TOL:
                problems.append(f"closed-form error {cf_err:.3g}")
            if problems:
                bench.fail(what, "; ".join(problems))

    def round_seconds(self) -> float:
        return quantile(self.round_corrected, 0.5)

    def layer_metrics(self) -> dict[str, float]:
        done = [r for r in self.records if "iterations" in r]
        corpus_ms = [r["solve_ms"] for r in self.records
                     if r["case"].kind == "random"]
        ratios = [r["solve_ms"] * 1e3 / r["grad_us"] for r in done]
        tail = [r["solve_ms"] for r in self.records
                if r["case"].kind == "tail"]
        return {
            "rate.solve_ms_p50": quantile(corpus_ms, 0.5),
            "rate.solve_ms_p95": quantile(corpus_ms, 0.95),
            "rate.solve_ms_max": max(r["solve_ms"] for r in self.records),
            "rate.log_mgf_us_p50": quantile([r["mgf_us"] for r in done], 0.5),
            "rate.log_mgf_us_p95": quantile([r["mgf_us"] for r in done], 0.95),
            "rate.grad_us_p50": quantile([r["grad_us"] for r in done], 0.5),
            "rate.grad_us_p95": quantile([r["grad_us"] for r in done], 0.95),
            "rate.grads_per_solve_p50": quantile(ratios, 0.5),
            "rate.grads_per_solve_max": max(ratios, default=0.0),
            "rate.iterations_sum": sum(r["iterations"] for r in done),
            "rate.iterations_max": max((r["iterations"] for r in done),
                                       default=0),
            "rate.tail_case_ms": max(tail, default=0.0),
            "rate.cases_over_limit": sum(r["censored"] for r in self.records),
            "rate.near_tied_tilts": sum(r["near_tied"] for r in done),
            "rate.residual_max": max((r["residual"] for r in done),
                                     default=0.0),
            "rate.fenchel_gap_max": max((r["gap"] for r in done), default=0.0),
            "rate.closed_form_err_max": max((r["cf_err"] for r in done),
                                            default=0.0),
        }

    def report(self) -> dict:
        """The slowest cases of the corpus, with the inputs that reproduce
        each one."""
        drawn = [r for r in self.records if r["case"].kind in ("random", "tail")]
        slowest = sorted(drawn, key=lambda r: r["solve_ms"],
                         reverse=True)[:TAIL_REPORT]
        return {"tail": [{
            "kind": r["case"].kind,
            "support": list(r["case"].support),
            "weights": r["case"].nu.tolist(),
            "rho": r["case"].rho.tolist(),
            "q": r["case"].q,
            "ms": round(r["solve_ms"], 3),
            "ms_is_lower_bound": r["censored"],
            "iterations": r.get("iterations"),
        } for r in slowest]}
