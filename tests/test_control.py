"""Discretized-control upper bounds on the rate function."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest

from rgw import (ContractViolationError, ControlPath, InfeasibleError,
                 OffspringLaw, ProbVector, RngStream, mixed_entropy,
                 rate_by_control, reinforced_rate, relative_entropy)
from rgw.control import _LOG_FLOOR, _objective
from rgw.measures import _check_q, _check_same_support, align

from helpers import mix

FLAGSHIP = OffspringLaw((1, 2), (0.5, 0.5))
Q = 1.0 / 3.0
TARGET = ProbVector((1, 2), (0.2, 0.8))

# hand-computed objective of the two-step path (all mass on 2, then on 1)
TWO_STEP_VALUE = 0.6081976621622466


def control_objective(path, nu, q):
    """Average running entropy cost of a control path against nu."""
    _check_same_support(path, nu)
    _check_q(q, allow_zero=True)
    return _objective(path.rows, nu.weights, q)


def two_phase_probe(rho, nu, q, eps, *, steps=1024):
    """Cost of the explicit two-phase control: overshoot then compensate.

    The path holds rho + eps (rho - nu) on the first half and the mirrored
    rho - eps (rho - nu) on the second half, so its running average drifts
    back to rho along rho + eps (1/t - 1)(rho - nu). Evaluated in closed form
    on a midpoint grid. At eps = 0 this is exactly the constant-control cost;
    an optimal control can only cost less.
    """
    _check_same_support(rho, nu)
    _check_q(q, allow_zero=True)
    if steps < 1:
        raise ContractViolationError("the probe needs at least one step")
    direction = rho.weights - nu.weights
    hi = rho.weights + eps * direction
    lo = rho.weights - eps * direction
    if (hi < 0.0).any() or (lo < 0.0).any():
        raise InfeasibleError("eps pushes the probe off the simplex")
    t = (np.arange(1, steps + 1) - 0.5) / steps
    first = t <= 0.5
    eta = np.where(first[:, None], hi[None, :], lo[None, :])
    drift = np.where(first, eps, eps * (1.0 / t - 1.0))
    psi = rho.weights[None, :] + drift[:, None] * direction[None, :]
    refs = q * psi + (1.0 - q) * nu.weights[None, :]
    safe = np.where(eta > 0.0, eta, 1.0)
    return float(np.sum(eta * np.log(safe / refs)) / steps)


class TestObjective:
    def test_two_step_hand_value(self):
        path = ControlPath((1, 2), [[0.0, 1.0], [1.0, 0.0]])
        assert control_objective(path, FLAGSHIP, Q) == pytest.approx(
            TWO_STEP_VALUE, abs=1e-12)

    def test_constant_path_equals_entropy_bound(self):
        for p in (0.2, 0.35, 0.6):
            rho = ProbVector((1, 2), (p, 1.0 - p))
            path = ControlPath((1, 2), np.tile(rho.weights, (8, 1)))
            blend = mix(Q, rho, FLAGSHIP)
            expected = relative_entropy(*align(rho, blend))
            assert control_objective(path, FLAGSHIP, Q) == pytest.approx(
                expected, abs=1e-12)
            assert mixed_entropy(rho, FLAGSHIP, Q) == pytest.approx(
                expected, abs=1e-12)

    def test_rejects_malformed_paths(self):
        with pytest.raises(ContractViolationError):
            ControlPath((1, 2), [[0.5, 0.5, 0.0]])
        with pytest.raises(ContractViolationError):
            ControlPath((1, 2), np.zeros((0, 2)))
        with pytest.raises(ContractViolationError):
            ControlPath((1, 2), [[0.5, float("nan")]])


class TestOptimization:
    def test_sandwiched_between_dual_value_and_constant_bound(self):
        value, path = rate_by_control(TARGET, FLAGSHIP, Q, steps=16)
        dual = reinforced_rate(TARGET, FLAGSHIP, Q).value
        const = mixed_entropy(TARGET, FLAGSHIP, Q)
        assert dual - 1e-9 <= value <= const + 1e-9
        assert path.rows.shape == (16, 2)

    def test_refinement_does_not_hurt(self):
        coarse, _ = rate_by_control(TARGET, FLAGSHIP, Q, steps=16)
        fine, _ = rate_by_control(TARGET, FLAGSHIP, Q, steps=32)
        assert fine <= coarse + 1e-6

    def test_optimal_path_is_genuinely_time_dependent(self):
        _, path = rate_by_control(TARGET, FLAGSHIP, Q, steps=16)
        drift = np.max(np.abs(path.rows - TARGET.weights))
        assert drift > 0.01

    def test_returned_path_averages_to_the_target(self):
        # a target missing one atom: the time average is rho to rounding
        nu, rho = LAWS["k7_rho_zero"]
        _, path = rate_by_control(rho, nu, 0.9, steps=64)
        off = np.max(np.abs(path.rows.mean(axis=0) - rho.weights))
        assert off <= 1e-13

    def test_a_target_missing_an_atom_still_gets_a_moving_path(self):
        # the zero column stays fixed and the others still move the path,
        # well below the constant bound and never below the dual rate
        nu, rho = LAWS["k7_rho_zero"]
        value, path = rate_by_control(rho, nu, Q, steps=64)
        assert value <= mixed_entropy(rho, nu, Q) - 1e-2
        assert value >= reinforced_rate(rho, nu, Q).value - 1e-9
        assert np.all(path.rows[:, 1] == 0.0)

    def test_memoryless_bound_is_the_constant_path(self):
        # at q = 0 the cost is convex in each row alone, so by Jensen the
        # constant path is optimal and Newton takes no step
        nu, rho = LAWS["k3_atom0"]
        value, path = rate_by_control(rho, nu, 0.0, steps=16)
        assert np.max(np.abs(path.rows - rho.weights)) <= 1e-15
        assert value == pytest.approx(mixed_entropy(rho, nu, 0.0),
                                      abs=1e-15)

    def test_a_single_positive_atom_forces_the_path(self):
        rho = ProbVector((1, 2), (0.0, 1.0))
        value, path = rate_by_control(rho, FLAGSHIP, Q, steps=8)
        assert np.array_equal(path.rows, np.tile((0.0, 1.0), (8, 1)))
        assert value == pytest.approx(mixed_entropy(rho, FLAGSHIP, Q),
                                      abs=1e-15)


class TestTwoPhaseProbe:
    def test_zero_perturbation_recovers_the_constant_value(self):
        const = mixed_entropy(TARGET, FLAGSHIP, Q)
        assert two_phase_probe(TARGET, FLAGSHIP, Q, 0.0) == pytest.approx(
            const, abs=1e-6)

    def test_some_perturbation_strictly_improves(self):
        const = mixed_entropy(TARGET, FLAGSHIP, Q)
        best = min(two_phase_probe(TARGET, FLAGSHIP, Q, eps)
                   for eps in (0.05, 0.1, 0.2))
        assert best < const - 1e-3

    def test_rejects_fewer_than_one_step(self):
        # zero and negative step counts are refused, not evaluated
        for steps in (0, -3):
            with pytest.raises(ContractViolationError):
                two_phase_probe(TARGET, FLAGSHIP, Q, 0.1, steps=steps)

    def test_the_newton_value_beats_every_probe(self):
        value, _ = rate_by_control(TARGET, FLAGSHIP, Q, steps=64)
        assert value < min(two_phase_probe(TARGET, FLAGSHIP, Q, eps)
                           for eps in (0.0, 0.05, 0.1, 0.2)) - 1e-3


# A serial annealed descent, independent of the Newton solve: one restart
# at a time on (m, k) rows, six penalty stages, a repair loop back onto rho
# and a candidate filter that drops the restarts whose repair stopped off
# rho. It is the oracle: the Newton solve must never end above it.

_BETA_STAGES = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)


def _references(rows: np.ndarray, nu_w: np.ndarray, q: float) -> np.ndarray:
    """Mixture references q psi_{i-1/2} + (1-q) nu for every step."""
    m = rows.shape[0]
    half = np.arange(1, m + 1) - 0.5
    psi = (np.cumsum(rows, axis=0) - 0.5 * rows) / half[:, None]
    return q * psi + (1.0 - q) * nu_w[None, :]


def _objective(rows: np.ndarray, nu_w: np.ndarray, q: float) -> float:
    refs = _references(rows, nu_w, q)
    safe = np.where(rows > 0.0, rows, 1.0)
    return float(np.sum(rows * np.log(safe / refs)) / rows.shape[0])


def _gradient(rows: np.ndarray, nu_w: np.ndarray, q: float) -> np.ndarray:
    m = rows.shape[0]
    half = np.arange(1, m + 1) - 0.5
    refs = _references(rows, nu_w, q)
    ratio = rows / refs
    weighted = ratio / half[:, None]
    suffix = np.flip(np.cumsum(np.flip(weighted, axis=0), axis=0), axis=0) - weighted
    grad = (np.log(np.maximum(rows, _LOG_FLOOR) / refs) + 1.0
            - q * (0.5 * weighted + suffix))
    return grad / m


def _project_rows(rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the simplex."""
    m, k = rows.shape
    u = -np.sort(-rows, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, k + 1)
    cond = u - css / idx > 0
    last = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(m), last] / (last + 1.0)
    return np.maximum(rows - theta[:, None], 0.0)


def _optimize_one(rows0: np.ndarray, rho_w: np.ndarray, nu_w: np.ndarray,
                  q: float, iters_per_stage: int) -> np.ndarray:
    rows = rows0.copy()
    m = rows.shape[0]
    for beta in _BETA_STAGES:
        def penalized(r):
            gap = r.mean(axis=0) - rho_w
            return _objective(r, nu_w, q) + beta * float(np.dot(gap, gap))

        current = penalized(rows)
        step = 0.1
        for _ in range(iters_per_stage):
            gap = rows.mean(axis=0) - rho_w
            grad = _gradient(rows, nu_w, q) + 2.0 * beta * gap[None, :] / m
            accepted = False
            while step > 1e-14:
                cand = _project_rows(rows - step * grad)
                val = penalized(cand)
                if val < current - 1e-14:
                    rows, current = cand, val
                    step = min(step * 1.5, 1e3)
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
    # exact feasibility repair: shift by the residual, reproject, repeat
    for _ in range(200):
        resid = rho_w - rows.mean(axis=0)
        if float(np.max(np.abs(resid))) < 1e-13:
            break
        rows = _project_rows(rows + resid[None, :])
    return rows


def serial_rate_by_control(rho, nu, q, *, steps, restarts, iters_per_stage,
                           rng):
    rho_w, nu_w = rho.weights, nu.weights
    k = len(rho_w)

    starts = [np.tile(rho_w, (steps, 1))]
    for r in range(1, restarts):
        gen = rng.child(r).generator("control-start")
        noise = gen.dirichlet(np.ones(k), size=steps)
        mix_w = 0.35
        starts.append((1.0 - mix_w) * np.tile(rho_w, (steps, 1)) + mix_w * noise)

    results = []
    for idx, rows0 in enumerate(starts):
        rows = _optimize_one(rows0, rho_w, nu_w, q, iters_per_stage)
        # keep only the restarts repaired onto rho
        if float(np.max(np.abs(rows.mean(axis=0) - rho_w))) <= 1e-13:
            results.append((_objective(rows, nu_w, q), idx, rows))

    # the exactly feasible constant path caps the answer from above
    const_rows = np.tile(rho_w, (steps, 1))
    results.append((_objective(const_rows, nu_w, q), len(results), const_rows))
    value, _, rows = min(results, key=lambda t: (t[0], t[1]))
    return value, ControlPath(rho.support, rows)


# two atoms; three with atom 0; seven, with a target that misses one atom
LAWS = {
    "k2": (FLAGSHIP, TARGET),
    "k3_atom0": (OffspringLaw((0, 1, 3), (0.2, 0.5, 0.3)),
                 ProbVector((0, 1, 3), (0.1, 0.3, 0.6))),
    "k7_rho_zero": (OffspringLaw(tuple(range(1, 8)),
                                 (0.1, 0.2, 0.15, 0.1, 0.2, 0.15, 0.1)),
                    ProbVector(tuple(range(1, 8)),
                               (0.3, 0.0, 0.1, 0.2, 0.05, 0.25, 0.1))),
}
MEMORIES = (0.0, 0.05, 1.0 / 3.0, 0.9)
SEEDS = (1, 2, 7)

# (steps, restarts, iters_per_stage): every shape with short stages, long
# stages (which end by step underflow) on the small shapes, and the
# README's 64 x 8 x 250 once
SHAPES = ([*itertools.product((2, 16, 64), (1, 2, 8), (0, 1, 3))]
          + [*itertools.product((2, 16), (1, 2), (250,))]
          + [(64, 8, 250)])


# cached, since each case is also collected under the class's former name
@functools.cache
def assert_newton_beats_the_serial_descent(law, memory, steps, restarts,
                                           iters, seed):
    nu, rho = LAWS[law]
    value, path = rate_by_control(rho, nu, memory, steps=steps)
    ref_value, _ = serial_rate_by_control(
        rho, nu, memory, steps=steps, restarts=restarts,
        iters_per_stage=iters, rng=RngStream(seed))
    assert value <= ref_value + 1e-12
    assert value <= mixed_entropy(rho, nu, memory)
    if memory > 0.0:
        assert value >= reinforced_rate(rho, nu, memory).value - 1e-9
    assert path.rows.shape == (steps, len(rho.support))
    assert np.all(path.rows >= 0.0)
    assert np.max(np.abs(path.rows.sum(axis=1) - 1.0)) <= 1e-13
    assert np.max(np.abs(path.rows.mean(axis=0) - rho.weights)) <= 1e-13


class TestNewtonNeverEndsAboveTheSerialDescent:
    """Newton never ends above the serial annealed-descent oracle.

    The oracle runs at every (steps, restarts, iterations, seed) below, and
    Newton at the same number of steps.
    """

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("memory", MEMORIES)
    def test_laws_and_memories(self, law, memory):
        for seed in SEEDS:
            assert_newton_beats_the_serial_descent(law, memory, 16, 2, 3,
                                                   seed)

    @pytest.mark.parametrize("steps,restarts,iters", SHAPES)
    def test_shapes_and_iteration_budgets(self, steps, restarts, iters):
        # rotate law, memory and seed over the shapes so each meets several
        at = SHAPES.index((steps, restarts, iters))
        law = sorted(LAWS)[at % len(LAWS)]
        memory = MEMORIES[at % len(MEMORIES)]
        seed = SEEDS[at % len(SEEDS)]
        assert_newton_beats_the_serial_descent(law, memory, steps, restarts,
                                               iters, seed)


# the class's former name, kept so that test ids recorded under it still
# run; in one session each case's check is cached, so no solve repeats
TestBatchedDescentMatchesTheSerialLoop = TestNewtonNeverEndsAboveTheSerialDescent
