"""Variational control formulation of the rate function.

The rate of steering the lineage empirical measure to ``rho`` can be written
as an optimal-control problem: choose a measure-valued path ``eta`` on [0,1]
averaging to rho, and pay the running entropy cost of eta against the mixture
of its own running average psi with the base law. The constant path eta == rho
pays the mixed relative entropy H(rho | q rho + (1-q) nu), an upper bound that
is not optimal away from nu; optimizing over paths tightens it toward the
rate function.

Discretization uses m equal steps with the midpoint convention
psi_{i-1/2} = (sum_{j<i} eta_j + eta_i/2) / (i - 1/2), which makes the first
half-step reference equal eta_1 itself. The optimizer enforces the mean
constraint by a quadratic penalty annealed over six stages, followed by an
exact feasibility repair, and always keeps the constant path as a candidate,
so the reported value never exceeds the constant-control bound.

All restarts descend together as one (restarts, m, k) array: the helpers
below take that leading restart axis, and each restart keeps its own step
size, stage and value, so a batched run gives exactly the values and paths
of running the restarts one after another. Cumulative sums and row means
run along the step axis and each restart's cost is summed over its own
m*k block, which keeps every float equal to the one-restart computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InfeasibleError
from .measures import (OffspringLaw, ProbVector, _check_q, _check_same_support,
                       mixed_entropy)
from .rng import RngStream

_BETA_STAGES = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
_LOG_FLOOR = 1e-300
# largest |time average - rho| of a repaired path
_REPAIR_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class ControlPath:
    """Piecewise-constant control: one simplex row per time step."""

    support: tuple[int, ...]
    rows: np.ndarray

    def __init__(self, support, rows):
        sup = tuple(int(k) for k in support)
        r = np.asarray(rows, dtype=float)
        if r.ndim != 2 or r.shape[1] != len(sup):
            raise ContractViolationError(f"rows must be (m, {len(sup)}), got {r.shape}")
        if r.shape[0] == 0:
            raise ContractViolationError("a control path needs at least one step")
        if np.isnan(r).any() or (r < -1e-12).any():
            raise ContractViolationError("control rows must be non-negative")
        r = np.maximum(r, 0.0)
        sums = r.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ContractViolationError("control rows must lie on the simplex")
        r = r / sums[:, None]
        r.setflags(write=False)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "rows", r)

    @property
    def steps(self) -> int:
        return int(self.rows.shape[0])

    def time_average(self) -> ProbVector:
        return ProbVector(self.support, self.rows.mean(axis=0))


def _references(rows: np.ndarray, nu_w: np.ndarray, q: float) -> np.ndarray:
    """Mixture references q psi_{i-1/2} + (1-q) nu for every restart and step."""
    m = rows.shape[1]
    half = np.arange(1, m + 1) - 0.5
    psi = (np.cumsum(rows, axis=1) - 0.5 * rows) / half[:, None]
    return q * psi + (1.0 - q) * nu_w


def _objective(rows: np.ndarray, nu_w: np.ndarray, q: float) -> np.ndarray:
    """Running entropy cost of each restart's (m, k) block of rows."""
    restarts, m, k = rows.shape
    refs = _references(rows, nu_w, q)
    safe = np.where(rows > 0.0, rows, 1.0)
    cost = (rows * np.log(safe / refs)).reshape(restarts, m * k)
    return np.sum(cost, axis=1) / m


def _gradient(rows: np.ndarray, nu_w: np.ndarray, q: float) -> np.ndarray:
    m = rows.shape[1]
    half = np.arange(1, m + 1) - 0.5
    refs = _references(rows, nu_w, q)
    ratio = rows / refs
    weighted = ratio / half[:, None]
    suffix = np.flip(np.cumsum(np.flip(weighted, axis=1), axis=1), axis=1) - weighted
    grad = (np.log(np.maximum(rows, _LOG_FLOOR) / refs) + 1.0
            - q * (0.5 * weighted + suffix))
    return grad / m


def _project_rows(rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row onto the simplex."""
    k = rows.shape[-1]
    u = -np.sort(-rows, axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, k + 1)
    cond = u - css / idx > 0
    last = k - 1 - np.argmax(cond[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, last[..., None], axis=-1)
    return np.maximum(rows - theta / (last[..., None] + 1.0), 0.0)


def _penalized(rows: np.ndarray, rho_w: np.ndarray, nu_w: np.ndarray, q: float,
               beta: np.ndarray) -> np.ndarray:
    """Objective plus each restart's quadratic mean-constraint penalty."""
    gap = rows.mean(axis=1) - rho_w
    # one np.dot per restart, so each penalty is the float of that restart alone
    squared = np.array([np.dot(g, g) for g in gap])
    return _objective(rows, nu_w, q) + beta * squared


def control_objective(path: ControlPath, nu: OffspringLaw, q: float) -> float:
    """Average running entropy cost of a control path against nu with memory q."""
    _check_same_support(path, nu)
    _check_q(q, allow_zero=True)
    return float(_objective(path.rows[None], nu.weights, q)[0])


def constant_control_value(rho: ProbVector, nu: OffspringLaw, q: float) -> float:
    """Cost of the constant path eta == rho: the mixed relative entropy."""
    _check_same_support(rho, nu)
    return mixed_entropy(rho, nu, q)


def _descend(rows: np.ndarray, rho_w: np.ndarray, nu_w: np.ndarray, q: float,
             iters_per_stage: int) -> np.ndarray:
    """Annealed projected-gradient descent of every restart at once.

    Descends ``rows``, (restarts, m, k), in place. Each restart keeps its
    own stage, step size, penalized value and iteration count; a round
    tries one candidate for every restart still descending, which accepts
    it (and grows its step) or halves its step. A stage ends after
    ``iters_per_stage`` accepted steps or when the step falls to 1e-14, and
    then the restart moves to the next penalty weight with its step reset
    to 0.1.
    """
    restarts, m, _ = rows.shape
    stage = np.zeros(restarts, dtype=int)
    beta = np.full(restarts, _BETA_STAGES[0])
    iters = np.zeros(restarts, dtype=int)
    step = np.full(restarts, 0.1)
    current = _penalized(rows, rho_w, nu_w, q, beta)
    active = np.full(restarts, iters_per_stage > 0)
    while active.any():
        gap = rows.mean(axis=1) - rho_w
        grad = (_gradient(rows, nu_w, q)
                + 2.0 * beta[:, None, None] * gap[:, None, :] / m)
        cand = _project_rows(rows - step[:, None, None] * grad)
        val = _penalized(cand, rho_w, nu_w, q, beta)
        accepted = active & (val < current - 1e-14)
        rejected = active & ~accepted
        rows[accepted] = cand[accepted]
        current[accepted] = val[accepted]
        step[accepted] = np.minimum(step[accepted] * 1.5, 1e3)
        step[rejected] *= 0.5
        iters += accepted
        ended = ((accepted & (iters == iters_per_stage))
                 | (rejected & (step <= 1e-14)))
        if ended.any():
            stage[ended] += 1
            active &= stage < len(_BETA_STAGES)
            ended &= active
            beta[ended] = np.take(_BETA_STAGES, stage[ended])
            iters[ended] = 0
            step[ended] = 0.1
            current[ended] = _penalized(rows, rho_w, nu_w, q, beta)[ended]
    # exact feasibility repair: shift by the residual, reproject, repeat
    repairing = np.full(restarts, True)
    for _ in range(200):
        resid = rho_w - rows.mean(axis=1)
        repairing &= ~(np.max(np.abs(resid), axis=1) < _REPAIR_TOL)
        if not repairing.any():
            break
        rows[repairing] = _project_rows(rows[repairing]
                                        + resid[repairing][:, None, :])
    return rows


def rate_by_control(rho: ProbVector, nu: OffspringLaw, q: float, *,
                    steps: int = 64, restarts: int = 8,
                    iters_per_stage: int = 250,
                    rng: RngStream = RngStream(42)) -> tuple[float, ControlPath]:
    """Upper bound on the rate function by optimizing a discretized control.

    Runs one descent from the constant path and ``restarts - 1`` from
    Dirichlet-perturbed starts, all in one batched descent that anneals the
    mean-constraint penalty, and returns the best repaired path. Values and
    paths equal those of running the restarts one after another, ties going
    to the earlier restart. The constant path itself stays in the candidate
    set, so the value never exceeds the constant-control bound.
    """
    _check_same_support(rho, nu)
    _check_q(q, allow_zero=True)
    if steps < 2:
        raise ContractViolationError("need at least two control steps")
    if restarts < 1:
        raise ContractViolationError("need at least one restart")
    if iters_per_stage < 0:
        raise ContractViolationError("iters_per_stage must be non-negative")
    rho_w, nu_w = rho.weights, nu.weights
    k = len(rho_w)

    starts = [np.tile(rho_w, (steps, 1))]
    for r in range(1, restarts):
        gen = rng.child(r).generator("control-start")
        noise = gen.dirichlet(np.ones(k), size=steps)
        mix_w = 0.35
        starts.append((1.0 - mix_w) * np.tile(rho_w, (steps, 1)) + mix_w * noise)

    rows = _descend(np.stack(starts), rho_w, nu_w, q, iters_per_stage)
    # a restart the repair left off rho bounds the rate of another target;
    # the exactly feasible constant path stays and caps the answer from above
    off = np.max(np.abs(rows.mean(axis=1) - rho_w), axis=1)
    candidates = np.concatenate([rows[off <= _REPAIR_TOL], starts[0][None]])
    values = _objective(candidates, nu_w, q)
    best = min(range(len(values)), key=lambda i: (values[i], i))
    value, rows = float(values[best]), candidates[best]
    return value, ControlPath(rho.support, rows)


def two_phase_probe(rho: ProbVector, nu: OffspringLaw, q: float, eps: float,
                    *, steps: int = 1024) -> float:
    """Cost of the explicit two-phase control: overshoot then compensate.

    The path holds rho + eps (rho - nu) on the first half and the mirrored
    rho - eps (rho - nu) on the second half, so its running average drifts
    back to rho along rho + eps (1/t - 1)(rho - nu). Evaluated in closed form
    on a midpoint grid. At eps = 0 this is exactly the constant-control cost.
    """
    _check_same_support(rho, nu)
    _check_q(q, allow_zero=True)
    if steps < 1:
        raise ContractViolationError("the probe needs at least one step")
    if math.isnan(eps) or eps < 0.0:
        raise ContractViolationError("eps must be non-negative")
    if (rho.weights <= 0.0).any():
        raise ContractViolationError("probe needs rho strictly positive on the support")
    if float(np.max(np.abs(rho.weights - nu.weights))) == 0.0:
        raise ContractViolationError("probe needs rho distinct from nu")
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
