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
half-step reference equal eta_1 itself. Relative entropy is jointly convex
and psi is linear in eta, so the discretized cost is convex, and the
constraints (rows on the simplex, time average rho) are linear. One
equality-constrained Newton solve from the feasible constant path therefore
reaches the optimum; every accepted step lowers the cost, so the value never
exceeds the constant-control bound. Columns where rho vanishes are forced
to zero and are not variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericError
from .measures import OffspringLaw, ProbVector, _check_q, _check_same_support

_LOG_FLOOR = 1e-300
# Newton stops once half the squared decrement, which estimates the distance
# to the optimal value near the optimum, falls to this
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 50
# fraction of the way to the nearest zero entry that one step may go
_BOUNDARY_FRACTION = 0.99
_ARMIJO = 0.25


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


def _cesaro(m: int) -> np.ndarray:
    """Lower-triangular midpoint map from a column of rows to its psi."""
    half = np.arange(1, m + 1) - 0.5
    return (np.tril(np.ones((m, m)), -1) + 0.5 * np.eye(m)) / half[:, None]


def _references(rows: np.ndarray, nu_w: np.ndarray, q: float) -> np.ndarray:
    """Mixture references q psi_{i-1/2} + (1-q) nu for every step."""
    m = rows.shape[0]
    half = np.arange(1, m + 1) - 0.5
    psi = (np.cumsum(rows, axis=0) - 0.5 * rows) / half[:, None]
    return q * psi + (1.0 - q) * nu_w


def _objective(rows: np.ndarray, nu_w: np.ndarray, q: float) -> float:
    """Running entropy cost of the (m, k) rows."""
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


def _hessian_blocks(rows: np.ndarray, nu_w: np.ndarray, q: float,
                    cesaro: np.ndarray) -> list[np.ndarray]:
    """One (m, m) Hessian block per column; columns do not interact.

    With x a column, L the Cesaro map and r = q L x + (1-q) nu_k the block is
    (1/m) [diag(1/x) - q (L^T diag(1/r) + diag(1/r) L) + q^2 L^T diag(x/r^2) L].
    """
    m = rows.shape[0]
    refs = _references(rows, nu_w, q)
    blocks = []
    for x, r in zip(rows.T, refs.T):
        scaled = cesaro / r[:, None]
        block = (np.diag(1.0 / x) - q * (scaled + scaled.T)
                 + q * q * cesaro.T @ (cesaro * (x / (r * r))[:, None]))
        blocks.append(block / m)
    return blocks


def _newton(rows: np.ndarray, nu_w: np.ndarray, q: float) -> np.ndarray:
    """Equality-constrained Newton descent of the (m, k) rows, all positive.

    The rows keep their row sums and column means: every step lies in the
    null space of those constraints, found from one dense KKT system. The
    last column mean is implied by the row sums and the other means, so it
    is left out to keep the system nonsingular.
    """
    m, k = rows.shape
    cesaro = _cesaro(m)
    n = m * k
    # variables column by column: entry (i, j) of the rows sits at j*m + i
    constraints = np.zeros((m + k - 1, n))
    constraints[:m] = np.tile(np.eye(m), k)
    for j in range(k - 1):
        constraints[m + j, j * m:(j + 1) * m] = 1.0
    kkt = np.zeros((n + m + k - 1, n + m + k - 1))
    kkt[n:, :n] = constraints
    kkt[:n, n:] = constraints.T
    rhs = np.zeros(len(kkt))
    value = _objective(rows, nu_w, q)
    for iteration in range(1, _NEWTON_MAX_ITER + 1):
        for j, block in enumerate(_hessian_blocks(rows, nu_w, q, cesaro)):
            kkt[j * m:(j + 1) * m, j * m:(j + 1) * m] = block
        grad = _gradient(rows, nu_w, q).T.ravel()
        rhs[:n] = -grad
        step = np.linalg.solve(kkt, rhs)[:n].reshape(k, m).T
        # the squared Newton decrement, step' H step
        decrement = -float(grad @ step.T.ravel())
        if 0.5 * decrement <= _NEWTON_TOL:
            return rows
        shrinking = step < 0.0
        t = min(1.0, _BOUNDARY_FRACTION
                * float(np.min(-rows[shrinking] / step[shrinking],
                               initial=math.inf)))
        while True:
            cand = rows + t * step
            cand_value = _objective(cand, nu_w, q)
            if cand_value <= value - _ARMIJO * t * decrement:
                break
            t *= 0.5
            if t < 1e-12:
                raise NumericError("control Newton step found no descent",
                                   {"iterations": iteration,
                                    "decrement": decrement})
        rows, value = cand, cand_value
    raise NumericError("control Newton solve did not converge",
                       {"iterations": _NEWTON_MAX_ITER, "decrement": decrement})


def rate_by_control(rho: ProbVector, nu: OffspringLaw, q: float, *,
                    steps: int = 64) -> tuple[float, ControlPath]:
    """Upper bound on the rate function by optimizing a discretized control.

    The discretized cost is convex under linear constraints, so one
    feasible-start Newton solve from the constant path finds its minimum.
    Columns where rho vanishes stay at zero, and with a single positive
    column the path is forced. Every step lowers the cost, so the value
    never exceeds the constant-control bound. Each iteration solves one
    dense system of side about steps times the support size, so memory grows
    with the square and time with the cube of that product.
    """
    _check_same_support(rho, nu)
    _check_q(q, allow_zero=True)
    if steps < 2:
        raise ContractViolationError("need at least two control steps")
    rho_w, nu_w = rho.weights, nu.weights
    rows = np.tile(rho_w, (steps, 1))
    live = rho_w > 0.0
    if live.sum() > 1:
        rows[:, live] = _newton(rows[:, live], nu_w[live], q)
    return _objective(rows, nu_w, q), ControlPath(rho.support, rows)
