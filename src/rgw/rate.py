"""Scaled cumulant generating functions and rate functions.

For a reproduction law ``nu`` on a finite support and a memory parameter
``q`` in (0,1), the central object is the limiting cumulant generating
function of lineage empirical measures,

    reinforced_log_mgf(lam) = log q - log I(lam),
    I(lam) = integral_0^inf prod_k (1 - t e^{lam(k)})_+^{nu(k)(1-q)/q} dt.

The integrand vanishes for t >= exp(-max lam) and carries an algebraic zero
at that endpoint, of exponent the summed exponents of the maximal entries.
One quadrature rule serves the log-mgf, its gradient, the rate and the
halfspace minimum: in boundary-layer coordinates m_k = log(1 -
e^{lam_k - max lam}), the integrals are taken in log space through x =
-log(1 - t e^{max lam}) by a graded Gauss-Legendre rule. The independent
oracles (adaptive QUADPACK panels with a Gauss-Jacobi endpoint rule, the
exact polynomial path for integer exponents, and tanh-sinh quadrature at
30 digits) live in the tests.

The Fenchel-Legendre transform is one Levenberg-Marquardt solve of the
gradient-match equation in the coordinates m. An evaluation yields the
integral and the gradient; the Jacobian is built from the same integrand
arrays only for the point an LM step starts from, so neither the accepted
last point nor a rejected trial point pays for one.

Conventions: entries lam(k) = -inf contribute factor 1 to the integrand and
get gradient component 0; the all -inf tilt yields -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolationError, NumericError
from .measures import (
    LogWeights,
    OffspringLaw,
    ProbVector,
    _bisect,
    _check_halfspace,
    _check_q,
    _check_same_support,
    _on_support,
    log_degree_weights,
    relative_entropy,
    size_biased,
)


@dataclass(frozen=True)
class RateDual:
    """Value of the rate function together with the maximizing tilt.

    ``tilt`` is normalized so its largest entry is 0 and is -inf exactly off
    the argument's support; ``residual`` is the sup-norm gap between the
    gradient at ``tilt`` and the requested measure. ``nodes`` is the number
    of quadrature nodes summed over every integrand evaluation of the solve,
    which sets its cost.
    """

    value: float
    tilt: LogWeights
    residual: float
    iterations: int
    nodes: int


def reinforced_log_mgf(lam: LogWeights, nu: OffspringLaw, q: float) -> float:
    """Limiting cumulant generating function under memory q, by quadrature."""
    _check_same_support(lam, nu)
    _check_q(q)
    if lam.all_neg_inf:
        return -math.inf
    return _tilt_eval(lam, nu, q)[0]


def reinforced_log_mgf_grad(lam: LogWeights, nu: OffspringLaw, q: float) -> ProbVector:
    """Gradient of the reinforced log-mgf: a probability vector.

    Components vanish exactly where lam is -inf. The entries at the tilt
    maximum share what the others leave of the unit mass, by their exponents,
    so the components sum to 1 by construction.
    """
    _check_same_support(lam, nu)
    _check_q(q)
    if lam.all_neg_inf:
        raise ContractViolationError("gradient undefined at the all -inf sentinel")
    return ProbVector(lam.support, _tilt_eval(lam, nu, q)[1])


# ---------------------------------------------------------------------------
# Fenchel-Legendre transform, solved in boundary-layer coordinates
#
# For memory close to 1 the exponents nu(k)(1-q)/q shrink and the maximizing
# tilt coordinates tie within exp(-O(q/(1-q))), far below float resolution,
# so no iteration in tilt space can separate them. The solver works in
# m_k = log(1 - exp(tilt_k)) instead, where the optimum is O(1), and pushes
# the integrals through x = -log(1 - t), where each factor delta +
# (1-delta)e^{-x} crosses over smoothly at x = log((1-delta)/delta) with unit
# width whatever the size of delta. The same coordinates serve every q in
# (0, 1), and the log-mgf and its gradient above.
# ---------------------------------------------------------------------------

_BOUNDARY_ORDER = 40
# The rule stops _BOUNDARY_TAIL = 45 past the last crossover x_k =
# log((1 - delta_k) / delta_k). From there on each factor f_k lies within
# 1 + e^{-45} of delta_k, while over the 45 units before it f_k >= delta_k,
# so the part left out is at most about 3 e^{-44 (1 + c_top)} < 3e-19 of the
# integral, of each gradient numerator and of each Jacobian sum (while
# sum(c) e^{-45} stays small, i.e. for q > 1e-15): below half an ulp, so
# adding it would change no float.
_BOUNDARY_TAIL = 45.0
_BOUNDARY_CLIP = -1e-12
# sup-norm gradient-match residual every solve reaches
_RESIDUAL_TOL = 1e-9
# Levenberg-Marquardt iterations before a solve gives up; with the tilt
# maximum pinned, solves over q in [1e-3, 0.999] take at most about 13
_LM_MAX_ITER = 120


@lru_cache(maxsize=8)
def _legendre_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _graded_edges(a: float, b: float, width0: float) -> list:
    """Panel edges on [a, b], fine near both ends, geometrically coarser
    toward the middle; the integrands are exponential sums whose scales sit
    at the interval ends."""
    length = b - a
    if length <= 2.0 * width0:
        n_even = max(1, math.ceil(length / width0))
        return [a + length * i / n_even for i in range(1, n_even + 1)]
    left, right = [], []
    lo, hi = a, b
    w = width0
    while hi - lo > 2.0 * w:
        left.append(lo + w)
        right.append(hi - w)
        lo += w
        hi -= w
        w *= 1.35
    mid = 0.5 * (lo + hi)
    return left + [mid] + right[::-1] + [b]


def _boundary_nodes(m: np.ndarray, lg1m: np.ndarray, c_total: float):
    """Quadrature nodes and weights for coordinates m = log(delta) and
    lg1m = log(1 - delta), on [0, x_end] with x_end ``_BOUNDARY_TAIL`` past
    the last crossover."""
    knots = [k for k in (lg1m - m).tolist() if k > 0.0]
    x_end = max(knots, default=0.0) + _BOUNDARY_TAIL
    width0 = min(6.0, 18.0 / (2.0 + c_total))
    anchors = sorted({0.0, x_end, *knots})
    pts = [0.0]
    for a, b in zip(anchors, anchors[1:]):
        pts.extend(_graded_edges(a, b, width0))
    pts = np.asarray(pts)
    nodes, wts = _legendre_rule(_BOUNDARY_ORDER)
    half = 0.5 * (pts[1:] - pts[:-1])
    mid = pts[:-1] + half
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * wts).ravel()
    return x, w


def _boundary_eval(m: np.ndarray, lg1m: np.ndarray, c: np.ndarray,
                   c_top: float, q: float):
    """Integral, gradient, a builder of the Jacobian dg/dm, and the node
    count, at coordinate m.

    ``m``, ``lg1m`` (the tilt, log(1 - delta)) and ``c`` cover the
    coordinates below the tilt maximum; the coordinates at the maximum
    (delta = 0) contribute the factor e^{-c_top x}. All integrands are
    assembled in log space from log f_k = logaddexp(m_k, lg1m_k - x), so
    coordinates whose delta or 1 - delta underflows float64 are still exact.
    The Jacobian is built from the same integrand arrays when its builder is
    called, which a solve does only for the point an LM step starts from.
    An integral that is not a positive float raises NumericError with ``q``
    in its diagnostics; the rate solve's first one underflows to 0 at
    q = 1e-20, where the exponents are 5e19.
    """
    x, w = _boundary_nodes(m, lg1m, float(c.sum()) + c_top)
    lgf = np.logaddexp(m[:, None], lg1m[:, None] - x)
    big_l = -(1.0 + c_top) * x + c @ lgf
    lg_om = np.log(-np.expm1(-x))

    ival = float(w @ np.exp(big_l))
    if not 0.0 < ival < math.inf:
        raise NumericError("boundary-layer integral is not a positive float",
                           {"q": q, "integral": ival})
    big_lr = big_l + (lg1m[:, None] + lg_om - lgf)
    g = c * (np.exp(big_lr) @ w) / ival

    def jacobian():
        lgh = m[:, None] + lg_om - lgf
        div = c * (np.exp(big_l + lgh) @ w)
        cross = c[:, None] * c * (np.exp(big_lr[:, None, :] + lgh) @ w)
        own = np.exp(big_l + m[:, None] + lg_om - 2.0 * lgf) @ w
        cross.flat[::len(m) + 1] -= c * own
        return (cross - g[:, None] * div) / ival

    return ival, g, jacobian, len(x)


def _tilt_eval(lam: LogWeights, nu: OffspringLaw, q: float):
    """Log-mgf and its gradient at a tilt with a finite entry, by the
    boundary-layer rule.

    With gap_k = lam_k - max lam, the entries at gap 0 are pinned, those at
    gap -inf contribute factor 1, and the others enter with m_k = log(1 -
    e^{gap_k}) and log(1 - delta_k) = gap_k.
    """
    lam_bar = float(lam.values.max())
    gap = lam.values - lam_bar
    exponents = nu.weights * (1.0 - q) / q
    top = gap == 0.0
    low = (gap < 0.0) & (gap > -np.inf)
    c_top = float(exponents[top].sum())
    gap_low = gap[low]
    ival, g = _boundary_eval(np.log(-np.expm1(gap_low)), gap_low,
                             exponents[low], c_top, q)[:2]
    grad = np.zeros(len(gap))
    grad[low] = g
    grad[top] = (1.0 - float(g.sum())) * exponents[top] / c_top
    return math.log(q) + lam_bar - math.log(ival), grad


def reinforced_rate(rho: ProbVector, nu: OffspringLaw, q: float) -> RateDual:
    """Rate function of lineage empirical measures, with its dual tilt.

    Solves grad log-mgf(tilt) = rho on the support of rho by
    Levenberg-Marquardt on the gradient-match residual, in the
    boundary-layer coordinates m above. Each gradient component over nu(k)
    is an increasing function of tilt(k) against weights shared by all k,
    so the optimal tilt orders its coordinates as rho/nu does and the
    largest rho/nu marks the tilt maximum. Pinning those coordinates at 0
    fixes the additive gauge, makes the integral over t in [0, 1] the whole
    integral, and leaves them the rest of the unit mass, split as exact ties
    split it, by their exponents. Coordinates where rho vanishes get tilt
    -inf.
    """
    _check_same_support(rho, nu)
    _check_q(q)
    work_idx = np.nonzero(rho.weights > 0.0)[0]
    rho_work = rho.weights[work_idx]
    c_work = nu.weights[work_idx] * (1.0 - q) / q
    # ratios equal up to rounding are ties: pinning them together moves the
    # residual by at most their relative difference
    ratio = rho_work / c_work
    top = ratio >= ratio.max() * (1.0 - 1e-13)
    rho_low, c_low, rho_top = rho_work[~top], c_work[~top], rho_work[top]
    c_top = float(c_work[top].sum())
    share = c_work[top] / c_top

    nodes = 0

    def evaluate(m):
        nonlocal nodes
        ival, g, jacobian, count = _boundary_eval(m, np.log1p(-np.exp(m)),
                                                  c_low, c_top, q)
        nodes += count
        resid = np.concatenate([g - rho_low,
                                (1.0 - g.sum()) * share - rho_top])
        return ival, resid, float(np.abs(resid).max()), jacobian

    m = np.log(np.maximum(1.0 - rho_low, 1e-300)) / c_low
    m = np.minimum(np.maximum(m, -1e9), _BOUNDARY_CLIP)
    ival, resid_vec, best, jacobian = evaluate(m)
    tau = 1e-3
    iterations = 0
    while not best <= _RESIDUAL_TOL and iterations < _LM_MAX_ITER:
        iterations += 1
        jac = jacobian()
        jac = np.concatenate([jac, -share[:, None] * jac.sum(axis=0)])
        jtj = jac.T @ jac
        rhs = -jac.T @ resid_vec
        # Marquardt scaling by the diagonal, with the largest entry standing
        # in where it is not positive; a NaN entry passes through
        damp = jtj.diagonal()
        if (damp <= 0.0).any():
            damp = np.where(damp <= 0.0,
                            max(float(damp.max(initial=0.0)), 1e-300), damp)
        accepted = False
        for _ in range(15):
            lhs = jtj.copy()
            lhs.flat[::len(damp) + 1] += tau * damp
            try:
                step = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:
                tau *= 10.0
                continue
            m_new = np.minimum(np.maximum(m + step, -1e9), _BOUNDARY_CLIP)
            ival2, r2, best2, jacobian2 = evaluate(m_new)
            if best2 < best:
                m, ival, resid_vec, best, jacobian = (m_new, ival2, r2, best2,
                                                      jacobian2)
                tau = max(tau / 3.0, 1e-12)
                accepted = True
                break
            tau *= 10.0
        if not accepted:
            break
    if not best <= _RESIDUAL_TOL:
        raise NumericError("dual solver did not converge",
                           {"residual": best, "iterations": iterations})
    lam_work = np.zeros(len(work_idx))
    lam_work[~top] = np.log1p(-np.exp(m))
    value = float(np.dot(rho_work, lam_work)) - math.log(q) + math.log(ival)
    if value < -1e-9 or value > -math.log(q) + 1e-9:
        raise NumericError("rate value outside its certified range",
                           {"value": value, "upper": -math.log(q)})
    tilt = np.full(len(rho.support), -np.inf)
    tilt[work_idx] = lam_work
    return RateDual(value=max(value, 0.0), tilt=LogWeights(rho.support, tilt),
                    residual=best, iterations=iterations, nodes=nodes)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def _rate_on_law(rho: ProbVector, nu: OffspringLaw, q: float) -> float:
    """The rate of any target against the law: the relative entropy at
    q = 0, ``reinforced_rate`` above it, and inf for a target off the law's
    support, where the rate lives."""
    rho = _on_support(rho, nu)
    if rho is None:
        return math.inf
    return relative_entropy(rho, nu) if q == 0.0 else reinforced_rate(rho, nu, q).value


def concentration_target(nu: OffspringLaw, q: float) -> ProbVector:
    """Limit law of the empirical lineage measure on the surviving tree.

    Memoryless case: the size-biased law. With memory: the gradient of the
    reinforced log-mgf at the log-degree tilt.
    """
    _check_q(q, allow_zero=True)
    if q == 0.0:
        return size_biased(nu)
    return reinforced_log_mgf_grad(log_degree_weights(nu.support), nu, q)


def growth_exponent(nu: OffspringLaw, q: float) -> float:
    """Exponential growth rate of expected generation sizes."""
    _check_q(q, allow_zero=True)
    if q == 0.0:
        m = nu.mean()
        return -math.inf if m == 0.0 else math.log(m)
    return reinforced_log_mgf(log_degree_weights(nu.support), nu, q)


# ---------------------------------------------------------------------------
# constrained minimization over a halfspace
# ---------------------------------------------------------------------------

# doublings of the log tilt scale allowed while bracketing the halfspace root
_BRACKET_DOUBLINGS = 64


def min_rate_over_halfspace(nu: OffspringLaw, q: float, w, c: float):
    """Minimize the rate function over {rho : <rho, w> >= c}.

    Returns ``(minimizer, rate_value)``. The unconstrained minimum sits at
    nu itself, so the answer is nu when nu is feasible. Otherwise, since
    the rate is the Legendre transform of the log-mgf Lambda, the minimum is
    the one-dimensional dual sup over theta >= 0 of theta c - Lambda(theta w),
    attained where <grad Lambda(theta w), w> = c, which increases in theta;
    the minimizer is grad Lambda(theta w) there. The tilt is shifted by
    theta max(w), so the atoms maximizing w sit at 0 and the others at
    -theta (max w - w). For memory near 1 the optimal theta is
    exp(-O(q/(1-q))), below float resolution next to 1, so the root is
    bisected in log theta and the integrals are taken in the boundary-layer
    coordinates of reinforced_rate. At c = max w no finite theta attains
    the sup: the minimizer is nu conditioned on the atoms maximizing w, the
    gradient at the limit tilt, which is 0 there and -inf elsewhere.
    """
    _check_q(q)
    w = _check_halfspace(w, c, nu.support)
    top = float(w.max())
    if float(np.dot(nu.weights, w)) >= c:
        return nu, 0.0
    if c == top:
        tilt = LogWeights(nu.support, np.where(w == top, 0.0, -np.inf))
        log_mgf, grad = _tilt_eval(tilt, nu, q)
        return ProbVector(nu.support, grad), -log_mgf

    low = w < top
    log_gap = np.log(top - w[low])
    exponents = nu.weights * (1.0 - q) / q
    c_low, c_top = exponents[low], float(exponents[~low].sum())

    def evaluate(log_theta):
        # y = theta (max w - w) is minus the tilt; m = log(1 - e^{-y}) keeps
        # its leading term log y when y underflows
        y = np.exp(log_theta + log_gap)
        small = y < 1e-4
        m = np.where(small, log_theta + log_gap - 0.5 * y + y * y / 24.0,
                     np.log(-np.expm1(-np.where(small, 1.0, y))))
        return _boundary_eval(m, -y, c_low, c_top, q)[:2]

    def excess(log_theta):
        # <grad, w> - c, with the atoms at the maximum holding 1 - sum(g)
        _, g = evaluate(log_theta)
        return (top - c) - float(np.dot(g, top - w[low]))

    # excess increases in log theta: double away from 0 until it changes sign
    rising = excess(0.0) < 0.0
    inner = 0.0
    for doubling in range(_BRACKET_DOUBLINGS):
        outer = 2.0 ** doubling if rising else -(2.0 ** doubling)
        if (excess(outer) >= 0.0) == rising:
            break
        inner = outer
    else:
        raise NumericError("halfspace dual root not bracketed",
                           {"log_theta": outer})
    log_theta = _bisect(lambda t: excess(t) >= 0.0, *sorted((inner, outer)))
    ival, g = evaluate(log_theta)
    weights = np.empty(len(w))
    weights[low] = g
    weights[~low] = (1.0 - float(g.sum())) * nu.weights[~low] / nu.weights[~low].sum()
    value = math.exp(log_theta) * (c - top) - math.log(q) + math.log(ival)
    return ProbVector(nu.support, weights), value
