"""Scaled cumulant generating functions and rate functions.

For a reproduction law ``nu`` on a finite support and a memory parameter
``q`` in (0,1), the central object is the limiting cumulant generating
function of lineage empirical measures,

    reinforced_log_mgf(lam) = log q - log I(lam),
    I(lam) = integral_0^inf prod_k (1 - t e^{lam(k)})_+^{nu(k)(1-q)/q} dt.

The integrand vanishes for t >= exp(-max lam), carries an algebraic zero of
exponent c* (the summed exponents of the maximal entries) at that endpoint,
and is smooth inside. Quadrature follows that structure: adaptive
Gauss-Kronrod panels over the first 90% of the interval and a Gauss-Jacobi
panel with weight (1-s)^{c*} over the last 10%. When every exponent is a
non-negative integer the integrand is a polynomial, which a Gauss-Legendre
rule of matching degree integrates exactly; that path doubles as an
independent oracle.

The Fenchel-Legendre transform is one Levenberg-Marquardt solve of the
gradient-match equation in boundary-layer coordinates m_k = log(1 -
e^{tilt_k}), with the integrals taken in log space through x = -log t by a
graded Gauss-Legendre rule. The log-mgf and its gradient above stay on their
own quadrature, so they check the solver independently.

Conventions: entries lam(k) = -inf contribute factor 1 to the integrand and
get gradient component 0; the all -inf tilt yields -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize
from scipy.special import roots_jacobi

from .errors import ContractViolationError, InfeasibleError, NumericError
from .measures import (
    LogWeights,
    OffspringLaw,
    ProbVector,
    _check_q,
    _check_same_support,
    log_degree_weights,
    mean,
    relative_entropy,
    size_biased,
)

_JACOBI_ORDERS = (12, 20, 32, 52, 84, 136)
_PANEL_SPLIT = 0.9
# relative target and QUADPACK subdivision limit of every log-mgf integral
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class RateDual:
    """Value of the rate function together with the maximizing tilt.

    ``tilt`` is normalized so its largest entry is 0 and is -inf exactly off
    the argument's support; ``residual`` is the sup-norm gap between the
    gradient at ``tilt`` and the requested measure.
    """

    value: float
    tilt: LogWeights
    residual: float
    iterations: int


@lru_cache(maxsize=256)
def _jacobi_rule(order: int, gamma: float):
    nodes, weights = roots_jacobi(order, 0.0, gamma)
    return nodes, weights


def _endpoint_integral(g, gamma: float) -> float:
    """integral_0^1 (1-s)^gamma g(s) ds with g smooth on [0, 1]."""
    smooth, err, *rest = integrate.quad(
        lambda s: (1.0 - s) ** gamma * g(s),
        0.0, _PANEL_SPLIT, epsabs=0.0, epsrel=_REL_TOL,
        limit=_MAX_SUBDIVISIONS, full_output=1)
    if err > 1e3 * _REL_TOL * max(abs(smooth), 1e-300):
        raise NumericError("adaptive panel did not converge",
                           {"value": smooth, "abserr": err})

    # last 10%: s = 1 - (1 - split) v pulls the weight onto v^gamma at v = 0
    width = 1.0 - _PANEL_SPLIT
    scale = width ** (gamma + 1.0)
    if scale == 0.0:
        return smooth
    panel_prev = None
    panel = 0.0
    for order in _JACOBI_ORDERS:
        nodes, weights = _jacobi_rule(order, gamma)
        v = 0.5 * (nodes + 1.0)
        s = 1.0 - width * v
        vals = np.array([g(si) for si in s])
        panel = scale * 0.5 ** (gamma + 1.0) * float(np.dot(weights, vals))
        if panel_prev is not None:
            tol = _REL_TOL * max(abs(smooth + panel), 1e-300)
            if abs(panel - panel_prev) <= tol:
                return smooth + panel
        panel_prev = panel

    # a boundary layer thinner than the top Jacobi order resolves (nearly
    # tied tilt coordinates); hand the whole weight to adaptive QUADPACK
    val, err, *rest = integrate.quad(
        g, 0.0, 1.0, weight="alg", wvar=(0.0, gamma),
        epsabs=0.0, epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS,
        full_output=1)
    if err > 1e3 * _REL_TOL * max(abs(val), 1e-300):
        raise NumericError("endpoint panel did not converge",
                           {"smooth": smooth, "panel": panel, "gamma": gamma,
                            "adaptive": val, "abserr": err})
    return val


class _Integrand:
    """Shared geometry for the mgf integrals at a fixed tilt."""

    def __init__(self, lam: LogWeights, nu: OffspringLaw, q: float):
        vals = lam.values
        finite = np.isfinite(vals)
        self.finite = finite
        self.lam_bar = float(np.max(vals[finite]))
        self.exponents = nu.weights * (1.0 - q) / q
        rel = np.array([math.exp(v - self.lam_bar) for v in vals])
        # an entry so close to the maximum that exp(gap) rounds to 1 is tied
        # with it; kept apart it would put a zero of (1 - e s) at s = 1
        top = finite & (rel == 1.0)
        self.top = top
        self.c_star = float(self.exponents[top].sum())
        lower = finite & ~top
        self.lower_idx = np.nonzero(lower)[0]
        self.lower_e = rel[lower].tolist()
        self.lower_c = [float(c) for c in self.exponents[lower]]

    def smooth_factor(self, s: float) -> float:
        """G(s) = prod over non-maximal entries of (1 - e_k s)^{c_k}."""
        acc = 0.0
        for e, c in zip(self.lower_e, self.lower_c):
            acc += c * math.log1p(-e * s)
        return math.exp(acc)


def _mgf_parts(lam: LogWeights, nu: OffspringLaw, q: float, want_grad: bool):
    """Log of the rescaled integral and, optionally, raw gradient parts."""
    geom = _Integrand(lam, nu, q)
    denom = _endpoint_integral(geom.smooth_factor, geom.c_star)
    if not (denom > 0.0) or not math.isfinite(denom):
        raise NumericError("mgf integral collapsed", {"denominator": denom})
    log_integral = -geom.lam_bar + math.log(denom)
    if not want_grad:
        return log_integral, None

    grad = np.zeros(len(lam.support))
    for pos, e, c in zip(geom.lower_idx, geom.lower_e, geom.lower_c):
        def ratio(s: float, e=e) -> float:
            u = e * s
            return u / (1.0 - u) * geom.smooth_factor(s)
        grad[pos] = c * _endpoint_integral(ratio, geom.c_star) / denom
    if geom.top.any():
        def top_ratio(s: float) -> float:
            return s * geom.smooth_factor(s)
        shared = _endpoint_integral(top_ratio, geom.c_star - 1.0) / denom
        grad[geom.top] = geom.exponents[geom.top] * shared
    return log_integral, grad


def sanov_rate(rho: ProbVector, nu: OffspringLaw) -> float:
    """Rate function of iid empirical measures: relative entropy to nu."""
    _check_same_support(rho, nu)
    return relative_entropy(rho, nu.as_prob_vector())


def reinforced_log_mgf(lam: LogWeights, nu: OffspringLaw, q: float) -> float:
    """Limiting cumulant generating function under memory q, by quadrature."""
    _check_same_support(lam, nu)
    _check_q(q)
    if lam.all_neg_inf:
        return -math.inf
    log_integral, _ = _mgf_parts(lam, nu, q, want_grad=False)
    return math.log(q) - log_integral


def reinforced_log_mgf_polynomial(lam: LogWeights, nu: OffspringLaw, q: float) -> float:
    """Closed-form value when every exponent nu(k)(1-q)/q is an integer.

    The integrand is then a polynomial of degree d, the summed exponents, and
    Gauss-Legendre on floor(d/2) + 1 nodes integrates it exactly; the product
    is evaluated in log space at the nodes, never expanded into
    coefficients. Independent of the quadrature path.
    """
    _check_same_support(lam, nu)
    _check_q(q)
    if lam.all_neg_inf:
        return -math.inf
    exponents = nu.weights * (1.0 - q) / q
    rounded = np.round(exponents)
    if np.max(np.abs(exponents - rounded)) > 1e-9 * max(1.0, float(np.max(exponents))):
        raise ContractViolationError("exponents are not integers; no polynomial form")
    finite = lam.finite_mask()
    lam_bar = float(np.max(lam.values[finite]))
    e = np.exp(lam.values[finite] - lam_bar)
    degree = int(rounded[finite].sum())
    nodes, weights = np.polynomial.legendre.leggauss(degree // 2 + 1)
    t = 0.5 * (nodes + 1.0)
    log_terms = rounded[finite] @ np.log1p(-np.outer(e, t))
    integral = 0.5 * float(weights @ np.exp(log_terms))
    return math.log(q) + lam_bar - math.log(integral)


def reinforced_log_mgf_grad(lam: LogWeights, nu: OffspringLaw, q: float) -> ProbVector:
    """Gradient of the reinforced log-mgf: a probability vector.

    Components are ratios of endpoint-weighted integrals; they vanish exactly
    where lam is -inf and sum to 1 (checked against quadrature drift before
    renormalizing).
    """
    _check_same_support(lam, nu)
    _check_q(q)
    if lam.all_neg_inf:
        raise ContractViolationError("gradient undefined at the all -inf sentinel")
    _, grad = _mgf_parts(lam, nu, q, want_grad=True)
    drift = abs(float(grad.sum()) - 1.0)
    if drift > 1e2 * _REL_TOL:
        raise NumericError("gradient components sum to 1 beyond tolerance",
                           {"drift": drift, "gradient": grad.tolist()})
    return ProbVector(lam.support, grad / grad.sum())


# ---------------------------------------------------------------------------
# Fenchel-Legendre transform, solved in boundary-layer coordinates
#
# For memory close to 1 the exponents nu(k)(1-q)/q shrink and the maximizing
# tilt coordinates tie within exp(-O(q/(1-q))), far below float resolution,
# so no iteration in tilt space can separate them. The solver works in
# m_k = log(1 - exp(tilt_k)) instead, where the optimum is O(1), and pushes
# the integrals through x = -log(t), where each factor delta + (1-delta)e^{-x}
# crosses over smoothly at x = log((1-delta)/delta) with unit width whatever
# the size of delta. The same coordinates serve every q in (0, 1).
# ---------------------------------------------------------------------------

_BOUNDARY_ORDER = 40
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
    lg1m = log(1 - delta)."""
    knots = np.clip(lg1m - m, 0.0, None)
    x_end = float(np.max(knots, initial=0.0)) + _BOUNDARY_TAIL
    width0 = min(6.0, 18.0 / (2.0 + c_total))
    anchors = sorted({0.0, x_end} | {float(k) for k in knots if 0.0 < k < x_end})
    pts = [0.0]
    for a, b in zip(anchors, anchors[1:]):
        pts.extend(_graded_edges(a, b, width0))
    pts = np.asarray(pts)
    nodes, wts = _legendre_rule(_BOUNDARY_ORDER)
    half = 0.5 * np.diff(pts)
    mid = pts[:-1] + half
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * wts[None, :]).ravel()
    return x, w, x_end


def _boundary_eval(m: np.ndarray, lg1m: np.ndarray, c: np.ndarray,
                   c_top: float):
    """Integral, gradient, and the Jacobian dg/dm at coordinate m.

    ``m``, ``lg1m`` (the tilt, log(1 - delta)) and ``c`` cover the
    coordinates below the tilt maximum; the coordinates at the maximum
    (delta = 0) contribute the factor e^{-c_top x}. All integrands are
    assembled in log space from log f_k = logaddexp(m_k, lg1m_k - x), so
    coordinates whose delta or 1 - delta underflows float64 are still exact.
    """
    x, w, x_end = _boundary_nodes(m, lg1m, float(c.sum()) + c_top)
    n = len(m)
    lgf = np.logaddexp(m[:, None], lg1m[:, None] - x[None, :])
    big_l = -(1.0 + c_top) * x + c @ lgf
    lg_om = np.log(-np.expm1(-x))
    # past x_end every f_k has settled at delta_k: the tail integrates
    # e^{-(1 + c_top) x} prod delta^c in closed form
    log_tail = float(np.dot(c, m)) - (1.0 + c_top) * x_end - math.log1p(c_top)

    ival = float(w @ np.exp(big_l)) + math.exp(log_tail)
    lgr = lg1m[:, None] + lg_om[None, :] - lgf
    grad_i = np.empty(n)
    for k in range(n):
        tail = math.exp(lg1m[k] - m[k] + log_tail)
        grad_i[k] = c[k] * (float(w @ np.exp(big_l + lgr[k])) + tail)
    g = grad_i / ival

    lgh = m[:, None] + lg_om[None, :] - lgf
    div = np.empty(n)
    for j in range(n):
        div[j] = c[j] * (float(w @ np.exp(big_l + lgh[j])) + math.exp(log_tail))
    cross = np.empty((n, n))
    for k in range(n):
        tail_r = math.exp(lg1m[k] - m[k] + log_tail)
        for j in range(n):
            cross[k, j] = c[k] * c[j] * (
                float(w @ np.exp(big_l + lgr[k] + lgh[j])) + tail_r)
        own = float(w @ np.exp(big_l + m[k] + lg_om - 2.0 * lgf[k]))
        cross[k, k] -= c[k] * (own + math.exp(-m[k] + log_tail))
    jac = (cross - np.outer(g, div)) / ival
    return ival, g, jac


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
    top = ratio >= np.max(ratio) * (1.0 - 1e-13)
    rho_low, c_low = rho_work[~top], c_work[~top]
    c_top = float(c_work[top].sum())
    share = c_work[top] / c_top

    def evaluate(m):
        ival, g, jac = _boundary_eval(m, np.log1p(-np.exp(m)), c_low, c_top)
        resid = np.concatenate([g - rho_low,
                                (1.0 - g.sum()) * share - rho_work[top]])
        return ival, resid, np.vstack([jac, -np.outer(share, jac.sum(axis=0))])

    m = np.log(np.maximum(1.0 - rho_low, 1e-300)) / c_low
    m = np.clip(m, -1e9, _BOUNDARY_CLIP)
    ival, resid_vec, jac = evaluate(m)
    best = float(np.max(np.abs(resid_vec)))
    tau = 1e-3
    iterations = 0
    while best > _RESIDUAL_TOL and iterations < _LM_MAX_ITER:
        iterations += 1
        jtj = jac.T @ jac
        rhs = -jac.T @ resid_vec
        damp = np.diag(jtj).copy()
        damp[damp <= 0.0] = max(float(damp.max(initial=0.0)), 1e-300)
        accepted = False
        for _ in range(15):
            try:
                step = np.linalg.solve(jtj + tau * np.diag(damp), rhs)
            except np.linalg.LinAlgError:
                tau *= 10.0
                continue
            m_new = np.clip(m + step, -1e9, _BOUNDARY_CLIP)
            ival2, r2, jac2 = evaluate(m_new)
            if float(np.max(np.abs(r2))) < best:
                m, ival, resid_vec, jac = m_new, ival2, r2, jac2
                best = float(np.max(np.abs(r2)))
                tau = max(tau / 3.0, 1e-12)
                accepted = True
                break
            tau *= 10.0
        if not accepted:
            break
    if best > _RESIDUAL_TOL:
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
                    residual=best, iterations=iterations)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

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
        m = mean(nu)
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
    found in log theta and the integrals are taken in the boundary-layer
    coordinates of reinforced_rate. At c = max w no finite theta attains
    the sup: the minimizer is nu conditioned on the atoms maximizing w, the
    gradient at the limit tilt, which is 0 there and -inf elsewhere.
    """
    _check_q(q)
    w = np.asarray(w, dtype=float)
    if w.shape != (len(nu.support),) or not np.isfinite(w).all():
        raise ContractViolationError("halfspace functional must be finite over the support")
    if math.isnan(c):
        raise ContractViolationError("halfspace bound must be a number")
    top = float(np.max(w))
    if top < c:
        raise InfeasibleError("halfspace does not meet the simplex")
    nu_vec = nu.as_prob_vector()
    if float(np.dot(nu_vec.weights, w)) >= c:
        return nu_vec, 0.0
    if c == top:
        tilt = LogWeights(nu.support, np.where(w == top, 0.0, -np.inf))
        return (reinforced_log_mgf_grad(tilt, nu, q),
                -reinforced_log_mgf(tilt, nu, q))

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
        ival, g, _ = _boundary_eval(m, -y, c_low, c_top)
        return ival, g

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
    lo, hi = sorted((inner, outer))
    log_theta = optimize.brentq(excess, lo, hi, xtol=1e-14)
    ival, g = evaluate(log_theta)
    weights = np.empty(len(w))
    weights[low] = g
    weights[~low] = (1.0 - float(g.sum())) * nu.weights[~low] / nu.weights[~low].sum()
    value = math.exp(log_theta) * (c - top) - math.log(q) + math.log(ival)
    return ProbVector(nu.support, weights), value
