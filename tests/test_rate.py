"""Log-moment functional and its convex conjugate, against closed forms and
direct search."""

from __future__ import annotations

import math
import time
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_jacobi

from rgw import (ContractViolationError, NumericError, OffspringLaw,
                 ProbVector, RngStream, concentration_target, growth_exponent,
                 min_rate_over_halfspace, pair, reinforced_log_mgf,
                 reinforced_log_mgf_grad, reinforced_rate, relative_entropy)
from rgw.measures import LogWeights, align

from helpers import mix
from rgw import rate
from rgw.rate import _BOUNDARY_TAIL, _boundary_eval, _boundary_nodes

FLAGSHIP = OffspringLaw((1, 2), (0.5, 0.5))
Q = 1.0 / 3.0
RATE_AT_CONCENTRATION = 0.08451411520222085


def closed_log_mgf(x: float, y: float) -> float:
    lo, hi = min(x, y), max(x, y)
    return math.log(2.0) + hi - math.log(3.0 - math.exp(lo - hi))


def closed_rate(p: float) -> float:
    p = min(p, 1.0 - p)
    return (p * math.log(3.0 * p / (p + 1.0)) - math.log(2.0)
            + math.log(3.0 / (p + 1.0)))


def random_law(gen: np.random.Generator) -> OffspringLaw:
    size = int(gen.integers(2, 5))
    support = tuple(sorted(gen.choice(np.arange(0, 7), size=size,
                                      replace=False).tolist()))
    if all(k == 0 for k in support):
        support = (0, 2)
    w = gen.dirichlet(np.ones(len(support)))
    w = np.maximum(w, 1e-3)
    return OffspringLaw(support, w / w.sum())


def random_target(gen: np.random.Generator,
                  nu: OffspringLaw) -> ProbVector:
    w = gen.dirichlet(np.ones(len(nu.support)))
    w = np.maximum(w, 1e-3)
    return ProbVector(nu.support, w / w.sum())


# ---------------------------------------------------------------------------
# Oracles for the log-mgf and its gradient, independent of the boundary-layer
# rule of rgw.rate.
#
# QUADPACK: adaptive Gauss-Kronrod panels over the first 90% of the rescaled
# interval and a Gauss-Jacobi panel with weight (1-s)^{c*} over the last 10%,
# c* the summed exponents of the maximal entries. It cannot resolve a tilt
# whose entries differ by 1e-16 to 1e-11: the endpoint panel does not
# converge, or the components do not sum to 1.
# ---------------------------------------------------------------------------

_JACOBI_ORDERS = (12, 20, 32, 52, 84, 136)
_PANEL_SPLIT = 0.9
# relative target and QUADPACK subdivision limit of every log-mgf integral
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 200


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


def quadpack_log_mgf(lam: LogWeights, nu: OffspringLaw, q: float):
    """Log-mgf and its gradient by the QUADPACK oracle; the gradient is
    checked to sum to 1 against quadrature drift, then renormalized."""
    log_integral, grad = _mgf_parts(lam, nu, q, want_grad=True)
    drift = abs(float(grad.sum()) - 1.0)
    if drift > 1e2 * _REL_TOL:
        raise NumericError("gradient components sum to 1 beyond tolerance",
                           {"drift": drift, "gradient": grad.tolist()})
    return math.log(q) - log_integral, grad / grad.sum()


def polynomial_log_mgf(lam: LogWeights, nu: OffspringLaw, q: float):
    """Log-mgf and its gradient when every exponent nu(k)(1-q)/q is an
    integer.

    The integrand is then a polynomial of degree d, the summed exponents, and
    so is each gradient numerator c_k t e_k (1 - t e_k)^{c_k - 1} times the
    other factors; Gauss-Legendre on floor(d/2) + 1 nodes integrates them
    exactly. The products are evaluated in log space at the nodes, never
    expanded into coefficients.
    """
    exponents = nu.weights * (1.0 - q) / q
    rounded = np.round(exponents)
    assert np.max(np.abs(exponents - rounded)) <= 1e-9 * max(
        1.0, float(np.max(exponents))), "exponents are not integers"
    finite = np.isfinite(lam.values)
    lam_bar = float(np.max(lam.values[finite]))
    e = np.exp(lam.values[finite] - lam_bar)
    degree = int(rounded[finite].sum())
    nodes, weights = np.polynomial.legendre.leggauss(degree // 2 + 1)
    t = 0.5 * (nodes + 1.0)
    u = np.outer(e, t)
    log1m = np.log1p(-u)
    log_terms = rounded[finite] @ log1m
    integral = 0.5 * float(weights @ np.exp(log_terms))
    numer = 0.5 * (u * np.exp(log_terms - log1m)) @ weights
    grad = np.zeros(len(lam.values))
    grad[finite] = rounded[finite] * numer / integral
    return math.log(q) + lam_bar - math.log(integral), grad


def tanh_sinh_log_mgf(gap: float, q: float):
    """Log-mgf and gradient of FLAGSHIP at the tilt (0, -gap), by tanh-sinh
    quadrature at 30 digits.

    In u = 1 - t the integrand is u^c l(u)^c with l(u) = u + (1 - u) delta,
    c = (1 - q) / (2 q) and delta = 1 - e^{-gap}; each integral is split at
    the boundary layer u = delta. The component at the maximum carries
    u^{c-1}, which v = u^c turns into a bounded integrand.
    """
    with mpmath.workdps(30):
        q_mp = mpmath.mpf(q)
        c = (1 - q_mp) / (2 * q_mp)
        delta = -mpmath.expm1(-mpmath.mpf(gap))

        def layer(u):
            return u + (1 - u) * delta

        integral = mpmath.quad(lambda u: u ** c * layer(u) ** c, [0, delta, 1])
        top = mpmath.quad(
            lambda v: (1 - v ** (1 / c)) * layer(v ** (1 / c)) ** c,
            [0, delta ** c, 1])
        low = c * mpmath.quad(
            lambda u: (1 - u) * (1 - delta) * u ** c * layer(u) ** (c - 1),
            [0, delta, 1])
        return (float(mpmath.log(q_mp) - mpmath.log(integral)),
                np.array([float(top / integral), float(low / integral)]))


def boundary_eval_loops(m: np.ndarray, lg1m: np.ndarray, c: np.ndarray,
                        c_top: float, tail: bool = False):
    """_boundary_eval with one weighted sum per gradient component and per
    Jacobian entry: the loops its array expressions replaced. With ``tail``
    each sum also gets its part past the rule's end x_end in closed form."""
    x, w = _boundary_nodes(m, lg1m, float(c.sum()) + c_top)
    n = len(m)
    lgf = np.logaddexp(m[:, None], lg1m[:, None] - x[None, :])
    big_l = -(1.0 + c_top) * x + c @ lgf
    lg_om = np.log(-np.expm1(-x))
    # past x_end every f_k has settled at delta_k: the tail integrates
    # e^{-(1 + c_top) x} prod delta^c; without ``tail`` its terms are 0
    x_end = (float(np.max(np.clip(lg1m - m, 0.0, None), initial=0.0))
             + _BOUNDARY_TAIL)
    log_tail = (float(np.dot(c, m)) - (1.0 + c_top) * x_end
                - math.log1p(c_top)) if tail else -math.inf

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


class TestLogMgf:
    def test_matches_closed_form_on_grid(self):
        for x in np.linspace(-2.0, 2.0, 11):
            for y in np.linspace(-2.0, 2.0, 11):
                lam = LogWeights((1, 2), (float(x), float(y)))
                got = reinforced_log_mgf(lam, FLAGSHIP, Q)
                assert got == pytest.approx(closed_log_mgf(x, y), abs=1e-9)

    def test_polynomial_path_agrees_with_quadrature(self):
        # the closed polynomial form exists exactly when every exponent
        # weight (1 - q) nu(k) / q is an integer; build such laws directly,
        # with exponent sums up to 100, so q reaches down to 1/101
        gen = RngStream(17).generator("rate-tests")
        for total in (*gen.integers(2, 101, size=9), 100):
            size = int(gen.integers(2, 4))
            cuts = np.sort(gen.choice(np.arange(1, int(total)),
                                      size=size - 1, replace=False))
            exps = np.diff(np.concatenate([[0], cuts, [total]]))
            q = 1.0 / (1.0 + int(exps.sum()))
            support = tuple(sorted(gen.choice(np.arange(1, 7), size=size,
                                              replace=False).tolist()))
            nu = OffspringLaw(support, exps / exps.sum())
            lam = LogWeights(support, tuple(gen.uniform(-2, 2, size)))
            value, grad = polynomial_log_mgf(lam, nu, q)
            assert value == pytest.approx(reinforced_log_mgf(lam, nu, q),
                                          abs=1e-10)
            got = reinforced_log_mgf_grad(lam, nu, q).weights
            assert np.max(np.abs(got - grad)) <= 1e-12

    @pytest.mark.parametrize("q", (1e-3, 0.01, 1.0 / 3.0, 0.7, 0.99, 0.999))
    def test_agrees_with_the_quadpack_oracle(self, q):
        # random tilts on 2-8 atoms, some with -inf entries and some with
        # entries exactly tied at the maximum
        gen = RngStream(25).generator("rate-tests")
        for case in range(12):
            size = int(gen.integers(2, 9))
            support = tuple(sorted(gen.choice(np.arange(0, 9), size=size,
                                              replace=False).tolist()))
            nu = edge_law(support, np.maximum(gen.dirichlet(np.ones(size)),
                                              1e-3))
            vals = gen.uniform(-2.0, 2.0, size)
            if case % 3 == 1:
                vals[gen.choice(size, size=int(gen.integers(1, size)),
                                replace=False)] = -np.inf
            elif case % 3 == 2:
                vals[gen.choice(size, size=2, replace=False)] = vals.max()
            lam = LogWeights(support, tuple(vals))
            value, grad = quadpack_log_mgf(lam, nu, q)
            got = reinforced_log_mgf(lam, nu, q)
            assert abs(got - value) <= 1e-12 * max(1.0, abs(value))
            got_grad = reinforced_log_mgf_grad(lam, nu, q).weights
            assert np.max(np.abs(got_grad - grad)) <= 1e-12

    def test_array_form_matches_the_loops(self):
        # a single coordinate below the maximum, as on the two-atom laws of
        # the golden files, takes the same sums in the same order; more
        # coordinates are summed in another order
        gen = RngStream(26).generator("rate-tests")
        for _ in range(200):
            n = int(gen.integers(0, 9))
            q = float(gen.uniform(1e-3, 0.999))
            c = gen.dirichlet(np.ones(n + 1))[:n] * (1.0 - q) / q
            c_top = float(gen.uniform(0.0, 1.0)) * (1.0 - q) / q
            m = -np.exp(gen.uniform(-30.0, 6.0, n))
            lg1m = np.log1p(-np.exp(m))
            ival, g, jacobian, _ = _boundary_eval(m, lg1m, c, c_top, q)
            jac = jacobian()
            ref_ival, ref_g, ref_jac = boundary_eval_loops(m, lg1m, c, c_top)
            assert ival == ref_ival
            if n <= 1:
                assert np.array_equal(g, ref_g) and np.array_equal(jac, ref_jac)
            else:
                assert np.max(np.abs(g - ref_g)) <= 1e-13 * np.max(ref_g)
                assert (np.max(np.abs(jac - ref_jac))
                        <= 1e-13 * np.max(np.abs(ref_jac)))
            assert np.array_equal(_boundary_eval(m, lg1m, c, c_top, q)[1], g)

    def test_tail_past_the_rule_is_below_resolution(self):
        # the closed-form part past x_end, which _boundary_eval leaves out,
        # changes no float of the integral, the gradient or the Jacobian,
        # from deep boundary layers (delta near 0 or 1) to exponents near
        # 1000 (q = 1e-3)
        gen = RngStream(27).generator("rate-tests")
        for case in range(200):
            n = int(gen.integers(0, 9))
            q = float(10.0 ** gen.uniform(-3.0, math.log10(0.999)))
            c = gen.dirichlet(np.ones(n + 1))[:n] * (1.0 - q) / q
            c_top = float(gen.uniform(0.0, 1.0)) * (1.0 - q) / q
            m = -np.exp(gen.uniform(-30.0, 6.0, n))
            lg1m = np.log1p(-np.exp(m))
            got = boundary_eval_loops(m, lg1m, c, c_top)
            full = boundary_eval_loops(m, lg1m, c, c_top, tail=True)
            assert got[0] == full[0]
            assert np.array_equal(got[1], full[1])
            assert np.array_equal(got[2], full[2])

    def test_gauge_shift_adds_constant(self):
        gen = RngStream(18).generator("rate-tests")
        for _ in range(20):
            nu = random_law(gen)
            vals = tuple(gen.uniform(-2, 2, len(nu.support)))
            lam = LogWeights(nu.support, vals)
            q = float(gen.uniform(0.05, 0.9))
            c = float(gen.uniform(-3, 3))
            shifted = LogWeights(nu.support, tuple(v + c for v in vals))
            assert reinforced_log_mgf(shifted, nu, q) == pytest.approx(
                reinforced_log_mgf(lam, nu, q) + c, abs=1e-10)

    def test_gradient_is_a_probability_vector(self):
        gen = RngStream(19).generator("rate-tests")
        for _ in range(10):
            nu = random_law(gen)
            lam = LogWeights(nu.support,
                             tuple(gen.uniform(-2, 2, len(nu.support))))
            q = float(gen.uniform(0.05, 0.9))
            grad = reinforced_log_mgf_grad(lam, nu, q)
            assert float(np.sum(grad.weights)) == pytest.approx(1.0, abs=1e-9)
            assert np.all(grad.weights >= 0.0)


class TestRate:
    def test_flagship_values(self):
        rho = ProbVector((1, 2), (0.2, 0.8))
        assert reinforced_rate(rho, FLAGSHIP, Q).value == pytest.approx(
            RATE_AT_CONCENTRATION, abs=1e-9)
        chain = ProbVector((1, 2), (1.0, 0.0))
        assert reinforced_rate(chain, FLAGSHIP, Q).value == pytest.approx(
            math.log(1.5), abs=1e-9)
        # the rate vanishes exactly at the base law
        assert reinforced_rate(FLAGSHIP, FLAGSHIP,
                               Q).value == pytest.approx(0.0, abs=1e-10)

    def test_matches_closed_form_curve(self):
        for p in np.arange(0.05, 0.96, 0.05):
            rho = ProbVector((1, 2), (float(p), float(1.0 - p)))
            got = reinforced_rate(rho, FLAGSHIP, Q).value
            assert got == pytest.approx(closed_rate(float(p)), abs=1e-7)

    def test_two_atom_exchangeability(self):
        for p in (0.1, 0.25, 0.4):
            lo = reinforced_rate(ProbVector((1, 2), (p, 1 - p)),
                                 FLAGSHIP, Q).value
            hi = reinforced_rate(ProbVector((1, 2), (1 - p, p)),
                                 FLAGSHIP, Q).value
            assert lo == pytest.approx(hi, abs=1e-8)

    def test_duality_round_trip(self):
        gen = RngStream(20).generator("rate-tests")
        for _ in range(10):
            nu = random_law(gen)
            rho = random_target(gen, nu)
            q = float(gen.uniform(0.05, 0.9))
            dual = reinforced_rate(rho, nu, q)
            back = reinforced_log_mgf_grad(dual.tilt, nu, q)
            assert np.max(np.abs(back.weights - rho.weights)) < 1e-7

    def test_young_fenchel_inequality(self):
        gen = RngStream(21).generator("rate-tests")
        for _ in range(20):
            nu = random_law(gen)
            rho = random_target(gen, nu)
            q = float(gen.uniform(0.05, 0.9))
            lam = LogWeights(nu.support,
                             tuple(gen.uniform(-2, 2, len(nu.support))))
            lhs = reinforced_rate(rho, nu, q).value + reinforced_log_mgf(
                lam, nu, q)
            assert lhs >= pair(rho, lam) - 1e-8

    def test_proven_upper_bounds(self):
        gen = RngStream(22).generator("rate-tests")
        for _ in range(20):
            nu = random_law(gen)
            rho = random_target(gen, nu)
            q = float(gen.uniform(0.05, 0.9))
            value = reinforced_rate(rho, nu, q).value
            assert value <= -math.log(q) + 1e-9
            blend = mix(q, rho, nu)
            assert value <= relative_entropy(*align(rho, blend)) + 1e-9

    def test_small_memory_approaches_memoryless(self):
        rho = ProbVector((1, 2), (0.3, 0.7))
        near = reinforced_rate(rho, FLAGSHIP, 1e-3).value
        assert abs(near - relative_entropy(rho, FLAGSHIP)) <= 0.05

    def test_agrees_with_direct_search(self):
        # maximize the pairing minus the log-moment functional over tilts
        # with the gauge fixed by a vanishing last coordinate
        from scipy.optimize import minimize

        gen = RngStream(23).generator("rate-tests")
        for q in (Q, 0.7):
            for _ in range(3):
                rho = random_target(gen, FLAGSHIP)

                def neg_dual(v, q=q, rho=rho):
                    lam = LogWeights((1, 2), (float(v[0]), 0.0))
                    return reinforced_log_mgf(lam, FLAGSHIP, q) - pair(rho,
                                                                       lam)

                best = min(minimize(neg_dual, [x0], method="Nelder-Mead",
                                    options={"xatol": 1e-10, "fatol": 1e-12})
                           .fun for x0 in (-1.0, 0.0, 1.0))
                assert reinforced_rate(rho, FLAGSHIP, q).value == (
                    pytest.approx(-best, abs=1e-6))


def solve_bit_cases():
    """Six seeded solves with two or three coordinates below the tilt
    maximum, 3- then 4-atom laws, each at q = 0.05, 0.5 and 0.95; then six
    hand-picked ones, 3- then 4-atom laws at q = 0.05, 1/3 and 0.9, among
    them a target with a zero entry (tilt -inf there), tied ratios rho/nu at
    the tilt maximum and below it (0, 1, 2, 6), and a tilt entry 1.5e-11
    below the maximum (0, 2, 3, 4)."""
    gen = RngStream(29).generator("rate-tests")
    for size in (3, 4):
        for q in (0.05, 0.5, 0.95):
            support = tuple(sorted(gen.choice(np.arange(0, 7), size=size,
                                              replace=False).tolist()))
            nu = np.maximum(gen.dirichlet(np.ones(size)), 1e-3)
            rho = np.maximum(gen.dirichlet(np.ones(size)), 1e-3)
            yield (ProbVector(support, rho / rho.sum()),
                   OffspringLaw(support, nu / nu.sum()), q)
    for support, nu, rho, q in [
            ((0, 2, 5), (0.3, 0.5, 0.2), (0.1, 0.3, 0.6), 0.05),
            ((1, 2, 4), (0.25, 0.5, 0.25), (0.0, 0.35, 0.65), 1.0 / 3.0),
            ((0, 1, 3), (0.2, 0.5, 0.3), (0.15, 0.25, 0.6), 0.9),
            ((0, 1, 2, 6), (0.1, 0.4, 0.3, 0.2), (0.05, 0.2, 0.45, 0.3), 0.05),
            ((1, 2, 3, 5), (0.4, 0.3, 0.2, 0.1), (0.2, 0.3, 0.3, 0.2),
             1.0 / 3.0),
            ((0, 2, 3, 4), (0.35, 0.25, 0.25, 0.15), (0.1, 0.2, 0.3, 0.4),
             0.9)]:
        yield ProbVector(support, rho), OffspringLaw(support, nu), q


def solve_bits(rho, nu, q) -> tuple:
    """float.hex of the solve's value, tilt and residual, its iterations and
    nodes, and float.hex of the log-mgf and its gradient at the tilt."""
    dual = reinforced_rate(rho, nu, q)
    grad = reinforced_log_mgf_grad(dual.tilt, nu, q)
    return (dual.value.hex(), tuple(float(t).hex() for t in dual.tilt.values),
            dual.residual.hex(), dual.iterations, dual.nodes,
            reinforced_log_mgf(dual.tilt, nu, q).hex(),
            tuple(float(g).hex() for g in grad.weights))


# solve_bits of the solve_bit_cases, recorded at commit 2b1a2b1 (the value,
# tilt, residual and iterations of the seeded six are those of 491acea, which
# built a Jacobian at every evaluation); from the root of the repository:
#   PYTHONPATH=src:tests python -c "from test_rate import *; [print(solve_bits(*case)) for case in solve_bit_cases()]"
SOLVE_BITS = [
    ("0x1.db2a157de9f90p-3",
     ("-0x1.0f43f2681e64fp-4", "-0x1.9c4cf748c86edp+0", "0x0.0p+0"),
     "0x1.b100000000000p-43", 8, 6680, "-0x1.020719b415c10p-1",
     ("0x1.1d9a10b260831p-1", "0x1.2ad5bf4882d2cp-3", "0x1.2f60fef6fd908p-2")),
    ("0x1.cf7401b4314f0p-5",
     ("0x0.0p+0", "-0x1.5148953e084b4p-1", "-0x1.becb6b2be442fp-6"),
     "0x1.77b8000000000p-43", 5, 1880, "-0x1.04f3332ff4e14p-3",
     ("0x1.96da55eb9b259p-1", "0x1.a72ed277192efp-4", "0x1.a1fe7e2c0da49p-4")),
    ("0x1.81c930aabd8b0p-8",
     ("0x0.0p+0", "-0x1.9b7e9e7f06290p+0", "-0x1.2b707d5ff1864p-73"),
     "0x1.0588000000000p-39", 5, 3040, "-0x1.eb12a1ee2a5f8p-8",
     ("0x1.13349e005557ap-1", "0x1.06015bab8a2a9p-10", "0x1.d890c2a3a9c69p-2")),
    ("0x1.5079c5cf21d74p-2",
     ("-0x1.064538092c12fp+1", "-0x1.02cd59c52174bp+1",
      "-0x1.6a338ea7665fbp-1", "0x0.0p+0"),
     "0x1.eb00000000000p-46", 6, 4480, "-0x1.0348d97877ad4p+0",
     ("0x1.c7614237d634ap-6", "0x1.39c6fcdfbccabp-3", "0x1.cb9a325a1ace1p-2",
      "0x1.7b0c3b1289694p-2")),
    ("0x1.904417eb7f190p-4",
     ("-0x1.9665dcd8f5306p-1", "-0x1.2b6b948a37609p+0",
      "-0x1.3db5a3253c8a9p-4", "0x0.0p+0"),
     "0x1.e9fbf00000000p-34", 4, 1400, "-0x1.c890da52a8e30p-3",
     ("0x1.59d2ab225de4bp-4", "0x1.29079cba7ff48p-6", "0x1.e85a4d29afb4bp-2",
      "0x1.aea08e4210d2dp-2")),
    ("0x1.df5338c1ab200p-14",
     ("0x0.0p+0", "-0x1.d9a01964b68dap-22", "-0x1.e9c102a7a0752p-7",
      "-0x1.cb92297ad6756p-70"),
     "0x1.f831e00000000p-33", 4, 2840, "-0x1.22421e63dcd00p-11",
     ("0x1.00bb94dfe734ap-1", "0x1.b57a1007d46e3p-3", "0x1.e181f62f77a86p-6",
      "0x1.05b3aed94fe52p-2")),
    ("0x1.630ccf8d52220p-2",
     ("-0x1.f1cb42a47bbbfp+0", "-0x1.61d7e48e168ffp+0", "0x0.0p+0"),
     "0x1.8510000000000p-42", 5, 3840, "-0x1.e963cb099c268p-1",
     ("0x1.9999999999aa9p-4", "0x1.3333333331ae1p-2", "0x1.3333333333f3ap-1")),
    ("0x1.ee1ef656fc2e4p-3", ("-inf", "-0x1.bc0b125993703p-2", "0x0.0p+0"),
     "0x1.f238000000000p-37", 4, 1760, "-0x1.9279c197a4e4cp-2",
     ("0x0.0p+0", "0x1.66666666281f6p-2", "0x1.4cccccccebf05p-1")),
    ("0x1.22197563e1000p-16",
     ("-0x1.287133ec97517p-18", "-0x1.6b294fc3b44b0p-11", "0x0.0p+0"),
     "0x1.7789200000000p-36", 4, 1760, "-0x1.90d0397b4c600p-13",
     ("0x1.33333332776eap-3", "0x1.00000000293f9p-2", "0x1.333333334d849p-1")),
    ("0x1.e4f5b7f95ccc0p-4",
     ("-0x1.fffa702155795p-1", "-0x1.fffa702156548p-1", "0x0.0p+0",
      "0x0.0p+0"),
     "0x1.7250000000000p-43", 5, 3840, "-0x1.793aa60f02478p-2",
     ("0x1.9999999998dfcp-5", "0x1.9999999998275p-3", "0x1.cccccccccd49ep-2",
      "0x1.3333333333869p-2")),
    ("0x1.7904e2aad4c30p-5",
     ("-0x1.12d907ff1ace3p-1", "-0x1.321b66b742571p-3",
      "-0x1.54947b1e28f96p-6", "0x0.0p+0"),
     "0x1.2ca3a00000000p-35", 6, 2960, "-0x1.a2bca27ee6794p-3",
     ("0x1.99999999b9c75p-3", "0x1.3333333359864p-2", "0x1.333333329ce16p-2",
      "0x1.9999999a59699p-3")),
    ("0x1.cc05bad83bd00p-12",
     ("-0x1.2b6b2f0232a24p-6", "-0x1.89a3df952e154p-19",
      "-0x1.028fc70514b4bp-36", "0x0.0p+0"),
     "0x1.d280000000000p-45", 5, 2800, "-0x1.291d5864dcd60p-9",
     ("0x1.9999999999ab1p-4", "0x1.9999999999bd0p-3", "0x1.3333333332f8ep-2",
      "0x1.9999999999bdep-2")),
]


class TestSolveRecord:
    def test_solves_below_two_or_more_coordinates_keep_their_bits(self):
        # the goldens pin two-atom laws only, where the array sums run in
        # the loops' order; these pin the solves the order could move
        assert [solve_bits(*case) for case in solve_bit_cases()] == SOLVE_BITS

    def test_a_solve_builds_one_jacobian_per_iteration(self, monkeypatch):
        # the last accepted point and rejected trial points build none
        built = []

        def spy(*args):
            ival, g, jacobian, nodes = _boundary_eval(*args)

            def counted():
                built.append(1)
                return jacobian()
            return ival, g, counted, nodes

        monkeypatch.setattr(rate, "_boundary_eval", spy)
        cases = [*solve_bit_cases(),
                 (ProbVector((1, 2), (0.2, 0.8)), FLAGSHIP, Q)]
        for case in cases:
            built.clear()
            dual = reinforced_rate(*case)
            assert dual.iterations > 0 and len(built) == dual.iterations

    def test_nodes_count_every_integrand_evaluation(self, monkeypatch):
        counts = []

        def spy(*args):
            x, w = _boundary_nodes(*args)
            counts.append(len(x))
            return x, w

        monkeypatch.setattr(rate, "_boundary_nodes", spy)
        for case in [*solve_bit_cases(),
                     (FLAGSHIP, FLAGSHIP, Q)]:
            counts.clear()
            dual = reinforced_rate(*case)
            assert counts and dual.nodes == sum(counts)

    def test_an_underflowing_integral_is_a_numeric_error(self):
        # at q = 1e-20 the exponents are 5e19 and the integral underflows
        # to 0; no 0/0 gradient, so no NaN residual passes as converged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as failed:
                reinforced_rate(ProbVector((1, 2), (0.2, 0.8)), FLAGSHIP,
                                1e-20)
        assert failed.value.diagnostics == {"q": 1e-20, "integral": 0.0}


def edge_law(support, weights) -> OffspringLaw:
    w = np.asarray(weights, dtype=float)
    return OffspringLaw(support, w / w.sum())


def many_atoms(k: int):
    gen = RngStream(24).child(k).generator("rate-tests")
    support = tuple(range(1, k + 1))
    return (edge_law(support, np.maximum(gen.dirichlet(np.ones(k)), 1e-3)),
            np.maximum(gen.dirichlet(np.ones(k)), 1e-3))


EDGE_MEMORIES = (1e-3, 0.01, 0.99, 0.999)
EDGE_CASES = {
    "atom0": (edge_law((0, 1, 3), (0.2, 0.5, 0.3)), (0.1, 0.3, 0.6)),
    "base_law": (edge_law((0, 1, 3), (0.2, 0.5, 0.3)), (0.2, 0.5, 0.3)),
    "single_atom": (edge_law((2,), (1.0,)), (1.0,)),
    "target_zero": (edge_law((1, 2, 4), (0.3, 0.3, 0.4)), (0.5, 0.0, 0.5)),
    **{f"atoms{k}": many_atoms(k) for k in range(2, 9)},
}
# the slowest edge solve takes about 25 ms on a 2-core host; the bound
# leaves room for a slow or busy host
EDGE_SOLVE_S = 0.5


class TestEdges:
    @pytest.mark.parametrize("q", EDGE_MEMORIES)
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_solve_is_bounded_and_certified(self, case, q):
        nu, weights = EDGE_CASES[case]
        w = np.asarray(weights, dtype=float)
        rho = ProbVector(nu.support, w / w.sum())
        start = time.perf_counter()
        dual = reinforced_rate(rho, nu, q)
        assert time.perf_counter() - start <= EDGE_SOLVE_S
        assert 0.0 <= dual.value <= -math.log(q)
        blend = mix(q, rho, nu)
        assert dual.value <= relative_entropy(*align(rho, blend)) + 1e-9
        assert dual.residual <= 1e-9
        # Fenchel-Young equality at the returned tilt, by the quadrature path
        assert dual.value == pytest.approx(
            pair(rho, dual.tilt) - reinforced_log_mgf(dual.tilt, nu, q),
            abs=1e-8)

    @pytest.mark.parametrize("q,gap", [
        *((0.9, 10.0 ** -e) for e in range(16, 10, -1)), (0.7, 1e-16),
        (0.7, 1e-17), (0.9, 1e-17), (0.99, 1e-16), (0.99, 1e-12)])
    def test_gradient_at_a_near_tied_tilt(self, q, gap):
        # a boundary layer of width gap at the endpoint, which the QUADPACK
        # oracle cannot resolve; at gap 1e-17, e^{-gap} rounds to 1
        lam = LogWeights((1, 2), (0.0, -gap))
        value, grad = tanh_sinh_log_mgf(gap, q)
        assert abs(reinforced_log_mgf(lam, FLAGSHIP, q) - value) <= 1e-12
        got = reinforced_log_mgf_grad(lam, FLAGSHIP, q).weights
        assert np.max(np.abs(got - grad)) <= 1e-12
        assert abs(float(np.sum(got)) - 1.0) <= 1e-15


class TestSanov:
    def test_equals_relative_entropy(self):
        # the memoryless rate is the relative entropy to the law itself
        rho = ProbVector((1, 2), (0.2, 0.8))
        assert relative_entropy(rho, FLAGSHIP) == pytest.approx(
            0.2 * math.log(0.2 / 0.5) + 0.8 * math.log(0.8 / 0.5), abs=1e-15)

    def test_mismatched_supports_are_rejected(self):
        from rgw import SupportMismatchError

        rho = ProbVector((1, 3), (0.5, 0.5))
        with pytest.raises(SupportMismatchError):
            relative_entropy(rho, FLAGSHIP)


class TestConcentrationTarget:
    def test_flagship(self):
        target = concentration_target(FLAGSHIP, Q)
        assert np.max(np.abs(target.weights - (0.2, 0.8))) < 1e-7

    def test_memoryless_is_size_biased(self):
        target = concentration_target(FLAGSHIP, 0.0)
        assert np.max(np.abs(target.weights - (1 / 3, 2 / 3))) < 1e-12


class TestGrowthAndHalfspace:
    def test_growth_exponent_flagship(self):
        assert growth_exponent(FLAGSHIP, Q) == pytest.approx(
            math.log(8.0 / 5.0), abs=1e-10)

    def test_halfspace_minimizer_sits_on_the_boundary(self):
        argmin, value = min_rate_over_halfspace(FLAGSHIP, Q, [0.0, 1.0], 0.9)
        assert np.max(np.abs(argmin.weights - (0.1, 0.9))) < 1e-6
        assert value == pytest.approx(closed_rate(0.1), abs=1e-6)

    def test_halfspace_containing_the_base_law_costs_nothing(self):
        _, value = min_rate_over_halfspace(FLAGSHIP, Q, [0.0, 1.0], 0.5)
        assert value == pytest.approx(0.0, abs=1e-9)


# A projected descent independent of the one-dimensional dual, with
# max_iter = 300 and tol = 1e-8: Dykstra projections onto the
# simplex-halfspace intersection and backtracking steps along the dual
# tilt. It is the oracle the dual must never lose to.

def _project_simplex(x: np.ndarray) -> np.ndarray:
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(x) + 1)
    cond = u - css / idx > 0
    rho_i = idx[cond][-1]
    theta = css[cond][-1] / rho_i
    return np.maximum(x - theta, 0.0)


def _project_feasible(x: np.ndarray, w: np.ndarray, c: float,
                      iters: int = 200) -> np.ndarray:
    """Dykstra projection onto {simplex} intersect {<x,w> >= c}."""
    p = np.zeros_like(x)
    qcorr = np.zeros_like(x)
    y = x.copy()
    for _ in range(iters):
        z = _project_simplex(y + p)
        p = y + p - z
        gap = c - float(np.dot(z + qcorr, w))
        if gap > 0.0:
            y = z + qcorr + gap * w / float(np.dot(w, w))
        else:
            y = z + qcorr
        qcorr = z + qcorr - y
        if abs(gap) < 1e-14 and float(np.abs(z - y).max()) < 1e-14:
            break
    out = np.maximum(y, 0.0)
    return out / out.sum()


def descent_min_rate_over_halfspace(nu, q, w, c, *, max_iter=300, tol=1e-8):
    w = np.asarray(w, dtype=float)
    floor = 1e-10
    x = _project_feasible(nu.weights.copy(), w, c)
    x = np.maximum(x, floor)
    x /= x.sum()
    dual = reinforced_rate(ProbVector(nu.support, x), nu, q)
    value = dual.value
    step = 1.0
    for _ in range(max_iter):
        grad = dual.tilt.values.copy()
        grad[~np.isfinite(grad)] = np.min(grad[np.isfinite(grad)]) - 10.0
        grad -= grad.mean()
        moved = False
        while step > 1e-12:
            cand = _project_feasible(x - step * grad, w, c)
            cand = np.maximum(cand, floor)
            cand /= cand.sum()
            if float(np.abs(cand - x).max()) < 1e-14:
                break
            cand_dual = reinforced_rate(ProbVector(nu.support, cand), nu, q)
            if cand_dual.value < value - 1e-14:
                x, dual, value = cand, cand_dual, cand_dual.value
                moved = True
                step *= 1.5
                break
            step *= 0.5
        if not moved:
            break
        if float(np.abs(grad).max()) * step < tol * 1e-2:
            break
    return ProbVector(nu.support, x), value


THREE_ATOMS = OffspringLaw((0, 1, 3), (0.2, 0.5, 0.3))

# (law, memory, w, c) with c strictly between <nu, w> and max w: the
# flagship, atom 0 forced up, and a functional of mixed signs; the last two
# have memory near 1, where the optimal tilt gaps are below float resolution
HALFSPACES = [
    (FLAGSHIP, Q, (0.0, 1.0), 0.8),
    (FLAGSHIP, Q, (0.0, 1.0), 0.9),
    (THREE_ATOMS, Q, (1.0, 0.0, 0.0), 0.6),
    (THREE_ATOMS, 0.1, (-1.0, 0.5, -0.25), 0.2),
    (FLAGSHIP, 0.9, (0.0, 1.0), 0.8),
    (THREE_ATOMS, 0.99, (-1.0, 0.5, -0.25), 0.2),
]


def scan_boundary(nu, q, w, c, free, count=41):
    """Least rate over count points of the segment <rho, w> = c, rho in
    the simplex of three atoms, parametrized by rho[free]."""
    w = np.asarray(w, dtype=float)
    others = [i for i in range(3) if i != free]
    best = math.inf
    for s in np.linspace(0.0, 1.0, count):
        # solve the two remaining weights from the sum and <rho, w> = c
        a = np.array([[1.0, 1.0], [w[others[0]], w[others[1]]]])
        rest = np.linalg.solve(a, [1.0 - s, c - s * w[free]])
        if (rest < 0.0).any():
            continue
        rho = np.empty(3)
        rho[free], rho[others] = s, rest
        best = min(best, reinforced_rate(ProbVector(nu.support, rho), nu,
                                         q).value)
    return best


class TestHalfspaceDual:
    @pytest.mark.parametrize("case", range(len(HALFSPACES)))
    def test_never_loses_to_the_projected_descent(self, case):
        nu, q, w, c = HALFSPACES[case]
        argmin, value = min_rate_over_halfspace(nu, q, w, c)
        ref_argmin, ref_value = descent_min_rate_over_halfspace(nu, q, w, c)
        assert float(np.dot(ref_argmin.weights, w)) >= c - 1e-9
        assert value <= ref_value + 1e-12
        # the argmin is feasible and the rate there is the dual value
        assert abs(float(np.dot(argmin.weights, w)) - c) <= 1e-14
        assert reinforced_rate(argmin, nu, q).value == pytest.approx(
            value, abs=1e-12)

    @pytest.mark.parametrize("case", (2, 3))
    def test_no_point_of_the_boundary_costs_less(self, case):
        nu, q, w, c = HALFSPACES[case]
        _, value = min_rate_over_halfspace(nu, q, w, c)
        assert scan_boundary(nu, q, w, c, free=1) >= value - 1e-12

    def test_tied_functional_where_the_descent_left_the_halfspace(self):
        # the projected descent leaves the halfspace here, at <rho, w> = 0.47
        # < 0.9 with a value 300 times too small; the dual stays on the
        # boundary
        w, c = (1.0, 0.0, 1.0), 0.9
        argmin, value = min_rate_over_halfspace(THREE_ATOMS, 0.7, w, c)
        assert abs(float(np.dot(argmin.weights, w)) - c) <= 1e-14
        assert reinforced_rate(argmin, THREE_ATOMS, 0.7).value == pytest.approx(
            value, abs=1e-12)
        assert scan_boundary(THREE_ATOMS, 0.7, w, c, free=0) >= value - 1e-12
        ref_argmin, ref_value = descent_min_rate_over_halfspace(
            THREE_ATOMS, 0.7, w, c)
        assert float(np.dot(ref_argmin.weights, w)) < c - 0.4
        assert ref_value < value / 100.0

    def test_nan_bound_is_rejected(self):
        # no comparison with NaN holds, so the bound is refused up front
        with pytest.raises(ContractViolationError):
            min_rate_over_halfspace(FLAGSHIP, Q, (0.0, 1.0), math.nan)

    @pytest.mark.parametrize("w", [(math.nan, 1.0), (0.0, math.inf),
                                   (-math.inf, 1.0), (0.0, 1.0, 2.0)],
                             ids=["nan", "inf", "minus_inf", "long"])
    def test_malformed_functional_is_rejected(self, w):
        with pytest.raises(ContractViolationError, match="halfspace functional"):
            min_rate_over_halfspace(FLAGSHIP, Q, w, 0.5)

    def test_boundary_at_max_w_is_the_law_restricted_to_the_argmax(self):
        argmin, value = min_rate_over_halfspace(FLAGSHIP, Q, (0.0, 1.0), 1.0)
        assert np.array_equal(argmin.weights, (0.0, 1.0))
        assert value == pytest.approx(math.log(1.5), abs=1e-12)

    def test_boundary_at_max_w_with_tied_entries(self):
        argmin, value = min_rate_over_halfspace(THREE_ATOMS, Q,
                                                (1.0, 0.0, 1.0), 1.0)
        assert np.max(np.abs(argmin.weights - (0.4, 0.0, 0.6))) <= 1e-12
        assert reinforced_rate(argmin, THREE_ATOMS, Q).value == pytest.approx(
            value, abs=1e-12)

    def test_boundary_at_max_w_on_atom_zero(self):
        argmin, value = min_rate_over_halfspace(THREE_ATOMS, Q,
                                                (1.0, 0.0, 0.0), 1.0)
        assert np.array_equal(argmin.weights, (1.0, 0.0, 0.0))
        assert reinforced_rate(argmin, THREE_ATOMS, Q).value == pytest.approx(
            value, abs=1e-12)
