"""Log-moment functional and its convex conjugate, against closed forms and
direct search."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from rgw import (ContractViolationError, NumericError, OffspringLaw,
                 ProbVector, RngStream, concentration_target, growth_exponent,
                 log_degree_weights, min_rate_over_halfspace, pair,
                 reinforced_log_mgf, reinforced_log_mgf_grad,
                 reinforced_log_mgf_polynomial, reinforced_rate,
                 relative_entropy, sanov_rate)
from rgw.measures import LogWeights, align, mix

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
            assert reinforced_log_mgf_polynomial(lam, nu, q) == pytest.approx(
                reinforced_log_mgf(lam, nu, q), abs=1e-10)

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

    def test_near_tied_tilt_counts_as_tied(self):
        # exp(-1e-17) rounds to 1, so this tilt is (0, 0) to the integrand
        near = LogWeights((1, 2), (0.0, -1e-17))
        tied = LogWeights((1, 2), (0.0, 0.0))
        for q in (0.7, 0.9):
            assert (reinforced_log_mgf(near, FLAGSHIP, q)
                    == reinforced_log_mgf(tied, FLAGSHIP, q))
            grad = reinforced_log_mgf_grad(near, FLAGSHIP, q)
            assert grad.weights.tolist() == pytest.approx([0.5, 0.5],
                                                          abs=1e-12)


class TestRate:
    def test_flagship_values(self):
        rho = ProbVector((1, 2), (0.2, 0.8))
        assert reinforced_rate(rho, FLAGSHIP, Q).value == pytest.approx(
            RATE_AT_CONCENTRATION, abs=1e-9)
        chain = ProbVector((1, 2), (1.0, 0.0))
        assert reinforced_rate(chain, FLAGSHIP, Q).value == pytest.approx(
            math.log(1.5), abs=1e-9)
        # the rate vanishes exactly at the base law
        assert reinforced_rate(FLAGSHIP.as_prob_vector(), FLAGSHIP,
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
            blend = mix(q, rho, nu.as_prob_vector())
            assert value <= relative_entropy(*align(rho, blend)) + 1e-9

    def test_small_memory_approaches_memoryless(self):
        rho = ProbVector((1, 2), (0.3, 0.7))
        near = reinforced_rate(rho, FLAGSHIP, 1e-3).value
        assert abs(near - sanov_rate(rho, FLAGSHIP)) <= 0.05

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
        blend = mix(q, rho, nu.as_prob_vector())
        assert dual.value <= relative_entropy(*align(rho, blend)) + 1e-9
        assert dual.residual <= 1e-9
        # Fenchel-Young equality at the returned tilt, by the quadrature path
        assert dual.value == pytest.approx(
            pair(rho, dual.tilt) - reinforced_log_mgf(dual.tilt, nu, q),
            abs=1e-8)

    @pytest.mark.xfail(raises=NumericError, strict=True,
                       reason="the gradient quadrature cannot resolve a tilt "
                              "whose entries differ by 1e-16 to 1e-11: the "
                              "endpoint panel does not converge, or the "
                              "components do not sum to 1")
    @pytest.mark.parametrize("q,gap", [
        *((0.9, 10.0 ** -e) for e in range(16, 10, -1)), (0.7, 1e-16)])
    def test_gradient_at_a_near_tied_tilt(self, q, gap):
        lam = LogWeights((1, 2), (0.0, -gap))
        grad = reinforced_log_mgf_grad(lam, FLAGSHIP, q)
        assert float(np.sum(grad.weights)) == pytest.approx(1.0, abs=1e-9)


class TestSanov:
    def test_equals_relative_entropy(self):
        rho = ProbVector((1, 2), (0.2, 0.8))
        assert sanov_rate(rho, FLAGSHIP) == pytest.approx(
            relative_entropy(rho, FLAGSHIP.as_prob_vector()), abs=1e-15)

    def test_mismatched_supports_are_rejected(self):
        from rgw import SupportMismatchError

        rho = ProbVector((1, 3), (0.5, 0.5))
        with pytest.raises(SupportMismatchError):
            sanov_rate(rho, FLAGSHIP)


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
    nu_vec = nu.as_prob_vector()
    floor = 1e-10
    x = _project_feasible(nu_vec.weights.copy(), w, c)
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
