"""Activity vectors, the principal-branch product-log solver and survival
certificates."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from rgw import (ContractViolationError, NumericError, OffspringLaw,
                 ProbVector, RngStream, activity_from_law, lambert_w0,
                 law_from_activity, log_degree_weights, mixed_entropy, pair,
                 proportional_baseline, replacement_matrix,
                 simulate_spine_urn, solve_survival_minimizer,
                 stationarity_ratios, survival_functional,
                 validate_activities)

FLAGSHIP = OffspringLaw((1, 2), (0.5, 0.5))
Q = 1.0 / 3.0
BRANCH_POINT = -math.exp(-1.0)


class TestLambertW:
    def test_anchor_values(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(BRANCH_POINT) == -1.0
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097837,
                                                abs=1e-15)
        assert lambert_w0(1e6) == pytest.approx(11.383358086140053,
                                                abs=1e-12)

    def test_residual_policy_across_the_domain(self):
        xs = np.concatenate([np.linspace(BRANCH_POINT + 1e-12, -1e-12, 400),
                             np.geomspace(1e-12, 1e6, 600)])
        for x in xs:
            y = lambert_w0(float(x))
            assert abs(y * math.exp(y) - x) / max(1.0, abs(x)) < 1e-14

    def test_infinity_maps_to_infinity(self):
        # the Halley start log x - log log x would be inf - inf there
        assert lambert_w0(math.inf) == math.inf

    def test_below_the_branch_point_is_rejected(self):
        with pytest.raises(ContractViolationError):
            lambert_w0(BRANCH_POINT - 1e-9)
        with pytest.raises(ContractViolationError):
            lambert_w0(float("nan"))

    def test_matches_reference_implementation(self):
        from scipy.special import lambertw

        for x in np.geomspace(1e-8, 1e5, 50):
            assert lambert_w0(float(x)) == pytest.approx(
                float(lambertw(float(x)).real), rel=1e-12)

    @given(st.floats(BRANCH_POINT + 1e-10, 1e5))
    @settings(max_examples=100, deadline=None)
    def test_inverse_property(self, x):
        y = lambert_w0(x)
        assert abs(y * math.exp(y) - x) / max(1.0, abs(x)) < 1e-13


class TestFunctional:
    def test_identity_activity_flagship(self):
        got = survival_functional(np.ones(2), FLAGSHIP, Q)
        assert got == pytest.approx(-0.34657359027997264, abs=1e-15)

    def test_activity_box_is_enforced(self):
        with pytest.raises(ContractViolationError):
            survival_functional([1.0, 3.5], FLAGSHIP, Q)
        with pytest.raises(ContractViolationError):
            survival_functional([-0.1, 1.0], FLAGSHIP, Q)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_functional_is_mixed_entropy_minus_gain(self, seed):
        # verify's convexity certificate rests on this identity
        gen = np.random.default_rng(seed)
        nu, q = _random_instance(gen)
        positive = np.asarray(nu.support) > 0
        pi = np.zeros(len(nu.support))
        pi[positive] = gen.dirichlet(np.ones(positive.sum()))
        # the admissible activities whose stationary law is pi
        a = pi / (q * pi + (1.0 - q) * nu.weights)
        law = law_from_activity(a, nu, q)
        expected = mixed_entropy(law, nu, q) - pair(
            law, log_degree_weights(nu.support))
        assert abs(survival_functional(a, nu, q) - expected) <= 1e-12

    def test_stationarity_ratios_constant_at_the_reported_minimizer(self):
        report = solve_survival_minimizer(FLAGSHIP, Q)
        _, ratios = stationarity_ratios(report.activities, FLAGSHIP, Q)
        assert np.max(ratios) - np.min(ratios) < 1e-6


# laws, one with an atom at 0, each with a target on its positive atoms
RULE_CASES = {
    "flagship": (FLAGSHIP, (0.2, 0.8)),
    "three-atom": (OffspringLaw((1, 2, 3), (0.3, 0.4, 0.3)), (0.5, 0.2, 0.3)),
    "atom-0": (OffspringLaw((0, 1, 2, 5), (0.1, 0.3, 0.4, 0.2)),
               (0.0, 0.2, 0.3, 0.5)),
}

# every public entry point that takes an activity vector
ACTIVITY_ENTRIES = {
    "validate_activities": validate_activities,
    "law_from_activity": law_from_activity,
    "replacement_matrix": lambda a, nu, q: replacement_matrix(nu, q, a),
    "simulate_spine_urn":
        lambda a, nu, q: simulate_spine_urn(nu, q, a, 10, RngStream(0)),
}


class TestAdmissibilityRule:
    """One rule for every entry point: activities a are admissible when
    their stationary law (1-q) a nu / (1 - q a) sums to 1 within 1e-12."""

    @pytest.mark.parametrize("q", (0.05, 1.0 / 3.0, 0.9, 0.99))
    @pytest.mark.parametrize("case", RULE_CASES)
    def test_every_entry_point_accepts_exactly_the_same_vectors(self, case,
                                                                q):
        nu, rho = RULE_CASES[case]
        base = activity_from_law(ProbVector(nu.support, rho), nu, q)
        verdicts = set()
        for delta in 10.0 ** np.arange(-15, -6):
            for nudge in (delta, -delta):
                a = base.copy()
                a[-1] += nudge
                total = np.sum((1.0 - q) * a * nu.weights / (1.0 - q * a))
                admissible = abs(total - 1.0) <= 1e-12
                verdicts.add(admissible)
                for entry in ACTIVITY_ENTRIES.values():
                    if admissible:
                        entry(a, nu, q)
                    else:
                        with pytest.raises(ContractViolationError,
                                           match="not admissible"):
                            entry(a, nu, q)
        # the nudges straddle the rule
        assert verdicts == {True, False}

    @pytest.mark.parametrize("q", [
        0.999,
        pytest.param(0.9999, marks=pytest.mark.xfail(
            strict=True, raises=NumericError,
            reason="ROADMAP item 5: the stationary law of the float "
                   "activities misses 1 by 1.6e-12; gap coordinates would "
                   "hold it"))])
    def test_four_atom_law_round_trips_at_high_memory(self, q):
        nu, rho = RULE_CASES["atom-0"]
        rho = ProbVector(nu.support, rho)
        back = law_from_activity(activity_from_law(rho, nu, q), nu, q)
        assert np.max(np.abs(back.weights - rho.weights)) < 1e-12


class TestSolver:
    def test_flagship_certificate(self):
        report = solve_survival_minimizer(FLAGSHIP, Q)
        assert report.lagrange_constant == pytest.approx(
            0.14234199636624545, abs=1e-10)
        assert report.minimum_value == pytest.approx(-0.46301429866858113,
                                                     abs=1e-10)
        assert report.baseline_value == pytest.approx(-0.45574639440832626,
                                                      abs=1e-10)
        assert report.minimum_value <= report.baseline_value + 1e-9
        assert abs(report.constraint_residual) < 1e-10
        assert report.survives_certified
        assert report.trivial_survival

    def test_doubling_law_closed_forms(self):
        nu = OffspringLaw((2,), (1.0,))
        for q in (0.25, 0.5, 0.75):
            report = solve_survival_minimizer(nu, q)
            assert report.lagrange_constant == pytest.approx(
                q * math.exp(-q) / 2.0, abs=1e-12)
            assert np.allclose(report.activities, 1.0, atol=1e-12)
            assert report.minimum_value == pytest.approx(-math.log(2.0),
                                                         abs=1e-12)
            c, value = proportional_baseline(nu, q)
            assert c == pytest.approx(0.5, abs=1e-12)
            assert value == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_pure_chain_is_not_certified(self):
        report = solve_survival_minimizer(OffspringLaw((1,), (1.0,)), 0.4)
        assert report.minimum_value == pytest.approx(0.0, abs=1e-9)
        assert not report.survives_certified

    def test_heavy_extinction_mass_is_not_certified(self):
        report = solve_survival_minimizer(OffspringLaw((0, 1), (0.5, 0.5)),
                                          0.5)
        assert report.minimum_value > 0.0
        assert not report.survives_certified
        assert not report.trivial_survival

    def test_single_productive_atom_matches_the_baseline(self):
        report = solve_survival_minimizer(OffspringLaw((0, 2), (0.5, 0.5)),
                                          0.6)
        assert report.minimum_value == pytest.approx(report.baseline_value,
                                                     abs=1e-10)
        assert report.minimum_value == pytest.approx(-0.47000362924573597,
                                                     abs=1e-10)

    def test_memory_next_to_one_raises_without_warnings(self):
        # an activity rounds onto the wall 1/q, where the admissibility sum
        # divides by zero; the solve refuses it as a typed error alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="admissibility"):
                solve_survival_minimizer(FLAGSHIP, 1.0 - 1e-9)

    def test_identity_activity_caps_the_minimum(self):
        gen = RngStream(40).generator("survival-tests")
        for _ in range(10):
            nu, q = _random_instance(gen)
            report = solve_survival_minimizer(nu, q)
            cap = survival_functional(np.ones(len(nu.support)), nu, q)
            assert report.minimum_value <= cap + 1e-9


def _random_instance(gen: np.random.Generator) -> tuple[OffspringLaw, float]:
    size = int(gen.integers(2, 5))
    support = tuple(sorted(gen.choice(np.arange(0, 7), size=size,
                                      replace=False).tolist()))
    if all(k == 0 for k in support):
        support = (0, 2)
    w = np.maximum(gen.dirichlet(np.ones(len(support))), 1e-3)
    return OffspringLaw(support, w / w.sum()), float(gen.uniform(0.1, 0.8))


def _constrained_search_minimum(nu: OffspringLaw, q: float,
                                gen: np.random.Generator) -> float:
    """Independent check: eliminate one activity through the admissibility
    identity and minimize the functional over the rest with a quasi-Newton
    box search."""
    pos = [i for i, k in enumerate(nu.support) if k != 0]
    target = 1.0 / (1.0 - q)
    last = pos[-1]
    free = pos[:-1]
    hi = 1.0 / q - 1e-9

    def assemble(v: np.ndarray) -> np.ndarray | None:
        a = np.zeros(len(nu.support))
        for j, fi in enumerate(free):
            a[fi] = v[j]
        rest = target - sum(nu.weights[i] / (1.0 - q * a[i])
                            for i in range(len(nu.support)) if i != last)
        if rest <= nu.weights[last]:
            return None
        a[last] = (1.0 - nu.weights[last] / rest) / q
        if not 0.0 <= a[last] < 1.0 / q:
            return None
        return a

    def objective(v: np.ndarray) -> float:
        a = assemble(np.clip(v, 0.0, hi))
        if a is None:
            return 10.0
        return survival_functional(a, nu, q)

    best = math.inf
    if not free:
        a = assemble(np.zeros(0))
        return survival_functional(a, nu, q) if a is not None else math.inf
    for _ in range(8):
        v0 = gen.uniform(0.2, min(hi, 2.0), size=len(free))
        res = minimize(objective, v0, method="L-BFGS-B",
                       bounds=[(0.0, hi)] * len(free))
        best = min(best, float(res.fun))
    return best


class TestIndependentSearch:
    def test_solver_matches_box_search(self):
        gen = RngStream(41).generator("survival-oracle")
        cases = [(FLAGSHIP, Q), (OffspringLaw((0, 2), (0.5, 0.5)), 0.6)]
        while len(cases) < 6:
            cases.append(_random_instance(gen))
        for nu, q in cases:
            report = solve_survival_minimizer(nu, q)
            reference = _constrained_search_minimum(nu, q, gen)
            assert report.minimum_value <= reference + 1e-9
            assert report.minimum_value >= reference - 1e-6

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_solver_invariants_hold_on_random_instances(self, seed):
        gen = np.random.default_rng(seed)
        nu, q = _random_instance(gen)
        report = solve_survival_minimizer(nu, q)
        assert abs(report.constraint_residual) < 1e-10
        assert report.minimum_value <= report.baseline_value + 1e-9
        assert report.trivial_survival == (nu.prob(0) == 0.0)
