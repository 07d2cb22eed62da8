"""Verdicts, margins, activity maps, and the two-type certificate."""

from __future__ import annotations

import math
from itertools import product as _cartesian

import numpy as np
import pytest
from scipy.optimize import brentq

from rgw import (ContractViolationError, DECISION_TOL, OffspringLaw,
                 ProbVector, RngStream, VerdictKind, activity_from_law,
                 activity_constraint_residual, classify_memoryless,
                 classify_reinforced, law_from_activity, linf_distance,
                 min_memory_for_persistence, mixed_entropy, pair,
                 log_degree_weights, reinforced_rate, relative_entropy,
                 search_two_type_decomposition, simulate_reinforced_urn,
                 survival_functional, two_type_weak_persistence)
from rgw.measures import align

from helpers import mix

FLAGSHIP = OffspringLaw((1, 2), (0.5, 0.5))
Q = 1.0 / 3.0


def entropy_against_blend(rho: ProbVector, nu: OffspringLaw,
                          q: float) -> float:
    blend = mix(q, rho, nu)
    return relative_entropy(*align(rho, blend))


class TestMemorylessVerdicts:
    def test_mass_at_zero_is_evanescent(self):
        nu = OffspringLaw((0, 2), (0.25, 0.75))
        rho = ProbVector((0, 2), (0.1, 0.9))
        verdict = classify_memoryless(rho, nu)
        assert verdict.kind is VerdictKind.EVANESCENT

    def test_size_biased_target_is_persistent(self):
        rho = ProbVector((1, 2), (1 / 3, 2 / 3))
        verdict = classify_memoryless(rho, FLAGSHIP)
        assert verdict.kind is VerdictKind.STRONGLY_PERSISTENT
        assert verdict.margin_persistence == pytest.approx(
            2 / 3 * math.log(2.0) - 0.05663301226513255, abs=1e-12)

    def test_pure_chain_target_is_evanescent(self):
        rho = ProbVector((1, 2), (1.0, 0.0))
        verdict = classify_memoryless(rho, FLAGSHIP)
        assert verdict.kind is VerdictKind.EVANESCENT
        assert verdict.margin_evanescence == pytest.approx(math.log(2.0),
                                                           abs=1e-12)


class TestReinforcedVerdicts:
    def test_concentration_target_is_persistent(self):
        rho = ProbVector((1, 2), (0.2, 0.8))
        verdict = classify_reinforced(rho, FLAGSHIP, Q)
        assert verdict.kind is VerdictKind.STRONGLY_PERSISTENT
        assert verdict.margin_evanescence == pytest.approx(
            -math.log(8.0 / 5.0), abs=1e-9)
        assert verdict.margin_persistence == pytest.approx(
            0.46300152259852057, abs=1e-9)
        assert not verdict.subcritical

    def test_zero_atom_off_the_law_changes_nothing(self):
        listed = classify_reinforced(ProbVector((1, 2, 3), (0.2, 0.8, 0.0)),
                                     FLAGSHIP, Q)
        assert listed == classify_reinforced(ProbVector((1, 2), (0.2, 0.8)),
                                             FLAGSHIP, Q)

    def test_pure_chain_target_is_evanescent(self):
        rho = ProbVector((1, 2), (1.0, 0.0))
        verdict = classify_reinforced(rho, FLAGSHIP, Q)
        assert verdict.kind is VerdictKind.EVANESCENT
        assert verdict.margin_evanescence == pytest.approx(math.log(1.5),
                                                           abs=1e-9)

    def test_subcritical_blend_blocks_strong_persistence(self):
        nu = OffspringLaw((0, 2), (0.6, 0.4))
        rho = ProbVector((1,), (1.0,))
        verdict = classify_reinforced(rho, nu, 0.5)
        # blended mean 0.5 * 1 + 0.5 * 0.8 = 0.9 < 1
        assert verdict.subcritical
        assert verdict.kind is VerdictKind.NOT_STRONGLY_PERSISTENT

    def test_mass_at_zero_beats_the_subcritical_branch(self):
        nu = OffspringLaw((0, 1), (0.9, 0.1))
        rho = ProbVector((0, 1), (0.5, 0.5))
        verdict = classify_reinforced(rho, nu, 0.5)
        assert verdict.kind is VerdictKind.EVANESCENT

    def test_persistence_margin_grows_with_memory(self):
        rho = ProbVector((1, 2), (0.3, 0.7))
        margins = [classify_reinforced(rho, FLAGSHIP, q).margin_persistence
                   for q in (0.1, 0.3, 0.5, 0.7)]
        assert all(b > a for a, b in zip(margins, margins[1:]))

    def test_subcritical_targets_never_show_positive_margin(self):
        gen = RngStream(30).generator("classify-tests")
        checked = 0
        while checked < 25:
            m_rho = float(gen.uniform(0.3, 1.6))
            nu = OffspringLaw((0, 2), (0.6, 0.4))
            q = float(gen.uniform(0.1, 0.9))
            p2 = m_rho / 2.0
            rho = ProbVector((1, 2), (1.0 - p2, p2))
            verdict = classify_reinforced(rho, nu, q)
            if verdict.subcritical:
                checked += 1
                assert verdict.margin_persistence <= 1e-10

    def test_rate_never_exceeds_the_entropy_bound(self):
        gen = RngStream(31).generator("classify-tests")
        for _ in range(50):
            size = int(gen.integers(2, 5))
            support = tuple(sorted(gen.choice(np.arange(1, 7), size=size,
                                              replace=False).tolist()))
            w = np.maximum(gen.dirichlet(np.ones(size)), 1e-3)
            nu = OffspringLaw(support, w / w.sum())
            w2 = np.maximum(gen.dirichlet(np.ones(size)), 1e-3)
            rho = ProbVector(support, w2 / w2.sum())
            q = float(gen.uniform(0.05, 0.9))
            assert reinforced_rate(rho, nu, q).value <= (
                entropy_against_blend(rho, nu, q) + 1e-8)

    def test_persistent_verdicts_are_seen_in_simulation(self):
        rho = ProbVector((1, 2), (0.2, 0.8))
        assert classify_reinforced(rho, FLAGSHIP,
                                   Q).kind is VerdictKind.STRONGLY_PERSISTENT
        hits = 0
        for i in range(10000):
            draws, _ = simulate_reinforced_urn(FLAGSHIP, Q, 50,
                                               RngStream(32, i))
            freq2 = float(np.mean(draws == 2))
            if max(abs(freq2 - 0.8), abs(1.0 - freq2 - 0.2)) <= 0.1:
                hits += 1
        assert hits >= 1


class TestMinMemory:
    def test_base_law_needs_no_memory(self):
        assert min_memory_for_persistence(FLAGSHIP,
                                          FLAGSHIP) == 0.0

    def test_rich_target_needs_no_memory(self):
        assert min_memory_for_persistence(ProbVector((2,), (1.0,)),
                                          FLAGSHIP) == 0.0

    def test_seventy_percent_ratio_bounds_the_memory_by_thirty_percent(self):
        # tune the base law so the log-degree gain is 0.7 of the entropy, so
        # that the convexity bound 1 - gain/entropy reads 0.3
        rho = ProbVector((1, 2), (0.5, 0.5))
        gain = pair(rho, log_degree_weights((1, 2)))

        def ratio_defect(t: float) -> float:
            nu_t = ProbVector((1, 2), (t, 1.0 - t))
            return gain / relative_entropy(rho, nu_t) - 0.7

        t = brentq(ratio_defect, 1e-4, 0.45, xtol=1e-14)
        nu = OffspringLaw((1, 2), (t, 1.0 - t))
        threshold = min_memory_for_persistence(rho, nu)
        # the least memory is the root where the mixed entropy falls to the
        # gain, below the bound
        assert 0.0 < threshold < 0.3
        assert mixed_entropy(rho, nu, threshold) == pytest.approx(gain,
                                                                  abs=1e-12)
        assert classify_reinforced(
            rho, nu, threshold + 1e-3).kind is VerdictKind.STRONGLY_PERSISTENT
        assert classify_reinforced(
            rho, nu, threshold - 1e-3).kind is VerdictKind.INDETERMINATE

    def test_off_support_target_returns_none(self):
        rho = ProbVector((1, 3), (0.5, 0.5))
        assert min_memory_for_persistence(rho, FLAGSHIP) is None

    def test_gainless_target_is_rejected(self):
        rho = ProbVector((1,), (1.0,))
        with pytest.raises(ContractViolationError):
            min_memory_for_persistence(rho, OffspringLaw((1, 2), (0.9, 0.1)))


class TestActivityMaps:
    def test_base_law_maps_to_identity(self):
        a = activity_from_law(FLAGSHIP, FLAGSHIP, Q)
        assert np.allclose(a, 1.0, atol=1e-12)

    def test_concentration_target_activities(self):
        a = activity_from_law(ProbVector((1, 2), (0.2, 0.8)), FLAGSHIP, Q)
        assert np.allclose(a, (0.5, 4.0 / 3.0), atol=1e-12)
        assert abs(activity_constraint_residual(a, FLAGSHIP, Q)) < 1e-12

    def test_round_trip_and_criterion_identity(self):
        for p in (0.2, 0.35, 0.5, 0.65, 0.8):
            rho = ProbVector((1, 2), (p, 1.0 - p))
            a = activity_from_law(rho, FLAGSHIP, Q)
            back = law_from_activity(a, FLAGSHIP, Q)
            criterion = survival_functional(a, FLAGSHIP, Q)
            assert linf_distance(back, rho) < 1e-12
            expected = (entropy_against_blend(rho, FLAGSHIP, Q)
                        - pair(rho, log_degree_weights((1, 2))))
            assert criterion == pytest.approx(expected, abs=1e-12)

    def test_concentration_target_criterion_value(self):
        a = activity_from_law(ProbVector((1, 2), (0.2, 0.8)), FLAGSHIP, Q)
        criterion = survival_functional(a, FLAGSHIP, Q)
        assert criterion == pytest.approx(-0.4630015225985207, abs=1e-12)
        assert criterion < 0.0


class TestTwoType:
    def test_known_decomposition_margins(self):
        mu = ProbVector((2, 3), (1 / 3, 2 / 3))
        mu_prime = ProbVector((1,), (1.0,))
        rho = ProbVector((1, 2, 3), (0.5, 1 / 6, 1 / 3))
        cert = two_type_weak_persistence(rho, FLAGSHIP,
                                         OffspringLaw((1,), (1.0,)), 0.5, mu,
                                         mu_prime)
        assert cert.certified
        assert not cert.strong
        assert cert.margin_growth == pytest.approx(0.4054651081081644,
                                                   abs=1e-12)
        assert cert.margin_average == pytest.approx(0.2027325540540822,
                                                    abs=1e-12)

    def test_full_weight_recovers_the_strong_branch(self):
        mu = ProbVector((2, 3), (1 / 3, 2 / 3))
        cert = two_type_weak_persistence(ProbVector((2, 3), (1 / 3, 2 / 3)),
                                         FLAGSHIP, OffspringLaw((1,), (1.0,)),
                                         1.0, mu, None)
        assert cert.strong
        assert cert.certified

    def test_degenerate_base_law_has_no_margin(self):
        delta1 = OffspringLaw((1,), (1.0,))
        mu = ProbVector((2,), (1.0,))
        cert = two_type_weak_persistence(ProbVector((2,), (1.0,)), delta1,
                                         delta1, 1.0, mu, None)
        assert not cert.certified

    def test_search_recovers_the_known_certificate(self):
        rho = ProbVector((1, 2, 3), (0.5, 1 / 6, 1 / 3))
        cert, s, mu, mu_prime = search_two_type_decomposition(
            rho, FLAGSHIP, OffspringLaw((1,), (1.0,)))
        assert cert.certified
        assert s == pytest.approx(0.5, abs=1e-12)
        assert linf_distance(mu, ProbVector((2, 3), (1 / 3, 2 / 3))) < 1e-9
        assert tuple(mu_prime.support) == (1,)

    def test_search_reaches_the_strong_branch(self):
        rho = ProbVector((2, 3), (1 / 3, 2 / 3))
        cert, s, mu, mu_prime = search_two_type_decomposition(
            rho, FLAGSHIP, OffspringLaw((1,), (1.0,)))
        assert cert.certified and cert.strong
        assert s == 1.0
        assert mu_prime is None
        assert linf_distance(mu, rho) < 1e-15

    def test_search_refuses_an_atom_on_neither_type(self):
        # atom 4 is neither a shifted degree of the flagship nor in delta_1
        rho = ProbVector((1, 4), (0.5, 0.5))
        assert search_two_type_decomposition(
            rho, FLAGSHIP, OffspringLaw((1,), (1.0,))) is None

    def test_infinite_log_weights_force_their_atoms(self):
        nu = OffspringLaw((0, 1, 2), (0.2, 0.3, 0.5))
        delta1 = OffspringLaw((1,), (1.0,))
        # atom 1 would shift to degree 0 on type 1, so it goes to type 2
        rho = ProbVector((1, 2, 3), (0.2, 0.3, 0.5))
        _, s, mu, mu_prime = search_two_type_decomposition(rho, nu, delta1)
        assert s == pytest.approx(0.8, abs=1e-15)
        assert mu.support == (2, 3) and mu_prime.support == (1,)
        # unless type 1 would be left empty: then it takes atom 1 and fails
        cert, s, _, mu_prime = search_two_type_decomposition(
            ProbVector((1,), (1.0,)), nu, delta1)
        assert cert.margin_growth == -math.inf and not cert.certified
        assert s == 1.0 and mu_prime is None
        # atom 0 on type 2 fails every split, so no solve is needed
        cert, *_ = search_two_type_decomposition(
            ProbVector((0, 2, 3), (0.1, 0.4, 0.5)), FLAGSHIP,
            OffspringLaw((0, 2), (0.5, 0.5)))
        assert cert.margin_average == -math.inf and not cert.certified

    def test_four_shared_atoms_are_certified(self):
        # every atom is shared: the former grid refused this target, since
        # 20 * 21**3 split points exceeded its guard
        nu = OffspringLaw((0, 1, 2, 3), (0.1, 0.2, 0.3, 0.4))
        nu_prime = OffspringLaw((1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1))
        rho = ProbVector((1, 2, 3, 4), (0.1, 0.2, 0.3, 0.4))
        cert, s, mu, mu_prime = search_two_type_decomposition(rho, nu,
                                                              nu_prime)
        assert cert.certified
        assert 0.0 < s < 1.0
        assert two_type_weak_persistence(rho, nu, nu_prime, s, mu,
                                         mu_prime) == cert


def grid_two_type_decomposition(rho: ProbVector, nu: OffspringLaw,
                                nu_prime: OffspringLaw, *, mesh: int):
    """The mesh grid that the search replaced, kept as its oracle.

    Atoms belonging to one type only force their component masses, pinning
    the feasible split weights s to an interval; s is scanned on a mesh of
    that interval. Shared atoms are split by scanning fractions of all but
    the last, whose share is forced so that the components sum to one
    exactly. Returns (score, certificate, s, mu, mu_prime) for the best
    valid grid point, ranked by the search's score min(s * margin_growth,
    margin_average); None when no grid point yields a valid decomposition.
    """
    shifted = tuple(sorted(k + 1 for k in nu.support))
    sup2 = nu_prime.support
    atoms = [(k, rho.prob(k)) for k in rho.support if rho.prob(k) > 0.0]
    for k, _ in atoms:
        if k not in shifted and k not in sup2:
            return None

    only1 = sum(w for k, w in atoms if k in shifted and k not in sup2)
    only2 = sum(w for k, w in atoms if k in sup2 and k not in shifted)
    shared = [(k, w) for k, w in atoms if k in shifted and k in sup2]
    shared_mass = sum(w for _, w in shared)
    free = max(len(shared) - 1, 0)

    # s must place mass only1..only1+shared on type 1
    candidates: list[float] = []
    lo, hi = only1, only1 + shared_mass
    for i in range(mesh + 1):
        s = lo + (hi - lo) * i / mesh
        if 0.0 < s <= 1.0 and (s < 1.0 or only2 == 0.0):
            if s not in candidates:
                candidates.append(s)

    fracs = np.linspace(0.0, 1.0, mesh + 1)
    best = None
    for s in candidates:
        need = s - only1
        for split in _cartesian(*([fracs] * free)):
            taken = [float(f) * shared[i][1] for i, f in enumerate(split)]
            if shared:
                last = need - sum(taken)
                if not (-1e-12 <= last <= shared[-1][1] + 1e-12):
                    continue
                taken.append(min(max(last, 0.0), shared[-1][1]))
            elif abs(need) > 1e-12:
                continue
            mass1 = {k: w for k, w in atoms if k in shifted and k not in sup2}
            mass2 = {k: w for k, w in atoms if k in sup2 and k not in shifted}
            for (k, w), t in zip(shared, taken):
                if t > 0.0:
                    mass1[k] = mass1.get(k, 0.0) + t
                if w - t > 0.0:
                    mass2[k] = mass2.get(k, 0.0) + (w - t)
            if not mass1 or (s < 1.0 and not mass2):
                continue
            try:
                mu = ProbVector(tuple(mass1), [w / s for w in mass1.values()])
                if s == 1.0:
                    mu_p = None
                else:
                    mu_p = ProbVector(tuple(mass2),
                                      [w / (1.0 - s) for w in mass2.values()])
                cert = two_type_weak_persistence(rho, nu, nu_prime, s, mu, mu_p)
            except ContractViolationError:
                continue
            score = min(s * cert.margin_growth, cert.margin_average)
            if best is None or score > best[0]:
                best = (score, cert, s, mu, mu_p)
    return best


@pytest.mark.parametrize("case", range(30))
def test_concave_search_dominates_the_grid(case):
    gen = np.random.default_rng([21, case])
    nu = OffspringLaw((0, 1, 2), gen.dirichlet(np.ones(3)))
    nu_prime = OffspringLaw((1, 2, 3), gen.dirichlet(np.ones(3)))
    rho = ProbVector((1, 2, 3), gen.dirichlet(np.ones(3)))
    grid_score, grid_cert, *_ = grid_two_type_decomposition(rho, nu, nu_prime,
                                                            mesh=10)
    cert, s, _, _ = search_two_type_decomposition(rho, nu, nu_prime)
    assert cert.certified or not grid_cert.certified
    assert min(s * cert.margin_growth, cert.margin_average) >= grid_score - 1e-9
