"""Monte Carlo engines checked against exact enumeration and closed forms."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from rgw import (ContractViolationError, NumericError, OffspringLaw,
                 ProbVector, RngStream, activity_from_law,
                 enumerate_expected_counts, gibbs_conditional_estimate,
                 law_from_activity, linf_distance, many_to_one_estimate,
                 mean, replacement_matrix, simulate_reinforced_urn,
                 simulate_spine_urn, simulate_tree_campaign,
                 simulate_two_type)
from rgw import simulate
from rgw.classify import validate_activities
from rgw.measures import EmpiricalMeasure, _check_q
from rgw.simulate import SpineUrnState

FLAGSHIP = OffspringLaw((1, 2), (0.5, 0.5))
Q = 1.0 / 3.0

# population means for the flagship law, exact by sequence enumeration
EXPECTED_WITH_MEMORY = [1.5, 2.3333333333333335, 3.6666666666666674,
                        5.790123456790124, 9.169753086419757,
                        14.549725651577509, 23.11734110653865,
                        36.76687369811515]


class TestTreeCampaign:
    def test_doubling_law_is_deterministic(self):
        camp = simulate_tree_campaign(OffspringLaw((2,), (1.0,)), 0.25, 6, 3,
                                      RngStream(5))
        assert np.array_equal(camp.populations,
                              np.tile(2 ** np.arange(7), (3, 1)))

    def test_certain_extinction_in_one_generation(self):
        camp = simulate_tree_campaign(OffspringLaw((0,), (1.0,)), 0.5, 4, 10,
                                      RngStream(6))
        assert np.all(camp.populations[:, 0] == 1)
        assert np.all(camp.populations[:, 1:] == 0)

    def test_population_cap_truncates(self):
        camp = simulate_tree_campaign(OffspringLaw((2,), (1.0,)), 0.25, 10, 2,
                                      RngStream(7), pop_cap=16)
        assert np.all(camp.truncated_at == 4)
        assert np.all(camp.populations[:, 4] == 16)

    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_campaign_arrays_are_read_only(self, q):
        camp = simulate_tree_campaign(FLAGSHIP, q, 4, 5, RngStream(3))
        assert camp.populations.flags.writeable is False
        assert camp.truncated_at.flags.writeable is False

    def test_mean_population_matches_enumeration(self):
        replicas = 20000
        camp = simulate_tree_campaign(FLAGSHIP, Q, 8, replicas, RngStream(8))
        for n in (4, 8):
            sizes = camp.populations[:, n].astype(float)
            se = sizes.std(ddof=1) / math.sqrt(replicas)
            z = abs(sizes.mean() - EXPECTED_WITH_MEMORY[n - 1]) / se
            assert z < 3.0

    def test_histogram_census_sums_to_population(self):
        camp = simulate_tree_campaign(FLAGSHIP, Q, 5, 40, RngStream(9),
                                      keep_histograms=True)
        for g, layer in enumerate(camp.histograms):
            totals: dict[int, int] = {}
            for (rid, _), cnt in layer.items():
                totals[rid] = totals.get(rid, 0) + cnt
            for rid in range(40):
                assert totals.get(rid, 0) == camp.populations[rid, g]

    def test_census_means_match_enumeration_per_histogram(self):
        nu = OffspringLaw((0, 1, 3), (0.2, 0.5, 0.3))
        q, n, replicas = 0.45, 5, 20000
        camp = simulate_tree_campaign(nu, q, n, replicas, RngStream(23),
                                      keep_histograms=True)
        assert all(counts[0] == 0 for layer in camp.histograms
                   for _, counts in layer)
        per_replica: dict[tuple[int, ...], np.ndarray] = {}
        for (rid, counts), cnt in camp.histograms[n].items():
            per_replica.setdefault(counts, np.zeros(replicas))[rid] = cnt
        exact = enumerate_expected_counts(nu, q, n)
        assert set(per_replica) <= {c for c, v in exact.items() if v > 0}
        for counts, expected in exact.items():
            if expected == 0.0:
                continue
            sizes = per_replica.get(counts, np.zeros(replicas))
            se = sizes.std(ddof=1) / math.sqrt(replicas)
            assert abs(sizes.mean() - expected) < 3.0 * se

    def test_depth_thirty_matches_enumeration(self):
        replicas = 1000
        camp = simulate_tree_campaign(FLAGSHIP, Q, 30, replicas, RngStream(24))
        assert np.all(camp.truncated_at == -1)
        exact = sum(enumerate_expected_counts(FLAGSHIP, Q, 30).values())
        assert exact == pytest.approx(1079550.09, abs=0.01)
        sizes = camp.populations[:, 30].astype(float)
        se = sizes.std(ddof=1) / math.sqrt(replicas)
        assert abs(sizes.mean() - exact) < 3.0 * se

    def test_class_key_overflow_is_refused(self):
        nu = OffspringLaw(tuple(range(1, 8)), (1.0 / 7.0,) * 7)
        with pytest.raises(ContractViolationError, match="overflow"):
            simulate_tree_campaign(nu, Q, 10_000, 4, RngStream(25))


class TestEnumeration:
    def test_single_generation_is_size_biased_mass(self):
        counts = enumerate_expected_counts(FLAGSHIP, Q, 1)
        assert counts[(1, 0)] == pytest.approx(0.5, abs=1e-15)
        assert counts[(0, 1)] == pytest.approx(1.0, abs=1e-15)

    def test_two_generations_flagship(self):
        counts = enumerate_expected_counts(FLAGSHIP, Q, 2)
        # the all-twos history has probability 1/3 and carries 4 individuals
        assert counts[(0, 2)] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert counts[(1, 1)] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert counts[(2, 0)] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_totals_match_hand_expected_means(self):
        for n in range(1, 9):
            with_memory = sum(enumerate_expected_counts(FLAGSHIP, Q,
                                                        n).values())
            assert with_memory == pytest.approx(EXPECTED_WITH_MEMORY[n - 1],
                                                rel=1e-12)
            memoryless = sum(enumerate_expected_counts(FLAGSHIP, 0.0,
                                                       n).values())
            assert memoryless == pytest.approx(1.5 ** n, rel=1e-12)

    def test_guard_counts_histograms_not_sequences(self):
        # 2^24 degree sequences, but only 325 histograms of depth <= 24
        assert len(enumerate_expected_counts(FLAGSHIP, Q, 24)) == 25
        seven = OffspringLaw(tuple(range(1, 8)), (1.0 / 7.0,) * 7)
        with pytest.raises(ContractViolationError, match="guard"):
            enumerate_expected_counts(seven, Q, 30)

    def test_overflowing_expected_count_is_a_numeric_error(self):
        huge = OffspringLaw((1, 10 ** 200), (0.5, 0.5))
        with pytest.raises(NumericError):
            enumerate_expected_counts(huge, Q, 2)


class TestManyToOne:
    def test_single_step_estimates_the_mean(self):
        est, se = many_to_one_estimate(FLAGSHIP, Q, 1, 4000, None,
                                       RngStream(10))
        assert abs(est - mean(FLAGSHIP)) < 3.0 * se

    def test_matches_enumeration_at_moderate_depth(self):
        exact = sum(enumerate_expected_counts(FLAGSHIP, Q, 6).values())
        est, se = many_to_one_estimate(FLAGSHIP, Q, 6, 20000, None,
                                       RngStream(11))
        assert abs(est - exact) < 3.0 * se


class TestReinforcedUrn:
    def test_first_draw_has_the_base_distribution(self):
        hits = 0
        reps = 4000
        for i in range(reps):
            draws, _ = simulate_reinforced_urn(FLAGSHIP, Q, 1,
                                               RngStream(12, i))
            hits += int(draws[0] == 2)
        se = math.sqrt(0.25 / reps)
        assert abs(hits / reps - 0.5) < 3.0 * se

    def test_second_draw_mixes_memory_and_base(self):
        # conditionally on a first draw of 2 the second is 2 with
        # probability q + (1 - q) / 2
        reps = 4000
        both = first2 = 0
        for i in range(reps):
            draws, _ = simulate_reinforced_urn(FLAGSHIP, Q, 2,
                                               RngStream(13, i))
            if draws[0] == 2:
                first2 += 1
                both += int(draws[1] == 2)
        p = Q + (1.0 - Q) * 0.5
        se = math.sqrt(p * (1.0 - p) / first2)
        assert abs(both / first2 - p) < 3.0 * se

    def test_census_long_run_frequency(self):
        _, census = simulate_reinforced_urn(FLAGSHIP, Q, 1_000_000,
                                            RngStream(14))
        assert linf_distance(census.normalize(),
                             FLAGSHIP.as_prob_vector()) < 0.01


class TestSpineUrn:
    def test_identity_activity_targets_the_base_law(self):
        ones = np.ones(2)
        target, criterion = law_from_activity(ones, FLAGSHIP, Q)
        assert np.allclose(target.weights, FLAGSHIP.weights, atol=1e-15)
        freq, _ = simulate_spine_urn(FLAGSHIP, Q, ones, 200_000,
                                     RngStream(15))
        assert linf_distance(freq, target) < 0.02
        # the criterion collapses to minus the mean log degree under nu
        assert criterion == pytest.approx(-0.34657359027997264, abs=1e-12)

    def test_tilted_activity_reaches_the_requested_law(self):
        rho = ProbVector((1, 2), (0.2, 0.8))
        a = activity_from_law(rho, FLAGSHIP, Q)
        assert np.allclose(a, (0.5, 4.0 / 3.0), atol=1e-12)
        target, _ = law_from_activity(a, FLAGSHIP, Q)
        assert np.allclose(target.weights, rho.weights, atol=1e-12)
        freq, _ = simulate_spine_urn(FLAGSHIP, Q, a, 200_000, RngStream(16))
        assert linf_distance(freq, target) < 0.02


# The one-step-at-a-time urn loops the chunked stepping replaced, kept as
# its oracle: the same stream must give bit-identical results.


def loop_reinforced_urn(nu: OffspringLaw, q: float, n: int,
                         rng: RngStream) -> tuple[np.ndarray, EmpiricalMeasure]:
    _check_q(q)
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    support = nu.support
    k = len(support)
    g_rng = rng.generator("urn")
    u_mode = g_rng.random(n)
    u_val = g_rng.random(n)
    cum_nu = nu.weights.cumsum().tolist()
    counts = [0] * k
    seq = np.empty(n, dtype=np.int64)
    for i in range(n):
        if i > 0 and u_mode[i] < q:
            target = u_val[i] * i
            acc = 0
            j = k - 1
            for idx in range(k):
                acc += counts[idx]
                if target < acc:
                    j = idx
                    break
        else:
            u = u_val[i]
            j = k - 1
            for idx in range(k):
                if u < cum_nu[idx]:
                    j = idx
                    break
        counts[j] += 1
        seq[i] = support[j]
    return seq, EmpiricalMeasure(support, counts)


def loop_spine_urn(nu: OffspringLaw, q: float, a, n: int,
                    rng: RngStream) -> tuple[ProbVector, SpineUrnState]:
    _check_q(q)
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    a = validate_activities(a, nu, q, tol=1e-9)
    support = nu.support
    k = len(support)
    act = np.empty(k + 1)
    act[:k] = q * a
    act[k] = (1.0 - q) * float(np.dot(a, nu.weights))
    star_pick = np.asarray(a * nu.weights, dtype=float)
    if star_pick.sum() <= 0.0:
        raise ContractViolationError("all activities vanish, the urn cannot move")
    cum_star = (star_pick / star_pick.sum()).cumsum().tolist()
    cum_nu = nu.weights.cumsum().tolist()

    g_init = rng.generator("spine-init")
    u0 = float(g_init.random())
    first = k - 1
    for idx in range(k):
        if u0 < cum_nu[idx]:
            first = idx
            break
    counts = [0] * (k + 1)
    counts[first] = 1
    counts[k] = 1

    g_rng = rng.generator("spine")
    u_pick = g_rng.random(n)
    u_color = g_rng.random(n)
    act_l = act.tolist()
    weights = [counts[c] * act_l[c] for c in range(k + 1)]
    total_w = sum(weights)
    tally = [0] * k
    for i in range(n):
        t = u_pick[i] * total_w
        acc = 0.0
        picked = k
        for c in range(k + 1):
            acc += weights[c]
            if t < acc:
                picked = c
                break
        if picked < k:
            added = picked
        else:
            u = u_color[i]
            added = k - 1
            for idx in range(k):
                if u < cum_star[idx]:
                    added = idx
                    break
        counts[added] += 1
        counts[k] += 1
        weights[added] += act_l[added]
        weights[k] += act_l[k]
        total_w += act_l[added] + act_l[k]
        tally[added] += 1
    freqs = ProbVector(support, np.asarray(tally, dtype=float) / n)
    state = SpineUrnState(support, np.asarray(counts, dtype=np.int64),
                          act.copy(), n)
    return freqs, state


# laws of 2, 3 and 4 atoms, one with atom 0, each with a spine target
URN_CASES = [(FLAGSHIP, (0.2, 0.8)),
             (OffspringLaw((1, 2, 4), (0.5, 0.3, 0.2)), (0.2, 0.3, 0.5)),
             (OffspringLaw((0, 1, 2, 3), (0.1, 0.3, 0.4, 0.2)),
              (0.0, 0.2, 0.3, 0.5))]
# 1 and 2, either side of the first chunk boundary (64 steps) and of the
# first boundary past a grown chunk (1024 + 64), and a run of growing chunks
URN_STEPS = [1, 2, 63, 64, 65, 1087, 1088, 1089, 20000]


@pytest.mark.parametrize("q", [0.02, 1.0 / 3.0, 0.98])
@pytest.mark.parametrize("nu, rho", URN_CASES,
                         ids=["2atoms", "3atoms", "4atoms_with_0"])
class TestChunkedUrnsMatchTheLoop:
    def test_reinforced_urn(self, nu, rho, q):
        for seed in (1, 2, 3):
            for n in URN_STEPS:
                seq, census = simulate_reinforced_urn(nu, q, n,
                                                      RngStream(seed))
                ref_seq, ref_census = loop_reinforced_urn(nu, q, n,
                                                          RngStream(seed))
                assert np.array_equal(seq, ref_seq)
                assert np.array_equal(census.counts, ref_census.counts)

    def test_spine_urn(self, nu, rho, q):
        a = activity_from_law(ProbVector(nu.support, rho), nu, q)
        for seed in (1, 2, 3):
            for n in URN_STEPS:
                freq, state = simulate_spine_urn(nu, q, a, n, RngStream(seed))
                ref_freq, ref_state = loop_spine_urn(nu, q, a, n,
                                                     RngStream(seed))
                assert np.array_equal(freq.weights, ref_freq.weights)
                assert np.array_equal(state.counts, ref_state.counts)
                assert np.array_equal(state.activities, ref_state.activities)

    def test_chunks_cut_short_stay_exact(self, nu, rho, q, monkeypatch):
        # one pass per chunk: a chunk whose first guess is off keeps only
        # its verified prefix
        monkeypatch.setattr(simulate, "_SPECULATE_PASSES", 1)
        a = activity_from_law(ProbVector(nu.support, rho), nu, q)
        seq, _ = simulate_reinforced_urn(nu, q, 5000, RngStream(4))
        assert np.array_equal(seq, loop_reinforced_urn(nu, q, 5000,
                                                       RngStream(4))[0])
        _, state = simulate_spine_urn(nu, q, a, 5000, RngStream(4))
        assert np.array_equal(state.counts,
                              loop_spine_urn(nu, q, a, 5000,
                                             RngStream(4))[1].counts)


class TestReplacementMatrix:
    def test_identity_activity_exact_three_atom_spectrum(self):
        nu = OffspringLaw((1, 2, 3), (0.3, 0.4, 0.3))
        spec = replacement_matrix(nu, 0.4, np.ones(3))
        assert spec.matrix.shape == (4, 4)
        assert spec.eigenvalue == pytest.approx(1.0, abs=1e-10)
        assert linf_distance(spec.support_distribution,
                             nu.as_prob_vector()) < 1e-8

    def test_left_vector_agrees_with_dense_eigensolve(self):
        rho = ProbVector((1, 2), (0.35, 0.65))
        a = activity_from_law(rho, FLAGSHIP, Q)
        spec = replacement_matrix(FLAGSHIP, Q, a)
        vals, vecs = np.linalg.eig(spec.matrix.T)
        lead = int(np.argmax(vals.real))
        assert vals[lead].real == pytest.approx(1.0, abs=1e-10)
        left = np.abs(vecs[:, lead].real)
        left /= left.sum()
        assert np.max(np.abs(left - spec.left_vector)) < 1e-8

    def test_inadmissible_activity_is_detected(self):
        rho = ProbVector((1, 2), (0.2, 0.8))
        bad = activity_from_law(rho, FLAGSHIP, Q)
        bad[0] += 0.35
        with pytest.raises(ContractViolationError):
            replacement_matrix(FLAGSHIP, Q, bad)
        # the dense spectrum confirms the drift the guard protects against
        mat = np.array([[Q * bad[0], 0.0, Q * bad[0]],
                        [0.0, Q * bad[1], Q * bad[1]],
                        [(1 - Q) * bad[0] * 0.5, (1 - Q) * bad[1] * 0.5,
                         (1 - Q) * float(np.dot(bad, FLAGSHIP.weights))]])
        lead = np.max(np.abs(np.linalg.eigvals(mat)))
        assert abs(lead - 1.0) > 1e-3


class TestTwoType:
    def test_degenerate_chain_keeps_two_individuals(self):
        with pytest.warns(RuntimeWarning):
            gens = simulate_two_type(OffspringLaw((1,), (1.0,)),
                                     OffspringLaw((0,), (1.0,)), 5,
                                     RngStream(17))
        assert gens[0].merged.population == 1
        for g in gens[1:]:
            assert g.type1.population == 1
            assert g.type2.population == 1
            assert g.merged.population == 2

    def test_growing_type_degrees_are_shifted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gens = simulate_two_type(FLAGSHIP, OffspringLaw((0,), (1.0,)), 4,
                                     RngStream(18))
        assert gens[2].type1.support == (0, 2, 3)
        for counts in gens[2].type1.histogram:
            assert counts[0] == 0


class TestGibbs:
    def test_single_step_conditioning_is_exact(self):
        est, acc = gibbs_conditional_estimate(FLAGSHIP, Q, 1, [0.0, 1.0],
                                              0.9, 20000, RngStream(19))
        assert tuple(est.weights) == (0.0, 1.0)
        assert abs(acc - 0.5) < 3.0 * math.sqrt(0.25 / 20000)

    def test_slack_constraint_recovers_typical_behavior(self):
        est, acc = gibbs_conditional_estimate(FLAGSHIP, Q, 200, [1.0, 1.0],
                                              0.0, 10000, RngStream(20))
        assert acc == 1.0
        assert linf_distance(est, FLAGSHIP.as_prob_vector()) < 0.02

    def test_rare_constraint_concentrates_on_the_minimizer(self):
        est, acc = gibbs_conditional_estimate(FLAGSHIP, Q, 40, [0.0, 1.0],
                                              0.8, 60000, RngStream(21))
        assert 0.0 < acc < 0.05
        assert linf_distance(est, ProbVector((1, 2), (0.2, 0.8))) < 0.05

    def test_impossible_constraint_raises(self):
        from rgw import StatisticalFailureError

        with pytest.raises(StatisticalFailureError):
            gibbs_conditional_estimate(FLAGSHIP, Q, 5, [0.0, 1.0], 1.01,
                                       1000, RngStream(22))
