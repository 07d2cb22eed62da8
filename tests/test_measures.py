"""Containers, pairings, and the logarithm conventions they must honor."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgw import (ContractViolationError, OffspringLaw, ProbVector, align,
                 linf_distance, load_offspring_law, log_degree_weights,
                 offspring_law_from_json, pair, relative_entropy)
from rgw.measures import LogWeights

from helpers import mix

UNIFORM12 = OffspringLaw((1, 2), (0.5, 0.5))


def simplex(dim: int):
    # strictly positive entries, normalized afterwards
    return st.lists(st.floats(1e-3, 1.0), min_size=dim, max_size=dim).map(
        lambda v: tuple(x / sum(v) for x in v))


class TestConstruction:
    def test_weights_must_be_normalized(self):
        with pytest.raises(ContractViolationError):
            OffspringLaw((1, 2), (0.6, 0.6))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ContractViolationError):
            OffspringLaw((1, 2), (-0.1, 1.1))

    def test_support_must_be_sorted_and_unique(self):
        with pytest.raises(ContractViolationError):
            OffspringLaw((2, 1), (0.5, 0.5))
        with pytest.raises(ContractViolationError):
            OffspringLaw((1, 1), (0.5, 0.5))

    def test_empty_support_rejected(self):
        with pytest.raises(ContractViolationError):
            OffspringLaw((), ())

    def test_nan_weight_rejected(self):
        with pytest.raises(ContractViolationError):
            OffspringLaw((1, 2), (0.5, float("nan")))

    def test_zero_weights_are_dropped(self):
        law = OffspringLaw((0, 1, 2, 5), (0.0, 0.25, 0.75, 0.0))
        assert law.support == (1, 2)
        assert tuple(law.weights) == (0.25, 0.75)

    def test_all_zero_law_rejected(self):
        with pytest.raises(ContractViolationError, match="no positive weight"):
            OffspringLaw((1, 2), (0.0, 0.0))

    def test_negative_weight_within_tolerance_rejected(self):
        # a target clips such a weight to 0; a law has no such slack
        assert ProbVector((1, 2), (-1e-15, 1.0)).weights[0] == 0.0
        with pytest.raises(ContractViolationError, match="non-negative"):
            OffspringLaw((1, 2), (-1e-15, 1.0))

    def test_a_law_is_a_probability_vector(self):
        assert isinstance(UNIFORM12, ProbVector)
        assert repr(UNIFORM12) == "OffspringLaw({1: 0.5, 2: 0.5})"
        rho = ProbVector((1, 2), (0.3, 0.7))
        assert relative_entropy(rho, UNIFORM12) == relative_entropy(
            rho, ProbVector((1, 2), (0.5, 0.5)))
        assert linf_distance(UNIFORM12, rho) == pytest.approx(0.2, abs=1e-15)
        law_a, rho_a = align(UNIFORM12, ProbVector((2, 3), (0.4, 0.6)))
        assert law_a.support == rho_a.support == (1, 2, 3)
        assert tuple(law_a.weights) == (0.5, 0.5, 0.0)

    def test_prob_lookup_and_mean(self):
        assert UNIFORM12.prob(2) == 0.5
        assert UNIFORM12.prob(7) == 0.0
        assert UNIFORM12.mean() == 1.5


class TestJsonRoundTrip:
    def test_dict_round_trip(self):
        law = offspring_law_from_json({"support": [1, 2], "probs": [0.5, 0.5]})
        assert law.support == (1, 2)
        assert tuple(law.weights) == (0.5, 0.5)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"support": [1, 2], "probs": [0.5, 0.5]}))
        law = load_offspring_law(path)
        assert law.support == (1, 2)
        assert tuple(law.weights) == (0.5, 0.5)


class TestLogConventions:
    def test_log_weight_of_atom_zero_is_minus_infinity(self):
        lw = log_degree_weights((0, 1, 2))
        assert lw.values[0] == -math.inf
        assert lw.values[1] == 0.0
        assert lw.values[2] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_pair_is_minus_infinity_iff_mass_at_zero(self):
        lw = log_degree_weights((0, 2))
        charged = ProbVector((0, 2), (0.25, 0.75))
        assert pair(charged, lw) == -math.inf
        # zero mass times log zero contributes nothing
        uncharged = ProbVector((0, 2), (0.0, 1.0))
        assert pair(uncharged, lw) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_pair_flagship_values(self):
        lw = log_degree_weights((1, 2))
        assert pair(ProbVector((1, 2), (1 / 3, 2 / 3)), lw) == pytest.approx(
            2 / 3 * math.log(2.0), abs=1e-15)
        assert pair(ProbVector((1, 2), (0.2, 0.8)), lw) == pytest.approx(
            0.5545177444479562, abs=1e-15)

    @given(simplex(3), st.floats(-5.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_pair_shifts_linearly_with_constant_offsets(self, w, c):
        rho = ProbVector((1, 2, 3), w)
        lam = log_degree_weights((1, 2, 3))
        shifted = LogWeights((1, 2, 3), tuple(v + c for v in lam.values))
        assert pair(rho, shifted) == pytest.approx(pair(rho, lam) + c,
                                                   abs=1e-10)


class TestRelativeEntropy:
    def test_zero_iff_equal(self):
        rho = ProbVector((1, 2), (0.3, 0.7))
        assert relative_entropy(rho, rho) == 0.0
        other = ProbVector((1, 2), (0.5, 0.5))
        assert relative_entropy(rho, other) > 0.0

    def test_infinite_off_support(self):
        rho = ProbVector((1, 2), (0.3, 0.7))
        sigma = ProbVector((1, 2), (0.0, 1.0))
        assert relative_entropy(rho, sigma) == math.inf

    def test_flagship_value(self):
        got = relative_entropy(ProbVector((1, 2), (1 / 3, 2 / 3)),
                               UNIFORM12)
        assert got == pytest.approx(0.05663301226513255, abs=1e-15)

    @given(simplex(4), simplex(4))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_implementation(self, a, b):
        from scipy.stats import entropy

        rho = ProbVector((0, 1, 2, 3), a)
        sigma = ProbVector((0, 1, 2, 3), b)
        assert relative_entropy(rho, sigma) == pytest.approx(
            float(entropy(a, b)), rel=1e-10, abs=1e-12)

    @given(simplex(3))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, a):
        rho = ProbVector((1, 2, 5), a)
        assert relative_entropy(rho, UNIFORM_TRIPLE) >= 0.0


UNIFORM_TRIPLE = ProbVector((1, 2, 5), (1 / 3, 1 / 3, 1 / 3))


class TestAlgebra:
    def test_align_embeds_in_union_support(self):
        a, b = align(ProbVector((1,), (1.0,)), ProbVector((2,), (1.0,)))
        assert a.support == (1, 2) == b.support
        assert tuple(a.weights) == (1.0, 0.0)
        assert tuple(b.weights) == (0.0, 1.0)

    def test_mix_is_convex_combination(self):
        top = ProbVector((1, 2), (1.0, 0.0))
        bot = ProbVector((1, 2), (0.0, 1.0))
        assert tuple(mix(0.25, top, bot).weights) == (0.25, 0.75)

    def test_linf_distance(self):
        a = ProbVector((1, 2), (0.2, 0.8))
        b = ProbVector((1, 2), (0.5, 0.5))
        assert linf_distance(a, b) == pytest.approx(0.3, abs=1e-15)
        assert linf_distance(a, a) == 0.0
