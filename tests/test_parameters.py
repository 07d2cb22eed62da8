"""Every public function that takes the memory parameter q, 24 of them,
rejects it alike, and so do the control oracles of the tests."""

from __future__ import annotations

import inspect
import re

import pytest

import rgw
from rgw import (ContractViolationError, ControlPath, LogWeights,
                 OffspringLaw, ProbVector, RngStream,
                 activity_constraint_residual, activity_from_law,
                 classify_reinforced, concentration_target,
                 enumerate_expected_counts,
                 gibbs_conditional_estimate, growth_exponent,
                 law_from_activity, many_to_one_estimate,
                 min_rate_over_halfspace, mixed_entropy, proportional_baseline,
                 rate_by_control, reinforced_log_mgf, reinforced_log_mgf_grad,
                 reinforced_rate, replacement_matrix, simulate_reinforced_urn,
                 simulate_spine_urn, simulate_tree_campaign,
                 solve_survival_minimizer, stationarity_ratios,
                 survival_functional, validate_activities)
from test_control import control_objective, two_phase_probe

FLAGSHIP = OffspringLaw((1, 2), (0.5, 0.5))
TARGET = ProbVector((1, 2), (0.2, 0.8))
TILT = LogWeights((1, 2), (0.0, 0.0))
ACTIVITIES = (0.5, 4.0 / 3.0)

# (name, call with q, whether q = 0 is inside the domain)
CALLS = [
    ("mixed_entropy", lambda q: mixed_entropy(TARGET, FLAGSHIP, q), True),
    ("reinforced_log_mgf", lambda q: reinforced_log_mgf(TILT, FLAGSHIP, q), False),
    ("reinforced_log_mgf_grad",
     lambda q: reinforced_log_mgf_grad(TILT, FLAGSHIP, q), False),
    ("reinforced_rate", lambda q: reinforced_rate(TARGET, FLAGSHIP, q), False),
    ("concentration_target", lambda q: concentration_target(FLAGSHIP, q), True),
    ("growth_exponent", lambda q: growth_exponent(FLAGSHIP, q), True),
    ("min_rate_over_halfspace",
     lambda q: min_rate_over_halfspace(FLAGSHIP, q, (0.0, 1.0), 0.8), False),
    ("rate_by_control",
     lambda q: rate_by_control(TARGET, FLAGSHIP, q, steps=2), True),
    ("simulate_tree_campaign",
     lambda q: simulate_tree_campaign(FLAGSHIP, q, 2, 2, RngStream(0)), True),
    ("simulate_reinforced_urn",
     lambda q: simulate_reinforced_urn(FLAGSHIP, q, 5, RngStream(0)), False),
    ("many_to_one_estimate",
     lambda q: many_to_one_estimate(FLAGSHIP, q, 2, 2, None, RngStream(0)), True),
    ("enumerate_expected_counts",
     lambda q: enumerate_expected_counts(FLAGSHIP, q, 2), True),
    ("simulate_spine_urn",
     lambda q: simulate_spine_urn(FLAGSHIP, q, ACTIVITIES, 5, RngStream(0)),
     False),
    ("replacement_matrix", lambda q: replacement_matrix(FLAGSHIP, q, ACTIVITIES),
     False),
    ("gibbs_conditional_estimate",
     lambda q: gibbs_conditional_estimate(FLAGSHIP, q, 2, (0.0, 1.0), 0.5, 2,
                                          RngStream(0)), True),
    ("classify_reinforced", lambda q: classify_reinforced(TARGET, FLAGSHIP, q),
     False),
    ("activity_constraint_residual",
     lambda q: activity_constraint_residual(ACTIVITIES, FLAGSHIP, q), False),
    ("validate_activities",
     lambda q: validate_activities(ACTIVITIES, FLAGSHIP, q), False),
    ("activity_from_law", lambda q: activity_from_law(TARGET, FLAGSHIP, q), False),
    ("law_from_activity", lambda q: law_from_activity(ACTIVITIES, FLAGSHIP, q),
     False),
    ("survival_functional",
     lambda q: survival_functional(ACTIVITIES, FLAGSHIP, q), False),
    ("stationarity_ratios",
     lambda q: stationarity_ratios(ACTIVITIES, FLAGSHIP, q), False),
    ("solve_survival_minimizer", lambda q: solve_survival_minimizer(FLAGSHIP, q),
     False),
    ("proportional_baseline", lambda q: proportional_baseline(FLAGSHIP, q), False),
]

# the test-local control oracles check q as the public functions do
ORACLES = [
    ("control_objective",
     lambda q: control_objective(ControlPath((1, 2), [[0.2, 0.8]]), FLAGSHIP, q),
     True),
    ("two_phase_probe", lambda q: two_phase_probe(TARGET, FLAGSHIP, q, 0.1), True),
]


@pytest.mark.parametrize("call,allow_zero", [c[1:] for c in CALLS + ORACLES],
                         ids=[c[0] for c in CALLS + ORACLES])
def test_memory_parameter_outside_its_domain_is_rejected(call, allow_zero):
    domain = "[0, 1)" if allow_zero else "(0, 1)"
    bad = [float("nan"), 1.0] + ([] if allow_zero else [0.0])
    for q in bad:
        with pytest.raises(ContractViolationError,
                           match=rf"memory parameter .* outside {re.escape(domain)}"):
            call(q)


def test_every_public_function_of_q_is_listed():
    takes_q = {name for name in rgw.__all__
               if inspect.isfunction(getattr(rgw, name))
               and "q" in inspect.signature(getattr(rgw, name)).parameters}
    assert takes_q == {c[0] for c in CALLS}
    assert len(CALLS) == 24
