"""Acceptance battery: one test per shipped guarantee.

Each test pins the tolerance and the wall-clock budget of one guarantee from
the package contract. The numeric guarantees all ride on a single full
verification run so the battery measures exactly what ``rgw verify --full``
measures; the last test checks the documentation states the statistical
nature of the finite-depth evidence.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from rgw import OffspringLaw, ProbVector, concentration_target, linf_distance
from rgw.verify import verify_suite

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
BENCHMARK = REPO / "BENCHMARK.json"


@pytest.fixture(scope="module")
def report():
    return verify_suite("full", 42)


def check(report, name):
    for entry in report["checks"]:
        if entry["name"] == name:
            return entry
    raise AssertionError(f"verification report has no check named {name!r}")


def passed(report, *names):
    entries = [check(report, name) for name in names]
    for entry in entries:
        assert entry["passed"], (
            f"{entry['name']}: raised {entry['error']}" if "error" in entry
            else f"{entry['name']}: observed {entry['observed']:.3e} "
                 f"exceeds tolerance {entry['tolerance']:.3e}")
    return sum(entry["seconds"] for entry in entries)


def test_c01_log_mgf_closed_form_grid(report):
    entry = check(report, "closed_form_log_mgf")
    assert entry["tolerance"] <= 1e-8
    assert entry["passed"]
    assert entry["seconds"] < 5.0


def test_c02_rate_closed_form_curve(report):
    entry = check(report, "closed_form_rate")
    assert entry["tolerance"] <= 1e-6
    assert entry["passed"]
    assert entry["seconds"] < 5.0


def test_c03_concentration_target(report):
    entry = check(report, "concentration_target")
    assert entry["tolerance"] <= 1e-7
    assert entry["passed"]
    # memoryless limit is plain size-biasing of the base law
    memoryless = concentration_target(OffspringLaw((1, 2), (0.5, 0.5)), 0.0)
    reference = ProbVector((1, 2), (1.0 / 3.0, 2.0 / 3.0))
    assert linf_distance(memoryless, reference) < 1e-12


def test_c04_duality_identity(report):
    entry = check(report, "duality_identity")
    assert entry["tolerance"] <= 1e-6
    assert entry["passed"]


def test_c05_control_bound(report):
    seconds = passed(report, "control_upper_bound", "control_strict_margin")
    assert check(report, "control_upper_bound")["tolerance"] <= 0.02
    assert seconds < 120.0


def test_c06_simulation_triangulation(report):
    entry = check(report, "triangulation")
    assert entry["tolerance"] <= 3.0
    assert entry["passed"]
    assert entry["seconds"] < 120.0


def test_c07_growth_exponent(report):
    entry = check(report, "growth_exponent")
    assert entry["tolerance"] <= 0.02
    assert entry["passed"]
    assert entry["seconds"] < 60.0


def test_c08_spine_and_replacement(report):
    seconds = passed(report, "spine_urn_lln", "replacement_eigenvalue",
                     "replacement_left_vector")
    assert check(report, "spine_urn_lln")["tolerance"] <= 0.01
    assert check(report, "replacement_eigenvalue")["tolerance"] <= 1e-10
    assert check(report, "replacement_left_vector")["tolerance"] <= 1e-8
    assert seconds < 60.0


def test_c09_survival_certificates(report):
    seconds = passed(report, "lambert_residual", "survival_constraint",
                     "survival_stationarity", "survival_baseline_gap",
                     "survival_oracle_gap")
    assert check(report, "lambert_residual")["tolerance"] <= 1e-14
    assert check(report, "survival_constraint")["tolerance"] <= 1e-10
    assert check(report, "survival_stationarity")["tolerance"] <= 1e-6
    assert check(report, "survival_oracle_gap")["tolerance"] <= 1e-6
    assert seconds < 30.0


def test_c10_phase_boundary(report):
    passed(report, "phase_boundary", "phase_exclusivity")
    # both crossings bisected to about 100 times the rate quadrature's
    # 1e-14 floor
    assert check(report, "phase_boundary")["tolerance"] <= 1e-12


def test_c11_documentation_states_statistical_scope(report):
    text = README.read_text().lower()
    assert "asymptotic" in text
    assert "finite" in text
    assert "standard error" in text
    # the battery itself must have been healthy end to end
    assert report["all_passed"]


def test_every_check_has_a_benchmark_metric(report):
    # the readme_cli workload reports verify.<name>_s for each check of the
    # full report, and a name that BENCHMARK.json does not declare stops a
    # traced run
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    missing = [entry["name"] for entry in report["checks"]
               if f"verify.{entry['name']}_s" not in declared]
    assert not missing, f"checks without a verify.<name>_s metric: {missing}"
