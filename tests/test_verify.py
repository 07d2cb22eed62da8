"""Verification checks: how they spend their draws, how the survival
certificate brackets a minimum, and how a check that raises is reported."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rgw import (ContractViolationError, NumericError, RngStream,
                 StatisticalFailureError, cli, law_from_activity,
                 survival_functional, verify)


def test_triangulation_runs_one_campaign_per_memory(monkeypatch):
    calls = []
    real = verify.simulate_tree_campaign

    def spy(nu, q, n_max, replicas, rng, **options):
        calls.append((q, n_max, replicas))
        return real(nu, q, n_max, replicas, rng, **options)

    monkeypatch.setattr(verify, "simulate_tree_campaign", spy)
    # the settings of verify --full
    qs, n_values = (0.0, verify._Q_FLAGSHIP), (3, 4, 5, 6)
    verify._check_triangulation(RngStream(42, 900), qs=qs,
                                n_values=n_values, replicas=100_000)
    assert calls == [(q, max(n_values), 100_000) for q in qs]


# the seeds at which the random-start descent that this certificate replaced
# stopped 2.4e-6 to 2.0e-4 above the minimum
DESCENT_FAILURES = (52, 76, 118, 145, 158, 187)


@pytest.mark.parametrize("seed", DESCENT_FAILURES)
def test_survival_certificate_holds_where_the_descent_stalled(seed):
    instances = verify._survival_instances(RngStream(seed, 900))
    tolerance, observed = verify._check_survival_oracle(instances)
    assert observed <= tolerance


def test_survival_certificate_rejects_a_moved_minimizer():
    moved = 0
    for nu, q, report in verify._survival_instances(RngStream(52, 900)):
        positive = np.flatnonzero(np.asarray(nu.support) > 0)
        if len(positive) < 2:
            continue
        # move 1e-4 of mass between two atoms of the stationary law; the
        # reported value is the functional's at the moved activities, so
        # only the gap can catch it
        pi = law_from_activity(report.activities, nu, q).weights.copy()
        pi[positive[0]] += 1e-4
        pi[positive[1]] -= 1e-4
        a = pi / (q * pi + (1.0 - q) * nu.weights)
        off = dataclasses.replace(report, activities=a,
                                  minimum_value=survival_functional(a, nu, q))
        tolerance, observed = verify._check_survival_oracle([(nu, q, off)])
        assert observed > tolerance
        moved += 1
    assert moved >= 5


# each typed error, with the diagnostics its entry should carry; NumPy
# values must reach the report as plain JSON
RAISED = [
    (NumericError("residual stalled",
                  {"residual": np.float64(2.5e-9),
                   "iterate": np.array([0.25, 0.75])}),
     {"residual": 2.5e-9, "iterate": [0.25, 0.75]}),
    (StatisticalFailureError("no replica accepted",
                             {"accepted": np.int64(0)}),
     {"accepted": 0}),
    (ContractViolationError("support mismatch"), {}),
]


@pytest.mark.parametrize("exc, diagnostics", RAISED,
                         ids=[type(e).__name__ for e, _ in RAISED])
def test_a_check_that_raises_fails_and_the_run_goes_on(
        exc, diagnostics, monkeypatch, tmp_path, capsys):
    def raising():
        raise exc

    monkeypatch.setattr(verify, "_check_lambert", raising)
    out = tmp_path / "report.json"
    assert cli.run(["verify", "--quick", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "FAIL lambert_residual" in err
    assert f"raised {type(exc).__name__}: {exc}" in err
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    names = [c["name"] for c in report["checks"]]
    raised = report["checks"][names.index("lambert_residual")]
    del raised["seconds"]
    assert raised == {
        "name": "lambert_residual", "tolerance": None, "observed": None,
        "passed": False,
        "error": {"type": type(exc).__name__, "message": str(exc),
                  "diagnostics": diagnostics}}
    # every other check ran, passed, and carries no error key
    others = [c for c in report["checks"] if c is not raised]
    assert len(others) == 17
    assert all(c["passed"] and "error" not in c for c in others)


def test_the_seed_sweep_prints_one_line_per_check():
    # tools/verify_sweep.py reads the report's fields; nothing else runs it
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "tools/verify_sweep.py", "quick", "42", "42"],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("verify --quick, seeds 42-42: 1 seeds")
    assert lines[1].split() == ["check", "failed", "worst", "obs/tol", "at"]
    # name, failed seeds, worst ratio, its seed (and the failing seeds)
    rows = [line.split() for line in lines[2:]]
    checks = verify.verify_suite("quick", 42)["checks"]
    assert [row[0] for row in rows] == [c["name"] for c in checks]
    assert [row[1] for row in rows] == [str(int(not c["passed"]))
                                        for c in checks]
    assert all(row[3] == "42" for row in rows)
