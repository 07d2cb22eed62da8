"""Verification checks: how they spend their draws, and how one that raises
is reported."""

from __future__ import annotations

import json

import numpy as np
import pytest

from rgw import (ContractViolationError, NumericError, RngStream,
                 StatisticalFailureError, cli, verify)


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
