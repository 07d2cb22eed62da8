"""Verification checks: how they spend their draws."""

from __future__ import annotations

from rgw import RngStream, verify


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
