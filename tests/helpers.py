"""Helpers that several test modules share."""

from __future__ import annotations

from rgw.measures import ProbVector, _check_same_support


def mix(t: float, rho: ProbVector, sigma: ProbVector) -> ProbVector:
    """Convex combination t*rho + (1-t)*sigma of two laws on one support;
    the tests build the mixture references q rho + (1 - q) nu of their
    entropy oracles with it."""
    _check_same_support(rho, sigma)
    return ProbVector(rho.support, t * rho.weights + (1.0 - t) * sigma.weights)
