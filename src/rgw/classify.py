"""Evanescence and persistence verdicts for target offspring frequencies.

A target law rho is judged against two thresholds on the log-degree pairing.
Below the deviation rate of the draw sequence, the expected number of
individuals whose ancestral frequencies approach rho vanishes and rho is
evanescent. Above the mixed relative entropy (the constant-control cost),
some infinite line of descent realizes rho with positive probability. The
rate never exceeds the entropy bound, so the two certificates cannot fire
together; the band in between, where neither theorem applies, is reported
honestly as indeterminate rather than guessed.

A separate mean test settles one more region: when the mixture of rho and
the base law is subcritical, no line realizing rho can survive, whatever the
margins say. This module also hosts the bijection between target frequencies
and the activity vectors driving the spine urn, and the weak-persistence
certificate for the two-type benchmark tree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from .errors import ContractViolationError, NumericError
from .measures import (
    OffspringLaw,
    ProbVector,
    _check_q,
    _check_same_support,
    align,
    log_degree_weights,
    mixed_entropy,
    pair,
    relative_entropy,
)
from .rate import reinforced_rate

DECISION_TOL = 1e-6
# largest grid of shared-atom splits that the decomposition search scans
_MAX_COMBINATIONS = 100_000


class VerdictKind(str, enum.Enum):
    EVANESCENT = "Evanescent"
    STRONGLY_PERSISTENT = "StronglyPersistentPositiveProb"
    NOT_STRONGLY_PERSISTENT = "NotStronglyPersistent"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Verdict:
    """Classification outcome with its numeric evidence.

    ``margin_evanescence`` is the deviation rate minus the log-degree
    pairing; ``margin_persistence`` is the pairing minus the mixed relative
    entropy. Positive values certify the respective verdicts.
    """

    kind: VerdictKind
    margin_evanescence: float
    margin_persistence: float
    subcritical: bool

    def __post_init__(self):
        if math.isnan(self.margin_evanescence) or math.isnan(self.margin_persistence):
            raise ContractViolationError("margins must not be NaN")


def classify_memoryless(rho: ProbVector, nu: OffspringLaw) -> Verdict:
    """Verdict for the memoryless tree, where both thresholds coincide.

    The deviation rate of iid draws is the relative entropy against nu, so
    the evanescence and persistence margins are exact negatives of each
    other and the indeterminate band collapses to the tolerance strip.
    """
    rho_a, nu_a = align(rho, nu.as_prob_vector())
    ln = log_degree_weights(rho_a.support)
    gain = pair(rho_a, ln)
    ent = relative_entropy(rho_a, nu_a)
    subcritical = nu.mean() < 1.0
    if gain == -math.inf:
        return Verdict(VerdictKind.EVANESCENT, math.inf, -math.inf, subcritical)
    margin_ev = ent - gain
    margin_pe = gain - ent
    if margin_ev > DECISION_TOL:
        kind = VerdictKind.EVANESCENT
    elif margin_pe > DECISION_TOL:
        kind = VerdictKind.STRONGLY_PERSISTENT
    else:
        kind = VerdictKind.INDETERMINATE
    return Verdict(kind, margin_ev, margin_pe, subcritical)


def classify_reinforced(rho: ProbVector, nu: OffspringLaw, q: float) -> Verdict:
    """Verdict for the reinforced tree with memory q in (0, 1).

    Branch order: a target charging atom 0 can never be an ancestral
    frequency limit and is evanescent outright; a subcritical mixture mean
    rules out strong persistence before any margin is consulted (this also
    covers targets off the base support, whose deviation rate is infinite);
    then the margin certificates and the honest indeterminate band.
    """
    _check_q(q)
    rho_a, nu_a = align(rho, nu.as_prob_vector())
    ln = log_degree_weights(rho_a.support)
    gain = pair(rho_a, ln)
    ent = mixed_entropy(rho, nu, q)
    subcritical = q * rho.mean() + (1.0 - q) * nu.mean() < 1.0

    if gain == -math.inf:
        return Verdict(VerdictKind.EVANESCENT, math.inf, -math.inf, subcritical)

    off_support = any(w > 0.0 and a == 0.0
                      for w, a in zip(rho_a.weights, nu_a.weights))
    if off_support:
        rate = math.inf
    else:
        nu_full = OffspringLaw(nu_a.support, nu_a.weights)
        rate = reinforced_rate(rho_a, nu_full, q).value
    margin_ev = rate - gain
    margin_pe = gain - ent

    if subcritical:
        kind = VerdictKind.NOT_STRONGLY_PERSISTENT
    elif margin_ev > DECISION_TOL:
        kind = VerdictKind.EVANESCENT
    elif margin_pe > DECISION_TOL:
        kind = VerdictKind.STRONGLY_PERSISTENT
    else:
        kind = VerdictKind.INDETERMINATE
    return Verdict(kind, margin_ev, margin_pe, subcritical)


def min_memory_for_persistence(rho: ProbVector, nu: OffspringLaw) -> float | None:
    """Least memory above which the convexity bound certifies persistence.

    The mixed entropy is at most (1-q) times the entropy against nu, so the
    persistence margin is positive for every q above
    1 - pairing / entropy. Returns that threshold clipped at 0, or None when
    rho charges atoms outside the base support (entropy infinite).
    """
    if rho.prob(0) > 0.0:
        raise ContractViolationError("the target must not charge atom 0")
    rho_a, nu_a = align(rho, nu.as_prob_vector())
    ent = relative_entropy(rho_a, nu_a)
    if ent == math.inf:
        return None
    if ent == 0.0:
        return 0.0
    gain = pair(rho_a, log_degree_weights(rho_a.support))
    if gain <= 0.0:
        raise ContractViolationError(
            "the target pays no log-degree gain, no memory level can help")
    return max(0.0, 1.0 - gain / ent)


def activity_constraint_residual(a, nu: OffspringLaw, q: float) -> float:
    """Signed defect of the admissibility identity sum nu/(1-qa) = 1/(1-q)."""
    _check_q(q)
    a = np.asarray(a, dtype=float)
    return float(np.sum(nu.weights / (1.0 - q * a)) - 1.0 / (1.0 - q))


def _check_activity_box(a, nu: OffspringLaw, q: float) -> np.ndarray:
    """An activity vector as an array, checked for length and the box
    [0, 1/q); q must already be valid."""
    a = np.asarray(a, dtype=float)
    if a.shape != (len(nu.support),):
        raise ContractViolationError(
            f"activity vector must have length {len(nu.support)}")
    if np.isnan(a).any() or (a < 0.0).any() or (a >= 1.0 / q).any():
        raise ContractViolationError("activities must lie in [0, 1/q)")
    return a


def validate_activities(a, nu: OffspringLaw, q: float, *,
                        tol: float = 1e-8) -> np.ndarray:
    """Check an activity vector against its box and admissibility constraints."""
    _check_q(q)
    a = _check_activity_box(a, nu, q)
    for idx, k in enumerate(nu.support):
        if k == 0 and a[idx] != 0.0:
            raise ContractViolationError("the activity at atom 0 must be 0")
    resid = activity_constraint_residual(a, nu, q)
    if abs(resid) > tol:
        raise ContractViolationError(
            f"activity constraint violated by {resid!r} (tolerance {tol})")
    return a


def activity_from_law(rho: ProbVector, nu: OffspringLaw, q: float) -> np.ndarray:
    """Activity vector whose stationary color frequency is the given target.

    a(k) = rho(k) / (q rho(k) + (1-q) nu(k)) on the shared support, 0 at
    atom 0. Admissibility is an algebraic identity for this construction and
    is re-checked to one part in 1e10.
    """
    _check_q(q)
    _check_same_support(rho, nu)
    if rho.prob(0) > 0.0:
        raise ContractViolationError("the target must not charge atom 0")
    a = rho.weights / (q * rho.weights + (1.0 - q) * nu.weights)
    resid = activity_constraint_residual(a, nu, q)
    if abs(resid) > 1e-10:
        raise NumericError("activity construction lost the constraint",
                           diagnostics={"residual": resid})
    return a


def law_from_activity(a, nu: OffspringLaw, q: float) -> tuple[ProbVector, float]:
    """Stationary target law of an admissible activity vector, with the
    persistence criterion value.

    pi_a(k) = (1-q) a(k) nu(k) / (1 - q a(k)). The second return value is
    sum pi_a(k) log(a(k)/k), negative exactly when the target beats the
    mixed-entropy threshold; it equals the entropy of pi_a against its
    mixture with nu minus the log-degree pairing.
    """
    a = validate_activities(a, nu, q)
    weights = (1.0 - q) * a * nu.weights / (1.0 - q * a)
    pi = ProbVector(nu.support, weights)
    crit = 0.0
    for idx, k in enumerate(nu.support):
        w = pi.weights[idx]
        if w > 0.0:
            crit += w * math.log(a[idx] / k)
    return pi, crit


@dataclass(frozen=True)
class TwoTypeCertificate:
    """Outcome of the two-type weak-persistence test.

    ``margin_growth`` is the pairing-minus-entropy margin of the shifted
    type-1 component; ``margin_average`` is the s-weighted margin of the full
    decomposition. Both must be strictly positive to certify. ``strong``
    marks the degenerate s = 1 case, which certifies strong persistence of
    the type-1 component itself.
    """

    certified: bool
    margin_growth: float
    margin_average: float
    strong: bool


def _shift_down(mu: ProbVector) -> ProbVector:
    if any(k < 1 for k in mu.support if mu.prob(k) > 0.0):
        raise ContractViolationError("cannot shift a law charging atoms below 1")
    kept = [(k - 1, w) for k, w in zip(mu.support, mu.weights) if w > 0.0]
    return ProbVector(tuple(k for k, _ in kept), [w for _, w in kept])


def two_type_weak_persistence(rho: ProbVector, nu: OffspringLaw,
                              nu_prime: OffspringLaw, s: float,
                              mu: ProbVector,
                              mu_prime: ProbVector | None) -> TwoTypeCertificate:
    """Weak-persistence certificate for a target split between the two types.

    The target must decompose exactly as s mu + (1-s) mu_prime, with mu
    supported on the shifted type-1 degrees and mu_prime on the type-2
    degrees. Certification needs the shifted type-1 part to beat its entropy
    threshold and the s-average of both parts to beat the averaged
    thresholds. With s = 1 the test degenerates to the strong-persistence
    certificate of the type-1 component and mu_prime may be omitted.
    """
    if math.isnan(s) or not (0.0 < s <= 1.0):
        raise ContractViolationError(f"split weight {s!r} outside (0, 1]")
    if s < 1.0 and mu_prime is None:
        raise ContractViolationError("mu_prime is required when s < 1")

    shifted_sup = tuple(sorted(k + 1 for k in nu.support))
    for k, w in zip(mu.support, mu.weights):
        if w > 0.0 and k not in shifted_sup:
            raise ContractViolationError(
                f"type-1 component charges degree {k} outside the shifted support")
    if mu_prime is not None:
        for k, w in zip(mu_prime.support, mu_prime.weights):
            if w > 0.0 and k not in nu_prime.support:
                raise ContractViolationError(
                    f"type-2 component charges degree {k} outside its support")

    if s == 1.0:
        parts = align(rho, mu)
        gap = float(np.max(np.abs(parts[0].weights - parts[1].weights)))
    else:
        parts = align(rho, mu, mu_prime)
        blend = s * parts[1].weights + (1.0 - s) * parts[2].weights
        gap = float(np.max(np.abs(parts[0].weights - blend)))
    if gap > 1e-10:
        raise ContractViolationError(
            f"decomposition misses the target by {gap!r} in sup norm")

    tau_mu = _shift_down(mu)
    t_al, nu_al = align(tau_mu, nu.as_prob_vector())
    ln1 = log_degree_weights(t_al.support)
    gain1 = pair(t_al, ln1)
    ent1 = relative_entropy(t_al, nu_al)
    margin_growth = gain1 - ent1

    if s == 1.0:
        margin_average = margin_growth
    else:
        p_al, p_nu = align(mu_prime, nu_prime.as_prob_vector())
        ln2 = log_degree_weights(p_al.support)
        gain2 = pair(p_al, ln2)
        ent2 = relative_entropy(p_al, p_nu)
        margin_average = s * margin_growth + (1.0 - s) * (gain2 - ent2)

    certified = margin_growth > 0.0 and margin_average > 0.0
    return TwoTypeCertificate(certified, margin_growth, margin_average, s == 1.0)


def search_two_type_decomposition(rho: ProbVector, nu: OffspringLaw,
                                  nu_prime: OffspringLaw, *,
                                  mesh: int = 20):
    """Grid search for a certifying decomposition of the target.

    Atoms belonging to one type only force their component masses, pinning
    the feasible split weights s to an interval; s is scanned on a mesh of
    that interval. Shared atoms are split by scanning fractions of all but
    the last, whose share is forced so that the components sum to one
    exactly. Returns (certificate, s, mu, mu_prime) for the best valid grid
    point, best meaning the largest smaller margin; None when no grid point
    yields a valid decomposition.
    """
    if mesh < 2:
        raise ContractViolationError("mesh must be at least 2")
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
    if mesh * (mesh + 1) ** free > _MAX_COMBINATIONS:
        raise ContractViolationError("shared-atom grid exceeds the search guard")

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
            score = min(cert.margin_growth, cert.margin_average)
            if best is None or score > best[0]:
                best = (score, cert, s, mu, mu_p)
    if best is None:
        return None
    _, cert, s, mu, mu_p = best
    return cert, s, mu, mu_p
