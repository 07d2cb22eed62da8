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
margins say. This module also hosts the weak-persistence certificate for
the two-type benchmark tree, whose best split of a target between the two
types is found as one concave maximization.

SciPy stays off the import path: only search_two_type_decomposition imports
it (``scipy.optimize.minimize`` and ``scipy.special.entr``), on its first
call, which costs about 0.5 s once per process.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .measures import (
    OffspringLaw,
    ProbVector,
    _bisect,
    _check_q,
    align,
    log_degree_weights,
    mixed_entropy,
    pair,
    relative_entropy,
)
from .rate import _rate_on_law

DECISION_TOL = 1e-6
# the two-type search starts SLSQP at these fractions of each free atom's
# mass, asks it for this precision, and gives type 1 this fraction of each
# free atom when the best split would leave type 1 empty
_SPLIT_STARTS = (0.25, 0.5, 0.75)
_SPLIT_FTOL = 1e-12
_SLIVER = 1e-12


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
    rho_a, nu_a = align(rho, nu)
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
    rho_a, _ = align(rho, nu)
    gain = pair(rho_a, log_degree_weights(rho_a.support))
    ent = mixed_entropy(rho, nu, q)
    subcritical = q * rho.mean() + (1.0 - q) * nu.mean() < 1.0

    if gain == -math.inf:
        return Verdict(VerdictKind.EVANESCENT, math.inf, -math.inf, subcritical)

    margin_ev = _rate_on_law(rho, nu, q) - gain
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
    """Least memory above which the persistence margin is positive.

    The mixed entropy decreases in q and is at most (1-q) times the entropy
    against nu, so this is the root where it falls to the log-degree
    pairing, bisected below 1 - pairing / entropy. Returns 0 when no memory
    is needed, or None when rho charges atoms off the base support.
    """
    if rho.prob(0) > 0.0:
        raise ContractViolationError("the target must not charge atom 0")
    rho_a, nu_a = align(rho, nu)
    ent = relative_entropy(rho_a, nu_a)
    if ent == math.inf:
        return None
    gain = pair(rho_a, log_degree_weights(rho_a.support))
    if gain >= ent:
        return 0.0
    if gain <= 0.0:
        raise ContractViolationError(
            "the target pays no log-degree gain, no memory level can help")
    return _bisect(lambda q: mixed_entropy(rho, nu, q) <= gain, 0.0,
                   1.0 - gain / ent)


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


def _margin(mu: ProbVector, law: OffspringLaw) -> float:
    """Log-degree pairing minus relative entropy of mu against the law."""
    mu_a, law_a = align(mu, law)
    return (pair(mu_a, log_degree_weights(mu_a.support))
            - relative_entropy(mu_a, law_a))


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

    parts = align(rho, mu, mu if mu_prime is None else mu_prime)
    blend = s * parts[1].weights + (1.0 - s) * parts[2].weights
    gap = float(np.max(np.abs(parts[0].weights - blend)))
    if gap > 1e-10:
        raise ContractViolationError(
            f"decomposition misses the target by {gap!r} in sup norm")

    kept = mu.weights > 0.0  # the shift moves type-1 degrees down by one
    margin_growth = _margin(
        ProbVector(np.array(mu.support)[kept] - 1, mu.weights[kept]), nu)
    margin_average = (margin_growth if s == 1.0 else
                      s * margin_growth + (1.0 - s) * _margin(mu_prime, nu_prime))

    certified = margin_growth > 0.0 and margin_average > 0.0
    return TwoTypeCertificate(certified, margin_growth, margin_average, s == 1.0)


def search_two_type_decomposition(rho: ProbVector, nu: OffspringLaw,
                                  nu_prime: OffspringLaw):
    """Best decomposition of the target for the two-type certificate.

    Give mass x_k of rho(k) to type 1 and y_k = rho(k) - x_k to type 2, with
    s = sum x. Then s * margin_growth and margin_average are

        F1 = sum x_k (log((k-1) nu(k-1)) - log x_k) + s log s,
        F2 = F1 + sum y_k (log(k nu'(k)) - log y_k) + (1-s) log(1-s),

    linear terms minus perspectives of the entropy, so both are jointly
    concave in x. The best split, the one with the largest
    min(s * margin_growth, margin_average), is thus one concave maximization
    over the box 0 <= x_k <= rho(k), and since s > 0 a split certifies
    exactly when its score is positive. Atoms on one type only are forced;
    a shared atom whose log-weight is -inf on one side (atom 1 when nu has
    atom 0) goes wholly to the other type, unless that leaves type 1 empty;
    then type 1 takes every atom it can and fails. SLSQP splits the free
    atoms on the epigraph form, max t subject to F1 >= t and F2 >= t, from
    fixed starts; when its maximum sits at s = 0, which no split attains,
    type 1 keeps a sliver of each free atom.

    An inexact solve can lose a certificate but never create one: each
    split goes back through the exact ``two_type_weak_persistence``, whose
    certificate is the one returned. Returns (certificate, s, mu, mu_prime)
    for the best split, mu_prime None when s = 1; None when an atom of rho
    is on neither type or type 1 can carry no mass.
    """
    from scipy import optimize, special

    atoms = np.array([k for k, m in zip(rho.support, rho.weights) if m > 0.0])
    w = rho.weights[rho.weights > 0.0]
    on1 = np.array([k - 1 in nu.support for k in atoms])
    on2 = np.array([k in nu_prime.support for k in atoms])
    if not (on1 | on2).all():
        return None
    with np.errstate(divide="ignore"):
        c1 = np.log([(k - 1) * nu.prob(k - 1) for k in atoms])
        c2 = np.log([k * nu_prime.prob(k) for k in atoms])
    # bounds on the type-1 mass of each atom
    lo = np.where(on1 & (c2 == -np.inf), w, 0.0)
    hi = np.where(on1 & ((c1 > -np.inf) | (c2 == -np.inf)), w, 0.0)
    if not hi.any():
        lo = hi = np.where(on1, w, 0.0)
        if not hi.any():
            return None
    free = lo < hi
    # a side whose mass at an atom is pinned at 0 takes no term there
    c1 = np.where(hi > 0.0, c1, 0.0)
    c2 = np.where(lo < w, c2, 0.0)

    def at(v):
        x = lo.copy()
        x[free] = np.clip(v, 0.0, w[free])
        return x

    def mass(m, c):
        # sum m_k (c_k - log(m_k / sum m)), which is 0 when m is 0
        return float(np.sum(m * c + special.entr(m)) - special.entr(m.sum()))

    def margins(x):
        f1 = mass(x, c1)
        return np.array([f1, f1 + mass(w - x, c2)])

    points = [w[free] * f for f in _SPLIT_STARTS]
    if free.any() and np.isfinite(margins(at(points[0]))).all():
        epigraph = {"type": "ineq",
                    "fun": lambda z: margins(at(z[:-1])) - z[-1]}
        bounds = [(0.0, m) for m in w[free]] + [(None, None)]
        points = [optimize.minimize(
            lambda z: -z[-1], np.append(v, margins(at(v)).min()),
            method="SLSQP", bounds=bounds, constraints=epigraph,
            options={"ftol": _SPLIT_FTOL}).x[:-1] for v in points]

    best = None
    for v in points:
        x = at(v) if at(v).any() else at(w[free] * _SLIVER)
        y = w - x
        s = float(x.sum()) if y.any() else 1.0
        mu = ProbVector(atoms[x > 0.0], x[x > 0.0] / x.sum())
        mu_p = ProbVector(atoms[y > 0.0], y[y > 0.0] / y.sum()) if y.any() else None
        cert = two_type_weak_persistence(rho, nu, nu_prime, s, mu, mu_p)
        score = min(s * cert.margin_growth, cert.margin_average)
        if best is None or score > best[0]:
            best = (score, cert, s, mu, mu_p)
    return best[1:]
