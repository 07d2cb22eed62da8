"""Probability measures on finite sets of offspring counts.

A point of the simplex over a support is a ``ProbVector`` (zeros allowed);
a reproduction law, ``OffspringLaw``, is a probability vector whose atoms
all carry mass. ``EmpiricalMeasure`` is an integer histogram with its total,
``LogWeights`` an exponential tilt vector with entries in [-inf, inf).

Extended-real conventions used throughout the package: ``log 0 = -inf``,
``exp(-inf) = 0`` and ``0 * log 0 = 0``. A pairing against log-degree weights
is ``-inf`` exactly when the measure puts mass at the atom 0. NaN is never a
sentinel; it is rejected at construction time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateLawError,
    InfeasibleError,
    SupportMismatchError,
)

_SUM_TOL = 1e-12
_BISECTION_ITERS = 200


def _as_support(support) -> tuple[int, ...]:
    atoms = tuple(support)
    if len(atoms) == 0:
        raise ContractViolationError("support must be non-empty")
    try:
        sup = tuple(map(int, atoms))
    except (TypeError, ValueError, OverflowError):
        sup = None
    # int() would truncate 1.5 and read True as 1, so both are refused; an
    # integral float such as 2.0 is the atom 2
    if (sup != atoms or min(sup) < 0
            or not {bool, np.bool_}.isdisjoint(map(type, atoms))):
        raise ContractViolationError("support atoms must be non-negative integers")
    if any(a >= b for a, b in zip(sup, sup[1:])):
        raise ContractViolationError("support atoms must be strictly increasing")
    return sup


def _as_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ContractViolationError(f"expected {n} weights, got shape {w.shape}")
    if np.isnan(w).any():
        raise ContractViolationError("NaN weight")
    return w


def _normalized(w: np.ndarray) -> np.ndarray:
    """Non-negative weights that sum to 1 within ``_SUM_TOL``, rescaled to
    sum to 1."""
    total = w.sum()
    if abs(total - 1.0) > _SUM_TOL:
        raise ContractViolationError(f"probability weights sum to {total!r}, not 1")
    return w / total


def _freeze(obj, **fields):
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False, repr=False)
class ProbVector:
    """Probability vector over a fixed support; zero entries are allowed."""

    support: tuple[int, ...]
    weights: np.ndarray

    def __init__(self, support, weights):
        sup = _as_support(support)
        w = _as_weights(weights, len(sup))
        if (w < 0).any():
            if (w < -_SUM_TOL).any():
                raise ContractViolationError("probability weights must be non-negative")
            w = np.maximum(w, 0.0)
        _freeze(self, support=sup, weights=_normalized(w))

    def __repr__(self):
        body = ", ".join(f"{k}: {p:.6g}" for k, p in zip(self.support, self.weights))
        return f"{type(self).__name__}({{{body}}})"

    def prob(self, k: int) -> float:
        try:
            return float(self.weights[self.support.index(k)])
        except ValueError:
            return 0.0

    def mean(self) -> float:
        return float(np.dot(self.support, self.weights))


class OffspringLaw(ProbVector):
    """Reproduction law: a probability vector whose atoms all carry mass.

    Atoms with zero weight are dropped at construction, so the stored weights
    are strictly positive and sum to one (drift up to 1e-12 is renormalized).
    """

    def __init__(self, support, weights):
        sup = _as_support(support)
        w = _as_weights(weights, len(sup))
        if (w < 0).any():
            raise ContractViolationError("offspring weights must be non-negative")
        keep = w > 0.0
        if not keep.all():
            if not keep.any():
                raise ContractViolationError("offspring law has no positive weight")
            sup = tuple(k for k, m in zip(sup, keep) if m)
            w = w[keep]
        _freeze(self, support=sup, weights=_normalized(w))


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Integer histogram over a support, together with its total."""

    support: tuple[int, ...]
    counts: np.ndarray

    def __init__(self, support, counts):
        sup = _as_support(support)
        c = np.asarray(counts)
        if c.shape != (len(sup),):
            raise ContractViolationError(f"expected {len(sup)} counts, got shape {c.shape}")
        if not np.issubdtype(c.dtype, np.integer):
            cf = np.asarray(counts, dtype=float)
            if np.isnan(cf).any() or (cf != np.round(cf)).any():
                raise ContractViolationError("counts must be integers")
            c = cf.astype(np.int64)
        if (c < 0).any():
            raise ContractViolationError("counts must be non-negative")
        _freeze(self, support=sup, counts=c.astype(np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def normalize(self) -> ProbVector:
        total = self.total
        if total == 0:
            raise ContractViolationError("cannot normalize an empty histogram")
        return ProbVector(self.support, self.counts / total)

    def __repr__(self):
        body = ", ".join(f"{k}: {c}" for k, c in zip(self.support, self.counts))
        return f"EmpiricalMeasure({{{body}}}, total={self.total})"


@dataclass(frozen=True, eq=False)
class LogWeights:
    """Tilt vector with entries in [-inf, inf).

    The all ``-inf`` vector is accepted as an explicit sentinel; otherwise at
    least one entry is finite. ``+inf`` and NaN are rejected.
    """

    support: tuple[int, ...]
    values: np.ndarray

    def __init__(self, support, values):
        sup = _as_support(support)
        v = np.asarray(values, dtype=float)
        if v.shape != (len(sup),):
            raise ContractViolationError(f"expected {len(sup)} values, got shape {v.shape}")
        if np.isnan(v).any():
            raise ContractViolationError("NaN tilt value")
        if (v == np.inf).any():
            raise ContractViolationError("+inf tilt value")
        _freeze(self, support=sup, values=v)

    @property
    def all_neg_inf(self) -> bool:
        return bool((self.values == -np.inf).all())

    def __repr__(self):
        body = ", ".join(f"{k}: {x:.6g}" for k, x in zip(self.support, self.values))
        return f"LogWeights({{{body}}})"


# ---------------------------------------------------------------------------
# constructors and alignment helpers
# ---------------------------------------------------------------------------

def log_degree_weights(support) -> LogWeights:
    """The vector k -> ln k on the given support, with ln 0 = -inf."""
    sup = _as_support(support)
    vals = np.array([-np.inf if k == 0 else math.log(k) for k in sup])
    return LogWeights(sup, vals)


def align(*measures) -> tuple[ProbVector, ...]:
    """Promote laws and probability vectors to a common union support."""
    if not measures:
        raise ContractViolationError("align needs at least one measure")
    union: set[int] = set()
    for m in measures:
        union.update(m.support)
    sup = tuple(sorted(union))
    out = []
    for m in measures:
        w = np.zeros(len(sup))
        for k, p in zip(m.support, m.weights):
            w[sup.index(k)] = p
        out.append(ProbVector(sup, w))
    return tuple(out)


def _on_support(rho: ProbVector, nu: OffspringLaw) -> ProbVector | None:
    """``rho`` read on the support of ``nu``: its zero atoms off that support
    dropped and the atoms it leaves out read as 0. ``rho`` itself when the
    supports agree, None when it charges an atom off the support."""
    if rho.support == nu.support:
        return rho
    if any(p > 0.0 and k not in nu.support
           for k, p in zip(rho.support, rho.weights)):
        return None
    return ProbVector(nu.support, [rho.prob(k) for k in nu.support])


def _check_same_support(a, b):
    if a.support != b.support:
        raise SupportMismatchError(f"supports differ: {a.support} vs {b.support}")


def _check_q(q: float, *, allow_zero: bool = False):
    """Reject a memory parameter outside (0, 1), or [0, 1) with allow_zero."""
    lo_ok = q >= 0.0 if allow_zero else q > 0.0
    if math.isnan(q) or not lo_ok or q >= 1.0:
        dom = "[0, 1)" if allow_zero else "(0, 1)"
        raise ContractViolationError(f"memory parameter {q!r} outside {dom}")


def _check_halfspace(w, c: float, support) -> np.ndarray:
    """The normal of the halfspace {rho : <rho, w> >= c} as an array, once
    it is known to be finite over the support, the bound not NaN, and the
    halfspace to meet the simplex (c <= max w)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (len(support),):
        raise ContractViolationError(
            f"halfspace functional must have length {len(support)}")
    if not np.isfinite(w).all():
        raise ContractViolationError("halfspace functional must be finite")
    if math.isnan(c):
        raise ContractViolationError("halfspace bound must be a number")
    if w.max() < c:
        raise InfeasibleError("halfspace does not meet the simplex")
    return w


def _bisect(above, lo: float, hi: float) -> float:
    """Midpoint of the bracket [lo, hi] of the point where the monotone
    predicate ``above`` turns true, once the bracket stops shrinking or
    after ``_BISECTION_ITERS`` halvings."""
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def relative_entropy(rho: ProbVector, sigma: ProbVector) -> float:
    """Relative entropy sum rho(k) log(rho(k)/sigma(k)), in [0, inf].

    Finite iff rho is absolutely continuous with respect to sigma; the value
    is +inf when rho charges an atom where sigma vanishes.
    """
    _check_same_support(rho, sigma)
    r, s = rho.weights, sigma.weights
    mask = r > 0.0
    if (s[mask] == 0.0).any():
        return math.inf
    return float(np.sum(r[mask] * np.log(r[mask] / s[mask])))


def mixed_entropy(rho: ProbVector, nu, q: float) -> float:
    """Mixed relative entropy H(rho | q rho + (1-q) nu), q in [0, 1).

    The entropy threshold of persistence and the cost of the constant
    control. Both measures are read on the union of their supports, so the
    value stays finite for q > 0 even when rho charges atoms outside the
    support of nu.
    """
    _check_q(q, allow_zero=True)
    atoms = sorted(set(rho.support) | set(nu.support))
    r = np.array([rho.prob(k) for k in atoms])
    ref = q * r + (1.0 - q) * np.array([nu.prob(k) for k in atoms])
    pos = r > 0.0
    if (ref[pos] == 0.0).any():
        return math.inf
    return float(np.sum(r[pos] * np.log(r[pos] / ref[pos])))


def pair(rho: ProbVector, lam: LogWeights) -> float:
    """Pairing sum rho(k) lam(k) with the convention 0 * (-inf) = 0."""
    _check_same_support(rho, lam)
    mask = rho.weights > 0.0
    vals = lam.values[mask]
    if (vals == -np.inf).any():
        return -math.inf
    return float(np.dot(rho.weights[mask], vals))


def size_biased(nu: OffspringLaw) -> ProbVector:
    """Size-biased law k -> k nu(k) / mean(nu); undefined when mean is 0."""
    m = nu.mean()
    if m == 0.0:
        raise DegenerateLawError("size bias undefined: law has zero mean")
    return ProbVector(nu.support, np.asarray(nu.support, dtype=float) * nu.weights / m)


def linf_distance(rho: ProbVector, sigma: ProbVector) -> float:
    """Sup-norm distance between two probability vectors on one support."""
    _check_same_support(rho, sigma)
    return float(np.max(np.abs(rho.weights - sigma.weights)))


# ---------------------------------------------------------------------------
# JSON reproduction-law format (shared with the command line tools)
# ---------------------------------------------------------------------------

def _support_and_probs(obj, what: str) -> tuple[list, list]:
    """The ``support`` and ``probs`` lists of ``{"support": [...], "probs":
    [...]}``, the JSON form of a law or a target.

    Unknown fields are rejected so that config typos fail loudly; ``probs``
    holds JSON numbers only: no text, which float() would read, and no
    booleans, which it would read as 0/1.
    """
    if not isinstance(obj, dict):
        raise ContractViolationError(f"{what} JSON must be an object")
    extra = set(obj) - {"support", "probs"}
    if extra:
        raise ContractViolationError(f"unknown {what} fields: {sorted(extra)}")
    if "support" not in obj or "probs" not in obj:
        raise ContractViolationError(f'{what} needs "support" and "probs"')
    support, probs = obj["support"], obj["probs"]
    if not isinstance(support, list) or not isinstance(probs, list):
        raise ContractViolationError('"support" and "probs" must be lists')
    if len(support) != len(probs):
        raise ContractViolationError('"support" and "probs" have different lengths')
    if any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in probs):
        raise ContractViolationError('"probs" entries must be numbers')
    return support, probs


def offspring_law_from_json(obj) -> OffspringLaw:
    """Build a law from ``{"support": [...], "probs": [...]}``."""
    return OffspringLaw(*_support_and_probs(obj, "reproduction law"))


def load_offspring_law(path) -> OffspringLaw:
    with open(path, "r", encoding="utf8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ContractViolationError(f"invalid JSON in {path}: {exc}") from exc
    return offspring_law_from_json(obj)
