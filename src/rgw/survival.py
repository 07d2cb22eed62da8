"""Activity vectors and the survival certificate built on them.

An activity vector a drives the spine urn. It is admissible when its
stationary law pi_a(k) = (1-q) a(k) nu(k) / (1 - q a(k)) sums to 1, and
this module holds that one rule, every check of it, and the bijection
between admissible activities and target laws.

Every admissible activity vector yields a candidate infinite line of descent;
the certificate functional weighs its stationary frequency against the
degrees it consumes, and a strictly negative minimum certifies survival with
positive probability. The minimizer has a closed form through the principal
Lambert W branch, indexed by a single Lagrange constant, so the whole
optimization reduces to a one-dimensional root find on the admissibility
constraint. A proportional activity profile gives a cheaper but weaker
baseline certificate, kept for comparison.

The criterion is one-sided: certification implies survival, failure to
certify implies nothing. Laws with no atom at zero survive trivially, which
the report flags separately instead of folding into the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericError
from .measures import (_SUM_TOL, OffspringLaw, ProbVector, _bisect, _check_q,
                       _check_same_support)

_BRANCH_POINT = -math.exp(-1.0)
# certification demands strict negativity; the margin keeps roundoff at a
# true zero (degenerate single-atom laws) from minting a certificate
_CERT_TOL = 1e-12


def lambert_w0(x: float) -> float:
    """Principal branch of w e^w = x on [-1/e, inf).

    Halley iteration from a piecewise initial guess: a branch-point series
    in sqrt(2(ex+1)) on the left, log(x) - log(log(x)) for large x, and the
    argument itself near zero. Three to five iterations reach machine
    precision everywhere in between.
    """
    if math.isnan(x):
        raise ContractViolationError("lambert_w0 is undefined at NaN")
    if x < _BRANCH_POINT:
        slack = 4.0 * math.ulp(-_BRANCH_POINT)
        if x < _BRANCH_POINT - slack:
            raise ContractViolationError(
                f"lambert_w0 argument {x!r} below the branch point -1/e")
        x = _BRANCH_POINT
    if x == 0.0:
        return 0.0
    if x == math.inf:
        # W grows without bound, like log x
        return math.inf

    ex1 = math.e * x + 1.0
    if ex1 <= 0.0:
        return -1.0
    if x < -0.25:
        p = math.sqrt(2.0 * ex1)
        w = -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0)))
        if p < 1e-4:
            return w
    elif x < 1.5:
        w = x / (1.0 + x) if x > 0.0 else x * (1.0 - x)
    else:
        lx = math.log(x)
        llx = math.log(lx)
        w = lx - llx + llx / lx

    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        wp1 = w + 1.0
        if abs(wp1) < 1e-12:
            return w
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 2.0 * math.ulp(1.0 + abs(w)):
            break
    return w


def activity_constraint_residual(a, nu: OffspringLaw, q: float) -> float:
    """Signed admissibility defect sum nu/(1-qa) - 1/(1-q); inf at a = 1/q."""
    _check_q(q)
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore"):
        return float(np.sum(nu.weights / (1.0 - q * a)) - 1.0 / (1.0 - q))


def _stationary_weights(a: np.ndarray, nu: OffspringLaw, q: float,
                        error: type[Exception] = ContractViolationError
                        ) -> np.ndarray:
    """The stationary law pi_a of activities a in the box, held to the one
    admissibility rule: it sums to 1 within ``_SUM_TOL``, as every
    ``ProbVector`` must, or ``error`` is raised. The sum misses 1 by
    (1-q) r / q for the residual r of ``activity_constraint_residual``."""
    with np.errstate(divide="ignore"):  # a rounded onto the wall 1/q
        weights = (1.0 - q) * a * nu.weights / (1.0 - q * a)
    total = weights.sum()
    if abs(total - 1.0) > _SUM_TOL:
        raise error(f"activities are not admissible: their stationary law "
                    f"sums to {float(total)!r}, not 1")
    return weights


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


def validate_activities(a, nu: OffspringLaw, q: float) -> np.ndarray:
    """Check an activity vector against its box and admissibility constraints."""
    _check_q(q)
    a = _check_activity_box(a, nu, q)
    for idx, k in enumerate(nu.support):
        if k == 0 and a[idx] != 0.0:
            raise ContractViolationError("the activity at atom 0 must be 0")
    _stationary_weights(a, nu, q)
    return a


def activity_from_law(rho: ProbVector, nu: OffspringLaw, q: float) -> np.ndarray:
    """Activity vector whose stationary color frequency is the given target.

    a(k) = rho(k) / (q rho(k) + (1-q) nu(k)) on the shared support, 0 at
    atom 0. Admissibility is an algebraic identity for this construction and
    is re-checked by the rule that ``validate_activities`` applies.
    """
    _check_q(q)
    _check_same_support(rho, nu)
    if rho.prob(0) > 0.0:
        raise ContractViolationError("the target must not charge atom 0")
    a = rho.weights / (q * rho.weights + (1.0 - q) * nu.weights)
    _stationary_weights(a, nu, q, NumericError)
    return a


def law_from_activity(a, nu: OffspringLaw, q: float) -> ProbVector:
    """Stationary target law of an admissible activity vector.

    pi_a(k) = (1-q) a(k) nu(k) / (1 - q a(k)). The persistence criterion
    sum pi_a(k) log(a(k)/k) is ``survival_functional``.
    """
    a = validate_activities(a, nu, q)
    return ProbVector(nu.support, _stationary_weights(a, nu, q))


def survival_functional(a, nu: OffspringLaw, q: float) -> float:
    """Certificate functional: stationary frequency weighted log activity-
    to-degree ratio, summed over the support.

    Infinite when the activity charges atom 0 while 0 sits in the support;
    an activity of 0 contributes nothing (its stationary frequency
    vanishes). No admissibility is assumed, only the box constraints.
    """
    _check_q(q)
    a = _check_activity_box(a, nu, q)
    total = 0.0
    for idx, k in enumerate(nu.support):
        ak = float(a[idx])
        if k == 0:
            if ak > 0.0:
                return math.inf
            continue
        w = float(nu.weights[idx])
        if ak == 0.0 or w == 0.0:
            continue
        total += w * (1.0 - q) * ak / (1.0 - q * ak) * math.log(ak / k)
    return total


def stationarity_ratios(a, nu: OffspringLaw, q: float):
    """Per-coordinate ratio of functional gradient to constraint gradient.

    The base-law weight cancels, leaving
    ((1-q)/q) (log(a(k)/k) + 1 - q a(k)) for each positive-degree atom. At
    the constrained minimizer these are equal across coordinates. Returns
    the atoms and their ratios; every listed activity must be positive.
    """
    _check_q(q)
    a = _check_activity_box(a, nu, q)
    atoms = []
    ratios = []
    for idx, k in enumerate(nu.support):
        if k == 0:
            continue
        ak = float(a[idx])
        if ak <= 0.0:
            raise ContractViolationError(
                f"stationarity ratio undefined at zero activity (atom {k})")
        atoms.append(k)
        ratios.append((1.0 - q) / q * (math.log(ak / k) + 1.0 - q * ak))
    return tuple(atoms), np.asarray(ratios)


@dataclass(frozen=True)
class SurvivalReport:
    """Solved certificate with its baseline comparison.

    ``survives_certified`` records a strictly negative minimum; laws with no
    mass at zero survive regardless, reported in ``trivial_survival`` rather
    than folded into the certificate.
    """

    lagrange_constant: float
    activities: np.ndarray
    minimum_value: float
    baseline_coefficient: float
    baseline_value: float
    survives_certified: bool
    trivial_survival: bool
    constraint_residual: float


def _positive_degrees(nu: OffspringLaw):
    degs = [k for k in nu.support if k != 0 and nu.prob(k) > 0.0]
    if not degs:
        raise ContractViolationError(
            "the law puts no mass on positive degrees")
    return degs


def _admissible_constant(nu: OffspringLaw, q: float, ratio,
                         ceiling: float) -> tuple[float, np.ndarray]:
    """The constant c at which the activities a(k) = ratio(c k), with a = 0
    at atom 0, meet the admissibility identity, and those activities.

    The admissibility sum must increase continuously in c on (0, ceiling),
    from below the target to past it; plain bisection then finds c. The
    upper end expands geometrically toward the ceiling first if the target
    is not yet bracketed.
    """
    target = 1.0 / (1.0 - q)

    def activities(c: float) -> np.ndarray:
        return np.array([ratio(c * k) if k != 0 else 0.0
                         for k in nu.support])

    def excess(c: float) -> float:
        return activity_constraint_residual(activities(c), nu, q)

    lo = 1e-14 * ceiling
    hi = (1.0 - 1e-14) * ceiling
    for _ in range(60):
        if excess(hi) > 0.0:
            break
        gap = ceiling - hi
        hi = ceiling - gap / 1e4
        if gap <= 0.0:
            raise NumericError("constraint target never bracketed",
                               diagnostics={"target": target, "hi": hi})
    if excess(lo) > 0.0:
        raise NumericError("constraint exceeds target at the lower bracket",
                           diagnostics={"target": target, "lo": lo})
    c = _bisect(lambda c: excess(c) > 0.0, lo, hi)
    return c, activities(c)


def solve_survival_minimizer(nu: OffspringLaw, q: float) -> SurvivalReport:
    """Minimize the certificate functional over admissible activities.

    The minimizing family is a(k) = -W0(-Ck)/q; the admissibility sum is
    continuous and strictly increasing in C, from 1 at C=0 to infinity at
    the branch-point ceiling 1/(e max S), so plain bisection finds the
    unique admissible C.
    """
    _check_q(q)
    degs = _positive_degrees(nu)
    target = 1.0 / (1.0 - q)
    c_star, activities = _admissible_constant(
        nu, q, lambda ck: -lambert_w0(-ck) / q, 1.0 / (math.e * max(degs)))
    # near the product-log branch point the constraint sum can move by more
    # than the tolerance per representable step of the constant, so finish by
    # recomputing the heaviest productive activity from the identity itself
    weights = nu.weights
    anchor = max((i for i, k in enumerate(nu.support) if k != 0),
                 key=lambda i: weights[i])
    with np.errstate(divide="ignore"):  # an activity at 1/q: rest is -inf
        rest = target - sum(weights[i] / (1.0 - q * activities[i])
                            for i in range(len(weights)) if i != anchor)
    if rest > weights[anchor]:
        polished = (1.0 - weights[anchor] / rest) / q
        if 0.0 <= polished < 1.0 / q:
            activities = activities.copy()
            activities[anchor] = polished
            activities.setflags(write=False)
    residual = abs(activity_constraint_residual(activities, nu, q))
    if residual > 1e-10:
        raise NumericError("minimizer misses the admissibility constraint",
                           diagnostics={"residual": residual, "C": c_star})

    minimum = survival_functional(activities, nu, q)
    base_c, base_value = proportional_baseline(nu, q)
    if minimum > base_value + 1e-9:
        raise NumericError(
            "constrained minimum exceeds the proportional baseline",
            diagnostics={"minimum": minimum, "baseline": base_value})
    return SurvivalReport(
        lagrange_constant=c_star,
        activities=activities,
        minimum_value=minimum,
        baseline_coefficient=base_c,
        baseline_value=base_value,
        survives_certified=minimum < -_CERT_TOL,
        trivial_survival=nu.prob(0) == 0.0,
        constraint_residual=residual,
    )


def proportional_baseline(nu: OffspringLaw, q: float) -> tuple[float, float]:
    """Admissible activity proportional to the degree, and its certificate
    value.

    Solves the admissibility sum for a(k) = c k by bisection on
    c in (0, 1/(q max S)); the value is never below the constrained
    minimum.
    """
    _check_q(q)
    degs = _positive_degrees(nu)
    c_star, activities = _admissible_constant(nu, q, lambda ck: ck,
                                              1.0 / (q * max(degs)))
    return c_star, survival_functional(activities, nu, q)
