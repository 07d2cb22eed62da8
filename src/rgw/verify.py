"""Cross-module verification suite behind the `verify` subcommand.

Most checks pit two independent routes to the same quantity against each
other: quadrature against closed forms, Monte Carlo against exact
enumeration, urn runs against stationary laws. The survival minimum is
bracketed instead: a convexity certificate at the reported minimizer bounds
how far the true minimum can lie from it. A check reports a non-negative
observed deviation and passes when it does not exceed the stated tolerance.
The quick level trims sample sizes to finish in well under a minute; the
full level runs the million-step campaigns at their acceptance tolerances.

Statistical checks use fixed derived seeds, so a report is reproducible; a
freshly chosen seed can fail one by honest chance, at the false-alarm rate
its docstring states. ``tools/verify_sweep.py`` counts failures over seeds.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .classify import DECISION_TOL, classify_reinforced
from .control import rate_by_control
from .errors import ContractViolationError, NumericError, StatisticalFailureError
from .measures import (LogWeights, OffspringLaw, ProbVector, _bisect,
                       linf_distance, log_degree_weights, mixed_entropy, pair)
from .rate import concentration_target, reinforced_log_mgf, reinforced_rate
from .rng import RngStream
from .simulate import (enumerate_expected_counts, many_to_one_estimate,
                       replacement_matrix, simulate_reinforced_urn,
                       simulate_spine_urn, simulate_tree_campaign)
from .survival import (lambert_w0, law_from_activity,
                       solve_survival_minimizer, stationarity_ratios)

_FLAGSHIP = OffspringLaw((1, 2), (0.5, 0.5))
_Q_FLAGSHIP = 1.0 / 3.0
_GROWTH_LIMIT = math.log(8.0 / 5.0)

# analytic crossings of the half-and-half family rho_p = (p, 1-p):
# persistence margin changes sign at the first, evanescence at the second
_CROSSING_PERSISTENCE = 0.8322126812559791
_CROSSING_EVANESCENCE = 0.8368353218922084


def closed_form_log_mgf(x: float, y: float) -> float:
    """Reference log-mgf of the half-and-half law at memory 1/3."""
    hi, lo = (x, y) if x >= y else (y, x)
    return math.log(2.0) + hi - math.log(3.0 - math.exp(lo - hi))


def closed_form_rate(p: float) -> float:
    """Reference rate of (p, 1-p) for the same model, any p in (0, 1)."""
    p = min(p, 1.0 - p)
    return (p * math.log(3.0 * p / (p + 1.0)) - math.log(2.0)
            + math.log(3.0 / (p + 1.0)))


def _flagship_activities(t: float) -> np.ndarray:
    # one-parameter slice of the admissible set: fix a(1)=t, solve for a(2)
    rest = 1.5 - 0.5 / (1.0 - t / 3.0)
    return np.array([t, 3.0 * (1.0 - 0.5 / rest)])


def _random_law(gen: np.random.Generator) -> OffspringLaw:
    size = int(gen.integers(2, 5))
    while True:
        support = np.sort(gen.choice(np.arange(0, 7), size=size, replace=False))
        if (support > 0).any():
            break
    weights = gen.dirichlet(np.ones(size))
    weights = np.maximum(weights, 1e-3)
    weights /= weights.sum()
    return OffspringLaw(tuple(int(k) for k in support), weights)


def _check_closed_form_log_mgf() -> tuple[float, float]:
    grid = np.linspace(-2.0, 2.0, 21)
    return 1e-8, max(abs(reinforced_log_mgf(LogWeights((1, 2), (x, y)),
                                            _FLAGSHIP, _Q_FLAGSHIP)
                         - closed_form_log_mgf(x, y))
                     for x in grid for y in grid)


def _check_closed_form_rate() -> tuple[float, float]:
    return 1e-6, max(abs(reinforced_rate(ProbVector((1, 2), (p, 1.0 - p)),
                                         _FLAGSHIP, _Q_FLAGSHIP).value
                         - closed_form_rate(float(p)))
                     for p in np.arange(0.05, 0.501, 0.05))


def _check_concentration_target() -> tuple[float, float]:
    with_memory = concentration_target(_FLAGSHIP, _Q_FLAGSHIP)
    memoryless = concentration_target(_FLAGSHIP, 0.0)
    worst = max(
        linf_distance(with_memory, ProbVector((1, 2), (0.2, 0.8))),
        linf_distance(memoryless, ProbVector((1, 2), (1.0 / 3.0, 2.0 / 3.0))))
    return 1e-7, worst


def _check_duality(rng: RngStream) -> tuple[float, float]:
    gen = rng.generator("duality")
    worst = 0.0
    for _ in range(20):
        nu = _random_law(gen)
        q = float(gen.uniform(0.05, 0.95))
        ln = log_degree_weights(nu.support)
        target = concentration_target(nu, q)
        lhs = pair(target, ln) - reinforced_rate(target, nu, q).value
        rhs = reinforced_log_mgf(ln, nu, q)
        worst = max(worst, abs(lhs - rhs))
    return 1e-6, worst


_CONTROL_TARGET = ProbVector((1, 2), (0.2, 0.8))


def _check_control(value: float) -> tuple[float, float]:
    exact = closed_form_rate(0.2)
    return 0.02, abs(value - exact) / exact


def _check_control_margin(value: float) -> tuple[float, float]:
    bound = mixed_entropy(_CONTROL_TARGET, _FLAGSHIP, _Q_FLAGSHIP)
    return 0.0, max(0.0, value - (bound - 1e-3))


def _check_triangulation(rng: RngStream, *, qs, n_values,
                         replicas: int) -> tuple[float, float]:
    """Worst z-score of two Monte Carlo estimates of E Z_n against exact
    enumeration. False alarms: one near-normal score passes 3 with
    probability 0.27%, so by Bonferroni the full level's 16 do with at most
    4.3% and the quick level's 2 with at most 0.54%. Measured: 2 failures in
    100 full seeds, at z = 3.70 and 3.47, and 1 in 200 quick
    (``tools/verify_sweep.py``)."""
    worst = 0.0
    n_max = max(n_values)
    for qi, q in enumerate(qs):
        # a campaign cut to depth n is the depth-n campaign of its stream
        # (see simulate_tree_campaign), so one to n_max gives every depth
        camp = simulate_tree_campaign(
            _FLAGSHIP, q, n_max, replicas, rng.child(100 + 10 * qi + n_max))
        for n in n_values:
            exact = sum(enumerate_expected_counts(_FLAGSHIP, q, n).values())
            sizes = camp.populations[:, n].astype(float)
            z_sim = abs(sizes.mean() - exact) / (sizes.std(ddof=1)
                                                 / math.sqrt(replicas))
            est, se = many_to_one_estimate(
                _FLAGSHIP, q, n, replicas, None, rng.child(200 + 10 * qi + n))
            z_m2o = abs(est - exact) / se
            worst = max(worst, z_sim, z_m2o)
    return 3.0, worst


def _check_growth_exponent(rng: RngStream, *, replicas: int,
                           tol: float) -> tuple[float, float]:
    """Many-to-one growth exponent at depth 16 against log(8/5). False
    alarms: negligible; the tolerance clears the exact depth-16 offset of
    0.0116 by over 48 standard errors (5.4e-4 quick, 1.7e-4 full)."""
    est, _ = many_to_one_estimate(_FLAGSHIP, _Q_FLAGSHIP, 16, replicas, None,
                                  rng.child(3))
    return tol, abs(math.log(est) / 16.0 - _GROWTH_LIMIT)


def _check_spine_lln(rng: RngStream, *, slice_points, steps: int,
                     tol: float) -> tuple[float, float]:
    """Spine-urn frequencies against each activity's stationary law. False
    alarms: negligible; over 30-100 seeds the error's root mean square was
    at most 1.9e-3 at 1e5 steps and 8.0e-4 at 1e6, a tenth of the tolerance."""
    worst = 0.0
    for i, t in enumerate(slice_points):
        a = _flagship_activities(t)
        target = law_from_activity(a, _FLAGSHIP, _Q_FLAGSHIP)
        freq, _ = simulate_spine_urn(_FLAGSHIP, _Q_FLAGSHIP, a, steps,
                                     rng.child(300 + i))
        worst = max(worst, linf_distance(freq, target))
    return tol, worst


def _check_replacement_eigenvalue(spectra) -> tuple[float, float]:
    return 1e-10, max(abs(spec.eigenvalue - 1.0) for _, spec in spectra)


def _check_replacement_left_vector(spectra) -> tuple[float, float]:
    return 1e-8, max(linf_distance(spec.support_distribution,
                                   law_from_activity(a, _FLAGSHIP, _Q_FLAGSHIP))
                     for a, spec in spectra)


def _check_census_lln(rng: RngStream, *, steps: int) -> tuple[float, float]:
    """Urn census frequencies against the base law. False alarms: 1e-6 to
    1e-5; over 30 seeds the error's root mean square at 1e6 steps was
    1.0e-3, so the tolerance stands about 4.8 of those from zero."""
    _, census = simulate_reinforced_urn(_FLAGSHIP, _Q_FLAGSHIP, steps,
                                        rng.child(4))
    return 5e-3, linf_distance(census.normalize(), _FLAGSHIP)


def _check_lambert() -> tuple[float, float]:
    lo = -math.exp(-1.0) + 1e-12
    xs = np.concatenate([np.linspace(lo, -1e-12, 2500),
                         np.geomspace(1e-12, 1e6, 7500)])
    worst = 0.0
    for x in xs:
        y = lambert_w0(float(x))
        resid = abs(y * math.exp(y) - x)
        worst = max(worst, resid / max(1.0, abs(x)))
    return 1e-14, worst


def _survival_instances(rng: RngStream):
    """The survival test laws with their solved certificates, as
    ``(nu, q, report)`` triples."""
    gen = rng.generator("survival-instances")
    cases = [(_FLAGSHIP, _Q_FLAGSHIP), (OffspringLaw((0, 2), (0.5, 0.5)), 0.6)]
    while len(cases) < 10:
        cases.append((_random_law(gen), float(gen.uniform(0.1, 0.8))))
    return [(nu, q, solve_survival_minimizer(nu, q)) for nu, q in cases]


def _check_survival_constraint(instances) -> tuple[float, float]:
    return 1e-10, max(report.constraint_residual for _, _, report in instances)


def _check_survival_stationarity(instances) -> tuple[float, float]:
    worst = 0.0
    for nu, q, report in instances:
        _, ratios = stationarity_ratios(report.activities, nu, q)
        if len(ratios) > 1:
            spread = float(np.ptp(ratios)) / max(1.0, float(np.abs(ratios).max()))
            worst = max(worst, spread)
    return 1e-6, worst


def _check_survival_baseline(instances) -> tuple[float, float]:
    return 1e-9, max(max(0.0, report.minimum_value - report.baseline_value)
                     for _, _, report in instances)


def _check_survival_oracle(instances) -> tuple[float, float]:
    """Bracket each reported minimum by convexity, off the Lambert W route.

    In pi = law_from_activity(a) the functional is f(pi) = H(pi | q pi +
    (1-q) nu) - <pi, ln k>: relative entropy is jointly convex and its
    reference affine in pi, so f is convex on the simplex of the positive
    atoms. The Frank-Wolfe gap <g, pi> - min_k g_k of its gradient g then
    puts the minimum in [f(pi) - gap, f(pi)] (Jaggi 2013), and the observed
    |reported minimum - f(pi)| + gap bounds the reported minimum's error.
    """
    worst = 0.0
    for nu, q, report in instances:
        pi = law_from_activity(report.activities, nu, q)
        value = mixed_entropy(pi, nu, q) - pair(pi, log_degree_weights(nu.support))
        k = np.asarray(nu.support, dtype=float)
        pos = k > 0
        p = pi.weights[pos]
        if (p == 0.0).any():
            # the gradient is -inf at the simplex's edge: no minimum there
            return 1e-6, math.inf
        mix = q * p + (1.0 - q) * nu.weights[pos]
        grad = np.log(p / (k[pos] * mix)) + 1.0 - q * p / mix
        gap = float(np.dot(grad, p) - grad.min())
        worst = max(worst, abs(report.minimum_value - value) + gap)
    return 1e-6, worst


def _phase_roots():
    """Bisect (p, 1-p) over [0.70, 0.96] for the persistence and evanescence
    crossings: both roots, inf if a bracket end has the wrong sign, and the
    (evanescence, persistence) margins of every classify."""
    margins = []

    def margins_at(p: float):
        v = classify_reinforced(ProbVector((1, 2), (p, 1.0 - p)), _FLAGSHIP,
                                _Q_FLAGSHIP)
        margins.append((v.margin_evanescence, v.margin_persistence))
        return margins[-1]

    roots = []
    for above in (lambda p: margins_at(p)[1] <= 0.0,
                  lambda p: margins_at(p)[0] > 0.0):
        bracketed = not above(0.70) and above(0.96)
        roots.append(_bisect(above, 0.70, 0.96) if bracketed else math.inf)
    return roots, margins


def _check_phase_boundary(phase) -> tuple[float, float]:
    """The roots against the crossings, which equal bit for bit the roots of
    the closed forms (closed_form_rate, mixed_entropy). The evanescence root
    misses by 1e-14, the rate quadrature's floor, a hundredth of the gate."""
    roots, _ = phase
    return 1e-12, max(abs(roots[0] - _CROSSING_PERSISTENCE),
                      abs(roots[1] - _CROSSING_EVANESCENCE))


def _check_phase_exclusivity(phase) -> tuple[float, float]:
    """No probe certifies both verdicts: that needs rate > gain > entropy,
    and the rate never exceeds the entropy. The probes span [0.70, 0.96] and
    crowd at the crossings, where the band between thresholds is thinnest."""
    _, margins = phase
    return DECISION_TOL, max(max(0.0, min(ev, pe)) for ev, pe in margins)


def _plain(value):
    # NumPy scalars and arrays in error diagnostics become JSON numbers and lists
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def verify_suite(level: str = "quick", seed: int = 42) -> dict:
    """Run every cross-module check at the given level.

    Returns a JSON-ready report: one entry per check with its tolerance, the
    observed deviation, and the pass flag, plus an overall verdict. Work that
    several checks share (the control solve, the replacement spectra, the
    survival solves, the phase roots) runs once per call, inside the first
    check that needs it, and is timed there.

    A check that raises one of the package's typed errors fails without
    stopping the run: its tolerance and observed value are None, and its
    entry alone carries an ``error`` with the exception's type, message and
    diagnostics.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verify level {level!r}")
    rng = RngStream(seed, 900)
    full = level == "full"
    slice_points = (0.5, 0.75, 1.0, 1.25, 1.4) if full else (0.5, 1.25)

    @functools.cache
    def control_value():
        return rate_by_control(_CONTROL_TARGET, _FLAGSHIP, _Q_FLAGSHIP,
                               steps=64 if full else 32)[0]

    @functools.cache
    def replacement_spectra():
        # (activities, spectrum) pairs over the slice
        return [(a, replacement_matrix(_FLAGSHIP, _Q_FLAGSHIP, a))
                for a in map(_flagship_activities, slice_points)]

    @functools.cache
    def survival_instances():
        return _survival_instances(rng)

    phase_roots = functools.cache(_phase_roots)

    plan = [
        ("closed_form_log_mgf", lambda: _check_closed_form_log_mgf()),
        ("closed_form_rate", lambda: _check_closed_form_rate()),
        ("concentration_target", lambda: _check_concentration_target()),
        ("duality_identity", lambda: _check_duality(rng)),
        ("control_upper_bound", lambda: _check_control(control_value())),
        ("control_strict_margin",
         lambda: _check_control_margin(control_value())),
        ("triangulation", lambda: _check_triangulation(
            rng, qs=(0.0, _Q_FLAGSHIP) if full else (_Q_FLAGSHIP,),
            n_values=(3, 4, 5, 6) if full else (3,),
            replicas=100_000 if full else 20_000)),
        ("growth_exponent", lambda: _check_growth_exponent(
            rng, replicas=1_000_000 if full else 100_000,
            tol=0.02 if full else 0.05)),
        ("spine_urn_lln", lambda: _check_spine_lln(
            rng, slice_points=slice_points,
            steps=1_000_000 if full else 100_000,
            tol=0.01 if full else 0.02)),
        ("replacement_eigenvalue",
         lambda: _check_replacement_eigenvalue(replacement_spectra())),
        ("replacement_left_vector",
         lambda: _check_replacement_left_vector(replacement_spectra())),
        ("lambert_residual", lambda: _check_lambert()),
        ("survival_constraint",
         lambda: _check_survival_constraint(survival_instances())),
        ("survival_stationarity",
         lambda: _check_survival_stationarity(survival_instances())),
        ("survival_baseline_gap",
         lambda: _check_survival_baseline(survival_instances())),
        ("survival_oracle_gap",
         lambda: _check_survival_oracle(survival_instances())),
        ("phase_boundary", lambda: _check_phase_boundary(phase_roots())),
        ("phase_exclusivity",
         lambda: _check_phase_exclusivity(phase_roots())),
    ]
    if full:
        plan.append(("census_lln",
                     lambda: _check_census_lln(rng, steps=1_000_000)))

    checks = []
    t0 = time.perf_counter()
    for name, fn in plan:
        t1 = time.perf_counter()
        error = None
        try:
            tolerance, observed = map(float, fn())
        except (ContractViolationError, NumericError,
                StatisticalFailureError) as exc:
            tolerance = observed = None
            error = {"type": type(exc).__name__, "message": str(exc),
                     "diagnostics": {k: _plain(v) for k, v in
                                     getattr(exc, "diagnostics", {}).items()}}
        checks.append({
            "name": name,
            "tolerance": tolerance,
            "observed": observed,
            "passed": error is None and observed <= tolerance,
            "seconds": round(time.perf_counter() - t1, 3),
        })
        if error is not None:
            checks[-1]["error"] = error
    return {
        "level": level,
        "seed": int(seed),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
