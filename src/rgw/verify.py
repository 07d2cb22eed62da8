"""Cross-module verification suite behind the `verify` subcommand.

Each check pits two independent routes to the same quantity against each
other: quadrature against closed forms, dual solvers against simplex
oracles, Monte Carlo against exact enumeration, urn runs against stationary
laws. A check reports a non-negative observed deviation and passes when it
does not exceed the stated tolerance. The quick level trims sample sizes to
finish in well under a minute; the full level runs the million-step
campaigns at their acceptance tolerances.

Statistical checks use fixed derived seeds, so a report is reproducible; a
freshly chosen seed can fail a 3-standard-error bound by honest chance.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .classify import DECISION_TOL, VerdictKind, classify_reinforced, law_from_activity
from .control import constant_control_value, rate_by_control
from .errors import ContractViolationError, NumericError, StatisticalFailureError
from .measures import (LogWeights, OffspringLaw, ProbVector, linf_distance,
                       log_degree_weights, pair)
from .rate import concentration_target, reinforced_log_mgf, reinforced_rate
from .rng import RngStream
from .simulate import (enumerate_expected_counts, many_to_one_estimate,
                       replacement_matrix, simulate_reinforced_urn,
                       simulate_spine_urn, simulate_tree_campaign)
from .survival import (lambert_w0, solve_survival_minimizer,
                       stationarity_ratios, survival_functional)

_FLAGSHIP = OffspringLaw((1, 2), (0.5, 0.5))
_Q_FLAGSHIP = 1.0 / 3.0
_GROWTH_LIMIT = math.log(8.0 / 5.0)

# analytic crossings of the half-and-half family rho_p = (p, 1-p):
# evanescence margin changes sign at the first, persistence at the second
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
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 21):
        for y in np.linspace(-2.0, 2.0, 21):
            lam = LogWeights((1, 2), (x, y))
            got = reinforced_log_mgf(lam, _FLAGSHIP, _Q_FLAGSHIP)
            worst = max(worst, abs(got - closed_form_log_mgf(x, y)))
    return 1e-8, worst


def _check_closed_form_rate() -> tuple[float, float]:
    worst = 0.0
    for p in np.arange(0.05, 0.501, 0.05):
        rho = ProbVector((1, 2), (p, 1.0 - p))
        got = reinforced_rate(rho, _FLAGSHIP, _Q_FLAGSHIP).value
        worst = max(worst, abs(got - closed_form_rate(float(p))))
    return 1e-6, worst


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
    bound = constant_control_value(_CONTROL_TARGET, _FLAGSHIP, _Q_FLAGSHIP)
    return 0.0, max(0.0, value - (bound - 1e-3))


def _check_triangulation(rng: RngStream, *, qs, n_values,
                         replicas: int) -> tuple[float, float]:
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
    est, _ = many_to_one_estimate(_FLAGSHIP, _Q_FLAGSHIP, 16, replicas, None,
                                  rng.child(3))
    return tol, abs(math.log(est) / 16.0 - _GROWTH_LIMIT)


def _check_spine_lln(rng: RngStream, *, slice_points, steps: int,
                     tol: float) -> tuple[float, float]:
    worst = 0.0
    for i, t in enumerate(slice_points):
        a = _flagship_activities(t)
        target = law_from_activity(a, _FLAGSHIP, _Q_FLAGSHIP)
        freq, _ = simulate_spine_urn(_FLAGSHIP, _Q_FLAGSHIP, a, steps,
                                     rng.child(300 + i))
        worst = max(worst, linf_distance(freq, target))
    return tol, worst


def _check_replacement_eigenvalue(spectra) -> tuple[float, float]:
    worst = 0.0
    for _, spec in spectra:
        worst = max(worst, abs(spec.eigenvalue - 1.0))
    return 1e-10, worst


def _check_replacement_left_vector(spectra) -> tuple[float, float]:
    worst = 0.0
    for a, spec in spectra:
        target = law_from_activity(a, _FLAGSHIP, _Q_FLAGSHIP)
        worst = max(worst, linf_distance(spec.support_distribution, target))
    return 1e-8, worst


def _check_census_lln(rng: RngStream, *, steps: int) -> tuple[float, float]:
    _, census = simulate_reinforced_urn(_FLAGSHIP, _Q_FLAGSHIP, steps,
                                        rng.child(4))
    return 5e-3, linf_distance(census.normalize(),
                               _FLAGSHIP.as_prob_vector())


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


# random starts, and descent steps per start, of the survival oracle
_ORACLE_STARTS = 6
_ORACLE_ITERS = 500


def _projected_gradient_minimum(nu: OffspringLaw, q: float,
                                gen: np.random.Generator) -> float:
    """Independent minimizer: eliminate the last positive-degree activity
    through the admissibility constraint, then projected gradient descent
    with finite-difference gradients on the remaining box coordinates."""
    idxs = [i for i, k in enumerate(nu.support) if k != 0]
    target = 1.0 / (1.0 - q)
    last = idxs[-1]
    free = idxs[:-1]
    hi = 1.0 / q - 1e-9

    def assemble(v):
        a = np.zeros(len(nu.support))
        for j, fi in enumerate(free):
            a[fi] = v[j]
        rem = target - sum(nu.weights[i] / (1.0 - q * a[i])
                           for i in range(len(nu.support)) if i != last)
        if rem <= nu.weights[last]:
            return None
        al = (1.0 - nu.weights[last] / rem) / q
        if not 0.0 <= al < 1.0 / q:
            return None
        a[last] = al
        return a

    def value(v):
        a = assemble(v)
        return math.inf if a is None else survival_functional(a, nu, q)

    if not free:
        return value(np.empty(0))

    best = math.inf
    for _ in range(_ORACLE_STARTS):
        for _ in range(50):
            v = gen.uniform(0.05, min(hi, 6.0), size=len(free))
            f = value(v)
            if math.isfinite(f):
                break
        else:
            continue
        step = 0.1
        h = 1e-7
        for _ in range(_ORACLE_ITERS):
            grad = np.empty(len(free))
            for j in range(len(free)):
                vp, vm = v.copy(), v.copy()
                vp[j] = min(v[j] + h, hi)
                vm[j] = max(v[j] - h, 0.0)
                fp, fm = value(vp), value(vm)
                if not (math.isfinite(fp) and math.isfinite(fm)):
                    grad[j] = 0.0
                else:
                    grad[j] = (fp - fm) / (vp[j] - vm[j])
            moved = False
            for _ in range(40):
                cand = np.clip(v - step * grad, 0.0, hi)
                fc = value(cand)
                if math.isfinite(fc) and fc < f - 1e-15:
                    v, f = cand, fc
                    step *= 1.5
                    moved = True
                    break
                step *= 0.5
            if not moved and step < 1e-14:
                break
        best = min(best, f)
    return best


def _check_survival_constraint(instances) -> tuple[float, float]:
    worst = 0.0
    for _, _, report in instances:
        worst = max(worst, report.constraint_residual)
    return 1e-10, worst


def _check_survival_stationarity(instances) -> tuple[float, float]:
    worst = 0.0
    for nu, q, report in instances:
        _, ratios = stationarity_ratios(report.activities, nu, q)
        if len(ratios) > 1:
            spread = float(np.ptp(ratios)) / max(1.0, float(np.abs(ratios).max()))
            worst = max(worst, spread)
    return 1e-6, worst


def _check_survival_baseline(instances) -> tuple[float, float]:
    worst = 0.0
    for _, _, report in instances:
        worst = max(worst, max(0.0, report.minimum_value - report.baseline_value))
    return 1e-9, worst


def _check_survival_oracle(rng: RngStream, instances) -> tuple[float, float]:
    gen = rng.generator("survival-oracle")
    worst = 0.0
    for nu, q, report in instances:
        oracle = _projected_gradient_minimum(nu, q, gen)
        worst = max(worst, abs(report.minimum_value - oracle))
    return 1e-6, worst


_PHASE_MESH = 1.0 / 200.0


def _scan_verdicts(mesh: float):
    ps = np.arange(round(0.70 / mesh), round(0.96 / mesh)) * mesh
    kinds = []
    margins = []
    for p in ps:
        rho = ProbVector((1, 2), (p, 1.0 - p))
        verdict = classify_reinforced(rho, _FLAGSHIP, _Q_FLAGSHIP)
        kinds.append(verdict.kind)
        margins.append((verdict.margin_evanescence, verdict.margin_persistence))
    return ps, kinds, margins


def _check_phase_boundary(scan) -> tuple[float, float]:
    ps, kinds, _ = scan
    persistent = [p for p, k in zip(ps, kinds)
                  if k is VerdictKind.STRONGLY_PERSISTENT]
    evanescent = [p for p, k in zip(ps, kinds) if k is VerdictKind.EVANESCENT]
    if not persistent or not evanescent:
        return _PHASE_MESH, math.inf
    last_persistent = max(persistent)
    first_evanescent = min(evanescent)
    worst = max(abs(last_persistent - _CROSSING_PERSISTENCE),
                abs(first_evanescent - _CROSSING_EVANESCENCE))
    return _PHASE_MESH, worst


def _check_phase_exclusivity(scan) -> tuple[float, float]:
    _, _, margins = scan
    worst = 0.0
    for ev, pe in margins:
        worst = max(worst, max(0.0, min(ev, pe)))
    return DECISION_TOL, worst


def _plain(value):
    # NumPy scalars and arrays in error diagnostics become JSON numbers and lists
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def verify_suite(level: str = "quick", seed: int = 42) -> dict:
    """Run every cross-module check at the given level.

    Returns a JSON-ready report: one entry per check with its tolerance, the
    observed deviation, and the pass flag, plus an overall verdict. Work that
    several checks share (the control solve, the replacement spectra, the
    survival solves, the verdict scan) runs once per call, inside the first
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

    @functools.cache
    def verdict_scan():
        return _scan_verdicts(_PHASE_MESH)

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
         lambda: _check_survival_oracle(rng, survival_instances())),
        ("phase_boundary", lambda: _check_phase_boundary(verdict_scan())),
        ("phase_exclusivity",
         lambda: _check_phase_exclusivity(verdict_scan())),
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
