"""Command-line front end.

One executable with a subcommand per capability: rate curves, law
classification, tree campaigns, urn and spine runs, two-type benchmarks,
conditioned-ensemble estimates, survival certificates, and the verification
suite. Output is CSV (17 significant digits) or JSON, written to --out or
stdout; all randomness derives from --seed, so equal invocations produce
byte-identical files.

Exit codes: 0 success, 1 invalid input, 2 numeric or statistical failure,
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import chain, islice

import numpy as np

from .classify import (classify_memoryless, classify_reinforced,
                       law_from_activity, search_two_type_decomposition,
                       two_type_weak_persistence)
from .control import rate_by_control
from .errors import NumericError, StatisticalFailureError
from .measures import OffspringLaw, ProbVector, load_offspring_law, mixed_entropy
from .rate import reinforced_rate, sanov_rate
from .rng import RngStream
from .simulate import (gibbs_conditional_estimate, simulate_reinforced_urn,
                       simulate_spine_urn, simulate_tree_campaign)
from .survival import solve_survival_minimizer
from .verify import verify_suite

_SUBCOMMANDS = ("rate", "classify", "simulate", "urn", "spine", "two-type",
                "gibbs", "survival", "verify")
# CSV rows are formatted and written this many at a time, so a large table
# is never held in memory as text
_CSV_BLOCK = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # numeric failures, so route parse errors through the usual handler
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_fraction(text: str, what: str) -> float:
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"cannot parse {what} {text!r}: {exc}") from None


def _parse_q(text: str, *, allow_zero: bool) -> float:
    q = _parse_fraction(text, "memory parameter")
    lo_ok = q >= 0.0 if allow_zero else q > 0.0
    if not lo_ok or q >= 1.0:
        dom = "[0, 1)" if allow_zero else "(0, 1)"
        raise _UsageError(f"memory parameter {text!r} outside {dom}")
    return q


def _parse_pairs(text: str, what: str) -> tuple[tuple[int, ...], list[float]]:
    atoms: list[int] = []
    values: list[float] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, val = chunk.partition(":")
        try:
            atoms.append(int(key))
        except ValueError:
            raise _UsageError(f"bad atom {key!r} in {what}") from None
        values.append(_parse_fraction(val, f"{what} entry"))
    if not atoms:
        raise _UsageError(f"empty {what}")
    if len(set(atoms)) != len(atoms):
        raise _UsageError(f"repeated atom in {what}")
    order = sorted(range(len(atoms)), key=atoms.__getitem__)
    return (tuple(atoms[i] for i in order), [values[i] for i in order])


def _parse_prob_vector(text: str, what: str) -> ProbVector:
    # accepts inline JSON, a law-format .json file, or a k:prob;k:prob string
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
            return ProbVector(doc["support"], doc["probs"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise _UsageError(f"cannot parse {what} as JSON: {exc}") from None
    if stripped.endswith(".json"):
        law = _parse_law(stripped)
        return ProbVector(law.support, law.weights)
    atoms, values = _parse_pairs(text, what)
    return ProbVector(atoms, values)


def _parse_law(path: str) -> OffspringLaw:
    try:
        return load_offspring_law(path)
    except OSError as exc:
        raise _UsageError(f"cannot read law file {path!r}: {exc}") from None


def _aligned_values(text: str, support: tuple[int, ...], what: str) -> list[float]:
    atoms, values = _parse_pairs(text, what)
    if atoms != support:
        raise _UsageError(
            f"{what} atoms {atoms} do not match the law support {support}")
    return values


def _grid_points(step_text: str) -> list[tuple[Fraction, float]]:
    try:
        step = Fraction(step_text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"cannot parse grid step {step_text!r}: {exc}") from None
    if not 0 < step < 1:
        raise _UsageError("grid step must lie in (0, 1)")
    points = []
    i = 1
    while i * step < 1:
        points.append((i * step, float(i * step)))
        i += 1
    return points


_BOOL_TEXT = {True: "true", False: "false"}
_FLOAT_TEXT = "%.17g"


def _json_float(value):
    x = float(value)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _cell_rule(kind: type, fmt: str):
    """The function that turns a cell of Python or NumPy type ``kind`` into
    CSV text or a JSON value: None is empty (null), a bool true or false,
    an int its digits, a float 17 significant digits (a number, or "inf" or
    "-inf" in JSON); any other value is written as its str (passed to JSON
    as it is)."""
    csv = fmt == "csv"
    if kind is type(None):
        return (lambda v: "") if csv else (lambda v: None)
    if issubclass(kind, (bool, np.bool_)):
        return _BOOL_TEXT.__getitem__ if csv else bool
    if issubclass(kind, (int, np.integer)):
        return str if csv else int
    if issubclass(kind, (float, np.floating)):
        return _FLOAT_TEXT.__mod__ if csv else _json_float
    return str if csv else (lambda v: v)


def _column(values, fmt: str) -> list:
    kinds = set(map(type, values))
    if len(kinds) == 1:
        return list(map(_cell_rule(kinds.pop(), fmt), values))
    rules = {kind: _cell_rule(kind, fmt) for kind in kinds}
    return [rules[type(v)](v) for v in values]


def _expand(values, index: np.ndarray, fmt: str) -> list:
    """``_column`` of ``values[index]``, converting each value once."""
    return np.asarray(_column(values, fmt), dtype=object)[index].tolist()


def _render_blocks(columns: list[str], blocks, fmt: str):
    """Yield the table as text: CSV a block of rows at a time, JSON as one
    document.

    Each block holds the cells of its rows a column at a time, converted by
    ``_column``. CSV lines are joined from the columns and written block by
    block, while JSON rows are collected for one document.
    """
    if fmt == "csv":
        yield ",".join(columns) + "\n"
    records = []
    for cols in blocks:
        if fmt == "csv":
            yield "\n".join(map(",".join, zip(*cols))) + "\n"
        else:
            records.extend(dict(zip(columns, row)) for row in zip(*cols))
    if fmt == "json":
        yield json.dumps(records, indent=1) + "\n"


def _render(columns: list[str], rows, fmt: str):
    """``_render_blocks`` over rows taken ``_CSV_BLOCK`` at a time, each
    block converted a column at a time: every cell of one type in a column
    by the same rule of ``_cell_rule``. The text is the same as converting
    the cells one by one."""
    rows = iter(rows)
    blocks = iter(lambda: list(islice(rows, _CSV_BLOCK)), [])
    return _render_blocks(
        columns, ([_column(values, fmt) for values in zip(*block)]
                  for block in blocks), fmt)


def _write(chunks, out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", newline="") as fh:
            fh.writelines(chunks)


def _rho_key(rho: ProbVector) -> str:
    return ";".join(f"{k}:{_FLOAT_TEXT % w}"
                    for k, w in zip(rho.support, rho.weights))


def _rate_value(rho: ProbVector, nu: OffspringLaw, q: float) -> float:
    if q == 0.0:
        if rho.support != nu.support:
            raise _UsageError("target support must match the law support")
        return sanov_rate(rho, nu)
    return reinforced_rate(rho, nu, q).value


def _is_flagship(nu: OffspringLaw) -> bool:
    return (nu.support == (1, 2) and float(nu.weights[0]) == 0.5
            and float(nu.weights[1]) == 0.5)


def _rate_columns(rho: ProbVector, nu: OffspringLaw, q: float) -> list:
    closed = q == 0.0 or (_is_flagship(nu) and abs(q - 1.0 / 3.0) <= 1e-12)
    neg_log_q = math.inf if q == 0.0 else -math.log(q)
    return [closed, _rate_value(rho, nu, q), mixed_entropy(rho, nu, q),
            neg_log_q]


def _cmd_rate(args) -> int:
    nu = _parse_law(args.law)
    q = _parse_q(args.q, allow_zero=True)
    tail = ["rate_closed_form_available", "lambda_star", "upper_bound_H",
            "neg_log_q"]
    rows = []
    if args.grid is not None:
        if len(nu.support) != 2:
            raise _UsageError("--grid needs a two-atom law; use --rho instead")
        columns = ["p"] + tail
        for _, p in _grid_points(args.grid):
            rho = ProbVector(nu.support, (p, 1.0 - p))
            rows.append([p] + _rate_columns(rho, nu, q))
    else:
        columns = ["rho_key"] + tail
        rho = _parse_prob_vector(args.rho, "--rho")
        rows.append([_rho_key(rho)] + _rate_columns(rho, nu, q))
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _cmd_classify(args) -> int:
    nu = _parse_law(args.law)
    q = _parse_q(args.q, allow_zero=True)
    targets = []
    if args.grid is not None:
        if len(nu.support) != 2:
            raise _UsageError("--grid needs a two-atom law; use --rho instead")
        for _, p in _grid_points(args.grid):
            targets.append(ProbVector(nu.support, (p, 1.0 - p)))
    else:
        targets.append(_parse_prob_vector(args.rho, "--rho"))
    columns = ["rho_key", "kind", "margin_evanescence", "margin_persistence",
               "subcritical_flag"]
    rows = []
    for rho in targets:
        verdict = (classify_memoryless(rho, nu) if q == 0.0
                   else classify_reinforced(rho, nu, q))
        rows.append([_rho_key(rho), verdict.kind.value,
                     verdict.margin_evanescence, verdict.margin_persistence,
                     verdict.subcritical])
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _hist_key(support: tuple[int, ...], counts: tuple[int, ...]) -> str:
    return "|".join(f"{k}:{c}" for k, c in zip(support, counts) if c)


def _population_blocks(populations: np.ndarray, last: np.ndarray,
                       alive: np.ndarray, cut: np.ndarray, fmt: str):
    """The converted census-free rows of ``simulate``, generations
    0..last[r] of each replica r, in blocks of about ``_CSV_BLOCK`` rows
    taken a column at a time straight from the campaign arrays. A column
    that repeats a replica's or a generation's value converts it once."""
    replicas, width = populations.shape
    per = max(1, _CSV_BLOCK // width)
    for start in range(0, replicas, per):
        part = slice(start, start + per)
        shown = np.arange(width) <= last[part, None]
        # each row's replica, counted from start, and generation
        row_of, gen = np.nonzero(shown)
        yield [_expand(range(start, start + shown.shape[0]), row_of, fmt),
               _expand(range(width), gen, fmt),
               _column(populations[part][shown].tolist(), fmt),
               _expand(alive[part].tolist(), row_of, fmt),
               _expand(cut[part].tolist(), row_of, fmt),
               _column([""], fmt) * row_of.size,
               _column([""], fmt) * row_of.size]


def _cmd_simulate(args) -> int:
    nu = _parse_law(args.law)
    q = _parse_q(args.q, allow_zero=True)
    campaign = simulate_tree_campaign(nu, q, args.n_max, args.replicas,
                                      RngStream(args.seed),
                                      pop_cap=args.pop_cap,
                                      keep_histograms=args.histograms)
    columns = ["replica", "generation", "population", "survived",
               "truncated", "hist_key", "hist_count"]
    # rows stop at the truncation point; beyond it the recorded population
    # would read zero while the process is merely capped
    trunc = campaign.truncated_at
    cut = trunc >= 0
    last = np.where(cut, trunc, args.n_max)
    alive = cut | (campaign.populations[:, args.n_max] > 0)
    if campaign.histograms is None:
        blocks = _population_blocks(campaign.populations, last, alive, cut,
                                    args.format)
        _write(_render_blocks(columns, blocks, args.format), args.out)
        return 0
    # each generation's census in (replica, counts) order, consumed a
    # replica at a time
    census = [sorted(layer.items()) for layer in campaign.histograms]
    cursor = [0] * (args.n_max + 1)
    last, alive, cut = last.tolist(), alive.tolist(), cut.tolist()

    def replica_rows(r):
        pops = campaign.populations[r].tolist()
        rows = []
        for g in range(last[r] + 1):
            layer, start = census[g], cursor[g]
            end = start
            while end < len(layer) and layer[end][0][0] == r:
                end += 1
            cursor[g] = end
            rows.extend([r, g, pops[g], alive[r], cut[r],
                         _hist_key(campaign.support, counts), cnt]
                        for (_, counts), cnt in layer[start:end])
            if start == end:
                rows.append([r, g, pops[g], alive[r], cut[r], "", ""])
        return rows

    rows = chain.from_iterable(map(replica_rows, range(args.replicas)))
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _cmd_urn(args) -> int:
    nu = _parse_law(args.law)
    q = _parse_q(args.q, allow_zero=False)
    _, census = simulate_reinforced_urn(nu, q, args.steps, RngStream(args.seed))
    columns = ["atom", "count", "frequency"]
    rows = [[k, int(c), float(c) / args.steps]
            for k, c in zip(census.support, census.counts)]
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _cmd_spine(args) -> int:
    nu = _parse_law(args.law)
    q = _parse_q(args.q, allow_zero=False)
    a = _aligned_values(args.activities, nu.support, "--activities")
    target, _ = law_from_activity(np.asarray(a), nu, q)
    freq, _ = simulate_spine_urn(nu, q, a, args.steps, RngStream(args.seed))
    columns = ["atom", "activity", "stationary_frequency",
               "observed_frequency"]
    rows = [[k, float(ak), float(tw), float(fw)]
            for k, ak, tw, fw in zip(nu.support, a, target.weights,
                                     freq.weights)]
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _cmd_two_type(args) -> int:
    nu = _parse_law(args.law)
    nu_prime = _parse_law(args.law_prime)
    rho = _parse_prob_vector(args.rho, "--rho")
    columns = ["certified", "strong", "s", "margin_growth", "margin_average"]
    if args.s is not None:
        s = _parse_fraction(args.s, "--s")
        mu = _parse_prob_vector(args.mu, "--mu") if args.mu else None
        mu_prime = (_parse_prob_vector(args.mu_prime, "--mu-prime")
                    if args.mu_prime else None)
        if mu is None:
            raise _UsageError("--s needs --mu (and --mu-prime when s < 1)")
        cert = two_type_weak_persistence(rho, nu, nu_prime, s, mu, mu_prime)
        rows = [[cert.certified, cert.strong, s, cert.margin_growth,
                 cert.margin_average]]
    else:
        found = search_two_type_decomposition(rho, nu, nu_prime,
                                              mesh=args.mesh)
        if found is None:
            rows = [[False, False, None, None, None]]
        else:
            cert, s, _, _ = found
            rows = [[cert.certified, cert.strong, s, cert.margin_growth,
                     cert.margin_average]]
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _cmd_gibbs(args) -> int:
    nu = _parse_law(args.law)
    q = _parse_q(args.q, allow_zero=True)
    w = _aligned_values(args.w, nu.support, "--w")
    c = _parse_fraction(args.c, "--c")
    freq, acceptance = gibbs_conditional_estimate(
        nu, q, args.n, w, c, args.replicas, RngStream(args.seed))
    columns = ["acceptance_rate"] + [f"freq_{k}" for k in nu.support]
    rows = [[acceptance, *[float(x) for x in freq.weights]]]
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _cmd_survival(args) -> int:
    nu = _parse_law(args.law)
    if args.q_grid is not None:
        parts = args.q_grid.split(":")
        if len(parts) != 3:
            raise _UsageError("--q-grid expects start:stop:step")
        start, stop, step = (Fraction(p) for p in parts)
        if step <= 0 or start <= 0 or stop >= 1 or start > stop:
            raise _UsageError("--q-grid must stay inside (0, 1) with step > 0")
        qs = []
        value = start
        while value <= stop:
            qs.append(float(value))
            value += step
    else:
        qs = [_parse_q(args.q, allow_zero=False)]
    columns = ["q", "C", "J_min", "J_baseline", "survives_certified"]
    rows = []
    for q in qs:
        report = solve_survival_minimizer(nu, q)
        rows.append([q, report.lagrange_constant, report.minimum_value,
                     report.baseline_value, report.survives_certified])
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _verify_control(args) -> int:
    if args.rho is None:
        raise _UsageError("verify control needs --rho")
    nu = _parse_law(args.law) if args.law else OffspringLaw((1, 2), (0.5, 0.5))
    q = _parse_q(args.q, allow_zero=False) if args.q else 1.0 / 3.0
    rho = _parse_prob_vector(args.rho, "--rho")
    value, path = rate_by_control(rho, nu, q, steps=args.m,
                                  restarts=args.restarts,
                                  rng=RngStream(args.seed))
    dual = _rate_value(rho, nu, q)
    bound = mixed_entropy(rho, nu, q)
    steps = ([i, *row] for i, row in enumerate(path.rows))
    best_path = "".join(_render(["step"] + [f"eta_{k}" for k in path.support],
                                steps, "csv"))
    report = {"value": value,
              "gap_to_dual": value - dual,
              "gap_to_upper_bound": bound - value,
              "best_path": best_path.rstrip("\n")}
    _write([json.dumps({k: _cell_rule(type(v), "json")(v)
                        for k, v in report.items()}, indent=1) + "\n"],
           args.out)
    # a valid bound sits between the dual value and the constant-path bound
    ok = value - dual >= -1e-6 and bound - value >= -1e-6
    return 0 if ok else 3


def _cmd_verify(args) -> int:
    if args.mode == "control":
        return _verify_control(args)
    level = "full" if args.full else "quick"
    report = verify_suite(level, args.seed)
    for check in report["checks"]:
        flag = "ok  " if check["passed"] else "FAIL"
        sys.stderr.write(f"{flag} {check['name']:28s} "
                         f"observed={check['observed']:.3e} "
                         f"tolerance={check['tolerance']:.3e}\n")
    sys.stderr.write(("all checks passed" if report["all_passed"]
                      else "verification FAILED") +
                     f" ({report['elapsed_seconds']} s)\n")
    _write([json.dumps(report, indent=1) + "\n"], args.out)
    return 0 if report["all_passed"] else 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=42,
                     help="base seed for all randomness (default 42)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rgw", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="|".join(_SUBCOMMANDS))

    p = subs.add_parser("rate", parents=[], help="rate-function curves")
    p.add_argument("--law", required=True)
    p.add_argument("--q", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", help="simplex mesh for a two-atom law")
    group.add_argument("--rho", help="single target, k:prob;k:prob")
    _add_common(p)
    p.set_defaults(fn=_cmd_rate)

    p = subs.add_parser("classify", help="evanescence/persistence verdicts")
    p.add_argument("--law", required=True)
    p.add_argument("--q", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid")
    group.add_argument("--rho")
    _add_common(p)
    p.set_defaults(fn=_cmd_classify)

    p = subs.add_parser("simulate", help="tree replica campaign")
    p.add_argument("--law", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--pop-cap", type=int, default=10_000_000)
    p.add_argument("--histograms", action="store_true",
                   help="one row per ancestral-histogram class")
    _add_common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = subs.add_parser("urn", help="reinforced draw sequence census")
    p.add_argument("--law", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_urn)

    p = subs.add_parser("spine", help="spine urn frequencies vs stationary law")
    p.add_argument("--law", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--activities", required=True, help="k:value;k:value")
    p.add_argument("--steps", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_spine)

    p = subs.add_parser("two-type", help="two-type persistence certificate")
    p.add_argument("--rho", required=True)
    p.add_argument("--law", required=True, help="growing-type law")
    p.add_argument("--law-prime", required=True, help="decaying-type law")
    p.add_argument("--s", default=None, help="mixing weight; omit to search")
    p.add_argument("--mu", default=None)
    p.add_argument("--mu-prime", default=None)
    p.add_argument("--mesh", type=int, default=20)
    _add_common(p)
    p.set_defaults(fn=_cmd_two_type)

    p = subs.add_parser("gibbs", help="conditioned-ensemble mean frequencies")
    p.add_argument("--law", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True, help="halfspace normal, k:value;...")
    p.add_argument("--c", required=True, help="halfspace threshold")
    p.add_argument("--replicas", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_gibbs)

    p = subs.add_parser("survival", help="survival certificates over q")
    p.add_argument("--law", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q")
    group.add_argument("--q-grid", help="start:stop:step, fractions allowed")
    _add_common(p)
    p.set_defaults(fn=_cmd_survival)

    p = subs.add_parser("verify", help="cross-module verification suite")
    p.add_argument("mode", nargs="?", choices=("suite", "control"),
                   default="suite",
                   help="'suite' runs the checks; 'control' audits one bound")
    level = p.add_mutually_exclusive_group()
    level.add_argument("--quick", action="store_true")
    level.add_argument("--full", action="store_true")
    p.add_argument("--law", default=None,
                   help="control mode: law file (default uniform on {1,2})")
    p.add_argument("--q", default=None,
                   help="control mode: memory parameter (default 1/3)")
    p.add_argument("--rho", default=None, help="control mode: target law")
    p.add_argument("--m", type=int, default=64,
                   help="control mode: discretization steps")
    p.add_argument("--restarts", type=int, default=8)
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.fn(args)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 1
    except (NumericError, StatisticalFailureError) as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
