"""Command-line front end.

One executable with a subcommand per capability: rate curves, law
classification, tree campaigns, urn and spine runs, two-type benchmarks,
conditioned-ensemble estimates, survival certificates, and the verification
suite. Output is CSV (17 significant digits) or JSON, written to --out or
stdout a block of rows at a time, both formats through the same join of
per-cell text; all randomness derives from --seed, so equal invocations
produce byte-identical files.

Exit codes: 0 success, 1 invalid input, 2 numeric or statistical failure,
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np

from .classify import (classify_memoryless, classify_reinforced,
                       search_two_type_decomposition, two_type_weak_persistence)
from .control import rate_by_control
from .errors import NumericError, StatisticalFailureError
from .measures import (OffspringLaw, ProbVector, _check_q, _on_support,
                       _support_and_probs, load_offspring_law, mixed_entropy)
from .rate import _rate_on_law
from .rng import RngStream
from .simulate import (DEFAULT_POP_CAP, gibbs_conditional_estimate,
                       simulate_reinforced_urn, simulate_spine_urn,
                       simulate_tree_campaign)
from .survival import law_from_activity, solve_survival_minimizer
from .verify import _FLAGSHIP, _Q_FLAGSHIP, verify_suite

_SUBCOMMANDS = ("rate", "classify", "simulate", "urn", "spine", "two-type",
                "gibbs", "survival", "verify")
# CSV and JSON rows are formatted and written about this many at a time
# (census-free ``simulate`` rows in whole replicas), so a large table is never
# held in memory as text; each block is one join of its rows' text pieces
# (``_block``)
_CSV_BLOCK = 4096
# --grid points one command may ask for
_GRID_MAX_POINTS = 10**5
# --steps one urn or spine run may take: at its peak either urn holds about
# 9 bytes a step at 10^7 steps, whatever q (8 are the spine urn's pick
# uniforms or the lineage urn's returned sequence), so a run at the cap
# needs about 1 GB
_STEPS_MAX = 10**8
# replicas times (n_max + 1) cells one ``simulate`` may ask for: the
# campaign's population table alone holds 8 bytes a cell, 800 MB at the cap
# against 8.8 MB for the README's 1.1M-cell run (a 10^7-cell run to
# /dev/null peaked at 142 MB)
_CELLS_MAX = 10**8
# side of the dense system one ``verify control`` solve may ask for,
# --m times (atoms the target charges + 1): at the cap (the flagship target
# at --m 1024) a fresh process took 3.6-3.9 s and 249 MB on two cores, and
# the cost grows with the cube of the side. A banded solve would raise it
_CONTROL_SIDE_MAX = 3072


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # numeric failures, so route parse errors through the usual handler
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"cannot parse {what} {text!r}: {exc}") from None


def _parse_q(text: str, *, allow_zero: bool) -> float:
    q = float(_parse_fraction(text, "memory parameter"))
    _check_q(q, allow_zero=allow_zero)
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
        values.append(float(_parse_fraction(val, f"{what} entry")))
    if not atoms:
        raise _UsageError(f"empty {what}")
    if len(set(atoms)) != len(atoms):
        raise _UsageError(f"repeated atom in {what}")
    order = sorted(range(len(atoms)), key=atoms.__getitem__)
    return (tuple(atoms[i] for i in order), [values[i] for i in order])


def _parse_prob_vector(text: str, what: str) -> ProbVector:
    # accepts inline JSON, a .json file holding the same, or a k:prob;k:prob
    # string; a file is read as text, so it keeps its zero atoms as inline does
    stripped = text.strip()
    from_file = stripped.endswith(".json")
    if from_file:
        try:
            stripped = Path(stripped).read_text(encoding="utf8")
        except OSError as exc:
            raise _UsageError(f"cannot read {what} file: {exc}") from None
    if from_file or stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"cannot parse {what} as JSON: {exc}") from None
        return ProbVector(*_support_and_probs(doc, what))
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


def _check_steps(steps: int) -> None:
    # before any uniform is drawn
    if steps > _STEPS_MAX:
        raise _UsageError(f"--steps {steps} is too many; at most "
                          f"{_STEPS_MAX} are allowed")


def _fraction_grid(start: Fraction, stop: Fraction, step: Fraction, what: str,
                   *, closed: bool) -> list[float]:
    """The points start + i step, i = 0, 1, ..., up to stop (included when
    ``closed``), each rounded once from its exact value. The count comes
    from the exact fractions, so a tiny step is refused before any point
    is built."""
    span = (stop - start) / step
    count = math.floor(span) + 1 if closed else math.ceil(span)
    if count > _GRID_MAX_POINTS:
        raise _UsageError(f"{what} gives {count} points; "
                          f"at most {_GRID_MAX_POINTS} are allowed")
    return [float(start + i * step) for i in range(count)]


def _grid_points(step_text: str) -> list[float]:
    # --grid: the multiples of the step inside (0, 1)
    step = _parse_fraction(step_text, "grid step")
    if not 0 < step < 1:
        raise _UsageError("grid step must lie in (0, 1)")
    return _fraction_grid(step, Fraction(1), step, f"grid step {step_text}",
                          closed=False)


_BOOL_TEXT = {True: "true", False: "false"}
_FLOAT_TEXT = "%.17g"


def _json_float(value) -> str:
    x = float(value)
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return json.dumps(x)


def _cell_rule(kind: type, fmt: str):
    """The function that turns a cell of Python or NumPy type ``kind`` into
    its CSV or JSON text: None is empty (null), a bool true or false, an int
    its digits, a float 17 significant digits in CSV and its shortest repr
    in JSON (where infinities are the strings "inf" and "-inf"); any other
    value is written as its str (its JSON encoding)."""
    csv = fmt == "csv"
    if kind is type(None):
        return (lambda v: "") if csv else (lambda v: "null")
    if issubclass(kind, (bool, np.bool_)):
        return _BOOL_TEXT.__getitem__
    if issubclass(kind, (int, np.integer)):
        return str
    if issubclass(kind, (float, np.floating)):
        return _FLOAT_TEXT.__mod__ if csv else _json_float
    return str if csv else json.dumps


def _column(values, fmt: str) -> list:
    kinds = set(map(type, values))
    if len(kinds) == 1:
        return list(map(_cell_rule(kinds.pop(), fmt), values))
    rules = {kind: _cell_rule(kind, fmt) for kind in kinds}
    return [rules[type(v)](v) for v in values]


def _block(pieces, seps: list[str], fmt: str) -> str:
    """The text of one block of rows, joined once.

    Each distinct row of a piece becomes one text, its cells converted by
    ``_column`` and each followed by its separator; the texts are gathered
    into one (rows, pieces) array, which is joined in row order."""
    seps = iter(seps)
    texts = []
    for cells, index in pieces:
        text = np.full(len(cells[0]), "", dtype=object)
        for values in cells:
            converted = np.asarray(_column(values, fmt), dtype=object)
            text += converted + next(seps)
        texts.append(text if index is None else text[index])
    return "".join(np.stack(texts, axis=1).ravel().tolist())


def _render_blocks(columns: list[str], blocks, fmt: str):
    """Yield the table as text, a block of rows at a time.

    A block is a list of pieces, each covering consecutive columns. A piece
    is a pair (cells, index): its distinct rows of cells, a column at a
    time, and the distinct row that each row of the block takes (None: one
    each, in order). So a value shared by many rows is converted once.
    Every cell is followed by a separator: in CSV a comma, or a newline
    after the last column; in JSON the next column's key, or after the last
    column the record separator and the first key. CSV opens with its header
    line. A JSON block is yielded without its trailing record separator,
    which opens the next block instead, so the text is that of
    ``json.dumps(records, indent=1)`` and a newline.
    """
    if fmt == "csv":
        seps = [","] * (len(columns) - 1) + ["\n"]
        yield ",".join(columns) + "\n"
        for pieces in blocks:
            yield _block(pieces, seps, fmt)
        return
    keys = [f"  {json.dumps(column)}: " for column in columns]
    seps = [",\n" + key for key in keys[1:]] + ["\n },\n {\n" + keys[0]]
    lead = "[\n {\n" + keys[0]
    for pieces in blocks:
        yield lead + _block(pieces, seps, fmt)[:-len(seps[-1])]
        lead = seps[-1]
    yield "\n }\n]\n" if lead == seps[-1] else "[]\n"


def _render(columns: list[str], rows, fmt: str):
    """``_render_blocks`` over rows taken ``_CSV_BLOCK`` at a time, each
    column of a block one piece: every cell of one type in a column is
    converted by the same rule of ``_cell_rule``. The text is the same as
    converting the cells one by one."""
    rows = iter(rows)
    blocks = iter(lambda: list(islice(rows, _CSV_BLOCK)), [])
    return _render_blocks(
        columns, ([([values], None) for values in zip(*block)]
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


def _rate_columns(rho: ProbVector, nu: OffspringLaw, q: float) -> list:
    closed = q == 0.0 or (nu.support == _FLAGSHIP.support
                          and np.array_equal(nu.weights, _FLAGSHIP.weights)
                          and abs(q - _Q_FLAGSHIP) <= 1e-12)
    neg_log_q = math.inf if q == 0.0 else -math.log(q)
    return [closed, _rate_on_law(rho, nu, q), mixed_entropy(rho, nu, q),
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
        for p in _grid_points(args.grid):
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
        for p in _grid_points(args.grid):
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


# the survived and truncated cells of a replica, indexed by 2 * alive + cut
_FLAG_CELLS = [[False, False, True, True], [False, True, False, True]]


def _by_value(values: np.ndarray):
    """A one-column piece holding ``values``, each distinct value once among
    its cells."""
    distinct, index = np.unique(values, return_inverse=True)
    return [distinct.tolist()], index


def _population_blocks(populations: np.ndarray, last: np.ndarray,
                       flags: np.ndarray):
    """The census-free rows of ``simulate``, generations 0..last[r] of each
    replica r, in blocks of whole replicas, about ``_CSV_BLOCK`` rows each,
    taken straight from the campaign arrays. A row is four pieces: its
    replica, its generation, its population, and one piece for the
    survived, truncated and blank census cells, which take 4 values."""
    replicas, width = populations.shape
    per = max(1, _CSV_BLOCK // width)
    blank = [""] * len(_FLAG_CELLS[0])
    for start in range(0, replicas, per):
        part = slice(start, start + per)
        shown = np.arange(width) <= last[part, None]
        # each row's replica, counted from start, and generation
        row_of, gen = np.nonzero(shown)
        yield [([range(start, start + shown.shape[0])], row_of),
               ([range(width)], gen),
               _by_value(populations[part][shown]),
               ([*_FLAG_CELLS, blank, blank], flags[part][row_of])]


def _census_blocks(campaign, last: np.ndarray, flags: np.ndarray):
    """The census rows of ``simulate``: for generations 0..last[r] of each
    replica r, one row per census entry in counts order, or one row with
    blank census cells if there is none; in blocks of ``_CSV_BLOCK`` rows.
    Each distinct histogram's key is formatted once."""
    rid, gen, hists, mult = [], [], [], []
    for g, layer in enumerate(campaign.histograms):
        if layer:
            r, counts = zip(*layer)
            rid.extend(r)
            gen.append(np.full(len(layer), g, dtype=np.int64))
            hists.extend(counts)
            mult.extend(layer.values())
    # a histogram's rank orders the rows of one replica and generation and
    # indexes its key; the rank past the last marks a row without an entry
    uniq = sorted(set(hists))
    rank = dict(zip(uniq, range(len(uniq))))
    key_text = [_hist_key(campaign.support, h) for h in uniq] + [""]
    rid, gen = np.array(rid, dtype=np.int64), np.concatenate(gen)
    # the shown generations of each replica without a census entry
    bare = np.arange(campaign.populations.shape[1]) <= last[:, None]
    bare[rid, gen] = False
    bare_rid, bare_gen = np.nonzero(bare)
    rid = np.concatenate([rid, bare_rid])
    gen = np.concatenate([gen, bare_gen])
    kid = np.concatenate([np.fromiter(map(rank.__getitem__, hists), np.int64,
                                      len(hists)),
                          np.full(bare_rid.size, len(uniq))])
    mult = np.array(mult + [""] * bare_rid.size, dtype=object)
    order = np.lexsort((kid, gen, rid))
    for start in range(0, order.size, _CSV_BLOCK):
        part = order[start:start + _CSV_BLOCK]
        r, g = rid[part], gen[part]
        yield [_by_value(r), _by_value(g),
               _by_value(campaign.populations[r, g]),
               (_FLAG_CELLS, flags[r]), ([key_text], kid[part]),
               ([mult[part].tolist()], None)]


def _cmd_simulate(args) -> int:
    cells = args.replicas * (args.n_max + 1)
    if cells > _CELLS_MAX:
        raise _UsageError(f"--replicas {args.replicas} with --n-max {args.n_max} "
                          f"gives {cells} cells; at most {_CELLS_MAX} are allowed")
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
    flags = 2 * alive + cut
    if campaign.histograms is None:
        blocks = _population_blocks(campaign.populations, last, flags)
    else:
        blocks = _census_blocks(campaign, last, flags)
    _write(_render_blocks(columns, blocks, args.format), args.out)
    return 0


def _cmd_urn(args) -> int:
    _check_steps(args.steps)
    nu = _parse_law(args.law)
    q = _parse_q(args.q, allow_zero=False)
    _, census = simulate_reinforced_urn(nu, q, args.steps, RngStream(args.seed))
    columns = ["atom", "count", "frequency"]
    rows = [[k, int(c), float(c) / args.steps]
            for k, c in zip(census.support, census.counts)]
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _cmd_spine(args) -> int:
    _check_steps(args.steps)
    nu = _parse_law(args.law)
    q = _parse_q(args.q, allow_zero=False)
    a = _aligned_values(args.activities, nu.support, "--activities")
    target = law_from_activity(np.asarray(a), nu, q)
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
        s = float(_parse_fraction(args.s, "--s"))
        mu = _parse_prob_vector(args.mu, "--mu") if args.mu else None
        mu_prime = (_parse_prob_vector(args.mu_prime, "--mu-prime")
                    if args.mu_prime else None)
        if mu is None:
            raise _UsageError("--s needs --mu (and --mu-prime when s < 1)")
        found = (two_type_weak_persistence(rho, nu, nu_prime, s, mu, mu_prime), s)
    else:
        found = search_two_type_decomposition(rho, nu, nu_prime)
    if found is None:
        rows = [[False, False, None, None, None]]
    else:
        cert, s = found[:2]
        rows = [[cert.certified, cert.strong, s, cert.margin_growth,
                 cert.margin_average]]
    _write(_render(columns, rows, args.format), args.out)
    return 0


def _cmd_gibbs(args) -> int:
    nu = _parse_law(args.law)
    q = _parse_q(args.q, allow_zero=True)
    w = _aligned_values(args.w, nu.support, "--w")
    c = float(_parse_fraction(args.c, "--c"))
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
        start, stop, step = (_parse_fraction(p, "--q-grid part") for p in parts)
        if step <= 0 or start <= 0 or stop >= 1 or start > stop:
            raise _UsageError("--q-grid must stay inside (0, 1) with step > 0")
        qs = _fraction_grid(start, stop, step, f"--q-grid {args.q_grid}",
                            closed=True)
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
    nu = _parse_law(args.law) if args.law else _FLAGSHIP
    q = _parse_q(args.q, allow_zero=False) if args.q else _Q_FLAGSHIP
    rho = _on_support(_parse_prob_vector(args.rho, "--rho"), nu)
    if rho is None:
        raise _UsageError("--rho charges an atom off the law support")
    m = 64 if args.m is None else args.m
    side = m * (int(np.count_nonzero(rho.weights)) + 1)
    if side > _CONTROL_SIDE_MAX:
        raise _UsageError(f"--m {m} gives a control system of side {side}; "
                          f"at most {_CONTROL_SIDE_MAX} is allowed")
    value, path = rate_by_control(rho, nu, q, steps=m)
    dual = _rate_on_law(rho, nu, q)
    bound = mixed_entropy(rho, nu, q)
    steps = ([i, *row] for i, row in enumerate(path.rows))
    best_path = "".join(_render(["step"] + [f"eta_{k}" for k in path.support],
                                steps, "csv"))
    report = {"value": value,
              "gap_to_dual": value - dual,
              "gap_to_upper_bound": bound - value,
              "best_path": best_path.rstrip("\n")}
    _write([json.dumps(report, indent=1) + "\n"], args.out)
    # a valid bound sits between the dual value and the constant-path bound
    ok = value - dual >= -1e-6 and bound - value >= -1e-6
    return 0 if ok else 3


def _cmd_verify(args) -> int:
    if args.mode == "control":
        for flag in ("quick", "full"):
            if getattr(args, flag):
                raise _UsageError(f"--{flag} applies only to 'verify suite'")
        return _verify_control(args)
    for flag in ("law", "q", "rho", "m"):
        if getattr(args, flag) is not None:
            raise _UsageError(f"--{flag} applies only to 'verify control'")
    level = "full" if args.full else "quick"
    report = verify_suite(level, args.seed)
    for check in report["checks"]:
        flag = "ok  " if check["passed"] else "FAIL"
        if "error" in check:
            error = check["error"]
            detail = f"raised {error['type']}: {error['message']}"
        else:
            detail = (f"observed={check['observed']:.3e} "
                      f"tolerance={check['tolerance']:.3e}")
        sys.stderr.write(f"{flag} {check['name']:28s} {detail}\n")
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
    p.add_argument("--pop-cap", type=int, default=DEFAULT_POP_CAP)
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
    p.add_argument("--m", type=int, default=None,
                   help="control mode: discretization steps (default 64); "
                        "the dense system's side, steps times (atoms of "
                        "--rho + 1), may be at most 3072, which took about "
                        "4 s and 250 MB on two cores")
    p.add_argument("--restarts", type=int, default=8,
                   help="ignored; kept so existing command lines run")
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
