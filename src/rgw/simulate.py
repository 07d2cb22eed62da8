"""Monte Carlo engines and exact enumeration for reinforced branching trees.

Trees are never stored explicitly. Reinforcement reads only the histogram of
out-degrees along an individual's ancestral line: a memory draw samples from
that histogram, a fresh draw samples from the base law, and each child
inherits the parent's histogram plus the parent's own draw. Individuals of one
replica that share a histogram are therefore exchangeable, so a generation is
stored as classes (replica, histogram, multiplicity), and one multinomial draw
per class replaces one draw per individual. A replica holds at most
C(g+k-1, k-1) classes at generation g over k atoms, so the cost of a campaign
grows polynomially in depth while its population grows exponentially.

The same ancestral mechanism viewed along a single lineage is a Polya type
urn, simulated here one run at a time and as batches. A batch of replicas
is stored as classes too: replicas that share a draw histogram are
exchangeable, so each step takes one multinomial draw per (histogram, count)
class, and a batch of any size holds at most C(i+k-1, k-1) classes at step
i. Batches power the many-to-one estimator (lineage draws weighted by the
product of their values estimate expected vertex counts) and rejection-based
conditioning, both of which read only the histogram. Exact small-depth
expectations come from a dynamic program over draw histograms, giving an
independent oracle with no randomness.

A separate two-color urn with an auxiliary ball type tracks the spine
construction used in persistence proofs, and a two-type branching benchmark,
stored as (type, histogram) classes, provides the weak-persistence
comparison model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classify import validate_activities
from .errors import ContractViolationError, NumericError, StatisticalFailureError
from .measures import EmpiricalMeasure, OffspringLaw, ProbVector, _check_q
from .rng import RngStream

DEFAULT_POP_CAP = 10_000_000

# replicas are processed in fixed-size chunks; the value is part of the
# deterministic draw schedule
_CHUNK = 1024

# urn steps are verified a chunk at a time (see _speculate): a chunk holds at
# most this many steps times colors, so a pass's arrays stay under 1 MB each,
# and keeps only its verified prefix after this many passes that change a
# decision
_SPECULATE_CELLS = 1 << 16
_SPECULATE_PASSES = 4


@dataclass(frozen=True)
class GenerationReport:
    """Population and ancestral-histogram census of one generation."""

    generation: int
    population: int
    support: tuple[int, ...]
    histogram: dict[tuple[int, ...], int]
    survived: bool
    truncated: bool

    def __post_init__(self):
        mass = sum(self.histogram.values())
        if mass != self.population:
            raise ContractViolationError(
                f"histogram mass {mass} != population {self.population}")
        zero_col = self.support.index(0) if 0 in self.support else None
        for key in self.histogram:
            if len(key) != len(self.support):
                raise ContractViolationError("histogram key width mismatch")
            if sum(key) != self.generation:
                raise ContractViolationError("histogram key mass != generation")
            if zero_col is not None and key[zero_col] > 0:
                raise ContractViolationError("ancestral histogram has mass on atom 0")


@dataclass(frozen=True)
class TwoTypeGeneration:
    """Per-type and merged census of one two-type generation."""

    generation: int
    type1: GenerationReport
    type2: GenerationReport
    merged: GenerationReport


@dataclass(frozen=True)
class TreeCampaign:
    """Population trajectories of a replica campaign.

    ``populations[r, g]`` is the size of generation g in replica r. Entries in
    columns past a replica's truncation generation are 0 and carry no meaning;
    ``truncated_at[r]`` is that generation, or -1 if the cap was never hit.
    """

    support: tuple[int, ...]
    populations: np.ndarray
    truncated_at: np.ndarray
    histograms: tuple[dict[tuple[int, tuple[int, ...]], int], ...] | None


@dataclass(frozen=True)
class SpineUrnState:
    """Ball counts and activities of the spine urn; the last color is the
    auxiliary one."""

    support: tuple[int, ...]
    counts: np.ndarray
    activities: np.ndarray
    steps: int

    def __post_init__(self):
        if (self.counts < 0).any():
            raise ContractViolationError("ball counts must be non-negative")
        total = int(self.counts.sum())
        if total != 2 + 2 * self.steps:
            raise ContractViolationError(
                f"ball total {total} != 2 + 2*{self.steps}")


def _fresh_indices(cum_nu: np.ndarray, u: np.ndarray) -> np.ndarray:
    j = np.searchsorted(cum_nu, u, side="right")
    return np.minimum(j, len(cum_nu) - 1).astype(np.int64)


@dataclass(frozen=True)
class _ClassKeys:
    """Layout of int64 class keys.

    A key is a leading digit (a replica or a type) at place ``lead``, above
    the histogram's columns ``cols[:-1]`` in radix ``radix``. The last of
    ``cols`` is fixed by the histogram's total and takes no digit; the other
    columns stay 0 in every class, so they take none either.
    """

    cols: np.ndarray
    place: np.ndarray
    radix: int
    lead: int

    @classmethod
    def layout(cls, cols: np.ndarray, k: int, depth: int,
               leads: int) -> "_ClassKeys":
        """Keys of ``leads`` leading digits over histograms of total at most
        ``depth``; raises if the largest overflows int64."""
        free = cols[:-1]
        radix = depth + 1
        lead = radix ** len(free)
        if leads * lead > np.iinfo(np.int64).max:
            raise ContractViolationError(
                f"class keys of {len(cols)} atoms at depth {depth} "
                "overflow int64")
        place = np.zeros(k, dtype=np.int64)
        place[free] = radix ** np.arange(len(free), dtype=np.int64)
        return cls(cols, place, radix, lead)

    def split(self, keys: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray]:
        """The leading digits and the histograms, of total ``total``, of
        ``keys``."""
        hist = np.zeros((keys.size, self.place.size), dtype=np.int64)
        rest = np.full(keys.size, total, dtype=np.int64)
        # the digits, least significant first, peeled off one at a time
        for c in self.cols[:-1].tolist():
            higher = keys // self.radix
            digit = keys - higher * self.radix
            hist[:, c] = digit
            rest -= digit
            keys = higher
        if self.cols.size:
            hist[:, self.cols[-1]] = rest
        return keys, hist


def _class_step(keys: np.ndarray, draws: np.ndarray, pick: np.ndarray,
                shift: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The classes born of one step, in ascending key order, with their
    multiplicities.

    ``draws[i]`` holds the outcome counts of the members of the class keyed
    ``keys[i]``; each draw counted in column ``pick[c]`` sends ``gain[c]``
    children to the class keyed ``keys[i] + shift[c]``. Equal keys merge by
    sort and int64 reduceat, which keeps multiplicities exact where
    bincount's float64 weights would round past 2^53.
    """
    kids = draws[:, pick] * gain
    child = keys[:, None] + shift
    born = kids > 0
    child, kids = child[born], kids[born]
    order = np.argsort(child)
    child, kids = child[order], kids[order]
    head = np.ones(child.size, dtype=bool)
    head[1:] = child[1:] != child[:-1]
    starts = np.flatnonzero(head)
    mult = np.add.reduceat(kids, starts) if starts.size else kids
    return child[starts], mult


def simulate_tree_campaign(nu: OffspringLaw, q: float, n_max: int,
                           replicas: int, rng: RngStream, *,
                           pop_cap: int = DEFAULT_POP_CAP,
                           keep_histograms: bool = False) -> TreeCampaign:
    """Replica campaign of reinforced trees, chunk-batched for throughput.

    Each generation holds classes: a replica, an ancestral histogram and the
    number of living individuals that share them. A class of multiplicity m
    at generation g takes one multinomial draw of m over
    q * histogram / g + (1 - q) * nu (nu alone at g = 0); a draw of atom j
    sends support[j] children per draw to the class histogram + e_j, and
    equal classes merge. The work per generation is one draw per class, at
    most C(g+k-1, k-1) per replica over k atoms, whatever the population.
    With q = 0 and no histogram request the histogram is not needed, so each
    replica is one class and advances by one multinomial draw.

    A replica whose population reaches ``pop_cap`` stops there and is
    recorded in ``truncated_at``. ``keep_histograms`` records, for every
    generation, the census ``{(replica, counts): individuals}``.
    """
    _check_q(q, allow_zero=True)
    if n_max < 1 or replicas < 1 or pop_cap < 1:
        raise ContractViolationError("n_max, replicas and pop_cap must be >= 1")
    support = nu.support
    k = len(support)
    support_arr = np.asarray(support, dtype=np.int64)

    if q == 0.0 and not keep_histograms:
        pops = np.zeros((replicas, n_max + 1), dtype=np.int64)
        pops[:, 0] = 1
        trunc_at = np.full(replicas, -1, dtype=np.int64)
        active = np.ones(replicas, dtype=bool)
        if pop_cap <= 1:
            trunc_at[:] = 0
            active[:] = False
        for g in range(n_max):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            g_rng = rng.generator("tree-iid", g)
            draws = g_rng.multinomial(pops[idx, g], nu.weights)
            z = draws @ support_arr
            pops[idx, g + 1] = z
            over = z >= pop_cap
            trunc_at[idx[over]] = g + 1
            active[idx] = (z > 0) & ~over
        pops.setflags(write=False)
        trunc_at.setflags(write=False)
        return TreeCampaign(support, pops, trunc_at, None)

    # A class is keyed by its chunk-local replica id, then its histogram on
    # the positive atoms; the atom-0 column is always 0.
    pos_cols = np.flatnonzero(support_arr > 0)
    layout = _ClassKeys.layout(pos_cols, k, n_max, min(replicas, _CHUNK))
    shift, gain = layout.place[pos_cols], support_arr[pos_cols]

    pop_parts, trunc_parts = [], []
    hist_acc: list[dict] | None = [dict() for _ in range(n_max + 1)] if keep_histograms else None
    for chunk_idx, start in enumerate(range(0, replicas, _CHUNK)):
        rc = min(_CHUNK, replicas - start)
        stream = rng.child(chunk_idx)
        rid = np.arange(rc, dtype=np.int64)
        hist = np.zeros((rc, k), dtype=np.int64)
        mult = np.ones(rc, dtype=np.int64)
        pops = np.zeros((rc, n_max + 1), dtype=np.int64)
        pops[:, 0] = 1
        trunc_at = np.full(rc, -1, dtype=np.int64)
        if hist_acc is not None:
            for r in range(rc):
                hist_acc[0][(start + r, (0,) * k)] = 1
        if pop_cap <= 1:
            trunc_at[:] = 0
            rid, hist, mult = rid[:0], hist[:0], mult[:0]
        for g in range(n_max):
            if mult.size == 0:
                break
            g_rng = stream.generator("tree", g)
            p = nu.weights
            if q > 0.0 and g > 0:
                p = q / g * hist + (1.0 - q) * nu.weights
            draws = g_rng.multinomial(mult, p)
            # a draw of atom j sends support[j] children to class hist + e_j
            keys, mult = _class_step(rid * layout.lead + hist @ layout.place,
                                     draws, pos_cols, shift, gain)
            rid, hist = layout.split(keys, g + 1)
            z = np.zeros(rc, dtype=np.int64)
            np.add.at(z, rid, mult)
            live = trunc_at < 0
            pops[live, g + 1] = z[live]
            if hist_acc is not None:
                layer = hist_acc[g + 1]
                for r, h, m in zip((rid + start).tolist(), hist.tolist(), mult.tolist()):
                    layer[(r, tuple(h))] = m
            over = live & (z >= pop_cap)
            if over.any():
                trunc_at[over] = g + 1
                keep = ~over[rid]
                rid, hist, mult = rid[keep], hist[keep], mult[keep]
        pop_parts.append(pops)
        trunc_parts.append(trunc_at)
    populations = np.vstack(pop_parts)
    truncated_at = np.concatenate(trunc_parts)
    populations.setflags(write=False)
    truncated_at.setflags(write=False)
    hist_out = tuple(hist_acc) if hist_acc is not None else None
    return TreeCampaign(support, populations, truncated_at, hist_out)


def _speculate(n: int, width: int, state, decide, advance):
    """Decisions of an n-step chain computed a chunk of steps at a time,
    equal to those of a loop that takes one step at a time.

    Step i's decision depends on the state left by the steps before it.
    ``decide(state, i, m, guess)`` returns the decisions of steps i..i+m-1
    when step i+s sees ``state`` advanced by ``guess[:s]``, or by nothing if
    ``guess`` is None; ``advance(state, decisions)`` returns the state after
    them. A chunk first guesses every decision from its starting state, then
    recomputes the decisions from the last guess until they repeat. Where a
    recomputation first differs from its guess, at step j, the steps before
    j saw their true states and so did step j; if the passes run out, the
    chunk keeps steps up to j, at least one, and the next chunk starts there.
    Chunks grow with i, as a chunk moves the state by about m / i, up to
    ``_SPECULATE_CELLS`` steps times ``width``. Returns the decisions and the
    final state.
    """
    out = np.empty(n, dtype=np.int64)
    cap = max(64, _SPECULATE_CELLS // width)
    i = 0
    while i < n:
        m = min(n - i, max(64, i // 16), cap)
        guess = decide(state, i, m, None)
        for _ in range(_SPECULATE_PASSES):
            dec = decide(state, i, m, guess)
            miss = np.flatnonzero(dec != guess)
            if miss.size == 0:
                break
            guess = dec
        else:
            dec = dec[:miss[0] + 1]
        out[i:i + dec.size] = dec
        state = advance(state, dec)
        i += dec.size
    return out, state


def simulate_reinforced_urn(nu: OffspringLaw, q: float, n: int,
                            rng: RngStream) -> tuple[np.ndarray, EmpiricalMeasure]:
    """One reinforced draw sequence of length n, with its final census.

    The first draw follows nu; each later draw repeats a uniformly chosen
    earlier one with probability q, else follows nu. Every draw has marginal
    law nu.

    Draw i compares u_val[i] * i with the cumulative color counts of the
    draws before it (a memory draw) or u_val[i] with the cumulative law (a
    fresh draw), from the uniforms drawn up front. ``_speculate`` steps the
    draws a chunk at a time; the counts it compares are integers, so every
    comparison is the one a loop taking one draw at a time makes, and the
    stream and the sequence are that loop's.
    """
    _check_q(q)
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    support = nu.support
    k = len(support)
    g_rng = rng.generator("urn")
    u_mode = g_rng.random(n)
    u_val = g_rng.random(n)
    memory = u_mode < q
    memory[0] = False
    fresh = _fresh_indices(np.cumsum(nu.weights), u_val)

    def decide(counts, i, m, guess):
        target = u_val[i:i + m] * np.arange(i, i + m)
        # the draw is the number of colors whose cumulative count before the
        # step is at most the target; the last color needs no count
        j = np.zeros(m, dtype=np.int64)
        acc = 0
        for c in range(k - 1):
            acc += counts[c]
            if guess is None:
                j += acc <= target
            else:
                below = guess <= c
                j += acc + np.cumsum(below) - below <= target
        return np.where(memory[i:i + m], j, fresh[i:i + m])

    def advance(counts, drawn):
        return counts + np.bincount(drawn, minlength=k)

    drawn, counts = _speculate(n, k, np.zeros(k, dtype=np.int64), decide,
                               advance)
    seq = np.asarray(support, dtype=np.int64)[drawn]
    return seq, EmpiricalMeasure(support, counts)


def _urn_classes(nu: OffspringLaw, q: float, n: int, replicas: int,
                 rng: RngStream, tag: str,
                 cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw histograms of ``replicas`` reinforced sequences of length n, as
    classes: the histograms and how many sequences hold each.

    The batch starts as one class, the empty histogram of multiplicity
    ``replicas``. At step i each class of histogram h and multiplicity m
    takes one multinomial draw of m over q * h / i + (1 - q) * nu (nu alone
    at i = 0), from ``rng.generator(tag, i)`` in ascending key order, and
    the draws of atom j go on to the class h + e_j. Only the atoms in
    ``cols`` continue a sequence; one that draws another atom leaves the
    batch. Step i holds at most min(replicas, C(i+k-1, k-1)) classes over k
    atoms.
    """
    k = len(nu.support)
    # the first of cols is fixed by the total, and the others are digits,
    # most significant first: ascending keys order the classes by their
    # histograms on cols[1:], lexicographically
    layout = _ClassKeys.layout(cols[::-1], k, n, 1)
    shift, gain = layout.place[cols], np.ones(cols.size, dtype=np.int64)
    keys = np.zeros(1, dtype=np.int64)
    hist = np.zeros((1, k), dtype=np.int64)
    mult = np.array([replicas], dtype=np.int64)
    for i in range(n):
        if mult.size == 0:
            break
        p = nu.weights
        if q > 0.0 and i > 0:
            p = q / i * hist + (1.0 - q) * nu.weights
        draws = rng.generator(tag, i).multinomial(mult, p)
        keys, mult = _class_step(keys, draws, cols, shift, gain)
        _, hist = layout.split(keys, i + 1)
    return hist, mult


def many_to_one_estimate(nu: OffspringLaw, q: float, n: int, replicas: int,
                         target, rng: RngStream) -> tuple[float, float]:
    """Unbiased estimate of the expected number of generation-n individuals
    whose ancestral frequency vector satisfies ``target``.

    Each replica runs one reinforced sequence; its weight is the product of
    the drawn values (0 if any draw is 0) times the indicator that the
    empirical frequency vector lies in the target set. ``target`` is a
    predicate on ProbVectors, or None for the whole simplex. Returns the
    sample mean and its standard error.

    Replicas are stepped as draw-histogram classes (``_urn_classes``): one
    multinomial per class per step, at most min(replicas, C(i+k-1, k-1))
    classes at step i over k atoms, and a sequence that draws 0 leaves the
    batch with weight 0. The weight and ``target`` are evaluated once per
    class, and the mean and the standard deviation (ddof 1) over the
    replicas follow exactly from the multiplicities. Raises ``NumericError``
    if a weight or the standard error overflows float64.
    """
    _check_q(q, allow_zero=True)
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    if replicas < 2:
        raise ContractViolationError("need at least 2 replicas for a standard error")
    values = np.asarray(nu.support, dtype=np.float64)
    hist, mult = _urn_classes(nu, q, n, replicas, rng, "many-to-one",
                              np.flatnonzero(values > 0.0))
    keep = np.ones(mult.size, dtype=bool)
    if target is not None:
        keep = np.fromiter(
            (bool(target(ProbVector(nu.support, h / n))) for h in hist),
            dtype=bool, count=mult.size)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.where(keep, np.prod(values ** hist, axis=1), 0.0)
        estimate = float(mult @ weights) / replicas
        dev = weights - estimate
        # the replicas that left the batch have weight 0
        gone = replicas - int(mult.sum())
        squares = float(mult @ (dev * dev)) + gone * (estimate * estimate)
    stderr = math.sqrt(squares / (replicas - 1) / replicas)
    if not (math.isfinite(estimate) and math.isfinite(stderr)):
        worst = hist[np.argmax(weights)]
        raise NumericError(
            "expected count or its standard error overflows float64",
            {"histogram": tuple(worst.tolist()), "depth": n})
    return estimate, stderr


def enumerate_expected_counts(nu: OffspringLaw, q: float, n: int) -> dict[tuple[int, ...], float]:
    """Exact expected census of generation n, resolved by draw histogram.

    Dynamic program over prefix histograms using the sequential draw rule
    P(next = k | counts) = q * count_k / i + (1 - q) nu(k), with nu alone at
    the first step. Continuations after a 0 carry zero weight, so only the
    all-positive histograms accumulate mass; every histogram of total n over
    the support appears as a key, the impossible ones with value 0. Depths
    whose histograms of total <= n number over 10^7 are refused.
    """
    _check_q(q, allow_zero=True)
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    support = nu.support
    k = len(support)
    # the program visits every histogram of total i <= n once
    if math.comb(n + k, k) > 10_000_000:
        raise ContractViolationError(
            f"{math.comb(n + k, k)} histograms of depth <= {n} over {k} atoms "
            "exceed the enumeration guard")
    nu_w = nu.weights

    states: dict[tuple[int, ...], float] = {(0,) * k: 1.0}
    for i in range(n):
        nxt: dict[tuple[int, ...], float] = {}
        for c, p in states.items():
            for idx in range(k):
                if support[idx] == 0:
                    continue
                step = nu_w[idx] if i == 0 else q * c[idx] / i + (1.0 - q) * nu_w[idx]
                if step == 0.0:
                    continue
                c2 = c[:idx] + (c[idx] + 1,) + c[idx + 1:]
                nxt[c2] = nxt.get(c2, 0.0) + p * step
        states = nxt

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    result: dict[tuple[int, ...], float] = {}
    for c in compositions(n, k):
        mass = states.get(c, 0.0)
        if mass == 0.0:
            result[c] = 0.0
            continue
        try:
            weight = math.prod(float(s) ** e for s, e in zip(support, c))
        except OverflowError:
            weight = math.inf
        if weight == math.inf:
            raise NumericError("expected count overflows float64",
                               {"histogram": c, "depth": n})
        result[c] = mass * weight
    return result


def simulate_spine_urn(nu: OffspringLaw, q: float, a, n: int,
                       rng: RngStream) -> tuple[ProbVector, SpineUrnState]:
    """Two-activity urn encoding the spine dynamics for activity vector a.

    Balls carry a support color or the auxiliary color (stored last). A draw
    picks a ball proportionally to count times activity, where a color-k ball
    has activity q a(k) and the auxiliary ball (1-q) sum a(j) nu(j). A color
    draw adds one ball of the same color plus one auxiliary; an auxiliary draw
    adds one auxiliary plus one color sampled proportionally to a(k) nu(k).
    Returns the empirical frequencies of the n color additions and the final
    state.

    Step i picks the first ball color whose running weight sum exceeds
    u_pick[i] times the total weight, and an auxiliary pick adds the color
    that u_color[i] selects, from the uniforms drawn up front. The color
    weights and the total are accumulated apart, each in step order, as a
    one-step-at-a-time loop does; ``_speculate`` steps the urn a chunk at a
    time with sequential cumulative sums that add the same floats in the
    same order, so the stream, every comparison and the result are those of
    that loop.
    """
    _check_q(q)
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    a = validate_activities(a, nu, q, tol=1e-9)
    support = nu.support
    k = len(support)
    act = np.empty(k + 1)
    act[:k] = q * a
    act[k] = (1.0 - q) * float(np.dot(a, nu.weights))
    star_pick = np.asarray(a * nu.weights, dtype=float)
    if star_pick.sum() <= 0.0:
        raise ContractViolationError("all activities vanish, the urn cannot move")
    cum_star = (star_pick / star_pick.sum()).cumsum()

    g_init = rng.generator("spine-init")
    first = _fresh_indices(nu.weights.cumsum(), g_init.random(1))[0]
    counts = np.zeros(k + 1, dtype=np.int64)
    counts[first] = 1
    counts[k] = 1

    g_rng = rng.generator("spine")
    u_pick = g_rng.random(n)
    u_color = g_rng.random(n)
    star = _fresh_indices(cum_star, u_color)

    def path(state, added):
        # per weight, its value before each step and after the last; a color
        # weight adds 0.0 on the steps that pass it by, which leaves it exact
        inc = np.zeros((k + 1, added.size + 1))
        inc[:, 0] = state
        inc[added, np.arange(1, added.size + 1)] = act[added]
        inc[k, 1:] = act[added] + act[k]
        return np.cumsum(inc, axis=1)

    def decide(state, i, m, guess):
        w = state[:, None] if guess is None else path(state, guess)[:, :-1]
        t = u_pick[i:i + m] * w[k]
        # the loop's running sum over the colors, in its order
        acc = w[0]
        picked = (acc <= t).astype(np.int64)
        for c in range(1, k):
            acc = acc + w[c]
            picked += acc <= t
        return np.where(picked < k, picked, star[i:i + m])

    # state: the k color weights, then the total weight, accumulated apart
    weights = counts * act
    state = np.append(weights[:k], sum(weights.tolist()))
    added, _ = _speculate(n, k + 1, state, decide,
                          lambda state, added: path(state, added)[:, -1])
    tally = np.bincount(added, minlength=k)
    counts[:k] += tally
    counts[k] += n
    freqs = ProbVector(support, tally / n)
    state = SpineUrnState(support, counts, act.copy(), n)
    return freqs, state


@dataclass(frozen=True)
class ReplacementSpectrum:
    """Activity-weighted replacement matrix of the spine urn with its leading
    left spectral pair; the auxiliary color is the last row and column."""

    support: tuple[int, ...]
    matrix: np.ndarray
    eigenvalue: float
    left_vector: np.ndarray
    support_distribution: ProbVector
    iterations: int


def replacement_matrix(nu: OffspringLaw, q: float, a, *,
                       tol: float = 1e-13,
                       max_iter: int = 200_000) -> ReplacementSpectrum:
    """Replacement matrix of the spine urn and its leading left eigenvector.

    Entry (i, j) is the activity of color i times the expected number of j
    balls added on an i draw. Under the admissibility constraint the leading
    eigenvalue is 1 and the left eigenvector, normalized on the support
    colors, is the stationary color frequency. Computed by power iteration.
    """
    _check_q(q)
    a = validate_activities(a, nu, q, tol=1e-8)
    pos = [idx for idx, kk in enumerate(nu.support) if kk != 0]
    sup = tuple(nu.support[idx] for idx in pos)
    m = len(pos) + 1
    mat = np.zeros((m, m))
    for r, idx in enumerate(pos):
        mat[r, r] = q * a[idx]
        mat[r, -1] = q * a[idx]
    for ccol, idx in enumerate(pos):
        mat[-1, ccol] = (1.0 - q) * a[idx] * nu.weights[idx]
    mat[-1, -1] = (1.0 - q) * float(np.dot(a, nu.weights))

    v = np.full(m, 1.0 / m)
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = v @ mat
        lam = float(w.sum())
        if lam <= 0.0:
            raise NumericError("power iteration collapsed",
                               diagnostics={"iteration": it})
        w /= lam
        if float(np.max(np.abs(w - v))) < tol:
            v = w
            break
        v = w
    else:
        raise NumericError("power iteration did not converge",
                           diagnostics={"iterations": max_iter,
                                        "last_delta": float(np.max(np.abs(w - v)))})
    on_sup = v[:-1]
    dist = ProbVector(sup, on_sup / on_sup.sum())
    mat.setflags(write=False)
    vv = v.copy()
    vv.setflags(write=False)
    return ReplacementSpectrum(sup, mat, lam, vv, dist, it)


def simulate_two_type(nu: OffspringLaw, nu_prime: OffspringLaw, n_max: int,
                      rng: RngStream, *,
                      pop_cap: int = DEFAULT_POP_CAP) -> list[TwoTypeGeneration]:
    """Two-type benchmark tree, reported per type and merged.

    Type-1 individuals beget a nu-distributed number of type-1 children plus
    exactly one type-2 child, so their recorded out-degree is the draw plus
    one; type-2 individuals beget a nu_prime-distributed number of type-2
    children. Ancestral histograms live on the union of the shifted type-1
    degrees and the type-2 degrees.

    A generation is stored as (type, histogram) classes, type-1 classes
    first, each advanced by one multinomial draw of its multiplicity from
    ``rng.generator("two-type", g)``: a type-1 draw of k children sends k
    type-1 children and one type-2 child to histogram + e_(k+1), a type-2
    draw of k sends k type-2 children to histogram + e_k. A generation
    reaching ``pop_cap`` individuals is reported as truncated and ends the
    run.
    """
    if n_max < 1 or pop_cap < 1:
        raise ContractViolationError("n_max and pop_cap must be >= 1")
    if not (nu.mean() > 1.0 > nu_prime.mean()):
        warnings.warn("two-type regime expects mean(nu) > 1 > mean(nu_prime)",
                      RuntimeWarning, stacklevel=2)
    merged_support = tuple(sorted({kk + 1 for kk in nu.support} | set(nu_prime.support)))
    col_of = {kk: idx for idx, kk in enumerate(merged_support)}
    col1 = np.asarray([col_of[kk + 1] for kk in nu.support], dtype=np.int64)
    col2 = np.asarray([col_of[kk] for kk in nu_prime.support], dtype=np.int64)
    k1, k2 = len(col1), len(col2)
    # the leading key digit is the type: 0 for type 1, 1 for type 2
    layout = _ClassKeys.layout(
        np.flatnonzero(np.asarray(merged_support) > 0), len(merged_support),
        n_max, 2)
    place = layout.place
    # outcome columns: type-1 draws (type-1 and type-2 children), then
    # type-2 draws
    pick = np.concatenate([np.arange(k1), np.arange(k1), k1 + np.arange(k2)])
    shift = np.concatenate([place[col1], layout.lead + place[col1],
                            place[col2]])
    gain = np.concatenate([np.asarray(nu.support, dtype=np.int64),
                           np.ones(k1, dtype=np.int64),
                           np.asarray(nu_prime.support, dtype=np.int64)])

    def census(gen, keys, mult, truncated):
        typ2, hist = layout.split(keys, gen)
        parts: tuple[dict, dict] = ({}, {})
        merged: dict[tuple[int, ...], int] = {}
        for t, h, c in zip(typ2.tolist(), map(tuple, hist.tolist()),
                           mult.tolist()):
            parts[t][h] = c
            merged[h] = merged.get(h, 0) + c

        def report(hist_of):
            pop = sum(hist_of.values())
            return GenerationReport(gen, pop, merged_support, hist_of,
                                    pop > 0, truncated)

        return TwoTypeGeneration(gen, report(parts[0]), report(parts[1]),
                                 report(merged))

    keys = np.zeros(1, dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    out = [census(0, keys, mult, 1 >= pop_cap)]
    if out[0].merged.truncated:
        return out
    for g in range(n_max):
        if mult.size == 0:
            break
        g_rng = rng.generator("two-type", g)
        n1 = int(np.searchsorted(keys, layout.lead))
        draws = np.zeros((keys.size, k1 + k2), dtype=np.int64)
        draws[:n1, :k1] = g_rng.multinomial(mult[:n1], nu.weights)
        draws[n1:, k1:] = g_rng.multinomial(mult[n1:], nu_prime.weights)
        keys, mult = _class_step(keys, draws, pick, shift, gain)
        pop = int(mult.sum())
        truncated = pop >= pop_cap
        out.append(census(g + 1, keys, mult, truncated))
        if pop == 0 or truncated:
            break
    return out


def gibbs_conditional_estimate(nu: OffspringLaw, q: float, n: int, w, c: float,
                               replicas: int, rng: RngStream) -> tuple[ProbVector, float]:
    """Mean draw frequency of reinforced sequences conditioned on a halfspace.

    Rejection sampling: run ``replicas`` reinforced sequences of length n and
    keep those whose empirical frequency vector rho satisfies <rho, w> >= c.
    Returns the conditional mean vector and the acceptance rate. Raises a
    statistical failure with diagnostics if nothing is accepted.

    Replicas are stepped as draw-histogram classes (``_urn_classes``): one
    multinomial per class per step, at most min(replicas, C(i+k-1, k-1))
    classes at step i over k atoms. The constraint is tested once per
    class, and a class counts as many replicas as it holds.
    """
    _check_q(q, allow_zero=True)
    if n < 1 or replicas < 1:
        raise ContractViolationError("n and replicas must be >= 1")
    w_arr = np.asarray(w, dtype=float)
    k = len(nu.support)
    if w_arr.shape != (k,):
        raise ContractViolationError(f"constraint vector must have length {k}")
    hist, mult = _urn_classes(nu, q, n, replicas, rng, "gibbs", np.arange(k))
    scores = hist @ w_arr / n
    accept = scores >= c
    hits = int(mult[accept].sum())
    if hits == 0:
        raise StatisticalFailureError(
            "no replica satisfied the halfspace constraint",
            diagnostics={"replicas": replicas, "accepted": 0,
                         "threshold": float(c),
                         "best_score": float(scores.max())})
    mean = mult[accept] @ hist[accept] / (n * hits)
    return ProbVector(nu.support, mean), hits / replicas
