"""Monte Carlo engines and exact enumeration for reinforced branching trees.

Trees are never stored explicitly. Reinforcement reads only the histogram of
out-degrees along an individual's ancestral line: a memory draw samples from
that histogram, a fresh draw samples from the base law, and each child
inherits the parent's histogram plus the parent's own draw. Individuals of one
replica that share a histogram are therefore exchangeable, so a generation is
stored as classes (replica, histogram, multiplicity), and one multinomial per
class, taken for two atoms as one binomial of the first atom, replaces one
draw per individual. A replica holds at most C(g+k-1, k-1) classes at
generation g over k atoms, so the cost of a campaign grows polynomially in
depth while its population grows exponentially.

The draw schedule of a campaign is fixed by chunks: replicas come in chunks of
1024, and each chunk draws from its own stream, its classes in ascending key
order. The work is done in passes: a pass steps a few chunks as one class
array, keyed by pass-local replica so the chunks stay contiguous, and only the
draws go chunk by chunk, so the results do not depend on the pass size.
Passes are independent, each writing its own replicas' rows, so they run on
the standard thread pool with as many workers as the process has CPUs, and
the results do not depend on that number either. At most 8 chunks are in
flight, one pass of 8 or several smaller ones, since the arrays, and so peak
memory, grow with them: at 100k replicas, one pass over all 98 chunks
allocates at its peak over five times what passes of 8 do (88 MB against
16 MB, the populations included), and is slower.

The same ancestral mechanism viewed along a single lineage is a Polya type
urn, simulated here one run at a time and as batches. A run is built a
block of draws at a time: each memory draw points at the earlier draw it
repeats, and pointer jumping takes it to a draw whose atom is known. A
batch of replicas is stored as classes too: replicas that share a draw
histogram are exchangeable, so each step takes one multinomial draw per
(histogram, count) class, taken for two atoms as one binomial of the
first atom, and a batch of any size holds at most C(i+k-1, k-1) classes at
step i. Batches power the many-to-one estimator
(lineage draws weighted by the product of their values estimate expected
vertex counts) and rejection-based conditioning, both of which read only
the histogram. Exact small-depth
expectations come from a dynamic program over draw histograms, giving an
independent oracle with no randomness.

A separate two-color urn with an auxiliary ball type tracks the spine
construction used in persistence proofs. Its picks depend on the weights of
the picks before them, so it is stepped by speculation, a verified chunk at
a time: a chunk guesses its picks from its starting weights, builds their
weight path once, in one buffer held for the whole run, and keeps the
steps up to the first pick that the path changes. Its final state counts
the chunks and those cut short.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ContractViolationError, NumericError, StatisticalFailureError
from .measures import (EmpiricalMeasure, OffspringLaw, ProbVector, _check_halfspace,
                       _check_q)
from .rng import RngStream
from .survival import validate_activities

DEFAULT_POP_CAP = 10_000_000

# campaign replicas are drawn in chunks, each from its own stream, so the
# chunk size is part of the deterministic draw schedule; the pass size and
# the thread count are not (see simulate_tree_campaign). At most
# _PASS_CHUNKS chunks are in flight, shared among the threads, which bounds
# a campaign's peak memory
_CHUNK = 1024
_PASS_CHUNKS = 8
# the CPUs this process may use: a campaign runs its passes on a pool of up
# to this many worker threads
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)

# the spine urn draws its star uniforms a block of this many at a time, and
# verifies its steps a chunk at a time (see simulate_spine_urn): a chunk
# holds at most this many steps times colors, so its path buffer stays under
# 1 MB
_SPECULATE_CELLS = 1 << 16
# the lineage urn is built a block of this many draws at a time (see
# simulate_reinforced_urn): a block's scratch, about 56 bytes a draw at q
# near 1, stays under 1 MB
_URN_BLOCK = 1 << 14

# a class step sums its children into one slot per key, skipping the sort,
# where the keys span at most this many slots per child (see _class_step):
# past it, reading the slots takes longer than the sort saves
_DENSE_SLOTS = 8


@dataclass(frozen=True)
class TreeCampaign:
    """Population trajectories of a replica campaign.

    ``populations[r, g]`` is the size of generation g in replica r. Entries in
    columns past a replica's truncation generation are 0 and carry no meaning;
    ``truncated_at[r]`` is that generation, or -1 if the cap was never hit.
    ``classes[g]`` is the number of draws taken at generation g, one
    multinomial per class, taken for two atoms as one binomial of the first
    atom, summed over replicas: the classes of the replicas still stepping,
    one per replica at q = 0 without a census.
    ``histograms[g]``, kept on request, is generation g's census
    ``{(replica, counts): individuals}`` with one entry per class; entries
    with equal counts share one tuple. Like the arrays, each layer is read
    only, a mapping proxy of its dict.
    """

    support: tuple[int, ...]
    populations: np.ndarray
    truncated_at: np.ndarray
    histograms: tuple[Mapping[tuple[int, tuple[int, ...]], int], ...] | None
    classes: np.ndarray

    def __post_init__(self):
        for arr in (self.populations, self.truncated_at, self.classes):
            arr.setflags(write=False)
        if self.histograms is not None:
            # frozen: the field is set once, here, through object
            object.__setattr__(self, "histograms",
                               tuple(map(MappingProxyType, self.histograms)))


@dataclass(frozen=True)
class SpineUrnState:
    """Ball counts and activities of the spine urn; the last color is the
    auxiliary one. ``chunks`` is the number of speculated chunks that
    stepped the urn and ``cut_chunks`` the number of them that kept only a
    prefix of their guess (see simulate_spine_urn)."""

    support: tuple[int, ...]
    counts: np.ndarray
    activities: np.ndarray
    steps: int
    chunks: int = 0
    cut_chunks: int = 0

    def __post_init__(self):
        if (self.counts < 0).any():
            raise ContractViolationError("ball counts must be non-negative")
        total = int(self.counts.sum())
        if total != 2 + 2 * self.steps:
            raise ContractViolationError(
                f"ball total {total} != 2 + 2*{self.steps}")


def _fresh_indices(cum_nu: np.ndarray, u: np.ndarray,
                   dtype=np.int64) -> np.ndarray:
    """The atom of each uniform in ``u``, as ``dtype``: how many of the
    cumulative weights before the last are at most it."""
    j = np.zeros(u.shape, dtype=dtype)
    for c in cum_nu[:-1].tolist():
        j += c <= u
    return j


@dataclass(frozen=True)
class _ClassKeys:
    """Layout of int64 class keys.

    A key is a leading digit (a replica) at place ``lead``, above the
    histogram's columns ``cols[:-1]`` in radix ``radix``. The last of
    ``cols`` is fixed by the histogram's total and takes no digit; the other
    columns stay 0 in every class, so they take none either. With no
    ``cols`` a key is its leading digit alone, and every histogram reads 0.
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
        rest = total
        # the digits, least significant first, peeled off one at a time
        for c in self.cols[:-1].tolist():
            higher = keys // self.radix
            digit = keys - higher * self.radix
            hist[:, c] = digit
            rest = rest - digit
            keys = higher
        if self.cols.size:
            hist[:, self.cols[-1]] = rest
        return keys, hist


def _draw_law(nu: OffspringLaw, q: float, i: int, hist: np.ndarray):
    """The law of draw i after draws with histograms ``hist``, one row each:
    q * hist / i + (1 - q) * nu, or nu alone, for all rows, at i = 0 or
    q = 0. The fresh mass (1 - q) * nu is added in place.
    """
    if q > 0.0 and i > 0:
        p = hist * (q / i)
        p += (1.0 - q) * nu.weights
        return p
    return nu.weights


def _run_sums(labels: np.ndarray,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last index of each run of equal ``labels`` and the sum of
    ``values`` over it.

    The sums are the int64 cumulative sums at the run ends, differenced in
    place. Both steps wrap modulo 2^64, so each sum is exact wherever it
    fits int64, as a sum taken run by run is, even where the running sum
    wraps past 2^63.
    """
    last = np.ones(labels.size, dtype=bool)
    np.not_equal(labels[1:], labels[:-1], out=last[:-1])
    ends = last.nonzero()[0]
    sums = values.cumsum().take(ends)
    # NumPy buffers the overlapping operand, so each run subtracts the
    # cumulative sum before it, not its difference
    sums[1:] -= sums[:-1]
    return ends, sums


def _draw_children(nu: OffspringLaw, q: float, i: int,
                   hist: np.ndarray, mult: np.ndarray, segments,
                   pick: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """The children of each class by outcome column: one multinomial draw
    of its multiplicity over the law of draw i after its histogram (see
    ``_draw_law``), taken for two atoms as one binomial of the first atom.

    Row c holds each class's draws of atom ``pick[c]`` times ``gain[c]``.
    ``segments`` yields ``(generator, lo, hi)`` in class order: classes lo:hi
    draw from that generator, in order. Each segment's draws are taken
    before the next is read, so the segments may re-key one generator.

    Over two atoms NumPy's multinomial draws each row's first count by the
    routine that ``Generator.binomial`` draws by, from the same state, and
    gives the second atom the rest. So the binomial of the law's first
    column, in the floats ``_draw_law`` computes it in, draws the same counts
    from the same stream, bit for bit, without the multinomial's loop over
    rows or its (classes, 2) law and counts.
    """
    if nu.weights.size == 2:
        p0 = nu.weights[0]
        if q > 0.0 and i > 0:
            p0 = hist[:, 0] * (q / i)
            p0 += (1.0 - q) * nu.weights[0]
        first = [gen.binomial(mult[lo:hi], p0 if p0.ndim == 0 else p0[lo:hi])
                 for gen, lo, hi in segments]
        # a lone segment's draws are used as drawn
        first = first[0] if len(first) == 1 else np.concatenate(first)
        kids = np.empty((pick.size, mult.size), dtype=np.int64)
        for row, c, s in zip(kids, pick.tolist(), gain.tolist()):
            np.multiply(first if c == 0 else mult - first, s, out=row)
        return kids
    p = _draw_law(nu, q, i, hist)
    draws = [gen.multinomial(mult[lo:hi], p if p.ndim == 1 else p[lo:hi])
             for gen, lo, hi in segments]
    draws = draws[0] if len(draws) == 1 else np.concatenate(draws)
    kids = draws.T[pick]
    kids *= gain[:, None]
    return kids


def _class_step(keys: np.ndarray, kids: np.ndarray, shift: np.ndarray,
                space: int) -> tuple[np.ndarray, np.ndarray]:
    """The classes born of one step, in ascending key order, with their
    multiplicities.

    ``keys`` ascend strictly, and ``kids`` holds one row per outcome column
    that continues a class (see ``_draw_children``): ``kids[c, i]`` children
    of the class keyed ``keys[i]`` go to the class keyed ``keys[i] +
    shift[c]``, a key below ``space``. Equal keys merge by int64 sums, which
    keep multiplicities exact wherever they fit int64, where bincount's
    float64 weights would round past 2^53.

    Where the keys span at most ``_DENSE_SLOTS`` slots per child, every
    child is summed into a slot per key, whose nonzero slots are the classes
    in key order. Otherwise the children with members are sorted and summed
    run by run: laid out a row at a time, as ``keys`` ascend, each row is
    one sorted run, which the stable sort (timsort for int64) merges instead
    of sorting anew.
    """
    child = keys + shift[:, None]
    if space <= _DENSE_SLOTS * kids.size:
        # counts are non-negative, so a slot is nonzero where members landed
        slots = np.zeros(space, dtype=np.int64)
        np.add.at(slots, child.ravel(), kids.ravel())
        child = (slots != 0).nonzero()[0]
        return child, slots.take(child)
    born = (kids > 0).ravel().nonzero()[0]
    child = child.ravel().take(born)
    order = child.argsort(kind="stable")
    child = child.take(order)
    ends, mult = _run_sums(child, kids.ravel().take(born).take(order))
    return child.take(ends), mult


def simulate_tree_campaign(nu: OffspringLaw, q: float, n_max: int,
                           replicas: int, rng: RngStream, *,
                           pop_cap: int = DEFAULT_POP_CAP,
                           keep_histograms: bool = False) -> TreeCampaign:
    """Replica campaign of reinforced trees, stepped in passes of chunks.

    Each generation holds classes: a replica, an ancestral histogram and the
    number of living individuals that share them. A class of multiplicity m
    at generation g takes one multinomial draw of m over
    q * histogram / g + (1 - q) * nu (nu alone at g = 0); a draw of atom j
    sends support[j] children per draw to the class histogram + e_j, and
    equal classes merge. The work per generation is one multinomial per
    class, taken for two atoms as one binomial of the first atom (see
    ``_draw_children``), at most C(g+k-1, k-1) per replica over k atoms,
    whatever the population. With q = 0 no draw reads the histogram, and
    without a census the keys carry no histogram digits, so each replica is
    one class.

    Chunks of ``_CHUNK`` replicas fix the random stream: chunk c draws from
    ``rng.child(c).generator("tree", g)`` for its classes in ascending key
    order. A pass holds one bit generator and re-keys it to that key for
    each chunk at each generation, which leaves the stream unchanged, bit
    for bit, without building a generator per draw (see ``rgw.rng``). A pass
    steps up to ``_PASS_CHUNKS`` chunks together, keyed by
    pass-local replica, so each chunk's classes form one contiguous slice:
    the draws go chunk by chunk and every other step, from the keys to the
    population sums, is one array operation over the pass.

    Passes run on a ``ThreadPoolExecutor`` of W workers, where W is the least
    of ``_PASS_CHUNKS``, the CPUs this process may use and the passes; the
    pool starts passes in order, and a pass is ``_PASS_CHUNKS // W`` chunks
    (at least one), so at most ``_PASS_CHUNKS`` chunks are in flight. Their
    arrays grow with them, so it is the chunks in flight that bound the
    campaign's peak memory, while the time per class stops falling at about 8
    chunks. A pass takes no more chunks than its int64 keys fit, and one chunk
    whose keys overflow is refused. Each pass writes only its own replicas'
    rows, and the class counts and census layers are gathered in pass order,
    so the results do not depend on W. With one pass, or one CPU, the calling
    thread runs every pass and starts no thread. Once a pass fails, no pass
    that has not started is started, and the first failed pass in pass order
    raises once every worker has ended.

    A replica whose population reaches ``pop_cap`` stops there and is
    recorded in ``truncated_at``. ``keep_histograms`` records, for every
    generation, the census ``{(replica, counts): individuals}``: one
    read-only mapping entry per class, where the classes of a layer that
    share a histogram share one immutable ``counts`` tuple.

    A campaign to depth N cut to generations <= n is the campaign to depth
    n from the same stream, bit for bit: ``populations[:, :n+1]``,
    ``classes[:n]``, ``histograms[:n+1]`` with each layer in its order, and
    ``truncated_at`` with the entries above n read as -1. It holds because
    generation g draws from ``rng.child(c).generator("tree", g)`` whatever
    the depth, and ascending keys order the classes by replica, then
    histogram, lexicographically whatever the key radix.
    """
    _check_q(q, allow_zero=True)
    if n_max < 1 or replicas < 1 or pop_cap < 1:
        raise ContractViolationError("n_max, replicas and pop_cap must be >= 1")
    support = nu.support
    k = len(support)
    support_arr = np.asarray(support, dtype=np.int64)

    populations = np.zeros((replicas, n_max + 1), dtype=np.int64)
    populations[:, 0] = 1
    truncated_at = np.full(replicas, -1, dtype=np.int64)
    classes = np.zeros(n_max, dtype=np.int64)

    # a cap of 1 truncates every replica at generation 0
    if pop_cap <= 1:
        truncated_at[:] = 0

    # A class is keyed by its pass-local replica id, then its histogram on
    # the positive atoms; the atom-0 column is always 0. Where no draw reads
    # the histogram and no census records it, the keys carry no histogram
    # digits, so each replica is one class.
    pos_cols = np.flatnonzero(support_arr > 0)
    digits = pos_cols if q > 0.0 or keep_histograms else pos_cols[:0]
    layout = _ClassKeys.layout(digits, k, n_max, min(replicas, _CHUNK))
    fit = np.iinfo(np.int64).max // (layout.lead * _CHUNK)
    threads = min(_PASS_CHUNKS, _CPUS, -(-replicas // _CHUNK))
    per_pass = _CHUNK * max(1, min(_PASS_CHUNKS // threads, fit))
    shift, gain = layout.place[pos_cols], support_arr[pos_cols]

    def run_pass(start: int) -> tuple[np.ndarray, list[zip] | None]:
        # steps the replicas of one pass, writing only their rows of
        # populations and truncated_at; returns the classes it drew per
        # generation and, on request, its census layers from generation 1
        # as lazy (key, individuals) pairs
        rc = min(per_pass, replicas - start)
        streams = [rng.child(c) for c in range(start // _CHUNK,
                                                (start + rc - 1) // _CHUNK + 1)]
        edges = np.arange(len(streams) + 1) * _CHUNK
        pops = populations[start:start + rc]
        trunc_at = truncated_at[start:start + rc]
        rid = np.arange(rc, dtype=np.int64)
        keys = rid * layout.lead
        hist = np.zeros((rc, k), dtype=np.int64)
        mult = np.ones(rc, dtype=np.int64)
        drawn = np.zeros(n_max, dtype=np.int64)
        layers = [] if keep_histograms else None
        # the pass's own generator, re-keyed for each chunk's draws at each
        # generation
        gen = rng.generator()
        for g in range(n_max):
            if mult.size == 0:
                break
            drawn[g] = mult.size
            # each chunk draws its own contiguous classes from its own
            # stream; a draw of atom j sends support[j] children to class
            # hist + e_j
            bounds = rid.searchsorted(edges).tolist()
            kids = _draw_children(
                nu, q, g, hist, mult,
                ((stream._rekey(gen, "tree", g), lo, hi)
                 for stream, lo, hi in zip(streams, bounds, bounds[1:])
                 if lo < hi),
                pos_cols, gain)
            keys, mult = _class_step(keys, kids, shift, rc * layout.lead)
            rid, hist = layout.split(keys, g + 1)
            # each replica's population, summed into its column as int64,
            # exactly wherever it fits; a truncated replica holds no
            # classes, so its column stays 0
            np.add.at(pops[:, g + 1], rid, mult)
            if layers is not None:
                # equal histogram digits mean equal histograms, so each
                # distinct one becomes a tuple once and its classes share it
                _, first, inverse = np.unique(keys - rid * layout.lead,
                                              return_index=True,
                                              return_inverse=True)
                shared = np.fromiter(map(tuple, hist[first].tolist()),
                                     dtype=object, count=first.size)
                layers.append(zip(zip((rid + start).tolist(),
                                      shared[inverse].tolist()),
                                  mult.tolist()))
            over = pops[:, g + 1] >= pop_cap
            if over.any():
                trunc_at[over] = g + 1
                keep = ~over[rid]
                keys, rid, hist, mult = keys[keep], rid[keep], hist[keep], mult[keep]
        return drawn, layers

    starts = range(0, replicas, per_pass) if pop_cap > 1 else range(0)
    threads = min(threads, len(starts))
    if threads <= 1:
        done = map(run_pass, starts)
    else:
        # imported here, so importing rgw loads no executor
        from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
        pool = ThreadPoolExecutor(threads)
        try:
            futures = [pool.submit(run_pass, start) for start in starts]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
        # a failed pass comes before every cancelled one, since the pool
        # starts passes in order
        done = [future.result() for future in futures]
    hist_acc: list[dict] | None = None
    if keep_histograms:
        hist_acc = [dict() for _ in range(n_max + 1)]
        zero = (0,) * k
        hist_acc[0] = {(r, zero): 1 for r in range(replicas)}
    # in pass order, so each census layer lists its replicas in order
    for drawn, layers in done:
        classes += drawn
        if layers:
            for layer, pairs in zip(hist_acc[1:], layers):
                layer.update(pairs)
    return TreeCampaign(support, populations, truncated_at,
                        tuple(hist_acc) if hist_acc is not None else None,
                        classes)


def simulate_reinforced_urn(nu: OffspringLaw, q: float, n: int,
                            rng: RngStream) -> tuple[np.ndarray, EmpiricalMeasure]:
    """One reinforced draw sequence of length n, with its final census.

    The first draw follows nu; each later draw repeats a uniformly chosen
    earlier one with probability q, else follows nu. Every draw has marginal
    law nu.

    From the uniforms u_mode, then u_val, draw i > 0 is a memory draw when
    u_mode[i] < q, and then repeats draw min(floor(u_val[i] * i), i - 1);
    any other draw is fresh and takes the atom of u_val[i] under the
    cumulative law. The stream and the sequence are those of a loop taking
    one draw at a time.

    The run is built a block of ``_URN_BLOCK`` (16,384) draws at a time,
    so besides the sequence it returns it holds one byte a draw for the
    memory flags and one for the atoms, and one block's scratch, under 1 MB
    whatever q: a run of 2*10^5 steps peaks at about 10 bytes a step at
    q = 1/3 and at q = 0.98 alike. Each block draws its uniforms, and its
    memory draws that repeat a draw before the block take that draw's atom.
    The others repeat a draw of the block: each points at the draw it
    repeats, and pointer jumping (``link = link[link]`` until nothing moves)
    takes it to the root of its chain in the block, a draw whose atom is
    known, in about log2 of the longest chain rounds.
    """
    _check_q(q)
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    support = nu.support
    k = len(support)
    small = np.min_scalar_type(k)
    cum_nu = np.cumsum(nu.weights)
    block = _URN_BLOCK
    g_rng = rng.generator("urn")
    # each block is tallied as it is built: bincount casts what it counts
    # to intp, 8 bytes a draw over the whole run
    tally = np.zeros(k, dtype=np.int64)
    memory = np.empty(n, dtype=bool)
    for lo in range(0, n, block):
        np.less(g_rng.random(min(block, n - lo)), q, out=memory[lo:lo + block])
    memory[0] = False
    drawn = np.empty(n, dtype=small)
    for lo in range(0, n, block):
        u_val = g_rng.random(min(block, n - lo))
        here = drawn[lo:lo + u_val.size]
        here[:] = _fresh_indices(cum_nu, u_val, small)
        mem = np.flatnonzero(memory[lo:lo + u_val.size])
        at = mem + lo
        # the draw each memory draw repeats
        src = np.minimum((u_val[mem] * at).astype(np.int64), at - 1)
        before = src < lo
        here[mem[before]] = drawn[src[before]]
        # the others, counted from the block's start
        mem, hop = mem[~before], src[~before] - lo
        # only these move: every other draw of the block is its own root
        link = np.arange(u_val.size)
        link[mem] = hop
        while True:
            jumped = link[hop]
            if np.array_equal(jumped, hop):
                break
            link[mem] = hop = jumped
        here[mem] = here[hop]
        tally += np.bincount(here, minlength=k)
    # spent, and freed before the sequence is built
    del memory
    seq = np.asarray(support, dtype=np.int64)[drawn]
    return seq, EmpiricalMeasure(support, tally)


def _urn_classes(nu: OffspringLaw, q: float, n: int, replicas: int,
                 rng: RngStream, tag: str,
                 cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw histograms of ``replicas`` reinforced sequences of length n, as
    classes: the histograms and how many sequences hold each.

    The batch starts as one class, the empty histogram of multiplicity
    ``replicas``. At step i each class of histogram h and multiplicity m
    takes one multinomial draw of m over q * h / i + (1 - q) * nu (nu alone
    at i = 0), from ``rng.generator(tag, i)`` in ascending key order: one
    multinomial per class, taken for two atoms as one binomial of the first
    atom (see ``_draw_children``). The draws of atom j go on to the class
    h + e_j. Only the atoms in
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
    # one generator, re-keyed for each step's draws
    gen = rng.generator()
    for i in range(n):
        if mult.size == 0:
            break
        kids = _draw_children(nu, q, i, hist, mult,
                              [(rng._rekey(gen, tag, i), 0, mult.size)],
                              cols, gain)
        keys, mult = _class_step(keys, kids, shift, layout.lead)
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
    multinomial per class per step, taken for two atoms as one binomial of
    the first atom, at most min(replicas, C(i+k-1, k-1)) classes at step i
    over k atoms, and a sequence that draws 0 leaves the batch with weight
    0. The weight and ``target`` are evaluated once per
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
    one-step-at-a-time loop does.

    A pick depends on the weights left by the picks before it, so the urn is
    stepped by speculation, a chunk of m steps at a time. The chunk guesses
    every pick from its starting weights and builds the weight path of its
    guess in one buffer, held for the whole run: a color's row holds its
    activity on the steps that add it and 0.0 elsewhere, which leaves the
    weight exact, the total's row the float the loop adds, and one
    cumulative sum along the rows adds the same floats in the same order as
    the loop. Then the chunk picks again along the path and compares the
    pick counts, how many running color sums each pick passed. Up to the
    first count that changes, at step j, the guess was right, so the steps
    up to and including j saw their true weights: the chunk keeps those
    steps (all m when no count changes) and steps the weights once past the
    kept prefix of its path. So the stream, every comparison and the result
    are those of the loop. Chunks grow with i, as a chunk moves the weights
    by about m / i, up to ``_SPECULATE_CELLS`` weights in all. The final
    state counts the chunks and the cut ones, which kept only a prefix.
    """
    _check_q(q)
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    a = validate_activities(a, nu, q)
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

    # colors and pick counts (k for an auxiliary pick) in the smallest
    # integer type that holds k
    small = np.min_scalar_type(k)
    g_rng = rng.generator("spine")
    u_pick = g_rng.random(n)
    # the color of each auxiliary pick, its uniforms drawn a block at a time
    star = np.empty(n, dtype=small)
    for lo in range(0, n, _SPECULATE_CELLS):
        star[lo:lo + _SPECULATE_CELLS] = _fresh_indices(
            cum_star, g_rng.random(min(_SPECULATE_CELLS, n - lo)), small)

    def passed(w, i, m):
        # how many of the loop's running color sums, in its order, steps
        # i..i+m-1 pass, with weights w before each (one column for all):
        # k is an auxiliary pick
        t = u_pick[i:i + m] * w[k]
        acc = w[0]
        below = (acc <= t).astype(small)
        for c in range(1, k):
            acc = acc + w[c]
            below += acc <= t
        return below

    # the total's increment for each added color, the float the loop adds
    total_inc = act[:k] + act[k]
    # a chunk takes at most max(64, i // 16) steps, with i < n, so no more
    # columns are ever filled
    cap = min(n, max(64, min((n - 1) // 16, _SPECULATE_CELLS // (k + 1))))
    # column 0 holds the state, the k color weights and then the total
    # weight, accumulated apart; a chunk's path fills the columns after it
    path = np.empty((k + 1, cap + 1))
    weights = counts * act
    path[:k, 0] = weights[:k]
    path[k, 0] = sum(weights.tolist())
    # the colors added, tallied a chunk at a time
    tally = np.zeros(k, dtype=np.int64)
    i = chunks = cut = 0
    while i < n:
        m = min(n - i, max(64, i // 16), cap)
        guess_passed = passed(path[:, :1], i, m)
        guess = np.where(guess_passed < k, guess_passed, star[i:i + m])
        steps = path[:, :m + 1]
        for c in range(k):
            np.multiply(guess == c, act[c], out=steps[c, 1:])
        # every color is in range; "clip" writes to out without a buffer
        np.take(total_inc, guess, out=steps[k, 1:], mode="clip")
        np.cumsum(steps, axis=1, out=steps)
        picked = passed(steps[:, :-1], i, m)
        miss = np.flatnonzero(picked != guess_passed)
        chunks += 1
        if miss.size:
            # step m saw its true weights: the chunk keeps the steps up to
            # it and steps the weights once past that prefix of its path
            m = int(miss[0])
            c = int(picked[m]) if picked[m] < k else int(star[i + m])
            guess[m] = c
            path[:, 0] = steps[:, m]
            path[c, 0] += act[c]
            path[k, 0] += total_inc[c]
            m += 1
            cut += 1
        else:
            path[:, 0] = steps[:, m]
        tally += np.bincount(guess[:m], minlength=k)
        i += m
    counts[:k] += tally
    counts[k] += n
    freqs = ProbVector(support, tally / n)
    state = SpineUrnState(support, counts, act.copy(), n, chunks, cut)
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


def replacement_matrix(nu: OffspringLaw, q: float, a) -> ReplacementSpectrum:
    """Replacement matrix of the spine urn and its leading left eigenvector.

    Entry (i, j) is the activity of color i times the expected number of j
    balls added on an i draw. Under the admissibility constraint the leading
    eigenvalue is 1 and the left eigenvector, normalized on the support
    colors, is the stationary color frequency. The matrix is non-negative,
    so its eigenvalue of largest real part is its spectral radius, with a
    non-negative left vector (Perron-Frobenius); one dense eigensolve finds
    both, and the vector is scaled to sum 1.
    """
    _check_q(q)
    a = validate_activities(a, nu, q)
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

    vals, vecs = np.linalg.eig(mat.T)
    lead = int(np.argmax(vals.real))
    v = vecs[:, lead].real
    v = v / v.sum()
    dist = ProbVector(sup, v[:-1] / v[:-1].sum())
    mat.setflags(write=False)
    v.setflags(write=False)
    return ReplacementSpectrum(sup, mat, float(vals[lead].real), v, dist)


def gibbs_conditional_estimate(nu: OffspringLaw, q: float, n: int, w, c: float,
                               replicas: int, rng: RngStream) -> tuple[ProbVector, float]:
    """Mean draw frequency of reinforced sequences conditioned on a halfspace.

    Rejection sampling: run ``replicas`` reinforced sequences of length n and
    keep those whose empirical frequency vector rho satisfies <rho, w> >= c.
    Returns the conditional mean vector and the acceptance rate. A halfspace
    that misses the simplex (c > max w) raises InfeasibleError before any
    draw; a statistical failure with diagnostics is raised if nothing is
    accepted.

    Replicas are stepped as draw-histogram classes (``_urn_classes``): one
    multinomial per class per step, taken for two atoms as one binomial of
    the first atom, at most min(replicas, C(i+k-1, k-1)) classes at step i
    over k atoms. The constraint is tested once per class, and a class
    counts as many replicas as it holds.
    """
    _check_q(q, allow_zero=True)
    if n < 1 or replicas < 1:
        raise ContractViolationError("n and replicas must be >= 1")
    w_arr = _check_halfspace(w, c, nu.support)
    k = len(nu.support)
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
