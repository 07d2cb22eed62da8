"""Shared machinery of the benchmark: spans, the per-run ledger, statistics.

A workload wraps every call into the program in ``Bench.span``, which times
the call and, in a traced run, keeps a span (name, start, end, parent,
workload) in memory. Spans are recorded from the benchmark's files only, one
around each public call of the program and one around each operation or round
of the benchmark itself, so the program runs unmodified.

The host this was written on changes speed by up to twofold for minutes at a
time, which moves any wall time by as much. ``Bench.corrected`` therefore
also divides a block's time by the host's slowdown while it ran: how much
longer a fixed reference computation of the benchmark's own takes than its
time in ``REFERENCES``, measured before, during and after the block.
Interpreter-bound and array-bound code slow by different factors (about 1.5
and 1.3 in one slow spell), so each workload names the reference that fits
its code. The result reads as seconds at the speed the host had when
``REFERENCES`` was taken.
"""

from __future__ import annotations

import math
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy import integrate


def python_reference() -> None:
    """Interpreter-bound work of the benchmark's own, never the program's: a
    Python float loop and short adaptive SciPy quadratures of a Python
    function, the kind of work of the rate solver."""
    acc = 0.0
    for i in range(1, 8001):
        acc += math.exp(-1e-4 * i) * math.log1p(1.0 / i)
    for k in range(20):
        integrate.quad(lambda s: (1.0 - s) ** 0.7 * math.exp(-k * s * s),
                       0.0, 1.0, epsrel=1e-12, limit=200)


def numpy_reference() -> None:
    """Array-bound work of the benchmark's own: random draws, repeats and
    counts over arrays of 10^5 entries, the kind of work of the tree
    simulator."""
    draws = np.random.default_rng(12345).integers(1, 3, size=80_000)
    np.bincount(np.repeat(np.arange(draws.size) % 1000, draws))


# about the fastest run of each reference on a 2-core KVM guest (Xeon,
# Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1)
REFERENCES = {"python": (python_reference, 0.0019),
              "numpy": (numpy_reference, 0.0016)}


# CPU seconds between two slowdown probes inside a corrected block; a probe
# takes about 8 ms
PROBE_S = 1.0


def slowdown(kind: str) -> float:
    """The fastest of three runs of reference ``kind`` over its time in
    ``REFERENCES``, after one run that brings its code and data back into
    the caches."""
    run, nominal = REFERENCES[kind]
    run()
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        run()
        best = min(best, perf_counter() - start)
    return best / nominal


@dataclass
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str


@dataclass
class Timer:
    seconds: float = 0.0
    corrected: float = 0.0


@dataclass
class Bench:
    """Ledger of one run: spans, attempted and failed operations, rounds."""

    workload: str
    traced: bool
    # the reference of slowdown() that fits the workload's code
    reference: str = "python"
    spans: list[Span] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _next_id: int = 0

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; record it as a span when tracing."""
        timer = Timer()
        ident = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if self.traced:
            self._stack.append(ident)
        start = perf_counter()
        try:
            yield timer
        finally:
            end = perf_counter()
            timer.seconds = end - start
            if self.traced:
                self._stack.pop()
                self.spans.append(Span(ident, name, start, end, parent,
                                       self.workload))

    @contextmanager
    def corrected(self, name: str):
        """``span``, and set ``timer.corrected``: the block's seconds over
        the mean of the host's slowdowns measured just before it, every
        ``PROBE_S`` of the process's CPU time within it (from a signal
        handler, so a long block is tracked throughout) and just after it.
        The probes' own time is taken out of ``timer.seconds``."""
        samples = [slowdown(self.reference)]
        probing = 0.0

        def probe(signum, frame):
            nonlocal probing
            start = perf_counter()
            samples.append(slowdown(self.reference))
            probing += perf_counter() - start

        previous = signal.signal(signal.SIGPROF, probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_S, PROBE_S)
        try:
            with self.span(name) as timer:
                yield timer
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)
        samples.append(slowdown(self.reference))
        self.slowdowns += samples
        timer.seconds -= probing
        timer.corrected = timer.seconds / statistics.fmean(samples)

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")

    def rounds(self, seconds: float, start: float, one_round) -> None:
        """Closed loop of whole rounds: start another only if the median round
        so far would still end within ``seconds`` of ``start``."""
        while True:
            with self.span("bench.round") as timer:
                one_round()
            self.round_s.append(timer.seconds)
            if perf_counter() - start + statistics.median(self.round_s) > seconds:
                return


def self_seconds_by_layer(spans: list[Span]) -> dict[str, float]:
    """Self time of each layer: span durations minus their children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
    out: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        own = s.end - s.start - child_time.get(s.ident, 0.0)
        out[layer] = out.get(layer, 0.0) + own
    return out


def span_cost_s(batches: int = 5, calls: int = 4000) -> float:
    """Extra cost of one traced span over an untraced one, in seconds: the
    median over ``batches`` of ``calls`` empty spans of each kind."""
    diffs = []
    for _ in range(batches):
        cost = {}
        for traced in (False, True):
            bench = Bench("calibration", traced)
            start = perf_counter()
            for _ in range(calls):
                with bench.span("bench.empty"):
                    pass
            cost[traced] = (perf_counter() - start) / calls
        diffs.append(cost[True] - cost[False])
    return statistics.median(diffs)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class OverLimit(BaseException):
    """Raised by the benchmark's own timer inside a call that ran too long.

    A ``BaseException`` so that no ``except Exception`` in the program can
    swallow it.
    """


def _raise_over_limit(signum, frame):
    raise OverLimit


@contextmanager
def time_limit(seconds: float | None):
    """Interrupt the enclosed block with ``OverLimit`` after ``seconds``;
    ``None`` sets no limit."""
    if seconds is None:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _raise_over_limit)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
