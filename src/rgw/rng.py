"""Counter-based splittable random number streams.

Built on numpy's Philox bit generator. A stream is identified by
``(seed, stream)``; deriving a generator for a purpose tag and a generation
counter is a pure function of those integers, so any draw is reproducible
independently of traversal order. Child streams are obtained by mixing the
parent id, which keeps campaign chunks and verification checks on provably
disjoint keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One round of the SplitMix64 finalizer (stable across platforms)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fnv1a(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _mix(*parts: int | str) -> int:
    acc = 0
    for part in parts:
        token = _fnv1a(part) if isinstance(part, str) else (int(part) & _MASK64)
        acc = _splitmix64(acc ^ token)
    return acc


@dataclass(frozen=True)
class RngStream:
    """Splittable stream keyed by ``(seed, stream)``.

    ``generator(*tags)`` returns a fresh ``numpy.random.Generator`` whose
    Philox key depends only on the stream id and the tags (e.g. a purpose
    string and a generation index). Calling it twice with the same tags gives
    bit-identical draws.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")

    def generator(self, *tags: int | str) -> np.random.Generator:
        key = [int(self.seed) & _MASK64, _mix(self.stream, *tags)]
        return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, _mix(self.stream, "child", index))
