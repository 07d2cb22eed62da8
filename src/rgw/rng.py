"""Counter-based splittable random number streams.

Built on numpy's Philox bit generator. A stream is identified by
``(seed, stream)``; deriving a generator for a purpose tag and a generation
counter is a pure function of those integers, so any draw is reproducible
independently of traversal order. Child streams are obtained by mixing the
parent id, which keeps campaign chunks and verification checks on provably
disjoint keys.

Philox is counter-based: its output is a function of its key and counter
alone. So a generator built here can be re-keyed in place, its key set and
its counter and buffer reset, and it then draws what a fresh generator of
that key draws, bit for bit, without the cost of building one. Each pass of
a tree campaign holds one bit generator and re-keys it for each chunk and
generation, as an urn batch does for each step; the stream is unchanged.
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


# the FNV-1a hash of each tag string met so far: tags are a few literals,
# each hashed once instead of byte by byte on every key
_FNV: dict[str, int] = {}


def _fnv1a(text: str) -> int:
    h = _FNV.get(text)
    if h is None:
        h = 0xCBF29CE484222325
        for byte in text.encode("utf8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK64
        _FNV[text] = h
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

    def _rekey(self, gen: np.random.Generator,
               *tags: int | str) -> np.random.Generator:
        """``gen``, a generator that ``generator`` built, set to draw as
        ``generator(*tags)`` does. Its Philox takes that key and the state of
        a new one: counter 0, an empty buffer and no cached 32 bits. The
        generator is changed in place, so it must not be shared between
        threads."""
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0),
                      "key": (int(self.seed) & _MASK64,
                              _mix(self.stream, *tags))},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return gen

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, _mix(self.stream, "child", index))
