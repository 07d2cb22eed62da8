"""Splittable streams: keys, and generators re-keyed in place."""

from __future__ import annotations

import numpy as np
import pytest

from rgw import RngStream
from rgw.rng import _fnv1a


def draws(gen: np.random.Generator) -> list[np.ndarray]:
    # the kinds of draw the urns and campaigns take: uniforms, binomials
    # (whose set-up numpy caches between calls) and multinomials over one
    # law and over a law per row; and 32-bit floats, which read cached bits
    return [gen.random(7),
            gen.random(3, dtype=np.float32),
            gen.binomial(40, 0.3, size=5),
            gen.binomial(3, 0.6, size=4),
            gen.multinomial([5, 9, 0], [0.2, 0.5, 0.3]),
            gen.multinomial([50, 9], [[0.2, 0.8], [0.6, 0.4]]),
            gen.random(3)]


@pytest.mark.parametrize("rng, tags", [
    (RngStream(0), ("tree", 0)),
    (RngStream(2**64 - 1, 5).child(3), ("tree", 7)),
    (RngStream(42), ("urn",)),
    (RngStream(9).child(2**40), ("many-to-one", 2**63 + 1)),
], ids=["tree", "top_seed_child", "one_tag", "wide_ints"])
def test_a_rekeyed_generator_draws_as_a_fresh_one(rng, tags):
    gen = RngStream(7).generator("spent")
    # leave the generator mid-buffer, with 32 cached bits and binomial's
    # set-up cached for the parameters drawn next
    draws(gen)
    gen.random(2)
    state = gen.bit_generator.state
    assert state["buffer_pos"] != 4 and state["has_uint32"] == 1
    for _ in range(2):
        assert rng._rekey(gen, *tags) is gen
        for got, want in zip(draws(gen), draws(rng.generator(*tags))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_tag_hashes_are_fnv1a_and_memoized():
    # published 64-bit FNV-1a values, then the memoized ones
    for _ in range(2):
        assert _fnv1a("") == 0xCBF29CE484222325
        assert _fnv1a("a") == 0xAF63DC4C8601EC8C
        assert _fnv1a("foobar") == 0x85944171F73967E8
