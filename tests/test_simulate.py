"""Monte Carlo engines checked against exact enumeration and closed forms."""

from __future__ import annotations

import concurrent.futures
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from rgw import (ContractViolationError, InfeasibleError, NumericError,
                 OffspringLaw, ProbVector, RngStream, StatisticalFailureError,
                 activity_from_law, enumerate_expected_counts,
                 gibbs_conditional_estimate, law_from_activity,
                 linf_distance, many_to_one_estimate,
                 replacement_matrix, simulate_reinforced_urn,
                 simulate_spine_urn, simulate_tree_campaign,
                 survival_functional)
from rgw import simulate
from rgw.survival import validate_activities
from rgw.measures import EmpiricalMeasure, _check_q
from rgw.simulate import SpineUrnState

FLAGSHIP = OffspringLaw((1, 2), (0.5, 0.5))
Q = 1.0 / 3.0

# population means for the flagship law, exact by sequence enumeration
EXPECTED_WITH_MEMORY = [1.5, 2.3333333333333335, 3.6666666666666674,
                        5.790123456790124, 9.169753086419757,
                        14.549725651577509, 23.11734110653865,
                        36.76687369811515]


class TestTreeCampaign:
    def test_doubling_law_is_deterministic(self):
        camp = simulate_tree_campaign(OffspringLaw((2,), (1.0,)), 0.25, 6, 3,
                                      RngStream(5))
        assert np.array_equal(camp.populations,
                              np.tile(2 ** np.arange(7), (3, 1)))

    def test_certain_extinction_in_one_generation(self):
        camp = simulate_tree_campaign(OffspringLaw((0,), (1.0,)), 0.5, 4, 10,
                                      RngStream(6))
        assert np.all(camp.populations[:, 0] == 1)
        assert np.all(camp.populations[:, 1:] == 0)

    def test_population_cap_truncates(self):
        camp = simulate_tree_campaign(OffspringLaw((2,), (1.0,)), 0.25, 10, 2,
                                      RngStream(7), pop_cap=16)
        assert np.all(camp.truncated_at == 4)
        assert np.all(camp.populations[:, 4] == 16)

    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_campaign_arrays_are_read_only(self, q):
        camp = simulate_tree_campaign(FLAGSHIP, q, 4, 5, RngStream(3))
        assert camp.populations.flags.writeable is False
        assert camp.truncated_at.flags.writeable is False
        assert camp.classes.flags.writeable is False

    def test_census_layers_are_read_only(self):
        camp = simulate_tree_campaign(FLAGSHIP, Q, 4, 5, RngStream(3),
                                      keep_histograms=True)
        for layer in camp.histograms:
            key = next(iter(layer))
            with pytest.raises(TypeError):
                layer[key] = 0
            with pytest.raises(TypeError):
                layer[(99, (0, 0))] = 1
        assert camp.histograms[0] == {(r, (0, 0)): 1 for r in range(5)}

    def test_mean_population_matches_enumeration(self):
        replicas = 20000
        camp = simulate_tree_campaign(FLAGSHIP, Q, 8, replicas, RngStream(8))
        for n in (4, 8):
            sizes = camp.populations[:, n].astype(float)
            se = sizes.std(ddof=1) / math.sqrt(replicas)
            z = abs(sizes.mean() - EXPECTED_WITH_MEMORY[n - 1]) / se
            assert z < 3.0

    def test_histogram_census_sums_to_population(self):
        camp = simulate_tree_campaign(FLAGSHIP, Q, 5, 40, RngStream(9),
                                      keep_histograms=True)
        for g, layer in enumerate(camp.histograms):
            totals: dict[int, int] = {}
            for (rid, _), cnt in layer.items():
                totals[rid] = totals.get(rid, 0) + cnt
            for rid in range(40):
                assert totals.get(rid, 0) == camp.populations[rid, g]

    def test_census_means_match_enumeration_per_histogram(self):
        nu = OffspringLaw((0, 1, 3), (0.2, 0.5, 0.3))
        q, n, replicas = 0.45, 5, 20000
        camp = simulate_tree_campaign(nu, q, n, replicas, RngStream(23),
                                      keep_histograms=True)
        assert all(counts[0] == 0 for layer in camp.histograms
                   for _, counts in layer)
        per_replica: dict[tuple[int, ...], np.ndarray] = {}
        for (rid, counts), cnt in camp.histograms[n].items():
            per_replica.setdefault(counts, np.zeros(replicas))[rid] = cnt
        exact = enumerate_expected_counts(nu, q, n)
        assert set(per_replica) <= {c for c, v in exact.items() if v > 0}
        for counts, expected in exact.items():
            if expected == 0.0:
                continue
            sizes = per_replica.get(counts, np.zeros(replicas))
            se = sizes.std(ddof=1) / math.sqrt(replicas)
            assert abs(sizes.mean() - expected) < 3.0 * se

    def test_depth_thirty_matches_enumeration(self):
        replicas = 1000
        camp = simulate_tree_campaign(FLAGSHIP, Q, 30, replicas, RngStream(24))
        assert np.all(camp.truncated_at == -1)
        exact = sum(enumerate_expected_counts(FLAGSHIP, Q, 30).values())
        assert exact == pytest.approx(1079550.09, abs=0.01)
        sizes = camp.populations[:, 30].astype(float)
        se = sizes.std(ddof=1) / math.sqrt(replicas)
        assert abs(sizes.mean() - exact) < 3.0 * se

    def test_class_key_overflow_is_refused(self):
        nu = OffspringLaw(tuple(range(1, 8)), (1.0 / 7.0,) * 7)
        with pytest.raises(ContractViolationError, match="overflow"):
            simulate_tree_campaign(nu, Q, 10_000, 4, RngStream(25))

    def test_keys_without_histogram_digits_never_overflow(self):
        # at q = 0 without a census a key is its replica alone, so the depth
        # that overflows histogram keys still runs; a census needs the digits
        nu = OffspringLaw(tuple(range(1, 8)), (1.0 / 7.0,) * 7)
        camp = simulate_tree_campaign(nu, 0.0, 10_000, 4, RngStream(25))
        assert np.all(camp.truncated_at > 0)
        with pytest.raises(ContractViolationError, match="overflow"):
            simulate_tree_campaign(nu, 0.0, 10_000, 4, RngStream(25),
                                   keep_histograms=True)


# The per-chunk class loop that passes of chunks replaced, kept as their
# oracle with its plain-argsort class step and a count of the draws it
# takes: each chunk of _CHUNK replicas is keyed and stepped alone, and draws
# from its own child stream in ascending key order, as every pass must too.
# It builds a fresh generator for each chunk and generation, where a pass
# re-keys one.


def argsort_class_step(keys, draws, pick, shift, gain):
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


def chunk_loop_campaign(nu, q, n_max, replicas, rng, *,
                        pop_cap=simulate.DEFAULT_POP_CAP,
                        keep_histograms=False):
    support = nu.support
    k = len(support)
    support_arr = np.asarray(support, dtype=np.int64)
    pos_cols = np.flatnonzero(support_arr > 0)
    # histogram digits only where a draw or the census reads them
    digits = pos_cols if q > 0.0 or keep_histograms else pos_cols[:0]
    layout = simulate._ClassKeys.layout(digits, k, n_max,
                                        min(replicas, simulate._CHUNK))
    shift, gain = layout.place[pos_cols], support_arr[pos_cols]
    pop_parts, trunc_parts = [], []
    classes = np.zeros(n_max, dtype=np.int64)
    hist_acc = ([dict() for _ in range(n_max + 1)] if keep_histograms
                else None)
    for chunk_idx, start in enumerate(range(0, replicas, simulate._CHUNK)):
        rc = min(simulate._CHUNK, replicas - start)
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
            classes[g] += mult.size
            g_rng = stream.generator("tree", g)
            p = nu.weights
            if q > 0.0 and g > 0:
                p = q / g * hist + (1.0 - q) * nu.weights
            draws = g_rng.multinomial(mult, p)
            keys, mult = argsort_class_step(
                rid * layout.lead + hist @ layout.place, draws, pos_cols,
                shift, gain)
            rid, hist = layout.split(keys, g + 1)
            z = np.zeros(rc, dtype=np.int64)
            np.add.at(z, rid, mult)
            live = trunc_at < 0
            pops[live, g + 1] = z[live]
            if hist_acc is not None:
                layer = hist_acc[g + 1]
                for r, h, m in zip((rid + start).tolist(), hist.tolist(),
                                   mult.tolist()):
                    layer[(r, tuple(h))] = m
            over = live & (z >= pop_cap)
            if over.any():
                trunc_at[over] = g + 1
                keep = ~over[rid]
                rid, hist, mult = rid[keep], hist[keep], mult[keep]
        pop_parts.append(pops)
        trunc_parts.append(trunc_at)
    return (np.vstack(pop_parts), np.concatenate(trunc_parts),
            tuple(hist_acc) if hist_acc is not None else None, classes)


def assert_matches_chunk_loop(nu, q, n_max, replicas, seed, **options):
    camp = simulate_tree_campaign(nu, q, n_max, replicas, RngStream(seed),
                                  **options)
    assert_is_the_chunk_loop(camp, chunk_loop_campaign(
        nu, q, n_max, replicas, RngStream(seed), **options))
    return camp


def assert_is_the_chunk_loop(camp, loop):
    pops, trunc_at, hists, classes = loop
    assert np.array_equal(camp.populations, pops)
    assert np.array_equal(camp.truncated_at, trunc_at)
    assert camp.histograms == hists
    if hists is not None:
        # in the same order, and of plain ints: dict == takes NumPy ints too
        assert [list(layer) for layer in camp.histograms] == \
            [list(layer) for layer in hists]
        assert all(type(rid) is int and type(cnt) is int
                   and type(counts) is tuple
                   and all(type(c) is int for c in counts)
                   for layer in camp.histograms
                   for (rid, counts), cnt in layer.items())
    assert np.array_equal(camp.classes, classes)


# (law, q, n_max, replicas, options): atom 0 in the support, a cap hit in
# the middle of passes, censuses (one over three histogram digits), and q = 0
# with a census; two-atom laws, which draw by binomial, with censuses at
# q > 0 and q = 0 and with atom 0 under a cap; and q = 0 without a census,
# one class per replica, by multinomial with extinctions under a cap and by
# binomial
PASS_CASES = [(FLAGSHIP, Q, 8, 5000, {}),
              (OffspringLaw((0, 1, 3), (0.2, 0.5, 0.3)), 0.45, 7, 4500, {}),
              (OffspringLaw((1, 2, 3, 5), (0.3, 0.3, 0.2, 0.2)), 0.6, 7, 4200,
               {"pop_cap": 200}),
              (OffspringLaw((0, 1, 2), (0.1, 0.3, 0.6)), 0.3, 8, 4400,
               {"pop_cap": 30, "keep_histograms": True}),
              (OffspringLaw((0, 1, 2), (0.1, 0.3, 0.6)), 0.0, 8, 4400,
               {"pop_cap": 30, "keep_histograms": True}),
              (OffspringLaw((0, 1, 2, 4), (0.1, 0.3, 0.3, 0.3)), 0.5, 7, 4700,
               {"pop_cap": 60, "keep_histograms": True}),
              (FLAGSHIP, Q, 7, 4300, {"keep_histograms": True}),
              (FLAGSHIP, 0.0, 7, 4600, {"keep_histograms": True}),
              (OffspringLaw((0, 2), (0.3, 0.7)), 0.5, 8, 4800,
               {"pop_cap": 40}),
              (OffspringLaw((0, 1, 3), (0.3, 0.3, 0.4)), 0.0, 9, 4500,
               {"pop_cap": 40}),
              (FLAGSHIP, 0.0, 8, 4900, {})]
PASS_IDS = ["flagship", "atom0", "cap", "census", "census_q0",
            "census_digits", "flagship_census", "flagship_census_q0",
            "two_atom0_cap", "q0_cap", "flagship_q0"]


class TestPassesMatchTheChunkLoop:
    @pytest.mark.parametrize("nu, q, n_max, replicas, options", PASS_CASES,
                             ids=PASS_IDS)
    def test_passes_of_two_chunks(self, nu, q, n_max, replicas, options,
                                  monkeypatch):
        # replicas not a multiple of the chunk, in three passes or more
        monkeypatch.setattr(simulate, "_PASS_CHUNKS", 2)
        assert replicas > 4 * simulate._CHUNK and replicas % simulate._CHUNK
        camp = assert_matches_chunk_loop(nu, q, n_max, replicas, 40, **options)
        if "pop_cap" in options:
            cut = camp.truncated_at[camp.truncated_at > 0]
            assert cut.size and np.unique(cut).size > 1

    def test_full_passes(self, monkeypatch):
        # one whole pass of _PASS_CHUNKS chunks and a short one
        monkeypatch.setattr(simulate, "_CPUS", 1)
        replicas = simulate._PASS_CHUNKS * simulate._CHUNK + 700
        assert_matches_chunk_loop(FLAGSHIP, Q, 5, replicas, 41)

    def test_no_replica_steps_under_a_cap_of_one(self):
        camp = assert_matches_chunk_loop(FLAGSHIP, Q, 4, 1500, 42, pop_cap=1,
                                         keep_histograms=True)
        assert np.all(camp.truncated_at == 0) and not camp.classes.any()

    @pytest.mark.parametrize("n_max, replicas, too_many",
                             [(400, 2500, 3072), (450, 2500, 2048),
                              (1000, 4, 1024)],
                             ids=["two_chunks_per_pass", "one_chunk_per_pass",
                                  "under_one_chunk"])
    def test_keys_that_fit_one_chunk_but_not_a_pass(self, n_max, replicas,
                                                    too_many):
        # 7 positive atoms: keys of depth 400 fit two chunks but not three,
        # keys of depth 450 fit one chunk but not two, and keys of depth 1000
        # fit 4 replicas but not a chunk; the cap ends every replica within
        # a few generations
        nu = OffspringLaw(tuple(range(1, 8)), (1.0 / 7.0,) * 7)
        lead = (n_max + 1) ** 6
        limit = np.iinfo(np.int64).max
        assert min(replicas, simulate._CHUNK) * lead <= limit < too_many * lead
        camp = assert_matches_chunk_loop(nu, Q, n_max, replicas, 43,
                                         pop_cap=20)
        assert np.all(camp.truncated_at > 0)


class FailingChunk(RngStream):
    """A stream whose child ``fail_at`` raises ``error``, so the pass that
    holds that chunk fails when it starts."""

    fail_at = 3
    error = RuntimeError

    def child(self, index):
        if index == self.fail_at:
            raise self.error(f"chunk {index}")
        return super().child(index)


class InterruptedChunk(FailingChunk):
    error = KeyboardInterrupt


@pytest.fixture
def spy_pool(monkeypatch):
    """The campaign's thread pool, logging (passes submitted, workers) per
    pool in ``pools``; ``shut`` is set once shutdown has cancelled the
    passes not yet started, before it waits for the workers."""

    class SpyPool(concurrent.futures.ThreadPoolExecutor):
        pools: list[list[int]] = []
        shut = threading.Event()

        def __init__(self, workers):
            super().__init__(workers)
            self.log = [0, workers]
            self.pools.append(self.log)

        def submit(self, fn, /, *args, **kwargs):
            self.log[0] += 1
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            self.shut.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    return SpyPool


class TestThreadCountChangesNothing:
    @pytest.mark.parametrize("nu, q, n_max, replicas, options", PASS_CASES,
                             ids=PASS_IDS)
    def test_any_thread_count_matches_the_chunk_loop(self, nu, q, n_max,
                                                     replicas, options,
                                                     monkeypatch, spy_pool):
        # 5 chunks: one pass of all at 1 CPU, two passes of 4 chunks or
        # fewer on 2 workers at 2, three of 2 or fewer on 3 workers at 3
        loop = chunk_loop_campaign(nu, q, n_max, replicas, RngStream(48),
                                   **options)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(simulate, "_CPUS", cpus)
            before = threading.active_count()
            camp = simulate_tree_campaign(nu, q, n_max, replicas,
                                          RngStream(48), **options)
            assert threading.active_count() == before
            assert_is_the_chunk_loop(camp, loop)
        assert [tuple(log) for log in spy_pool.pools] == [(2, 2), (3, 3)]

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # a pass run twice, lost or merged out of order changes the result
        monkeypatch.setattr(simulate, "_CPUS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            camp = assert_matches_chunk_loop(
                OffspringLaw((0, 1, 2), (0.1, 0.3, 0.6)), 0.3, 7,
                11 * simulate._CHUNK + 5, 49, pop_cap=40, keep_histograms=True)
        finally:
            sys.setswitchinterval(interval)
        assert (camp.truncated_at > 0).any()

    def test_a_failing_pass_reaches_the_caller(self, monkeypatch):
        # passes of 2 chunks on 3 threads; the second pass fails
        monkeypatch.setattr(simulate, "_CPUS", 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 3"):
            simulate_tree_campaign(FLAGSHIP, Q, 6, 6 * simulate._CHUNK,
                                   FailingChunk(50))
        assert threading.active_count() == before

    def test_an_error_on_a_started_thread_stops_the_others(self,
                                                           monkeypatch,
                                                           spy_pool):
        # five passes of 4 chunks on 2 workers. The second pass fails at its
        # first chunk; every other pass holds at its first chunk until
        # shutdown has cancelled the passes not yet started, so a worker
        # starts at most one pass after the failure, and the last two passes
        # are still queued when the failure is seen
        monkeypatch.setattr(simulate, "_CPUS", 2)
        started = []

        class HeldChunks(RngStream):
            def child(self, index):
                if index % 4 == 0:
                    started.append(index // 4)
                    if index == 4:
                        raise RuntimeError(f"chunk {index}")
                    assert spy_pool.shut.wait(timeout=30)
                return super().child(index)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 4"):
            simulate_tree_campaign(FLAGSHIP, Q, 2, 20 * simulate._CHUNK,
                                   HeldChunks(51))
        assert threading.active_count() == before
        assert spy_pool.pools == [[5, 2]]
        assert {0, 1} <= set(started) <= {0, 1, 2}

    def test_an_interrupt_on_a_worker_reaches_the_caller(self, monkeypatch):
        # passes of 2 chunks on 3 workers; the second pass is interrupted
        monkeypatch.setattr(simulate, "_CPUS", 3)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt, match="chunk 3"):
            simulate_tree_campaign(FLAGSHIP, Q, 6, 6 * simulate._CHUNK,
                                   InterruptedChunk(52))
        assert threading.active_count() == before


class TestDepthPrefix:
    @pytest.mark.parametrize("census", [False, True], ids=["as_given",
                                                           "census_flipped"])
    @pytest.mark.parametrize("nu, q, n_max, replicas, options", PASS_CASES,
                             ids=PASS_IDS)
    def test_deep_campaign_cut_to_depth_n_is_the_depth_n_campaign(
            self, nu, q, n_max, replicas, options, census):
        # flipping the census moves each q = 0 case between keys with and
        # without histogram digits
        if census:
            options = dict(options,
                           keep_histograms=not options.get("keep_histograms"))
        deep = simulate_tree_campaign(nu, q, n_max, replicas, RngStream(47),
                                      **options)
        for n in (1, n_max // 2, n_max - 1):
            camp = simulate_tree_campaign(nu, q, n, replicas, RngStream(47),
                                          **options)
            assert np.array_equal(deep.populations[:, :n + 1],
                                  camp.populations)
            assert np.array_equal(deep.classes[:n], camp.classes)
            assert np.array_equal(
                np.where(deep.truncated_at > n, -1, deep.truncated_at),
                camp.truncated_at)
            if camp.histograms is None:
                assert deep.histograms is None
            else:
                # equal layers, each in the same order
                assert deep.histograms[:n + 1] == camp.histograms
                assert [list(layer) for layer in deep.histograms[:n + 1]] == \
                    [list(layer) for layer in camp.histograms]


# each case through both merges: the sort, and the slot per key
@pytest.mark.parametrize("slots", [0, math.inf], ids=["sorted", "slotted"])
class TestClassStep:
    def test_matches_a_plain_argsort(self, slots, monkeypatch):
        monkeypatch.setattr(simulate, "_DENSE_SLOTS", slots)
        gen = RngStream(44).generator("class-step")
        for case in range(300):
            n = int(gen.integers(0, 40)) if case % 10 else 0
            cols = int(gen.integers(1, 5))
            # keys and shifts from a narrow range, so children of different
            # parents often share a key
            keys = np.unique(gen.integers(0, 60, n)).astype(np.int64)
            draws = gen.integers(0, 4, (keys.size, cols + 1))
            draws[gen.random(keys.size) < 0.2] = 0
            pick = gen.choice(cols + 1, size=cols, replace=False)
            shift = gen.integers(0, 12, cols).astype(np.int64)
            gain = gen.integers(1, 4, cols).astype(np.int64)
            # every child's key is below 60 + 11
            got = simulate._class_step(keys, draws.T[pick] * gain[:, None],
                                       shift, 71)
            want = argsort_class_step(keys, draws, pick, shift, gain)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[0].dtype == got[1].dtype == np.int64

    def test_no_children(self, slots, monkeypatch):
        monkeypatch.setattr(simulate, "_DENSE_SLOTS", slots)
        pick, shift, gain = np.arange(2), np.array([1, 5]), np.array([1, 2])
        for keys in (np.zeros(0, dtype=np.int64), np.array([3, 7])):
            draws = np.zeros((keys.size, 2), dtype=np.int64)
            child, mult = simulate._class_step(
                keys, draws.T[pick] * gain[:, None], shift, 13)
            assert child.size == 0 and mult.size == 0


class TestBinomialIsTheTwoAtomMultinomial:
    # the identity two-atom draws rest on: NumPy draws a two-column
    # multinomial row as one binomial of its first column, the rest going to
    # the second, so both take the same counts and leave the same state

    @staticmethod
    def both(n, p, p0):
        # each from one generator re-keyed, with its Philox state after
        def state():
            st = gen.bit_generator.state
            return (st["state"]["counter"].tolist(), st["state"]["key"].tolist(),
                    st["buffer"].tolist(), st["buffer_pos"], st["has_uint32"],
                    st["uinteger"])

        stream, gen = RngStream(54), RngStream(0).generator()
        draws = stream._rekey(gen, "pair").multinomial(n, p)
        after_multinomial = state()
        first = stream._rekey(gen, "pair").binomial(n, p0)
        return draws, after_multinomial, first, state()

    def test_rows_of_two_columns(self):
        gen = RngStream(55).generator("cases")
        p0 = np.concatenate([
            [0.0, 1.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
             0.3, 0.7, 1e-9, 1.0 - 1e-9],
            gen.random(200)])
        # n = 0, inversion (n min(p, 1 - p) <= 30) and BTPE (above 30)
        n = np.concatenate([[0, 0, 10, 1000, 1000, 10_000, 10_000, 50, 50],
                            gen.integers(1, 60, 100),
                            gen.integers(1, 5000, 100)])
        n[9::7] = 0
        p = np.column_stack([p0, 1.0 - p0])
        draws, after_multinomial, first, after_binomial = self.both(n, p,
                                                                    p0)
        spread = n * np.minimum(p0, 1.0 - p0)
        assert (spread > 30).sum() > 50 and (n == 0).sum() > 20
        assert ((n > 0) & (spread <= 30)).sum() > 50
        assert np.array_equal(draws, np.column_stack([first, n - first]))
        assert after_binomial == after_multinomial

    @pytest.mark.parametrize("q, i", [(Q, 7), (0.9, 30), (0.0, 5), (Q, 0)])
    def test_first_atom_law_is_the_draw_laws_first_column(self, q, i):
        # bit for bit, so the binomial draws what the multinomial over the
        # whole law would; a last-bit change in it rarely moves a count
        class Recorder:
            def binomial(self, n, p):
                laws.append(np.broadcast_to(np.float64(p), np.shape(n)))
                return np.zeros(np.shape(n), dtype=np.int64)

        nu = OffspringLaw((1, 2), (0.3, 0.7))
        gen = RngStream(56).generator("hist")
        first = gen.integers(0, i + 1, 500)
        hist = np.column_stack([first, i - first])
        mult = np.ones(first.size, dtype=np.int64)
        laws = []
        simulate._draw_children(nu, q, i, hist, mult,
                                [(Recorder(), 0, 200), (Recorder(), 200, 500)],
                                np.arange(2), np.array([1, 2]))
        law = simulate._draw_law(nu, q, i, hist)
        want = np.broadcast_to(law[:, 0] if law.ndim == 2 else law[0],
                               first.shape)
        got = np.concatenate(laws)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("p0", [0.0, 0.25, 0.5, 0.6, 1.0])
    def test_scalar_first_atom_against_the_law(self, p0):
        # at q = 0 or i = 0: one law, as 1-D weights, for every row
        n = np.array([0, 1, 7, 40, 300, 5000, 0, 100_000])
        draws, after_multinomial, first, after_binomial = self.both(
            n, np.array([p0, 1.0 - p0]), p0)
        assert np.array_equal(draws, np.column_stack([first, n - first]))
        assert after_binomial == after_multinomial


def test_run_sums_exact_past_a_wrapping_running_sum():
    # the running sum passes 2^63 after the second run and wraps, while
    # every run's sum fits int64
    big = 2**62
    labels = np.array([0, 0, 1, 2, 2, 3, 3, 3], dtype=np.int64)
    values = np.array([big, big - 1, big, 5, big, big - 7, 1, 3],
                      dtype=np.int64)
    ends, sums = simulate._run_sums(labels, values)
    assert ends.tolist() == [1, 2, 4, 7]
    assert sums.tolist() == [2**63 - 1, big, big + 5, big - 3]
    assert sums.dtype == np.int64


class TestCampaignClasses:
    @pytest.mark.parametrize("nu, q, options", [
        (OffspringLaw((0, 1, 3), (0.2, 0.5, 0.3)), 0.45, {"pop_cap": 40}),
        (FLAGSHIP, Q, {}),
        (OffspringLaw((0, 1, 2), (0.1, 0.3, 0.6)), 0.0, {"pop_cap": 30})],
        ids=["atom0_cap", "flagship", "q0"])
    def test_classes_are_the_census_keys_still_stepping(self, nu, q, options):
        n_max, replicas = 6, 1500
        camp = simulate_tree_campaign(nu, q, n_max, replicas, RngStream(45),
                                      keep_histograms=True, **options)
        assert camp.classes.shape == (n_max,)
        trunc = camp.truncated_at
        for g in range(n_max):
            stepping = sum(1 for r, _ in camp.histograms[g]
                           if not 0 <= trunc[r] <= g)
            assert camp.classes[g] == stepping
        if "pop_cap" not in options:
            assert np.array_equal(camp.classes,
                                  [len(layer) for layer in camp.histograms[:-1]])

    def test_iid_classes_are_the_active_replicas(self):
        nu = OffspringLaw((0, 1, 2), (0.3, 0.3, 0.4))
        camp = simulate_tree_campaign(nu, 0.0, 8, 3000, RngStream(46),
                                      pop_cap=25)
        assert camp.histograms is None
        pops, trunc = camp.populations, camp.truncated_at
        for g in range(8):
            active = (pops[:, g] > 0) & ~((trunc >= 0) & (trunc <= g))
            assert camp.classes[g] == active.sum()


class TestEnumeration:
    def test_single_generation_is_size_biased_mass(self):
        counts = enumerate_expected_counts(FLAGSHIP, Q, 1)
        assert counts[(1, 0)] == pytest.approx(0.5, abs=1e-15)
        assert counts[(0, 1)] == pytest.approx(1.0, abs=1e-15)

    def test_two_generations_flagship(self):
        counts = enumerate_expected_counts(FLAGSHIP, Q, 2)
        # the all-twos history has probability 1/3 and carries 4 individuals
        assert counts[(0, 2)] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert counts[(1, 1)] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert counts[(2, 0)] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_totals_match_hand_expected_means(self):
        for n in range(1, 9):
            with_memory = sum(enumerate_expected_counts(FLAGSHIP, Q,
                                                        n).values())
            assert with_memory == pytest.approx(EXPECTED_WITH_MEMORY[n - 1],
                                                rel=1e-12)
            memoryless = sum(enumerate_expected_counts(FLAGSHIP, 0.0,
                                                       n).values())
            assert memoryless == pytest.approx(1.5 ** n, rel=1e-12)

    def test_guard_counts_histograms_not_sequences(self):
        # 2^24 degree sequences, but only 325 histograms of depth <= 24
        assert len(enumerate_expected_counts(FLAGSHIP, Q, 24)) == 25
        seven = OffspringLaw(tuple(range(1, 8)), (1.0 / 7.0,) * 7)
        with pytest.raises(ContractViolationError, match="guard"):
            enumerate_expected_counts(seven, Q, 30)

    def test_overflowing_expected_count_is_a_numeric_error(self):
        huge = OffspringLaw((1, 10 ** 200), (0.5, 0.5))
        with pytest.raises(NumericError):
            enumerate_expected_counts(huge, Q, 2)


class TestManyToOne:
    def test_single_step_estimates_the_mean(self):
        est, se = many_to_one_estimate(FLAGSHIP, Q, 1, 4000, None,
                                       RngStream(10))
        assert abs(est - FLAGSHIP.mean()) < 3.0 * se

    def test_matches_enumeration_at_moderate_depth(self):
        exact = sum(enumerate_expected_counts(FLAGSHIP, Q, 6).values())
        est, se = many_to_one_estimate(FLAGSHIP, Q, 6, 20000, None,
                                       RngStream(11))
        assert abs(est - exact) < 3.0 * se


class TestReinforcedUrn:
    def test_first_draw_has_the_base_distribution(self):
        hits = 0
        reps = 4000
        for i in range(reps):
            draws, _ = simulate_reinforced_urn(FLAGSHIP, Q, 1,
                                               RngStream(12, i))
            hits += int(draws[0] == 2)
        se = math.sqrt(0.25 / reps)
        assert abs(hits / reps - 0.5) < 3.0 * se

    def test_second_draw_mixes_memory_and_base(self):
        # conditionally on a first draw of 2 the second is 2 with
        # probability q + (1 - q) / 2
        reps = 4000
        both = first2 = 0
        for i in range(reps):
            draws, _ = simulate_reinforced_urn(FLAGSHIP, Q, 2,
                                               RngStream(13, i))
            if draws[0] == 2:
                first2 += 1
                both += int(draws[1] == 2)
        p = Q + (1.0 - Q) * 0.5
        se = math.sqrt(p * (1.0 - p) / first2)
        assert abs(both / first2 - p) < 3.0 * se

    def test_census_long_run_frequency(self):
        _, census = simulate_reinforced_urn(FLAGSHIP, Q, 1_000_000,
                                            RngStream(14))
        assert linf_distance(census.normalize(),
                             FLAGSHIP) < 0.01


class TestSpineUrn:
    def test_identity_activity_targets_the_base_law(self):
        ones = np.ones(2)
        target = law_from_activity(ones, FLAGSHIP, Q)
        assert np.allclose(target.weights, FLAGSHIP.weights, atol=1e-15)
        freq, _ = simulate_spine_urn(FLAGSHIP, Q, ones, 200_000,
                                     RngStream(15))
        assert linf_distance(freq, target) < 0.02
        # the criterion collapses to minus the mean log degree under nu
        criterion = survival_functional(ones, FLAGSHIP, Q)
        assert criterion == pytest.approx(-0.34657359027997264, abs=1e-12)

    def test_tilted_activity_reaches_the_requested_law(self):
        rho = ProbVector((1, 2), (0.2, 0.8))
        a = activity_from_law(rho, FLAGSHIP, Q)
        assert np.allclose(a, (0.5, 4.0 / 3.0), atol=1e-12)
        target = law_from_activity(a, FLAGSHIP, Q)
        assert np.allclose(target.weights, rho.weights, atol=1e-12)
        freq, _ = simulate_spine_urn(FLAGSHIP, Q, a, 200_000, RngStream(16))
        assert linf_distance(freq, target) < 0.02


# One-step-at-a-time loops of both urns, kept as oracles: the whole-run
# lineage urn and the chunked spine urn must give bit-identical results on
# the same stream.


def loop_reinforced_urn(nu: OffspringLaw, q: float, n: int,
                         rng: RngStream) -> tuple[np.ndarray, EmpiricalMeasure]:
    _check_q(q)
    if n < 1:
        raise ContractViolationError("n must be at least 1")
    support = nu.support
    k = len(support)
    g_rng = rng.generator("urn")
    u_mode = g_rng.random(n)
    u_val = g_rng.random(n)
    cum_nu = nu.weights.cumsum().tolist()
    drawn = [0] * n
    for i in range(n):
        if i > 0 and u_mode[i] < q:
            # a memory draw repeats a uniformly chosen earlier draw
            j = drawn[min(int(u_val[i] * i), i - 1)]
        else:
            u = u_val[i]
            j = k - 1
            for idx in range(k):
                if u < cum_nu[idx]:
                    j = idx
                    break
        drawn[i] = j
    seq = np.asarray(support, dtype=np.int64)[drawn]
    return seq, EmpiricalMeasure(support, np.bincount(drawn, minlength=k))


def loop_spine_urn(nu: OffspringLaw, q: float, a, n: int,
                    rng: RngStream) -> tuple[ProbVector, SpineUrnState]:
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
    cum_star = (star_pick / star_pick.sum()).cumsum().tolist()
    cum_nu = nu.weights.cumsum().tolist()

    g_init = rng.generator("spine-init")
    u0 = float(g_init.random())
    first = k - 1
    for idx in range(k):
        if u0 < cum_nu[idx]:
            first = idx
            break
    counts = [0] * (k + 1)
    counts[first] = 1
    counts[k] = 1

    g_rng = rng.generator("spine")
    u_pick = g_rng.random(n)
    u_color = g_rng.random(n)
    act_l = act.tolist()
    weights = [counts[c] * act_l[c] for c in range(k + 1)]
    total_w = sum(weights)
    tally = [0] * k
    for i in range(n):
        t = u_pick[i] * total_w
        acc = 0.0
        picked = k
        for c in range(k + 1):
            acc += weights[c]
            if t < acc:
                picked = c
                break
        if picked < k:
            added = picked
        else:
            u = u_color[i]
            added = k - 1
            for idx in range(k):
                if u < cum_star[idx]:
                    added = idx
                    break
        counts[added] += 1
        counts[k] += 1
        weights[added] += act_l[added]
        weights[k] += act_l[k]
        total_w += act_l[added] + act_l[k]
        tally[added] += 1
    freqs = ProbVector(support, np.asarray(tally, dtype=float) / n)
    state = SpineUrnState(support, np.asarray(counts, dtype=np.int64),
                          act.copy(), n)
    return freqs, state


# laws of 2, 3 and 4 atoms, one with atom 0, each with a spine target
URN_CASES = [(FLAGSHIP, (0.2, 0.8)),
             (OffspringLaw((1, 2, 4), (0.5, 0.3, 0.2)), (0.2, 0.3, 0.5)),
             (OffspringLaw((0, 1, 2, 3), (0.1, 0.3, 0.4, 0.2)),
              (0.0, 0.2, 0.3, 0.5))]
# 1 and 2, either side of the first chunk boundary (64 steps) and of the
# first boundary past a grown chunk (1024 + 64), and a run of growing chunks
URN_STEPS = [1, 2, 63, 64, 65, 1087, 1088, 1089, 20000]


@pytest.mark.parametrize("q", [0.02, 1.0 / 3.0, 0.98])
@pytest.mark.parametrize("nu, rho", URN_CASES,
                         ids=["2atoms", "3atoms", "4atoms_with_0"])
class TestChunkedUrnsMatchTheLoop:
    def test_reinforced_urn(self, nu, rho, q, monkeypatch):
        # in blocks of 100 draws too, so that most memory draws repeat one
        # in an earlier block and chains cross many blocks
        for block in (simulate._URN_BLOCK, 100):
            monkeypatch.setattr(simulate, "_URN_BLOCK", block)
            for seed in (1, 2, 3):
                for n in URN_STEPS:
                    seq, census = simulate_reinforced_urn(nu, q, n,
                                                          RngStream(seed))
                    ref_seq, ref_census = loop_reinforced_urn(
                        nu, q, n, RngStream(seed))
                    assert np.array_equal(seq, ref_seq)
                    assert np.array_equal(census.counts, ref_census.counts)

    def test_spine_urn(self, nu, rho, q):
        a = activity_from_law(ProbVector(nu.support, rho), nu, q)
        for seed in (1, 2, 3):
            for n in URN_STEPS:
                freq, state = simulate_spine_urn(nu, q, a, n, RngStream(seed))
                ref_freq, ref_state = loop_spine_urn(nu, q, a, n,
                                                     RngStream(seed))
                assert np.array_equal(freq.weights, ref_freq.weights)
                assert np.array_equal(state.counts, ref_state.counts)
                assert np.array_equal(state.activities, ref_state.activities)

    def test_reinforced_urn_over_block_edges(self, nu, rho, q):
        # two whole blocks and a part of a third
        n = 2 * simulate._URN_BLOCK + 5
        seq, census = simulate_reinforced_urn(nu, q, n, RngStream(4))
        ref_seq, ref_census = loop_reinforced_urn(nu, q, n, RngStream(4))
        assert np.array_equal(seq, ref_seq)
        assert np.array_equal(census.counts, ref_census.counts)

    def test_spine_chunk_keeps_a_prefix(self, nu, rho, q):
        # some chunk's re-pick changes its guess, so it keeps only a prefix
        # of it. The run is one of test_spine_urn's, which matches it to
        # the loop
        a = activity_from_law(ProbVector(nu.support, rho), nu, q)
        _, state = simulate_spine_urn(nu, q, a, URN_STEPS[-1], RngStream(3))
        assert 0 < state.cut_chunks < state.chunks


# Runs past the chunk cap, where the loop oracle is too slow to follow: the
# 2-atom cap (21,845 steps a chunk) is reached from step 349,520 on, the
# regime of verify --full's 10^6-step runs. Each entry is (tally, final
# counts) of 400,000 steps at q = 1/3 and seed 3, recorded at commit 40f77d0
# by
#   PYTHONPATH=src:tests python -c "import test_simulate as t;
#   print([t.spine_run_past_the_cap(nu, rho) for nu, rho in t.URN_CASES])"
PAST_THE_CAP_STEPS = 400_000
PAST_THE_CAP = [([79697, 320303], [79697, 320304, 400001]),
                ([79771, 120485, 199744], [79771, 120485, 199745, 400001]),
                ([0, 79873, 120102, 200025], [0, 79873, 120102, 200026,
                                              400001])]


def spine_run_past_the_cap(nu: OffspringLaw, rho) -> tuple[list, list]:
    a = activity_from_law(ProbVector(nu.support, rho), nu, Q)
    freq, state = simulate_spine_urn(nu, Q, a, PAST_THE_CAP_STEPS,
                                     RngStream(3))
    tally = np.rint(freq.weights * PAST_THE_CAP_STEPS).astype(int)
    return tally.tolist(), state.counts.tolist()


@pytest.mark.parametrize("case", range(len(URN_CASES)),
                         ids=["2atoms", "3atoms", "4atoms_with_0"])
def test_spine_urn_past_the_chunk_cap(case):
    nu, rho = URN_CASES[case]
    tally, counts = PAST_THE_CAP[case]
    assert spine_run_past_the_cap(nu, rho) == (tally, counts)


# Peak memory of one run, in bytes a step, by tracemalloc after a warm-up
# run; at 2*10^5 steps a block's or a chunk's scratch arrays still show.
MEMORY_STEPS = 200_000


def bytes_a_step(run) -> float:
    run(1000)
    tracemalloc.start()
    try:
        run(MEMORY_STEPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / MEMORY_STEPS


@pytest.mark.parametrize("q, bound", [(Q, 30), (0.98, 15)])
def test_lineage_urn_memory(q, bound):
    # the returned int64 sequence is 8 bytes a step of it; at q = 0.98 most
    # draws are memory draws, whose scratch fills a block
    assert bytes_a_step(lambda n: simulate_reinforced_urn(
        FLAGSHIP, q, n, RngStream(14))) <= bound


def test_spine_urn_memory():
    # the pick uniforms are 8 bytes a step of it
    a = activity_from_law(ProbVector((1, 2), (0.2, 0.8)), FLAGSHIP, Q)
    assert bytes_a_step(lambda n: simulate_spine_urn(
        FLAGSHIP, Q, a, n, RngStream(16))) <= 13


def power_left_pair(mat: np.ndarray, *, tol: float = 1e-13,
                    max_iter: int = 200_000) -> tuple[float, np.ndarray]:
    """Leading eigenvalue and left vector, scaled to sum 1, of a
    non-negative matrix by power iteration: the oracle of the dense
    eigensolve. Its iterations grow as 1/(1 - q) for the spine urn's
    replacement matrix."""
    v = np.full(mat.shape[0], 1.0 / mat.shape[0])
    for _ in range(max_iter):
        w = v @ mat
        lam = float(w.sum())
        w /= lam
        if float(np.max(np.abs(w - v))) < tol:
            return lam, w
        v = w
    raise AssertionError("power iteration did not converge")


class TestReplacementMatrix:
    def test_identity_activity_exact_three_atom_spectrum(self):
        nu = OffspringLaw((1, 2, 3), (0.3, 0.4, 0.3))
        spec = replacement_matrix(nu, 0.4, np.ones(3))
        assert spec.matrix.shape == (4, 4)
        assert spec.eigenvalue == pytest.approx(1.0, abs=1e-10)
        assert linf_distance(spec.support_distribution,
                             nu) < 1e-8

    def test_left_pair_agrees_with_power_iteration(self):
        rho = ProbVector((1, 2), (0.35, 0.65))
        a = activity_from_law(rho, FLAGSHIP, Q)
        spec = replacement_matrix(FLAGSHIP, Q, a)
        lam, left = power_left_pair(spec.matrix)
        assert spec.eigenvalue == pytest.approx(1.0, abs=1e-10)
        assert spec.eigenvalue == pytest.approx(lam, abs=1e-12)
        assert np.max(np.abs(left - spec.left_vector)) < 1e-8

    def test_high_memory_spectrum(self):
        # power iteration needs ~2,550 iterations here, one eigensolve none
        nu = OffspringLaw((0, 1, 2, 5), (0.1, 0.3, 0.4, 0.2))
        q = 0.99
        a = activity_from_law(ProbVector(nu.support, (0.0, 0.2, 0.3, 0.5)),
                              nu, q)
        spec = replacement_matrix(nu, q, a)
        assert abs(spec.eigenvalue - 1.0) < 1e-12
        target = law_from_activity(a, nu, q)
        # the left vector lives on the positive atoms; atom 0 has weight 0
        assert target.weights[0] == 0.0
        assert np.max(np.abs(spec.support_distribution.weights
                             - target.weights[1:])) < 1e-12
        lam, left = power_left_pair(spec.matrix)
        assert spec.eigenvalue == pytest.approx(lam, abs=1e-12)
        assert np.max(np.abs(left - spec.left_vector)) < 1e-9

    def test_inadmissible_activity_is_detected(self):
        rho = ProbVector((1, 2), (0.2, 0.8))
        bad = activity_from_law(rho, FLAGSHIP, Q)
        bad[0] += 0.35
        with pytest.raises(ContractViolationError):
            replacement_matrix(FLAGSHIP, Q, bad)
        # the dense spectrum confirms the drift the guard protects against
        mat = np.array([[Q * bad[0], 0.0, Q * bad[0]],
                        [0.0, Q * bad[1], Q * bad[1]],
                        [(1 - Q) * bad[0] * 0.5, (1 - Q) * bad[1] * 0.5,
                         (1 - Q) * float(np.dot(bad, FLAGSHIP.weights))]])
        lead = np.max(np.abs(np.linalg.eigvals(mat)))
        assert abs(lead - 1.0) > 1e-3


class TestGibbs:
    def test_single_step_conditioning_is_exact(self):
        est, acc = gibbs_conditional_estimate(FLAGSHIP, Q, 1, [0.0, 1.0],
                                              0.9, 20000, RngStream(19))
        assert tuple(est.weights) == (0.0, 1.0)
        assert abs(acc - 0.5) < 3.0 * math.sqrt(0.25 / 20000)

    def test_slack_constraint_recovers_typical_behavior(self):
        est, acc = gibbs_conditional_estimate(FLAGSHIP, Q, 200, [1.0, 1.0],
                                              0.0, 10000, RngStream(20))
        assert acc == 1.0
        assert linf_distance(est, FLAGSHIP) < 0.02

    def test_rare_constraint_concentrates_on_the_minimizer(self):
        est, acc = gibbs_conditional_estimate(FLAGSHIP, Q, 40, [0.0, 1.0],
                                              0.8, 60000, RngStream(21))
        assert 0.0 < acc < 0.05
        assert linf_distance(est, ProbVector((1, 2), (0.2, 0.8))) < 0.05

    def test_impossible_constraint_raises(self, monkeypatch):
        # c above max w: no frequency vector meets it, so it is refused as
        # min_rate_over_halfspace refuses it, before any replica is drawn
        def no_draws(*args, **kwargs):
            raise AssertionError("replicas drawn for an empty halfspace")

        monkeypatch.setattr(simulate, "_urn_classes", no_draws)
        with pytest.raises(InfeasibleError):
            gibbs_conditional_estimate(FLAGSHIP, Q, 5, [0.0, 1.0], 1.01,
                                       1000, RngStream(22))

    def test_no_accepted_replica_is_a_statistical_failure(self):
        # c = max w is feasible, but only a run of 40 draws of atom 2 meets
        # it, which about 7e-8 of the replicas do
        with pytest.raises(StatisticalFailureError) as failed:
            gibbs_conditional_estimate(FLAGSHIP, Q, 40, [0.0, 1.0], 1.0,
                                       1000, RngStream(22))
        assert failed.value.diagnostics["accepted"] == 0

    @pytest.mark.parametrize("w, c", [
        ((math.nan, 1.0), 0.5), ((0.0, math.inf), 0.5),
        ((-math.inf, 1.0), 0.5), ((0.0, 1.0), math.nan), ((0.0, 1.0, 2.0), 0.5),
    ], ids=["nan_w", "inf_w", "minus_inf_w", "nan_c", "long_w"])
    def test_malformed_halfspace_is_refused_before_any_draw(self, w, c,
                                                            monkeypatch):
        # as min_rate_over_halfspace refuses it, where no replica could be
        # accepted and every one would be drawn to find that out
        def no_draws(*args, **kwargs):
            raise AssertionError("replicas drawn for a malformed halfspace")

        monkeypatch.setattr(simulate, "_urn_classes", no_draws)
        with pytest.raises(ContractViolationError, match="halfspace"):
            gibbs_conditional_estimate(FLAGSHIP, Q, 5, w, c, 10**9,
                                       RngStream(22))


# The row-wise urn batch the class step replaced, kept as its oracle: every
# replica draws once per step, a memory draw from its own counts. The
# streams differ, so the two agree in law, not draw by draw.


def row_urn_batch(nu: OffspringLaw, q: float, n: int, replicas: int,
                  g_rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    k = len(nu.support)
    cum_nu = np.cumsum(nu.weights)
    values = np.asarray(nu.support, dtype=np.float64)
    counts = np.zeros((replicas, k), dtype=np.int64)
    weights = np.ones(replicas)
    rows = np.arange(replicas)
    for i in range(n):
        u_mode = g_rng.random(replicas)
        u_val = g_rng.random(replicas)
        j = np.minimum(np.searchsorted(cum_nu, u_val, side="right"), k - 1)
        if q > 0.0 and i > 0:
            mem = u_mode < q
            cs = np.cumsum(counts[mem], axis=1)
            j[mem] = (cs <= (u_val[mem] * i)[:, None]).sum(axis=1)
        weights *= values[j]
        counts[rows, j] += 1
    return counts, weights


def row_estimate(nu: OffspringLaw, n: int, counts: np.ndarray,
                 weights: np.ndarray, target) -> tuple[float, float]:
    if target is not None:
        # a line that drew 0 has weight 0 whatever its frequencies
        weights = weights * [w > 0 and bool(target(ProbVector(nu.support,
                                                               c / n)))
                             for c, w in zip(counts, weights)]
    return (float(weights.mean()),
            float(weights.std(ddof=1) / math.sqrt(weights.size)))


def mostly_top(rho: ProbVector) -> bool:
    return rho.weights[-1] >= 0.4


# a law with atom 0 and a target, and a strongly reinforced three-atom law
ESTIMATE_CASES = [(FLAGSHIP, Q, 8, None),
                  (OffspringLaw((0, 1, 3), (0.2, 0.5, 0.3)), 0.45, 6,
                   mostly_top),
                  (OffspringLaw((1, 2, 4), (0.5, 0.3, 0.2)), 0.8, 10, None)]


@pytest.mark.parametrize("nu, q, n, target", ESTIMATE_CASES,
                         ids=["flagship", "atom0_target", "3atoms_q0.8"])
class TestUrnClassesMatchTheRows:
    def test_estimates_agree_in_law(self, nu, q, n, target):
        replicas = 40000
        est, se = many_to_one_estimate(nu, q, n, replicas, target,
                                       RngStream(30))
        counts, weights = row_urn_batch(nu, q, n, replicas,
                                        RngStream(31).generator("rows"))
        row_est, row_se = row_estimate(nu, n, counts, weights, target)
        assert abs(est - row_est) < 3.0 * math.hypot(se, row_se)

    def test_class_moments_are_the_row_formula(self, nu, q, n, target):
        replicas = 5000
        est, se = many_to_one_estimate(nu, q, n, replicas, target,
                                       RngStream(32))
        live = np.flatnonzero(np.asarray(nu.support) > 0)
        hist, mult = simulate._urn_classes(nu, q, n, replicas, RngStream(32),
                                           "many-to-one", live)
        assert mult.size < replicas
        counts = np.repeat(hist, mult, axis=0)
        weights = np.prod(np.asarray(nu.support, dtype=float) ** counts,
                          axis=1)
        # the replicas that drew 0 left the batch with weight 0
        gone = replicas - counts.shape[0]
        counts = np.vstack([counts, np.zeros((gone, len(nu.support)),
                                             dtype=np.int64)])
        weights = np.concatenate([weights, np.zeros(gone)])
        row_est, row_se = row_estimate(nu, n, counts, weights, target)
        assert est == pytest.approx(row_est, rel=1e-12)
        assert se == pytest.approx(row_se, rel=1e-12)


class TestUrnClasses:
    def test_gibbs_agrees_with_the_rows_in_law(self):
        nu = OffspringLaw((0, 1, 3), (0.2, 0.5, 0.3))
        q, n, w, c, replicas = 0.45, 12, [0.0, 0.0, 1.0], 0.5, 40000
        est, acc = gibbs_conditional_estimate(nu, q, n, w, c, replicas,
                                              RngStream(33))
        counts, _ = row_urn_batch(nu, q, n, replicas,
                                  RngStream(34).generator("rows"))
        accept = counts @ np.asarray(w) / n >= c
        row_acc = float(accept.mean())
        assert 0.05 < row_acc < 0.5
        assert abs(acc - row_acc) < 3.0 * math.sqrt(
            (acc * (1 - acc) + row_acc * (1 - row_acc)) / replicas)
        kept = counts[accept] / n
        se = kept.std(axis=0, ddof=1) / math.sqrt(kept.shape[0])
        assert np.all(np.abs(est.weights - kept.mean(axis=0))
                      <= 3.0 * math.sqrt(2.0) * se)

    def test_billion_replicas_match_enumeration(self):
        # row by row the batch would need 10^9 x 2 counts; as classes it
        # holds at most 17
        exact = sum(enumerate_expected_counts(FLAGSHIP, Q, 16).values())
        est, se = many_to_one_estimate(FLAGSHIP, Q, 16, 10 ** 9, None,
                                       RngStream(35))
        assert 0.0 < se < 1e-3 * exact
        assert abs(est - exact) < 3.0 * se

    @pytest.mark.parametrize("huge", [10 ** 200, 10 ** 100],
                             ids=["weight", "stderr"])
    def test_overflowing_weights_are_a_numeric_error(self, huge):
        nu = OffspringLaw((1, huge), (0.5, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as info:
                many_to_one_estimate(nu, Q, 2, 100, None, RngStream(0))
        assert info.value.diagnostics == {"histogram": (0, 2), "depth": 2}
