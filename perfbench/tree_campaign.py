"""Workload ``tree_campaign``: ``simulate_tree_campaign`` on the flagship law.

A round is one campaign of each shape:

- deep: n = 20, 300 replicas, where the population grows as about 1.6^n;
- wide: n = 10, 100k replicas, the shape of the README ``simulate`` command;
- census: n = 12, 2000 replicas with ``keep_histograms``, the Python dict path.

Every round runs the same three campaigns, seeded from the workload seed,
so every repeat of a campaign does identical work; ``round_s`` sums each
campaign's median host-corrected time. Oracles: every
census layer's mass equals the recorded population; for each shape the mean
population at depth n lies within ``Z_LIMIT`` standard errors of
``enumerate_expected_counts``; and each repeat of a campaign reproduces the
populations of its first run exactly.
"""

from __future__ import annotations

import math
import tracemalloc
from time import perf_counter

import numpy as np

from harness import Bench, quantile
from rgw import (OffspringLaw, RngStream, enumerate_expected_counts,
                 simulate_tree_campaign)

SHAPES = (("deep", 20, 300, False),
          ("wide", 10, 100_000, False),
          ("census", 12, 2_000, True))
Q = 1.0 / 3.0
# the test runs once per shape per run, so some 70 times when two commits
# are compared over two dozen runs each: at 3 SE a correct sampler would fail
# one such comparison in six by chance, at 4 SE one in two hundred
Z_LIMIT = 4.0
REFERENCE = "numpy"

HEADLINE = {f"tree_{name}_ind_per_s": f"simulate.ind_per_s.{name}"
            for name, *_ in SHAPES}


def census_mass_error(campaign, replicas: int) -> int:
    """Largest |census mass - population| over replicas and generations."""
    worst = 0
    for g, layer in enumerate(campaign.histograms):
        mass = np.zeros(replicas, dtype=np.int64)
        for (rid, _), count in layer.items():
            mass[rid] += count
        worst = max(worst, int(np.abs(mass - campaign.populations[:, g]).max()))
    return worst


class Workload:
    def __init__(self, root, seed: int):
        self.law = OffspringLaw((1, 2), (0.5, 0.5))
        gen = np.random.default_rng(seed)
        self.seed = int(gen.integers(0, 2**63))
        self.records: list[dict] = []
        self.first: dict[str, np.ndarray] = {}
        self.z: dict[str, float] = {}
        self.enumerate_s = 0.0
        self.alloc_peak_mb: dict[str, float] = {}

    def warm_up(self) -> None:
        for _, _, _, histograms in SHAPES:
            simulate_tree_campaign(self.law, Q, 4, 64, RngStream(0),
                                   keep_histograms=histograms)

    def campaign(self, shape: int):
        _, n, replicas, histograms = SHAPES[shape]
        return simulate_tree_campaign(self.law, Q, n, replicas,
                                      RngStream(self.seed, shape),
                                      keep_histograms=histograms)

    def round(self, bench: Bench) -> None:
        for shape, (name, _, replicas, histograms) in enumerate(SHAPES):
            bench.attempted += 1
            with bench.corrected("simulate.simulate_tree_campaign") as timer:
                campaign = self.campaign(shape)
            record = {"shape": name, "seconds": timer.seconds,
                      "corrected": timer.corrected,
                      "individuals": int(campaign.populations.sum())}
            self.records.append(record)
            first = self.first.setdefault(name, campaign.populations)
            if not np.array_equal(campaign.populations, first):
                bench.fail(f"{name} campaign",
                           "populations differ from the first run's")
            if (campaign.truncated_at >= 0).any():
                bench.fail(f"{name} campaign", "population cap reached")
            if histograms:
                record["census_keys"] = sum(len(layer)
                                            for layer in campaign.histograms)
                err = census_mass_error(campaign, replicas)
                if err:
                    bench.fail(f"{name} campaign",
                               f"census mass differs from population by {err}")

    def run(self, bench: Bench, seconds: float) -> None:
        bench.rounds(seconds, perf_counter(), lambda: self.round(bench))
        if bench.traced:
            # tracing allocations slows the census shape sixfold, so their
            # peaks come from one more round outside the timed loop
            for shape, (name, *_) in enumerate(SHAPES):
                tracemalloc.start()
                self.campaign(shape)
                self.alloc_peak_mb[name] = (tracemalloc.get_traced_memory()[1]
                                            / 2**20)
                tracemalloc.stop()
        for name, n, _, _ in SHAPES:
            bench.attempted += 1
            with bench.span("simulate.enumerate_expected_counts") as timer:
                expected = sum(enumerate_expected_counts(self.law, Q, n).values())
            self.enumerate_s += timer.seconds
            pops = self.first[name][:, n]
            se = pops.std(ddof=1) / math.sqrt(pops.size)
            self.z[name] = (pops.mean() - expected) / se
            if not abs(self.z[name]) <= Z_LIMIT:
                bench.fail(f"{name} campaigns",
                           f"mean population {pops.mean():.6g} is "
                           f"{self.z[name]:.2f} SE from {expected:.6g}")

    def round_seconds(self) -> float:
        """The sum over campaigns of each one's median corrected time."""
        return sum(quantile([r["corrected"] for r in self.records
                             if r["shape"] == name], 0.5)
                   for name, *_ in SHAPES)

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, *_ in SHAPES:
            mine = [r for r in self.records if r["shape"] == name]
            seconds = [r["seconds"] for r in mine]
            out[f"simulate.campaign_s.{name}"] = quantile(seconds, 0.5)
            out[f"simulate.individuals.{name}"] = quantile(
                [r["individuals"] for r in mine], 0.5)
            out[f"simulate.ind_per_s.{name}"] = (
                sum(r["individuals"] for r in mine) / sum(seconds))
            out[f"simulate.alloc_peak_mb.{name}"] = self.alloc_peak_mb.get(name, 0.0)
        out["simulate.census_keys"] = quantile(
            [r["census_keys"] for r in self.records if "census_keys" in r], 0.5)
        out["simulate.enumerate_ms"] = self.enumerate_s * 1e3
        out["simulate.z_max"] = max(abs(z) for z in self.z.values())
        return out

    def report(self) -> dict:
        return {"z": {name: round(z, 3) for name, z in self.z.items()}}
