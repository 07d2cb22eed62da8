"""Workload ``readme_cli``: every README command, in README order.

Each command runs through ``rgw.cli.run(argv)`` with ``--out`` into a
temporary directory inside the checkout; ``--seed`` is set to the workload
seed on every command but ``verify --full``, which keeps the README's
``--seed 42``: its triangulation check holds 16 z-scores to 3.0, so a correct
program fails it on about one seed in 25 (seed 37 is one). A round is the
whole README sequence; per-command times are per-layer metrics. ``verify``
runs at its default ``--threads``.

Oracles: exit code 0 everywhere; the ``rate --grid``, ``classify`` and
``survival`` outputs equal the golden files byte for byte; the ``--rho`` rate
matches the flagship closed form; the simulate CSV has one row per replica and
generation; each census class count of the histogram run adds up to the
population; the verify report has ``all_passed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path
from time import perf_counter

from harness import Bench, quantile
from rate_corpus import closed_form_rate
from rgw.cli import run as rgw_run

LAW = "demos/laws/uniform12.json"
# the commands of README.md's "Command line" section, without --out, which
# the workload supplies, and without --seed but for verify --full
COMMANDS = (
    ("rate_grid", ["rate", "--law", LAW, "--q", "1/3", "--grid", "0.05"]),
    ("rate_rho", ["rate", "--law", LAW, "--q", "1/3", "--rho", "1:0.2;2:0.8"]),
    ("simulate", ["simulate", "--law", LAW, "--q", "1/3", "--n-max", "10",
                  "--replicas", "100000"]),
    ("simulate_hist", ["simulate", "--law", LAW, "--q", "1/3", "--n-max", "6",
                       "--replicas", "50", "--histograms"]),
    ("classify", ["classify", "--law", LAW, "--q", "1/3", "--grid", "0.1"]),
    ("survival", ["survival", "--law", LAW, "--q-grid", "1/5:4/5:1/5"]),
    ("spine", ["spine", "--law", LAW, "--q", "1/3", "--activities",
               "1:0.5;2:1.3333333333333333", "--steps", "100000"]),
    ("gibbs", ["gibbs", "--law", LAW, "--q", "1/3", "--n", "40", "--w",
               "1:0;2:1", "--c", "0.8", "--replicas", "60000"]),
    ("verify_full", ["verify", "--full", "--seed", "42"]),
    ("verify_control", ["verify", "control", "--rho", "1:0.2;2:0.8", "--m",
                        "64", "--restarts", "8"]),
)
GOLDEN = {"rate_grid": "tests/golden/rate_flagship.csv",
          "classify": "tests/golden/classify_flagship.csv",
          "survival": "tests/golden/survival_grid.csv"}
SIMULATE_ROWS = 100_000 * 11 + 1  # header + replicas x generations 0..10
# the interpreter-bound reference tracks the long commands (simulate, whose
# time goes mostly to rendering text, and both verify commands) better than
# the array-bound one or their mean
REFERENCE = "python"

HEADLINE = {"cli_simulate_s": "cli.simulate_s",
            "cli_verify_full_s": "cli.verify_full_s",
            "cli_verify_control_s": "cli.verify_control_s"}


def check_output(name: str, text: str, golden: dict[str, str]) -> str | None:
    """Why the output of command ``name`` is wrong, or None."""
    if name in golden:
        return None if text == golden[name] else "differs from the golden file"
    if name == "rate_rho":
        value = float(text.splitlines()[1].split(",")[2])
        err = abs(value - closed_form_rate(0.2))
        return None if err <= 1e-6 else f"closed-form error {err:.3g}"
    if name == "simulate":
        rows = text.count("\n")
        return None if rows == SIMULATE_ROWS else f"{rows} CSV rows"
    if name == "simulate_hist":
        mass: dict[tuple[str, str], int] = {}
        pop: dict[tuple[str, str], int] = {}
        for line in text.splitlines()[1:]:
            rep, gen, population, _, _, _, count = line.split(",")
            mass[rep, gen] = mass.get((rep, gen), 0) + int(count)
            pop[rep, gen] = int(population)
        return None if mass == pop else "census mass differs from population"
    if name == "verify_full":
        return None if json.loads(text)["all_passed"] else "a check failed"
    return None


class Workload:
    def __init__(self, root: Path, seed: int):
        self.root = root
        law = str(root / LAW)
        self.argv = [(name, [law if a == LAW else a for a in args]
                      + ([] if "--seed" in args else ["--seed", str(seed)]))
                     for name, args in COMMANDS]
        self.golden = {name: (root / path).read_text()
                       for name, path in GOLDEN.items()}
        self.seconds: dict[str, list[float]] = {name: [] for name, _ in COMMANDS}
        self.corrected: dict[str, list[float]] = {name: []
                                                  for name, _ in COMMANDS}
        self.out_bytes: dict[str, int] = {}
        self.checks: dict[str, list[float]] = {}

    def _run(self, argv: list[str], out: Path) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = rgw_run(argv + ["--out", str(out)])
        return code, err.getvalue()

    def warm_up(self) -> None:
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=self.root) as tmp:
            self._run(self.argv[1][1], Path(tmp) / "out")

    def round(self, bench: Bench) -> None:
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=self.root) as tmp:
            for name, argv in self.argv:
                bench.attempted += 1
                out = Path(tmp) / name
                with bench.corrected("cli.run") as timer:
                    code, stderr = self._run(argv, out)
                self.seconds[name].append(timer.seconds)
                self.corrected[name].append(timer.corrected)
                if code != 0:
                    bench.fail(name, f"exit code {code}: {stderr[-300:]}")
                    continue
                text = out.read_text()
                self.out_bytes[name] = len(text.encode())
                try:
                    why = check_output(name, text, self.golden)
                    if name == "verify_full":
                        for check in json.loads(text)["checks"]:
                            self.checks.setdefault(check["name"], []).append(
                                check["seconds"])
                except (ValueError, KeyError, IndexError) as exc:
                    why = f"unreadable output: {exc!r}"
                if why:
                    bench.fail(name, why)
                out.unlink()

    def run(self, bench: Bench, seconds: float) -> None:
        bench.rounds(seconds, perf_counter(), lambda: self.round(bench))

    def round_seconds(self) -> float:
        """The sum over commands of each one's median corrected time."""
        return sum(quantile(secs, 0.5) for secs in self.corrected.values())

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, secs in self.seconds.items():
            out[f"cli.{name}_s"] = quantile(secs, 0.5)
            out[f"cli.out_bytes.{name}"] = self.out_bytes.get(name, 0)
        for check, secs in self.checks.items():
            out[f"verify.{check}_s"] = quantile(secs, 0.5)
        return out

    def report(self) -> dict:
        return {}
