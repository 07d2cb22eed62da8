"""Command-line surface: formats, determinism, golden files, exit codes."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rgw import RngStream, cli, simulate_tree_campaign
from rgw.cli import run

REPO = Path(__file__).resolve().parent.parent
LAW = str(REPO / "demos" / "laws" / "uniform12.json")
GOLDEN = REPO / "tests" / "golden"


def invoke(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = run([*args, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestGoldenFiles:
    """Each golden file is the output of one command, run from the root of
    the repository:

    PYTHONPATH=src python -m rgw rate --law demos/laws/uniform12.json --q 1/3 --grid 0.05 --out tests/golden/rate_flagship.csv
    PYTHONPATH=src python -m rgw classify --law demos/laws/uniform12.json --q 1/3 --grid 0.1 --out tests/golden/classify_flagship.csv
    PYTHONPATH=src python -m rgw survival --law demos/laws/uniform12.json --q-grid 1/5:4/5:1/5 --out tests/golden/survival_grid.csv
    PYTHONPATH=src python -m rgw simulate --law demos/laws/uniform12.json --q 1/3 --n-max 6 --replicas 50 --seed 9 --histograms --out tests/golden/simulate_small.csv
    PYTHONPATH=src python -m rgw simulate --law demos/laws/uniform12.json --q 1/3 --n-max 6 --replicas 50 --seed 9 --pop-cap 40 --out tests/golden/simulate_capped.csv
    PYTHONPATH=src python -m rgw verify control --rho "1:0.2;2:0.8" --m 16 --restarts 3 --seed 5 --out tests/golden/verify_control.json
    """

    def test_rate_curve(self, tmp_path):
        code, text = invoke(["rate", "--law", LAW, "--q", "1/3",
                             "--grid", "0.05"], tmp_path)
        assert code == 0
        assert text == (GOLDEN / "rate_flagship.csv").read_text()

    def test_classification_curve(self, tmp_path):
        code, text = invoke(["classify", "--law", LAW, "--q", "1/3",
                             "--grid", "0.1"], tmp_path)
        assert code == 0
        assert text == (GOLDEN / "classify_flagship.csv").read_text()

    def test_survival_grid(self, tmp_path):
        code, text = invoke(["survival", "--law", LAW, "--q-grid",
                             "1/5:4/5:1/5"], tmp_path)
        assert code == 0
        assert text == (GOLDEN / "survival_grid.csv").read_text()

    def test_simulation_with_histograms(self, tmp_path):
        code, text = invoke(["simulate", "--law", LAW, "--q", "1/3",
                             "--n-max", "6", "--replicas", "50", "--seed",
                             "9", "--histograms"], tmp_path)
        assert code == 0
        assert text == (GOLDEN / "simulate_small.csv").read_text()

    def test_simulation_without_histograms(self, tmp_path):
        # the census-free rows, with replicas cut short by the population cap
        code, text = invoke(["simulate", "--law", LAW, "--q", "1/3",
                             "--n-max", "6", "--replicas", "50", "--seed",
                             "9", "--pop-cap", "40"], tmp_path)
        assert code == 0
        assert ",true,true,," in text
        assert text == (GOLDEN / "simulate_capped.csv").read_text()

    def test_verify_control_report(self, tmp_path):
        # the bound and its best path, every float at %.17g
        code, text = invoke(["verify", "control", "--rho", "1:0.2;2:0.8",
                             "--m", "16", "--restarts", "3", "--seed", "5"],
                            tmp_path)
        assert code == 0
        assert text == (GOLDEN / "verify_control.json").read_text()

    def test_csv_blocks_keep_the_bytes(self, tmp_path, monkeypatch):
        # blocks far smaller than the table cut it at many row boundaries
        monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
        code, text = invoke(["simulate", "--law", LAW, "--q", "1/3",
                             "--n-max", "6", "--replicas", "50", "--seed",
                             "9", "--histograms"], tmp_path)
        assert code == 0
        assert text == (GOLDEN / "simulate_small.csv").read_text()


def old_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def old_json_safe(value):
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    return value


# the per-cell rules the column-wise rendering replaced, kept as its oracle
def old_render(columns, rows, fmt):
    if fmt == "json":
        out = [{c: old_json_safe(v) for c, v in zip(columns, row)}
               for row in rows]
        # the old rules passed NumPy bools through, which json cannot write
        return json.dumps(out, indent=1, default=bool) + "\n"
    return ",".join(columns) + "\n" + "".join(
        ",".join(old_cell(v) for v in row) + "\n" for row in rows)


MIXED_COLUMNS = ["flag", "count", "value", "label", "maybe"]
MIXED_ROWS = [
    [True, 3, 0.1, "a", None],
    [np.False_, np.int64(-7), np.float64(2.5), "", 1.5],
    [np.True_, np.int32(5), np.float32(0.1), "b;c", np.nan],
    [False, 2 ** 70, math.inf, "x", True],
    [np.bool_(True), 0, -math.inf, "y", 4],
    [None, None, math.nan, None, "z"],
    [True, np.uint8(255), -0.0, "", np.float64(-math.inf)],
    [False, -1, 1e300, "w", np.int16(-3)],
]


class TestRender:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mixed_table_follows_the_cell_rules(self, fmt):
        text = "".join(cli._render(MIXED_COLUMNS, MIXED_ROWS, fmt))
        assert text == old_render(MIXED_COLUMNS, MIXED_ROWS, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_longer_than_a_block(self, fmt):
        rows = [MIXED_ROWS[i % len(MIXED_ROWS)][:2]
                + [i, i / 7, "r" if i % 3 else None]
                for i in range(2 * cli._CSV_BLOCK + 5)]
        chunks = list(cli._render(MIXED_COLUMNS, rows, fmt))
        if fmt == "csv":
            assert len(chunks) == 1 + 3
        assert "".join(chunks) == old_render(MIXED_COLUMNS, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_columns_follow_the_cell_rules(self, fmt, tmp_path):
        # several blocks of rows, some replicas cut short by the cap
        n_max, replicas = 8, 1500
        code, text = invoke(["simulate", "--law", LAW, "--q", "1/3",
                             "--n-max", str(n_max), "--replicas",
                             str(replicas), "--seed", "3", "--pop-cap", "60",
                             "--format", fmt], tmp_path)
        assert code == 0
        camp = simulate_tree_campaign(cli._parse_law(LAW), 1.0 / 3.0, n_max,
                                      replicas, RngStream(3), pop_cap=60)
        rows = []
        for r in range(replicas):
            pops = camp.populations[r].tolist()
            cut = bool(camp.truncated_at[r] >= 0)
            last = int(camp.truncated_at[r]) if cut else n_max
            alive = cut or pops[n_max] > 0
            rows.extend([r, g, pops[g], alive, cut, "", ""]
                        for g in range(last + 1))
        assert 0 < sum(camp.truncated_at >= 0) < replicas
        assert len(rows) > 3 * cli._CSV_BLOCK
        columns = ["replica", "generation", "population", "survived",
                   "truncated", "hist_key", "hist_count"]
        assert text == old_render(columns, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, fmt):
        text = "".join(cli._render(MIXED_COLUMNS, [], fmt))
        assert text == old_render(MIXED_COLUMNS, [], fmt)


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        args = ["simulate", "--law", LAW, "--q", "0", "--n-max", "8",
                "--replicas", "2000", "--seed", "7"]
        _, first = invoke(args, tmp_path, "a.csv")
        _, second = invoke(args, tmp_path, "b.csv")
        assert first == second
        assert first.splitlines()[0] == ("replica,generation,population,"
                                         "survived,truncated,hist_key,"
                                         "hist_count")


class TestFormats:
    def test_rate_json_rows(self, tmp_path):
        code, text = invoke(["rate", "--law", LAW, "--q", "0", "--rho",
                             "1:0.2;2:0.8", "--format", "json"], tmp_path)
        assert code == 0
        rows = json.loads(text)
        assert rows[0]["rate_closed_form_available"] is True
        assert rows[0]["neg_log_q"] == "inf"
        assert rows[0]["lambda_star"] == pytest.approx(0.19274475702175753)

    def test_rho_accepts_inline_json(self, tmp_path):
        code, text = invoke(["rate", "--law", LAW, "--q", "1/3", "--rho",
                             '{"support": [1, 2], "probs": [0.2, 0.8]}'],
                            tmp_path)
        assert code == 0
        line = text.splitlines()[1]
        # the same rate as the p = 0.2 row of the grid's golden file
        golden = (GOLDEN / "rate_flagship.csv").read_text().splitlines()
        row = next(r for r in golden if r.startswith("0.20000000000000001,"))
        assert line.split(",")[2] == row.split(",")[2]

    def test_verify_control_report(self, tmp_path):
        code, text = invoke(["verify", "control", "--rho", "1:0.2;2:0.8",
                             "--m", "8", "--restarts", "2", "--seed", "5"],
                            tmp_path)
        assert code == 0
        report = json.loads(text)
        assert set(report) == {"value", "gap_to_dual", "gap_to_upper_bound",
                               "best_path"}
        assert report["gap_to_dual"] >= -1e-6
        assert report["gap_to_upper_bound"] >= -1e-6
        path_lines = report["best_path"].splitlines()
        assert path_lines[0] == "step,eta_1,eta_2"
        assert len(path_lines) == 9

    def test_spine_columns(self, tmp_path):
        code, text = invoke(["spine", "--law", LAW, "--q", "1/3",
                             "--activities", "1:0.5;2:1.3333333333333333",
                             "--steps", "2000", "--seed", "3"], tmp_path)
        assert code == 0
        assert text.splitlines()[0] == ("atom,activity,stationary_frequency,"
                                        "observed_frequency")


class TestExitCodes:
    def test_help_is_success(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_bad_memory_parameter(self, capsys):
        assert run(["rate", "--law", LAW, "--q", "1.5",
                    "--grid", "0.25"]) == 1
        capsys.readouterr()

    def test_missing_law_file(self, capsys):
        assert run(["rate", "--law", "/nonexistent/law.json", "--q", "1/3",
                    "--grid", "0.25"]) == 1
        capsys.readouterr()

    def test_off_support_target(self, capsys):
        assert run(["rate", "--law", LAW, "--q", "1/3", "--rho",
                    "1:0.5;3:0.5"]) == 1
        capsys.readouterr()

    def test_unnormalized_target(self, capsys):
        assert run(["classify", "--law", LAW, "--q", "1/3", "--rho",
                    "1:0.5;2:0.6"]) == 1
        capsys.readouterr()

    def test_statistical_failure(self, capsys):
        assert run(["gibbs", "--law", LAW, "--q", "1/3", "--n", "5", "--w",
                    "1:0;2:1", "--c", "1.01", "--replicas", "200"]) == 2
        capsys.readouterr()

    def test_quick_verification_passes(self, tmp_path, capsys):
        code, text = invoke(["verify", "--quick", "--seed", "42"], tmp_path)
        capsys.readouterr()
        assert code == 0
        report = json.loads(text)
        assert report["all_passed"] is True
        assert {"name", "tolerance", "observed", "passed",
                "seconds"} <= set(report["checks"][0])
