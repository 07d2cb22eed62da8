"""Command-line surface: formats, determinism, golden files, exit codes."""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rgw import (ContractViolationError, ProbVector, RngStream, cli,
                 offspring_law_from_json, simulate_tree_campaign)
from rgw.cli import run

REPO = Path(__file__).resolve().parent.parent
LAW = str(REPO / "demos" / "laws" / "uniform12.json")
GOLDEN = REPO / "tests" / "golden"


def invoke(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = run([*args, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def assert_same_text(text: str, expected: str) -> None:
    """Exact equality of two texts; a mismatch names the first differing
    line (None past the end) instead of leaving pytest to diff whole
    tables."""
    __tracebackhide__ = True
    if text == expected:
        return
    got = [*text.splitlines(True), None]
    want = [*expected.splitlines(True), None]
    line = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    pytest.fail(f"texts differ first at line {line + 1} of {len(got) - 1} "
                f"({len(want) - 1} expected): {got[line]!r} != "
                f"{want[line]!r}", pytrace=False)


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
        assert_same_text(text, (GOLDEN / "rate_flagship.csv").read_text())

    def test_classification_curve(self, tmp_path):
        code, text = invoke(["classify", "--law", LAW, "--q", "1/3",
                             "--grid", "0.1"], tmp_path)
        assert code == 0
        assert_same_text(text, (GOLDEN / "classify_flagship.csv").read_text())

    def test_survival_grid(self, tmp_path):
        code, text = invoke(["survival", "--law", LAW, "--q-grid",
                             "1/5:4/5:1/5"], tmp_path)
        assert code == 0
        assert_same_text(text, (GOLDEN / "survival_grid.csv").read_text())

    def test_simulation_with_histograms(self, tmp_path):
        code, text = invoke(["simulate", "--law", LAW, "--q", "1/3",
                             "--n-max", "6", "--replicas", "50", "--seed",
                             "9", "--histograms"], tmp_path)
        assert code == 0
        assert_same_text(text, (GOLDEN / "simulate_small.csv").read_text())

    def test_simulation_without_histograms(self, tmp_path):
        # the census-free rows, with replicas cut short by the population cap
        code, text = invoke(["simulate", "--law", LAW, "--q", "1/3",
                             "--n-max", "6", "--replicas", "50", "--seed",
                             "9", "--pop-cap", "40"], tmp_path)
        assert code == 0
        assert ",true,true,," in text
        assert_same_text(text, (GOLDEN / "simulate_capped.csv").read_text())

    def test_verify_control_report(self, tmp_path):
        # the bound and its best path, every float at %.17g
        code, text = invoke(["verify", "control", "--rho", "1:0.2;2:0.8",
                             "--m", "16", "--restarts", "3", "--seed", "5"],
                            tmp_path)
        assert code == 0
        assert_same_text(text, (GOLDEN / "verify_control.json").read_text())

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("flags, golden", [
        (["--histograms"], "simulate_small.csv"),
        (["--pop-cap", "40"], "simulate_capped.csv"),
        (["--histograms", "--format", "json"], None),
        (["--pop-cap", "40", "--format", "json"], None),
    ], ids=["census", "population", "census-json", "population-json"])
    def test_csv_blocks_keep_the_bytes(self, flags, golden, block, tmp_path,
                                       monkeypatch):
        # blocks far smaller than the table cut it at many row boundaries,
        # and JSON carries its record separator across each cut; JSON is
        # held to its text at the default block size
        args = ["simulate", "--law", LAW, "--q", "1/3", "--n-max", "6",
                "--replicas", "50", "--seed", "9", *flags]
        if golden is None:
            expected = invoke(args, tmp_path, "whole.txt")[1]
        else:
            expected = (GOLDEN / golden).read_text()
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        code, text = invoke(args, tmp_path)
        assert code == 0
        assert_same_text(text, expected)


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
        assert_same_text(text, old_render(MIXED_COLUMNS, MIXED_ROWS, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_longer_than_a_block(self, fmt):
        rows = [MIXED_ROWS[i % len(MIXED_ROWS)][:2]
                + [i, i / 7, "r" if i % 3 else None]
                for i in range(2 * cli._CSV_BLOCK + 5)]
        chunks = list(cli._render(MIXED_COLUMNS, rows, fmt))
        # three blocks, and the CSV header or the end of the JSON document
        assert len(chunks) == 3 + 1
        assert_same_text("".join(chunks),
                         old_render(MIXED_COLUMNS, rows, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("probs, q, pop_cap", [
        # atom 0: some replicas die out and print survived false
        ({"support": [0, 1, 2], "probs": [0.3, 0.2, 0.5]}, "1/3", 10_000_000),
        # q = 0: one class per replica
        (None, "0", 10_000_000),
        # some replicas cut short by the cap
        (None, "1/3", 60),
    ], ids=["extinct", "memoryless", "capped"])
    def test_simulate_columns_follow_the_cell_rules(self, probs, q, pop_cap,
                                                    fmt, tmp_path,
                                                    monkeypatch):
        # several blocks of rows
        n_max, replicas = 8, 1500
        law = LAW
        if probs is not None:
            law = str(tmp_path / "law.json")
            Path(law).write_text(json.dumps(probs))
        chunks = []
        write = cli._write

        def counted_write(parts, out):
            parts = list(parts)
            chunks.append(len(parts))
            write(parts, out)

        monkeypatch.setattr(cli, "_write", counted_write)
        code, text = invoke(["simulate", "--law", law, "--q", q,
                             "--n-max", str(n_max), "--replicas",
                             str(replicas), "--seed", "3", "--pop-cap",
                             str(pop_cap), "--format", fmt], tmp_path)
        assert code == 0
        # one block per run of whole replicas, and the CSV header or the
        # end of the JSON document
        per = max(1, cli._CSV_BLOCK // (n_max + 1))
        assert chunks == [math.ceil(replicas / per) + 1]
        camp = simulate_tree_campaign(cli._parse_law(law), float(Fraction(q)),
                                      n_max, replicas, RngStream(3),
                                      pop_cap=pop_cap)
        rows, survived = [], 0
        for r in range(replicas):
            pops = camp.populations[r].tolist()
            cut = bool(camp.truncated_at[r] >= 0)
            last = int(camp.truncated_at[r]) if cut else n_max
            alive = cut or pops[n_max] > 0
            survived += alive
            rows.extend([r, g, pops[g], alive, cut, "", ""]
                        for g in range(last + 1))
        if probs is not None:
            assert 0 < survived < replicas
        if pop_cap == 60:
            assert 0 < sum(camp.truncated_at >= 0) < replicas
        assert len(rows) > 3 * cli._CSV_BLOCK
        columns = ["replica", "generation", "population", "survived",
                   "truncated", "hist_key", "hist_count"]
        assert_same_text(text, old_render(columns, rows, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, fmt):
        text = "".join(cli._render(MIXED_COLUMNS, [], fmt))
        assert_same_text(text, old_render(MIXED_COLUMNS, [], fmt))


def readme_command_lines() -> list[list[str]]:
    """The argument lists of the sh block under the README's Command line."""
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert all(words[0] == "rgw" for words in commands)
    return [words[1:] for words in commands]


class TestReadmeCommandLines:
    def test_every_readme_command_parses(self):
        # parsed, not run: a dropped flag that a README line still passes
        # makes argparse exit with a usage error
        commands = readme_command_lines()
        assert len(commands) == 10
        parser = cli._build_parser()
        for words in commands:
            args = parser.parse_args(words)
            assert args.command == words[0]


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

    def test_rho_file_reads_as_inline_json(self, tmp_path):
        # a file keeps its zero atom, as the inline form does
        doc = '{"support": [1, 2], "probs": [0, 1]}'
        target = tmp_path / "rho.json"
        target.write_text(doc)
        base = ["rate", "--law", LAW, "--q", "1/3", "--rho"]
        code, from_file = invoke([*base, str(target)], tmp_path, "file.csv")
        assert code == 0
        assert from_file == invoke([*base, doc], tmp_path, "inline.csv")[1]
        assert from_file.splitlines()[1].startswith("1:0;2:1,")

    def test_classify_target_listing_a_zero_atom_off_the_law(self, tmp_path):
        base = ["classify", "--law", LAW, "--q", "1/3", "--rho"]
        code, listed = invoke([*base, "1:0.2;2:0.8;3:0"], tmp_path, "a.csv")
        assert code == 0
        _, plain = invoke([*base, "1:0.2;2:0.8"], tmp_path, "b.csv")
        # the same verdict and margins; only the key names the extra atom
        values = [text.splitlines()[1].split(",", 1)[1]
                  for text in (listed, plain)]
        assert values[0] == values[1]

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


class TestTwoType:
    # demo 04's target: the flagship shifts to degrees 2 and 3, delta_1
    # holds degree 1, so no atom is shared and the split is forced at 1/2
    TARGET = ["two-type", "--rho", "1:1/2;2:1/6;3:1/3", "--law", LAW]

    @pytest.fixture
    def args(self, tmp_path):
        chain = tmp_path / "delta1.json"
        chain.write_text('{"support": [1], "probs": [1.0]}')
        return [*self.TARGET, "--law-prime", str(chain)]

    def test_search(self, args, tmp_path):
        code, text = invoke(args, tmp_path)
        assert code == 0
        # the margins are log(3/2) and half of it, as in demo 04
        assert text == ("certified,strong,s,margin_growth,margin_average\n"
                        "true,false,0.5,0.40546510810816438,"
                        "0.20273255405408219\n")

    def test_explicit_split(self, args, tmp_path):
        code, text = invoke([*args, "--s", "1/2", "--mu", "2:1/3;3:2/3",
                             "--mu-prime", "1:1"], tmp_path)
        assert code == 0
        assert text == invoke(args, tmp_path, "search.txt")[1]

    def test_split_weight_needs_its_component(self, args, capsys):
        assert run([*args, "--s", "1/2"]) == 1
        assert "--s needs --mu" in capsys.readouterr().err

    def test_mesh_is_no_longer_an_option(self, args, capsys):
        assert run([*args, "--mesh", "20"]) == 1
        assert "unrecognized arguments: --mesh" in capsys.readouterr().err


def test_every_subcommand_is_run_here():
    """The subcommand list, the parser and this module agree: each
    subcommand begins at least one argument list in this module."""
    parser = cli._build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    assert tuple(subs.choices) == cli._SUBCOMMANDS
    tree = ast.parse(Path(__file__).read_text(encoding="utf8"))
    first_words = {node.elts[0].value for node in ast.walk(tree)
                   if isinstance(node, ast.List) and node.elts
                   and isinstance(node.elts[0], ast.Constant)}
    assert sorted(set(cli._SUBCOMMANDS) - first_words) == []


# every subcommand that takes --q, with valid arguments besides it
Q_COMMANDS = {
    "rate": ["rate", "--law", LAW, "--grid", "0.25"],
    "classify": ["classify", "--law", LAW, "--grid", "0.25"],
    "simulate": ["simulate", "--law", LAW, "--n-max", "2", "--replicas", "2"],
    "urn": ["urn", "--law", LAW, "--steps", "10"],
    "spine": ["spine", "--law", LAW, "--activities",
              "1:0.5;2:1.3333333333333333", "--steps", "10"],
    "gibbs": ["gibbs", "--law", LAW, "--n", "2", "--w", "1:0;2:1", "--c",
              "0.5", "--replicas", "10"],
    "survival": ["survival", "--law", LAW],
    "verify control": ["verify", "control", "--rho", "1:0.2;2:0.8", "--m",
                       "4"],
}
# q = 1.5 lies outside every domain; q = 0 outside the commands' whose
# domain is (0, 1) rather than [0, 1)
BAD_Q = ([(name, "1.5") for name in Q_COMMANDS]
         + [(name, "0") for name in ("urn", "spine", "survival",
                                     "verify control")])


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

    @pytest.mark.parametrize("command", Q_COMMANDS)
    def test_good_memory_parameter(self, command, tmp_path, capsys):
        # the arguments besides --q are valid, so a refusal below is q's
        code, _ = invoke([*Q_COMMANDS[command], "--q", "1/3"], tmp_path)
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize("command, q", BAD_Q,
                             ids=[f"{name}-q{q}" for name, q in BAD_Q])
    def test_bad_memory_parameter(self, command, q, capsys):
        assert run([*Q_COMMANDS[command], "--q", q]) == 1
        capsys.readouterr()

    def test_missing_law_file(self, capsys):
        assert run(["rate", "--law", "/nonexistent/law.json", "--q", "1/3",
                    "--grid", "0.25"]) == 1
        capsys.readouterr()

    def test_bad_json_target_file(self, tmp_path, capsys):
        target = tmp_path / "rho.json"
        target.write_text('{"support": [1, 2], "probs": [0.2')
        assert run(["rate", "--law", LAW, "--q", "1/3", "--rho",
                    str(target)]) == 1
        assert "cannot parse --rho as JSON" in capsys.readouterr().err

    def test_off_support_target(self, capsys):
        # rate reads such a target's rate as infinite (TestTargetSupport);
        # a control path has no steps off the law's support
        assert run(["verify", "control", "--rho", "1:0.5;3:0.5", "--m",
                    "4"]) == 1
        assert "off the law support" in capsys.readouterr().err

    def test_unnormalized_target(self, capsys):
        assert run(["classify", "--law", LAW, "--q", "1/3", "--rho",
                    "1:0.5;2:0.6"]) == 1
        capsys.readouterr()

    def test_statistical_failure(self, capsys):
        # a feasible halfspace that no replica meets: only 40 draws of atom 2
        assert run(["gibbs", "--law", LAW, "--q", "1/3", "--n", "40", "--w",
                    "1:0;2:1", "--c", "1.0", "--replicas", "200"]) == 2
        assert "no replica satisfied" in capsys.readouterr().err

    def test_empty_halfspace(self, capsys):
        assert run(["gibbs", "--law", LAW, "--q", "1/3", "--n", "5", "--w",
                    "1:0;2:1", "--c", "1.01", "--replicas", "200"]) == 1
        assert capsys.readouterr().err == (
            "invalid input: halfspace does not meet the simplex\n")

    def test_spine_refuses_inadmissible_activities(self, capsys):
        # the residual is -1.8e-9, so the stationary law misses 1 by 3.6e-9
        assert run(["spine", "--law", LAW, "--q", "1/3", "--activities",
                    "1:0.5;2:1.33333333", "--steps", "10"]) == 1
        assert capsys.readouterr().err == (
            "invalid input: activities are not admissible: their stationary "
            "law sums to 0.9999999964000001, not 1\n")

    @pytest.mark.parametrize("args", [
        ["survival", "--law", LAW, "--q-grid", "1/0:4/5:1/5"],
        ["survival", "--law", LAW, "--q-grid", "1/5:1/0:1/5"],
        ["survival", "--law", LAW, "--q-grid", "1/5:4/5:1/0"],
        ["survival", "--law", LAW, "--q", "1/0"],
        ["rate", "--law", LAW, "--q", "1/3", "--grid", "1/0"],
    ], ids=["q_grid_start", "q_grid_stop", "q_grid_step", "q", "grid"])
    def test_zero_denominator(self, args, capsys):
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "cannot parse" in err

    @pytest.mark.parametrize("field, doc", [
        ("--law", {"support": [1.5, 2], "probs": [0.5, 0.5]}),
        ("--law", {"support": [True, 2], "probs": [0.5, 0.5]}),
        ("--law", {"support": [1, 2], "probs": ["0.5", 0.5]}),
        ("--rho", {"support": [1.5, 2], "probs": [0.2, 0.8]}),
        ("--rho", {"support": [True, 2], "probs": [0.2, 0.8]}),
    ], ids=["law_half_atom", "law_bool_atom", "law_text_prob",
            "rho_half_atom", "rho_bool_atom"])
    def test_atoms_are_integers_and_probs_numbers(self, field, doc,
                                                   tmp_path, capsys):
        # once read as the flagship law or target, the atom truncated
        with pytest.raises(ContractViolationError) as refused:
            if field == "--law":
                offspring_law_from_json(doc)
            else:
                ProbVector(doc["support"], doc["probs"])
        text = json.dumps(doc)
        if field == "--law":
            law = tmp_path / "law.json"
            law.write_text(text)
            args = ["rate", "--law", str(law), "--q", "1/3", "--grid", "0.25"]
        else:
            args = ["rate", "--law", LAW, "--q", "1/3", "--rho", text]
        assert run(args) == 1
        assert capsys.readouterr().err == f"invalid input: {refused.value}\n"

    @pytest.mark.parametrize("source", ["inline", "file"])
    @pytest.mark.parametrize("probs", [["0.2", 0.8], [True, False]],
                             ids=["text_prob", "bool_prob"])
    def test_json_target_probs_are_numbers(self, probs, source, tmp_path,
                                           capsys):
        # as in a law file: once read as 1:0.2;2:0.8 and 1:1;2:0
        text = json.dumps({"support": [1, 2], "probs": probs})
        if source == "file":
            target = tmp_path / "rho.json"
            target.write_text(text)
            text = str(target)
        assert run(["rate", "--law", LAW, "--q", "1/3", "--rho", text]) == 1
        assert capsys.readouterr().err == \
            'invalid input: "probs" entries must be numbers\n'

    @pytest.mark.parametrize("command", ["rate", "classify"])
    def test_an_underflowing_integral_is_a_numeric_failure(self, command,
                                                           capsys):
        # q = 1e-20: the rate solve's integral underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--law", LAW, "--q", "1e-20", "--rho",
                        "1:0.2;2:0.8"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("computation failed:")

    def test_grid_counts_its_points_before_building_them(self, capsys):
        # a step of 1e-9 is refused before any of its 10^9 points is built
        for command in ("rate", "classify"):
            assert run([command, "--law", LAW, "--q", "1/3", "--grid",
                        "1e-9"]) == 1
            assert capsys.readouterr().err == (
                "grid step 1e-9 gives 999999999 points; at most 100000 are "
                "allowed\n")
        assert len(cli._grid_points("1/100001")) == 100000
        with pytest.raises(cli._UsageError):
            cli._grid_points("1/100002")

    def test_q_grid_counts_its_points_before_building_them(self, capsys):
        # as --grid: a step of 1e-9 is refused before any of its 5 * 10^8
        # points is built, let alone solved
        spec = "1/1000000000:1/2:1/1000000000"
        assert run(["survival", "--law", LAW, "--q-grid", spec]) == 1
        assert capsys.readouterr().err == (
            f"--q-grid {spec} gives 500000000 points; at most 100000 are "
            "allowed\n")
        # a closed grid counts its stop
        step = Fraction(1, 10**6)
        assert len(cli._fraction_grid(step, 100000 * step, step, "q",
                                      closed=True)) == 100000
        with pytest.raises(cli._UsageError):
            cli._fraction_grid(step, 100001 * step, step, "q", closed=True)

    @pytest.mark.parametrize("command, simulator", [
        (["urn", "--law", LAW, "--q", "1/3"], "simulate_reinforced_urn"),
        (["spine", "--law", LAW, "--q", "1/3", "--activities",
          "1:0.5;2:1.3333333333333333"], "simulate_spine_urn")])
    def test_steps_are_capped_before_any_draw(self, command, simulator,
                                              monkeypatch, capsys):
        # the cap reaches the simulator, stubbed here since a real run would
        # hold gigabytes; one step more, or 10^11, is refused before it
        class Reached(Exception):
            pass

        def stub(*args):
            raise Reached(args[-2])

        monkeypatch.setattr(cli, simulator, stub)
        with pytest.raises(Reached) as reached:
            run([*command, "--steps", str(cli._STEPS_MAX)])
        assert reached.value.args == (10**8,)
        for steps in (10**8 + 1, 10**11):
            assert run([*command, "--steps", str(steps)]) == 1
            assert capsys.readouterr().err == (
                f"--steps {steps} is too many; at most 100000000 are "
                "allowed\n")

    def test_simulate_cells_are_capped_before_the_law_is_read(
            self, monkeypatch, capsys):
        # the cap reaches the simulator, stubbed here since a real run would
        # hold about a gigabyte; a cell more is refused before the law file
        # is even opened
        class Reached(Exception):
            pass

        def stub(nu, q, n_max, replicas, *args, **kwargs):
            raise Reached(replicas * (n_max + 1))

        monkeypatch.setattr(cli, "simulate_tree_campaign", stub)
        for replicas, n_max in ((10**8, 0), (10**7, 9), (1, 10**8 - 1)):
            with pytest.raises(Reached) as reached:
                run(["simulate", "--law", LAW, "--q", "1/3", "--n-max",
                     str(n_max), "--replicas", str(replicas)])
            assert reached.value.args == (10**8,)
        for replicas, n_max, cells in ((10**8 + 1, 0, 10**8 + 1),
                                       (10**12, 10, 11 * 10**12),
                                       (1, 10**12, 10**12 + 1)):
            assert run(["simulate", "--law", "missing.json", "--q", "1/3",
                        "--n-max", str(n_max), "--replicas",
                        str(replicas)]) == 1
            assert capsys.readouterr().err == (
                f"--replicas {replicas} with --n-max {n_max} gives {cells} "
                "cells; at most 100000000 are allowed\n")

    @pytest.mark.parametrize("law, rho, m_max", [
        (None, "1:0.2;2:0.8", 1024),
        (None, "1:0;2:1", 1536),
        ({"support": [1, 2, 3], "probs": [0.3, 0.4, 0.3]}, "1:0.2;2:0.3;3:0.5",
         768)])
    def test_control_side_is_capped_before_the_solve(self, law, rho, m_max,
                                                     tmp_path, monkeypatch,
                                                     capsys):
        # the side is --m times (atoms the target charges + 1); the solve
        # is stubbed, since at the cap it takes seconds
        class Reached(Exception):
            pass

        def stub(rho, nu, q, *, steps):
            raise Reached(steps)

        monkeypatch.setattr(cli, "rate_by_control", stub)
        args = ["verify", "control", "--rho", rho]
        if law is not None:
            path = tmp_path / "law.json"
            path.write_text(json.dumps(law))
            args += ["--law", str(path)]
        with pytest.raises(Reached) as reached:
            run([*args, "--m", str(m_max)])
        assert reached.value.args == (m_max,)
        for m in (m_max + 1, 100000):
            assert run([*args, "--m", str(m)]) == 1
            side = 3072 * m // m_max
            assert capsys.readouterr().err == (
                f"--m {m} gives a control system of side {side}; at most "
                "3072 is allowed\n")

    @pytest.mark.parametrize("source", ["inline", "file"])
    def test_json_target_refuses_unknown_fields(self, source, tmp_path,
                                                capsys):
        # as a law file does: the typo "prbs" is not passed over
        doc = {"support": [1, 2], "probs": [0.2, 0.8], "prbs": [1, 0]}
        text = json.dumps(doc)
        if source == "file":
            target = tmp_path / "rho.json"
            target.write_text(text)
            text = str(target)
        assert run(["rate", "--law", LAW, "--q", "1/3", "--rho", text]) == 1
        assert capsys.readouterr().err == \
            "invalid input: unknown --rho fields: ['prbs']\n"
        law = tmp_path / "law.json"
        law.write_text(json.dumps({"support": [1, 2], "probs": [0.5, 0.5],
                                   "prbs": [1, 0]}))
        assert run(["rate", "--law", str(law), "--q", "1/3", "--rho",
                    "1:0.2;2:0.8"]) == 1
        assert capsys.readouterr().err == \
            "invalid input: unknown reproduction law fields: ['prbs']\n"

    @pytest.mark.parametrize("flag, value", [
        ("--law", "nonexistent.json"), ("--q", "1/3"), ("--rho", "1:0.2;2:0.8"),
        ("--m", "3"),
    ])
    def test_verify_suite_refuses_control_flags(self, flag, value, capsys):
        # the suite would run whole and pass, the flag silently unread
        assert run(["verify", "--quick", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize("flag", ["--quick", "--full"])
    def test_verify_control_refuses_suite_levels(self, flag, capsys):
        # the audit would run and pass, the level silently unread
        assert run(["verify", "control", flag, "--rho", "1:0.2;2:0.8",
                    "--m", "4"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err

    def test_verify_control_steps_default_to_64(self, tmp_path):
        args = ["verify", "control", "--rho", "1:0.2;2:0.8"]
        code, text = invoke(args, tmp_path, "default.json")
        assert code == 0
        assert (code, text) == invoke([*args, "--m", "64"], tmp_path,
                                      "m64.json")

    def test_integral_float_atoms_are_integers(self, tmp_path, capsys):
        law = tmp_path / "law.json"
        law.write_text('{"support": [1.0, 2.0], "probs": [0.5, 0.5]}')
        args = ["rate", "--q", "1/3", "--rho", '{"support": [1.0, 2.0], '
                '"probs": [0.2, 0.8]}']
        assert invoke([*args, "--law", str(law)], tmp_path, "float.csv") == \
            invoke([*args, "--law", LAW], tmp_path, "int.csv")
        capsys.readouterr()

    def test_quick_verification_passes(self, tmp_path, capsys):
        code, text = invoke(["verify", "--quick", "--seed", "42"], tmp_path)
        capsys.readouterr()
        assert code == 0
        report = json.loads(text)
        assert report["all_passed"] is True
        assert {"name", "tolerance", "observed", "passed",
                "seconds"} <= set(report["checks"][0])


def rate_column(rho: str, q: str, tmp_path) -> str:
    code, text = invoke(["rate", "--law", LAW, "--q", q, "--rho", rho],
                        tmp_path)
    assert code == 0
    header, row = text.splitlines()
    return row.split(",")[header.split(",").index("lambda_star")]


class TestTargetSupport:
    """``rate`` and ``verify control`` read a target on the law's support,
    as ``classify`` does: zero atoms off it are dropped, atoms it leaves out
    are 0, and a charge off it costs an infinite rate."""

    @pytest.mark.parametrize("q", ["0", "1/3"])
    @pytest.mark.parametrize("rho, on_law", [("1:0.2;2:0.8;3:0", "1:0.2;2:0.8"),
                                             ("2:1", "1:0;2:1")],
                             ids=["zero_atom_off", "atom_left_out"])
    def test_rate_reads_the_target_on_the_law_support(self, rho, on_law, q,
                                                      tmp_path):
        assert rate_column(rho, q, tmp_path) == rate_column(on_law, q,
                                                            tmp_path)

    @pytest.mark.parametrize("q", ["0", "1/3"])
    def test_a_charge_off_the_support_has_infinite_rate(self, q, tmp_path):
        assert rate_column("1:0.5;3:0.5", q, tmp_path) == "inf"

    def test_control_reads_the_target_on_the_law_support(self, tmp_path):
        args = ["verify", "control", "--m", "4", "--rho"]
        assert invoke([*args, "1:0.2;2:0.8;3:0"], tmp_path, "off.json") == \
            invoke([*args, "1:0.2;2:0.8"], tmp_path, "on.json")


# Runs in a fresh interpreter: imports the package and the CLI, runs each
# command given as JSON in argv[1] with its output discarded and then one
# halfspace minimum, then prints the exit codes, the loaded modules of the
# scipy package, and whether one two-type search loads scipy.optimize.
COLD_START = """
import contextlib, io, json, sys
import rgw, rgw.cli

futures_at_import = "concurrent.futures" in sys.modules
codes = []
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(rgw.cli.run(args))
law = rgw.OffspringLaw((1, 2), (0.5, 0.5))
rgw.min_rate_over_halfspace(law, 1 / 3, (0.0, 1.0), 0.8)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
rgw.search_two_type_decomposition(
    rgw.ProbVector((1, 2, 3), (0.5, 1 / 6, 1 / 3)), law,
    rgw.OffspringLaw((1,), (1.0,)))
print(json.dumps([codes, loaded, "scipy.optimize" in sys.modules,
                  futures_at_import]))
"""


def test_no_command_but_two_type_loads_scipy():
    # scipy is imported only by the two-type search: no command, and not
    # the halfspace minimum, whose dual root is a bisection
    commands = [
        ["rate", "--law", LAW, "--q", "1/3", "--grid", "0.25"],
        ["rate", "--law", LAW, "--q", "1/3", "--rho", "1:0.2;2:0.8"],
        ["simulate", "--law", LAW, "--q", "1/3", "--n-max", "3",
         "--replicas", "20"],
        ["simulate", "--law", LAW, "--q", "1/3", "--n-max", "3",
         "--replicas", "20", "--histograms"],
        ["classify", "--law", LAW, "--q", "1/3", "--grid", "0.25"],
        ["survival", "--law", LAW, "--q-grid", "1/5:4/5:1/5"],
        ["spine", "--law", LAW, "--q", "1/3", "--activities",
         "1:0.5;2:1.3333333333333333", "--steps", "100"],
        ["gibbs", "--law", LAW, "--q", "1/3", "--n", "4", "--w", "1:0;2:1",
         "--c", "0.5", "--replicas", "100"],
        ["urn", "--law", LAW, "--q", "1/3", "--steps", "100"],
        ["verify", "--quick"],
        ["verify", "control", "--rho", "1:0.2;2:0.8", "--m", "16"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(commands)], cwd=REPO,
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, loaded, optimize_loaded, futures_at_import = json.loads(done.stdout)
    assert codes == [0] * len(commands)
    assert loaded == []
    # the probe can see scipy when it is loaded
    assert optimize_loaded
    # nor does import load an executor: a campaign imports its thread pool
    # when it first runs passes on more than one worker
    assert not futures_at_import
