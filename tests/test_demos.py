"""Demo scripts run to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo.relative_to(REPO))],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    if demo.stem == "03_spine_and_urns":
        # the one demo that drives both the lineage urn and the spine urn
        assert "agrees with simulation : True" in done.stdout
