"""Demo scripts run to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_spine_and_urns_demo_runs():
    # the one demo that drives both the lineage urn and the spine urn
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "demos/03_spine_and_urns.py"],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "agrees with simulation : True" in done.stdout
