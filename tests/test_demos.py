"""Each narrative demo runs to completion as a script.

The demos write circle_subdivision.svg and tail_experiment.csv into the
working directory, so each runs in its own temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(demo, cwd, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_subdivision_demo_output_does_not_depend_on_string_hashing(tmp_path):
    # seeds 0 and 3 order a set of the two clause names differently
    demo = ROOT / "demos" / "02_subdivision.py"
    outputs = [run_demo(demo, tmp_path, PYTHONHASHSEED=seed).stdout for seed in ("0", "3")]
    assert outputs[0] == outputs[1] and "clauses: {'value'" in outputs[0]
