"""Every script under ``examples/`` runs to completion.

Each example is executed as a real subprocess (the way a reader would
run it), scaled down through the ``REPRO_EXAMPLE_*`` environment knobs
the scripts expose, and must exit 0 with its headline output intact.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO, "examples")

#: script -> (env knobs, a fragment its stdout must contain)
CASES = {
    "quickstart.py": (
        {"REPRO_EXAMPLE_NODES": "40"},
        "snapshot execution",
    ),
    "multi_resolution.py": (
        {"REPRO_EXAMPLE_NODES": "40"},
        "multi-resolution snapshot family",
    ),
    "network_lifetime.py": (
        {"REPRO_EXAMPLE_QUERIES": "240"},
        "area under coverage curve",
    ),
    "weather_monitoring.py": (
        {"REPRO_EXAMPLE_NODES": "40"},
        "tighter thresholds",
    ),
}


def test_every_example_has_a_smoke_case():
    scripts = {
        name for name in os.listdir(EXAMPLES) if name.endswith(".py")
    }
    assert scripts == set(CASES), (
        "examples/ and the smoke matrix drifted apart — add the new "
        "script (with a scale knob) to CASES"
    )


@pytest.mark.parametrize("script", sorted(CASES))
def test_example_runs_clean(script):
    knobs, fragment = CASES[script]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), **knobs)
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert fragment in result.stdout
