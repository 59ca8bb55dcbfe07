"""Benchmark configuration.

Every benchmark regenerates one table or figure of the paper and prints
(and saves under ``benchmarks/results/``) the same rows/series the
paper reports.  Two scales are supported via the ``REPRO_BENCH_SCALE``
environment variable:

* ``quick`` (default) — trimmed sweeps, 2 repetitions; the whole suite
  finishes in roughly a quarter of an hour;
* ``paper`` — the full sweeps and ten repetitions of §6.

Benchmarks execute exactly once (``pedantic(rounds=1, iterations=1)``):
the measured quantity is the experiment's wall time, and the scientific
output is the printed/saved table.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time

import numpy as np
import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: quick | paper
SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")


def repetitions() -> int:
    """Experiment repetitions at the current scale (paper: 10)."""
    return 10 if SCALE == "paper" else 2


def is_paper_scale() -> bool:
    """Whether the full §6 sweeps are requested."""
    return SCALE == "paper"


def _git(*args: str):
    """Output of a git command on this checkout, or ``None`` without one."""
    root = RESULTS_DIR.parent.parent
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(root), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def stamp() -> dict:
    """Where a record came from, with the fields perfbench's records
    carry (``perfbench/run.py``'s ``provenance``) plus the scale."""
    status = _git("status", "--porcelain")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "scale": SCALE,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


@pytest.fixture
def report():
    """Print a result block and persist it under ``benchmarks/results/``.

    ``save(name, text)`` writes ``results/<name>.txt``.  Pass ``data``
    (a JSON-serializable dict) to additionally emit
    ``results/<name>.json`` — a machine-readable record (e.g. ops/sec
    of the perf microbenchmarks) that future PRs can diff to track the
    performance trajectory, stamped under ``"stamp"`` (:func:`stamp`).
    """

    def save(name: str, text: str, data=None) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            record = {**data, "stamp": stamp()}
            (RESULTS_DIR / f"{name}.json").write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n"
            )
        print("\n" + text)

    return save


def pytest_collection_modifyitems(items):
    """Every benchmark carries the ``bench`` marker, so tier-1's
    ``-m 'not bench'`` deselection covers this directory even when it is
    collected alongside the tests."""
    for item in items:
        item.add_marker(pytest.mark.bench)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
