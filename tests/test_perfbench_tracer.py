"""perfbench's tracer finds every function it times.

``perfbench/tracer.py``'s ``Tracer.install`` looks each wrapped
function up by name in its owner's ``__dict__``, so a function that is
renamed, moved to a base class or deleted raises ``KeyError`` there.
Installing and removing the tracer here makes that a tier-1 failure
rather than one of the traced ``perfbench/run.py`` runs only.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_every_wrapper():
    tracer = _load_tracer_module().Tracer().install()
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        tracer.remove()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original
