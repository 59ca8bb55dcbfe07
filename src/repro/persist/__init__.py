"""Deterministic checkpoint/restore with canonical state digests.

``save_checkpoint``/``load_checkpoint`` freeze a live simulation — the
full object graph: simulated time, event queue, RNG streams, protocol nodes,
model caches, batteries, radio state, metrics — to a versioned on-disk
file and restore it such that a resumed run is bit-identical,
event-for-event, to an uninterrupted one.  ``state_digest`` fingerprints
the same state canonically, per component and whole-sim, for divergence
detection and golden pinning.  See DESIGN.md §13.
"""

from repro.persist.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    CheckpointIntegrityError,
    CheckpointVersionError,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.persist.digest import (
    RoundDigestRecorder,
    StateDigest,
    callback_descriptor,
    canonical_bytes,
    digest_components,
    state_digest,
)

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "CheckpointError",
    "CheckpointIntegrityError",
    "CheckpointVersionError",
    "load_checkpoint",
    "read_header",
    "save_checkpoint",
    "RoundDigestRecorder",
    "StateDigest",
    "callback_descriptor",
    "canonical_bytes",
    "digest_components",
    "state_digest",
]
