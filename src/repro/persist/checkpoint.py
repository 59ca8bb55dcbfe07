"""Versioned on-disk checkpoint format with digest-verified restore.

File layout (format 1)::

    MAGIC                        12 bytes, b"REPRO-CKPT\\x01\\n"
    header                       one JSON line (UTF-8, no newlines)
    payload                      zlib-compressed pickle of the object graph

The header carries the format version, the codec, the payload's SHA-256
and length, the per-component :mod:`~repro.persist.digest` values of
the saved state (when the object is digestable), and caller-supplied
metadata.  :func:`load_checkpoint` verifies the payload hash, then —
for digestable objects — recomputes every component digest on the
restored graph and compares against the header, raising
:class:`CheckpointIntegrityError` with the exact list of divergent
components on mismatch.  That check is what turns silent state
divergence (a code change that breaks restore fidelity) into a loud,
attributable failure.

Versioning policy: the format number only changes when the file layout
changes; unknown (newer) formats are rejected with
:class:`CheckpointVersionError` rather than guessed at.  Pickled
payloads additionally depend on the repository's class definitions —
checkpoints are *resume* artifacts for the writing code version, not a
long-term archival format (the digests, being canonical, ARE stable
across refactors that preserve behavior).  A checkpoint restores in
code whose digests of it verify; any other file is refused with a
named :class:`CheckpointError`, and nothing migrates an older payload.
A payload that does not match this code's classes fails to digest,
which is raised as :class:`CheckpointIntegrityError` naming the file.

Writes are atomic: the file is assembled under a temporary name in the
target directory and ``os.replace``d into place, so an interrupted save
never leaves a truncated checkpoint behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import zlib
from typing import Any, Optional

from repro.persist.digest import StateDigest, state_digest

__all__ = [
    "CheckpointError",
    "CheckpointIntegrityError",
    "CheckpointVersionError",
    "FORMAT_VERSION",
    "MAGIC",
    "save_checkpoint",
    "load_checkpoint",
    "read_header",
]

FORMAT_VERSION = 1
MAGIC = b"REPRO-CKPT\x01\n"
_CODEC = "pickle+zlib"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read."""


class CheckpointIntegrityError(CheckpointError):
    """The checkpoint's contents do not match its recorded hashes."""

    def __init__(self, message: str, components: Optional[list[str]] = None) -> None:
        super().__init__(message)
        #: Divergent component names (empty for payload-level corruption).
        self.components = components or []


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by a newer, unknown format."""


def _is_digestable(obj: Any) -> bool:
    if hasattr(obj, "clock") and hasattr(obj, "queue"):
        return True
    runtime = obj if hasattr(obj, "radio") else getattr(obj, "runtime", None)
    return runtime is not None and hasattr(runtime, "simulator")


def save_checkpoint(
    obj: Any, path: str | os.PathLike, meta: Optional[dict] = None
) -> Optional[StateDigest]:
    """Serialize ``obj`` to ``path``; returns its digest (if digestable).

    ``obj`` may be any picklable object graph; simulators, runtimes and
    runtime wrappers additionally get per-component state digests in
    the header, enabling verified restore and divergence diffs.
    """
    digest = state_digest(obj) if _is_digestable(obj) else None
    try:
        payload = zlib.compress(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # unpicklable closure, lambda, ...
        raise CheckpointError(f"object graph is not picklable: {exc}") from exc
    header = {
        "format": FORMAT_VERSION,
        "codec": _CODEC,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "digest": None
        if digest is None
        else {"whole": digest.whole, "components": digest.components},
        "meta": meta or {},
    }
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(header_line.encode("utf-8"))
            fh.write(b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return digest


def _read_raw(path: str | os.PathLike) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a repro checkpoint file")
        header_bytes = bytearray()
        while True:
            byte = fh.read(1)
            if not byte:
                raise CheckpointError(f"{path}: truncated header")
            if byte == b"\n":
                break
            header_bytes += byte
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
        payload = fh.read()
    if header.get("format", 0) > FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format {header['format']} is newer than supported "
            f"({FORMAT_VERSION}); upgrade to read this checkpoint"
        )
    if header.get("codec") != _CODEC:
        raise CheckpointError(f"{path}: unknown codec {header.get('codec')!r}")
    return header, payload


def read_header(path: str | os.PathLike) -> dict:
    """The checkpoint's header (format, digests, meta) without unpickling."""
    header, _ = _read_raw(path)
    return header


def load_checkpoint(path: str | os.PathLike, verify: bool = True) -> Any:
    """Restore the object graph saved at ``path``.

    With ``verify`` (the default), the payload hash is checked before
    unpickling and — when the header carries digests — every component
    digest is recomputed on the restored graph and compared, so a
    checkpoint that would resume on a divergent trajectory fails loudly
    instead.
    """
    header, payload = _read_raw(path)
    if len(payload) != header["payload_bytes"]:
        raise CheckpointIntegrityError(
            f"{path}: payload is {len(payload)} bytes, header records "
            f"{header['payload_bytes']} (truncated file?)"
        )
    actual_sha = hashlib.sha256(payload).hexdigest()
    if actual_sha != header["payload_sha256"]:
        raise CheckpointIntegrityError(
            f"{path}: payload sha256 mismatch (corrupt checkpoint)"
        )
    try:
        obj = pickle.loads(zlib.decompress(payload))
    except Exception as exc:
        raise CheckpointError(f"{path}: cannot decode payload: {exc}") from exc
    if verify and header.get("digest"):
        try:
            restored = state_digest(obj)
        except Exception as exc:  # a field this code reads is missing
            raise CheckpointIntegrityError(
                f"{path}: payload does not match this code's classes ({exc})"
            ) from exc
        recorded = header["digest"]["components"]
        divergent = sorted(
            name
            for name in set(recorded) | set(restored.components)
            if recorded.get(name) != restored.components.get(name)
        )
        if divergent:
            raise CheckpointIntegrityError(
                f"{path}: restored state diverges from the saved digests in "
                f"component(s) {', '.join(divergent)} — restore is not "
                f"trajectory-faithful for this code version",
                components=divergent,
            )
    return obj
