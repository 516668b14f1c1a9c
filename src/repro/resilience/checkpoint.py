"""Byte-deterministic checkpoint serialization and on-disk management.

The checkpoint format is deliberately *not* ``np.savez``: zip containers
embed timestamps, so two identical states would serialize to different
bytes and the crash-matrix differential tests could not compare archives
directly.  Instead a state dict is flattened into

``MAGIC | header-length (8 bytes LE) | JSON header | raw array bytes``

where the header is canonical JSON (sorted keys, no whitespace) in which
every ``numpy`` array has been replaced by a placeholder recording dtype,
shape, and its index into the concatenated raw-byte section.  Arrays are
assigned indices in a deterministic traversal order (sorted dict keys,
list order), so ``serialize_state(deserialize_state(b)) == b`` holds for
any well-formed archive — the property the Hypothesis suite checks.

State values may be: ``None``, ``bool``, ``int``, ``float``, ``str``,
lists/tuples (decoded as lists), string-keyed dicts, and numpy arrays.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, List, Optional

import numpy as np

__all__ = [
    "CheckpointManager",
    "MAGIC",
    "deserialize_state",
    "serialize_state",
]

MAGIC = b"GAMMACKPT1\n"

_ARRAY_KEY = "__gamma_array__"


def _encode(value: Any, buffers: List[np.ndarray]) -> Any:
    if isinstance(value, np.ndarray):
        index = len(buffers)
        buffers.append(np.ascontiguousarray(value))
        return {
            _ARRAY_KEY: index,
            "dtype": value.dtype.str,
            "shape": list(value.shape),
        }
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(
                    f"checkpoint dict keys must be str, got {type(key)!r}")
            out[key] = _encode(value[key], buffers)
        return out
    if isinstance(value, (list, tuple)):
        return [_encode(item, buffers) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot checkpoint value of type {type(value)!r}")


def _decode(value: Any, buffers: List[bytes]) -> Any:
    if isinstance(value, dict):
        if _ARRAY_KEY in value:
            raw = buffers[value[_ARRAY_KEY]]
            array = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return array.reshape(value["shape"]).copy()
        return {key: _decode(item, buffers) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item, buffers) for item in value]
    return value


def _archive_parts(state: dict) -> list:
    """The archive as consecutive bytes-like pieces: magic, header length,
    header, then each array's own buffer (no copy is made of any array)."""
    buffers: List[np.ndarray] = []
    doc = _encode(state, buffers)
    header = json.dumps(
        {"state": doc, "buffers": [b.nbytes for b in buffers]},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    parts = [MAGIC, len(header).to_bytes(8, "little"), header]
    # A flat byte view: zero-size and n-d arrays included.
    parts.extend(b.reshape(-1).view(np.uint8).data for b in buffers)
    return parts


def serialize_state(state: dict) -> bytes:
    """Flatten ``state`` into the deterministic archive format."""
    return b"".join(_archive_parts(state))


def deserialize_state(blob: bytes) -> dict:
    """Inverse of :func:`serialize_state`."""
    if not blob.startswith(MAGIC):
        raise ValueError("not a GAMMA checkpoint (bad magic)")
    offset = len(MAGIC)
    header_len = int.from_bytes(blob[offset:offset + 8], "little")
    offset += 8
    header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
    offset += header_len
    buffers: List[bytes] = []
    for length in header["buffers"]:
        buffers.append(blob[offset:offset + length])
        offset += length
    if offset != len(blob):
        raise ValueError(
            f"checkpoint trailing bytes: consumed {offset} of {len(blob)}")
    state = _decode(header["state"], buffers)
    if not isinstance(state, dict):
        raise ValueError("checkpoint root must be a dict")
    return state


class CheckpointManager:
    """Owns one checkpoint file inside a directory; writes are atomic."""

    FILENAME = "checkpoint.bin"

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self.path = os.path.join(self.directory, self.FILENAME)

    def save(self, state: dict) -> int:
        """Serialize and atomically replace the checkpoint; returns bytes.

        The directory is created by the first save, so a manager that
        never saves leaves nothing behind.
        """
        parts = _archive_parts(state)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".ckpt-")
        except FileNotFoundError:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".ckpt-")
        try:
            with os.fdopen(fd, "wb") as handle:
                for part in parts:
                    handle.write(part)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        return sum(len(part) for part in parts)

    def load(self) -> Optional[dict]:
        """The stored state, or ``None`` when no checkpoint exists yet."""
        try:
            with open(self.path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return None
        return deserialize_state(blob)

    def clear(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
