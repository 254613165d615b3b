"""Artifact files: atomic writes, their hashes, JSON documents, CSV tables and the array codec.

`write_atomic` streams text to a temporary file beside the target, hashing
the bytes as it writes, then moves it over the target with `os.replace`:
readers see the old file or the whole new one, and a write that raises
leaves the old file and no temporary behind.  (There is no fsync, so this
covers a failing or killed process, not a power cut.)  `file_hash` gives
the same sha256 prefix for a file already on disk.

`write_json` writes exactly `json.dumps(doc, sort_keys=True, indent=1)` plus
a newline, and `read_json` is every artifact's one reader.  Arrays of model
state (checkpoint weights, retained bases) go into those documents as
`encode_array` spells them: the standard base64 of their C-order
little-endian float64 bytes, with their shape.  A save or load then copies
bytes instead of spelling each float in decimal, and `decode_array`
returns the same bits, sign of zero and subnormals included.

`write_table` writes the CSV result tables (contour.csv, ablation.csv),
each float spelt `.17g`, which round-trips bit-exactly.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np


def write_atomic(path, chunks) -> str:
    """Write the str chunks to path through a temporary file; return the sha256 prefix of the bytes."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                raw = chunk.encode("utf-8")
                digest.update(raw)
                fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return digest.hexdigest()[:16]


class HashingReader(io.BufferedReader):
    """path opened for binary reading; `hash()` is the sha256 prefix of what `read1`, a text wrapper's read, gave."""

    def __init__(self, path):
        super().__init__(open(path, "rb", buffering=0))
        self._digest = hashlib.sha256()

    def read1(self, size=-1):
        chunk = super().read1(size)
        self._digest.update(chunk)
        return chunk

    def hash(self) -> str:
        return self._digest.hexdigest()[:16]


def file_hash(path) -> str:
    """The sha256 prefix of a file on disk, as `write_atomic` returns it for the bytes it writes."""
    with HashingReader(path) as fh:
        while fh.read1(1 << 20):
            pass
        return fh.hash()


def write_json(doc, path) -> str:
    """`json.dumps(doc, sort_keys=True, indent=1)` plus a newline, written to path by `write_atomic`."""
    return write_atomic(path, [json.dumps(doc, sort_keys=True, indent=1), "\n"])


def write_table(path, header, rows) -> str:
    """A CSV table by `write_atomic`: the header's names, then one line per row, str cells as is and floats as `.17g`."""
    lines = (",".join(c if isinstance(c, str) else f"{c:.17g}" for c in cells) + "\n" for cells in [header, *rows])
    return write_atomic(path, lines)


def read_json(path, format_version=None) -> dict:
    """The JSON object at path, its format_version popped and checked if one is given; errors name path."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: root must be a JSON object, got {type(doc).__name__}")
    if format_version is not None:
        found = doc.pop("format_version", None)
        if found != format_version:
            raise ValueError(f"{path}: unsupported format_version {found!r}, expected {format_version}")
    return doc


def encode_array(a) -> dict:
    """{"base64": the standard base64 of a's C-order little-endian float64 bytes, "shape": a's shape}."""
    a = np.asarray(a, dtype="<f8")
    return {"base64": base64.b64encode(a.tobytes(order="C")).decode("ascii"), "shape": list(a.shape)}


def decode_array(doc, what: str) -> np.ndarray:
    """The array `encode_array` spelt as doc, as a writeable C-contiguous float64 copy.

    Raises ValueError naming what if doc is not exactly that spelling: a dict
    of the two keys, a shape of non-negative ints, valid base64 and 8 bytes
    per element.
    """
    if not isinstance(doc, dict) or doc.keys() != {"base64", "shape"}:
        raise ValueError(f"{what} must be an object with exactly the keys base64 and shape")
    shape = doc["shape"]
    if not isinstance(shape, list) or any(isinstance(d, bool) or not isinstance(d, int) or d < 0 for d in shape):
        raise ValueError(f"{what} shape must be a list of non-negative integers, got {shape!r}")
    try:
        raw = base64.b64decode(doc["base64"], validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} base64 is invalid: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{what} holds {len(raw)} bytes, shape {shape} needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
