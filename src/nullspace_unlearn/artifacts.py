"""Artifact files: atomic writes, their hashes, and the streamed JSON writer.

`write_atomic` streams text to a temporary file beside the target, hashing
the bytes as it writes, then moves it over the target with `os.replace`:
readers see the old file or the whole new one, and a write that raises
leaves the old file and no temporary behind.  (There is no fsync, so this
covers a failing or killed process, not a power cut.)  `file_hash` gives
the same sha256 prefix for a file already on disk.

`write_json` writes exactly `json.dumps(doc, sort_keys=True, indent=1)` plus
a newline.  json's indented encoder is pure Python, one step per value;
here each list of floats is one `join` over `float.__repr__` (json's
spelling of a finite float), written as one chunk, and everything else is
spelt by `json.dumps` itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os


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


def file_hash(path) -> str:
    """The sha256 prefix of a file on disk, as `write_atomic` returns it for the bytes it writes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def write_json(doc, path) -> str:
    """`json.dumps(doc, sort_keys=True, indent=1)` plus a newline, streamed to path by `write_atomic`."""
    return write_atomic(path, itertools.chain(_chunks(doc, 0), ["\n"]))


def _key(key) -> str:
    """json's spelling of a dict key: str as is; int, float, bool and None as their JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _float_items(o, sep: str):
    """sep.join of json's spelling of each item of o if every item is a float, else None."""
    try:
        text = sep.join(map(float.__repr__, o))
    except TypeError:
        return None
    # repr spells inf and nan, json Infinity and NaN; finite reprs have no "n".
    return sep.join(map(json.dumps, o)) if "n" in text else text


def _chunks(o, level: int):
    """The indent=1, sorted-key JSON text of o at nesting depth level, in chunks."""
    pad = "\n" + " " * (level + 1)
    close = "\n" + " " * level
    if isinstance(o, dict) and o:
        sep = "{"
        for key, value in sorted(o.items()):
            yield sep + pad + json.dumps(_key(key)) + ": "
            yield from _chunks(value, level + 1)
            sep = ","
        yield close + "}"
    elif isinstance(o, (list, tuple)) and o:
        text = _float_items(o, "," + pad)
        if text is not None:
            yield "[" + pad + text + close + "]"
            return
        sep = "["
        for item in o:
            yield sep + pad
            yield from _chunks(item, level + 1)
            sep = ","
        yield close + "]"
    else:
        yield json.dumps(o)
