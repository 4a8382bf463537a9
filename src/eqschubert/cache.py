"""Versioned on-disk cache for computed product tables.

Format (documented for consumers): a gzip stream (mtime pinned to zero) of a
UTF-8 JSON object with fields

    cache_version   integer format version
    engine_version  package version that produced the payload
    k, n, d_max     the table key
    sha256          hex digest of the payload string
    payload         the canonical table JSON, as a string

A file whose checksum or JSON structure is broken raises CacheError; a file
whose versions or key disagree is stale and is simply ignored, never
migrated.  Writes go to a temporary file and are renamed into place; a
failed write removes the temporary file.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import zlib

from .errors import CacheError
from .version import CACHE_VERSION, ENGINE_VERSION


def cache_path(cache_dir, k, n, d_max):
    name = "eqtable-k%d-n%d-d%d.json.gz" % (k, n, d_max)
    return os.path.join(cache_dir, name)


def store(cache_dir, k, n, d_max, payload):
    os.makedirs(cache_dir, exist_ok=True)
    envelope = {
        "cache_version": CACHE_VERSION,
        "engine_version": ENGINE_VERSION,
        "k": k,
        "n": n,
        "d_max": d_max,
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "payload": payload,
    }
    raw = json.dumps(envelope, sort_keys=True).encode("utf-8")
    path = cache_path(cache_dir, k, n, d_max)
    tmp = path + ".tmp"
    try:
        # filename="" keeps the temporary file's name out of the gzip header
        with open(tmp, "wb") as fh, gzip.GzipFile(
            filename="", mode="wb", fileobj=fh, mtime=0
        ) as zf:
            zf.write(raw)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return path


def load(cache_dir, k, n, d_max):
    """The cached payload string, or None on a miss or stale entry."""
    path = cache_path(cache_dir, k, n, d_max)
    if not os.path.exists(path):
        return None
    try:
        with gzip.open(path, "rb") as fh:
            envelope = json.loads(fh.read().decode("utf-8"))
        payload = envelope["payload"]
        digest = envelope["sha256"]
        if not isinstance(payload, str):
            raise CacheError("cache file %s has a non-string payload" % path)
        actual = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    except (
        OSError,
        EOFError,
        zlib.error,
        RecursionError,
        ValueError,
        KeyError,
        TypeError,
    ) as exc:
        raise CacheError("unreadable cache file %s: %s" % (path, exc))
    if actual != digest:
        raise CacheError("checksum mismatch in cache file %s" % path)
    # JSON true and 1.0 compare equal to 1, but only an int names a table
    stamp = tuple(envelope.get(f) for f in ("cache_version", "k", "n", "d_max"))
    if (
        envelope.get("engine_version") != ENGINE_VERSION
        or any(type(v) is not int for v in stamp)
        or stamp != (CACHE_VERSION, k, n, d_max)
    ):
        return None
    return payload
