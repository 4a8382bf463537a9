"""Versioned on-disk cache for computed product tables.

Format (documented for consumers): one gzip stream of one member (mtime
zero, no file name, written at zlib's default level) holding a header line,
then the payload's UTF-8 bytes as they are. The header line is the
canonical JSON (sorted keys, no whitespace) of an object with fields

    cache_version   integer format version (2)
    engine_version  package version that produced the payload
    k, n, d_max     the table key
    sha256          hex digest of the payload bytes

followed by a newline. The file name carries the format version
(``eqtable-k2-n7-d3.v2.gz``), so a file of another format, such as a
version 1 ``*.json.gz`` envelope, is never opened.

A file whose gzip stream is corrupt, ends early or is followed by any byte,
whose header line is missing, longer than ``HEADER_CAP`` bytes or no JSON
object, whose checksum does not match, or whose payload is not UTF-8 raises
CacheError; a file whose versions or key disagree is stale and is simply
ignored, never migrated. Writes go to a temporary file named for the
writing process and are renamed into place; a write that fails for any
reason, an interrupt included, removes the temporary file.

Both paths work on ``zlib`` directly: a write hashes the streamed payload
in one pass and deflates it in a second, a read inflates the file in one
pass and hashes and decodes the payload without copying it, and no start-up of
the command line pays for importing ``gzip``. ``hashlib``, which loads
OpenSSL, is imported only by a read that found a file and by a write, so a
cold export without a cache and ``verify`` never load it.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib

from .errors import CacheError
from .version import CACHE_VERSION, ENGINE_VERSION

# the longest first line read as a header; a real one is about 150 bytes
HEADER_CAP = 4096
# zlib's window bits for a gzip wrapper, read and written
GZIP_WBITS = 31
# compressed bytes inflated per call: one call on a whole file grows its
# output in blocks and then copies them, about four times the payload at the
# peak against two
READ_SLICE = 1 << 16


def cache_path(cache_dir, k, n, d_max):
    name = "eqtable-k%d-n%d-d%d.v%d.gz" % (k, n, d_max, CACHE_VERSION)
    return os.path.join(cache_dir, name)


def store(cache_dir, k, n, d_max, payload):
    """Write ``payload``, a string or a re-iterable of text chunks (a
    streamed export), as the cache file of its key, and return its path.

    The header holds the payload's digest, so a chunked payload is read
    twice: one pass hashes its chunks, the next deflates them after the
    header, and no encoded copy of the whole payload is made.  The deflated
    bytes do not depend on the chunking.
    """
    import hashlib

    os.makedirs(cache_dir, exist_ok=True)
    chunks = (payload,) if isinstance(payload, str) else payload
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
    header = {
        "cache_version": CACHE_VERSION,
        "engine_version": ENGINE_VERSION,
        "k": k,
        "n": n,
        "d_max": d_max,
        "sha256": digest.hexdigest(),
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    path = cache_path(cache_dir, k, n, d_max)
    # one name per process, so two exports storing one table at once do not
    # rename each other's file away
    tmp = "%s.%d.tmp" % (path, os.getpid())
    deflate = zlib.compressobj(wbits=GZIP_WBITS)
    try:
        with open(tmp, "wb") as fh:
            fh.write(deflate.compress(line.encode("utf-8")))
            for chunk in chunks:
                fh.write(deflate.compress(chunk.encode("utf-8")))
            fh.write(deflate.flush())
        os.replace(tmp, path)
    except BaseException:
        # an interrupt or a MemoryError while a chunk is formatted, too
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return path


def load(cache_dir, k, n, d_max):
    """The cached payload string, or None on a miss or stale entry."""
    path = cache_path(cache_dir, k, n, d_max)
    if not os.path.exists(path):
        return None
    inflate = zlib.decompressobj(GZIP_WBITS)
    pieces = []
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(READ_SLICE), b""):
                pieces.append(inflate.decompress(block))
    except (OSError, zlib.error) as exc:
        raise CacheError("unreadable cache file %s: %s" % (path, exc))
    plain = b"".join(pieces)
    del pieces  # so the payload is held at most twice
    if not inflate.eof:
        raise CacheError("unreadable cache file %s: the gzip stream ends early" % path)
    if inflate.unused_data:
        raise CacheError("cache file %s has bytes after its gzip stream" % path)
    # the line, newline included, is at most HEADER_CAP bytes
    end = plain.find(b"\n", 0, HEADER_CAP) + 1
    if not end:
        raise CacheError(
            "cache file %s has no header line within %d bytes" % (path, HEADER_CAP)
        )
    try:
        header = json.loads(plain[:end].decode("utf-8"))
    except (RecursionError, ValueError) as exc:
        raise CacheError("unreadable cache file %s: %s" % (path, exc))
    if type(header) is not dict:
        raise CacheError("cache file %s has a header that is no JSON object" % path)
    import hashlib

    data = memoryview(plain)[end:]
    if hashlib.sha256(data).hexdigest() != header.get("sha256"):
        raise CacheError("checksum mismatch in cache file %s" % path)
    # JSON true and 1.0 compare equal to 1, but only an int names a table
    stamp = tuple(header.get(f) for f in ("cache_version", "k", "n", "d_max"))
    if (
        header.get("engine_version") != ENGINE_VERSION
        or any(type(v) is not int for v in stamp)
        or stamp != (CACHE_VERSION, k, n, d_max)
    ):
        return None
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise CacheError("cache file %s holds a payload that is not UTF-8: %s" % (path, exc))
