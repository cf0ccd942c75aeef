"""The one ``.npz`` member codec behind log shards, the FAE format and checkpoints.

The only place that writes an ``.npz`` in ``src/``, and the reader for log
shards and FAE layouts (DESIGN.md §8 has the measurements).  Reading
decodes a member when it is asked for and not before, which is what lets
a log shard cost only the columns a stage reads; writing builds the
archive once in memory, so the bytes that are hashed are the bytes that
are written.  Archives stay plain ``.npz`` files that ``np.load`` opens.
Every member is stored, not deflated: a stored member decodes at memory
speed, and the reader opens deflated archives from earlier writers through
the same ``ZipFile.read``.  Members keep the dtype the caller hands over:
integers are stored at the width of their range (:func:`id_dtype`: log-shard
ids and hot-bag ids at their table's, FAE batch indices at the input
count's) and widened once, by the caller, on decode.

Metrics (registry counters, one increment per decoded member):
``data.shard.members_decoded`` and ``data.shard.bytes_decoded`` (decoded
bytes at the stored width, npy header included) -- how many columns a run
paid for.
"""

from __future__ import annotations

import hashlib
import io
import math
import zipfile
import zlib
from functools import lru_cache
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.obs import get_registry
from repro.resilience.atomic import atomic_write, recycling_write

__all__ = ["NpzReader", "id_dtype", "write_npz"]

# Everything zipfile, zlib (deflated archives of earlier writers) and the
# npy parser raise on damaged bytes.
_DAMAGE = (
    KeyError, OSError, ValueError, EOFError, NotImplementedError, zipfile.BadZipFile, zlib.error
)


def id_dtype(count: int) -> type:
    """The narrowest stored dtype that holds every integer in ``[0, count)``.

    uint8 / uint16 / uint32, int64 beyond 2**32: the width at which ids of a
    ``count``-row table, or indices into ``count`` inputs, are stored.
    """
    for dtype in (np.uint8, np.uint16, np.uint32):
        if count - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.int64


@lru_cache(maxsize=256)
def _parse_header(prefix: bytes) -> tuple[tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` of an npy magic + header.

    Memoised on the bytes: a format's members share a handful of headers,
    and numpy's ``literal_eval`` costs more than reading a small member.
    """
    handle = io.BytesIO(prefix)
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(handle)
    else:
        raise ValueError(f"unsupported npy format version {version}")
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
    return shape, fortran_order, dtype


class NpzReader:
    """Members of one in-memory ``.npz`` image, decoded when asked for.

    Construction parses the zip directory only, which is where a truncated
    image fails.  ``reader[name]`` reads (inflating a deflated one) and
    CRC-checks member ``name`` (``ZipFile.read``), refuses object dtypes
    as ``allow_pickle=False`` does, and returns an owned, writeable,
    C-contiguous array.

    Raises:
        RuntimeError: damaged bytes or a missing member, at either step;
            the message starts with ``where`` (say what and which file).
    """

    def __init__(self, blob: bytes, where: str) -> None:
        self._where = where
        try:
            self._zip = zipfile.ZipFile(io.BytesIO(blob))
        except _DAMAGE as exc:
            raise self._corrupt(exc) from exc

    def _corrupt(self, exc: Exception) -> RuntimeError:
        return RuntimeError(f"{self._where} is truncated or corrupt: {exc}")

    def __contains__(self, name: str) -> bool:
        return name + ".npy" in self._zip.NameToInfo

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            data = self._zip.read(name + ".npy")
            length_bytes = 2 if data[6:7] == b"\x01" else 4
            offset = 8 + length_bytes + int.from_bytes(data[8 : 8 + length_bytes], "little")
            shape, fortran_order, dtype = _parse_header(data[:offset])
            count = math.prod(shape)
            flat = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
            if flat.nbytes != len(data) - offset:
                raise ValueError(f"{name}: payload size disagrees with header {shape} {dtype}")
        except _DAMAGE as exc:
            raise self._corrupt(exc) from exc
        registry = get_registry()
        registry.counter("data.shard.members_decoded").inc()
        registry.counter("data.shard.bytes_decoded").inc(len(data))
        view = flat.reshape(shape[::-1]).T if fortran_order else flat.reshape(shape)
        return np.array(view, order="C")  # the copy makes it owned and writeable


def _pad_comment(blob: bytes, size: int) -> bytes:
    """``blob`` grown to ``size`` by the comment of its (comment-less) last record, if it fits."""
    gap = size - len(blob)
    if gap > 0xFFFF:
        return blob
    return b"".join((blob[:-2], gap.to_bytes(2, "little"), b" " * gap))


def write_npz(path: str | Path, arrays: Mapping[str, np.ndarray], recycle: bool = False) -> str:
    """Atomically write ``arrays`` as the archive ``path``; returns its SHA-256.

    The archive is serialised once in memory and the digest taken from
    that buffer, so the file is written once and never read back.  Members
    are stored, not deflated (DESIGN.md §8), and carry the zip epoch as
    their timestamp: equal arrays give equal bytes.  ``recycle``
    (checkpoints) writes through ``recycling_write``, padding through the
    zip comment; the digest covers the pad.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, value in arrays.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asanyarray(value), allow_pickle=False)
            archive.writestr(zipfile.ZipInfo(name + ".npy"), member.getbuffer())
    blob = buffer.getbuffer()
    if recycle:
        blob = recycling_write(path, blob, _pad_comment)
    else:
        with atomic_write(path) as tmp:
            tmp.write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()
