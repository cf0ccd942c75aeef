"""The one ``.npz`` codec behind log shards, the FAE format and checkpoints.

The only place that writes an ``.npz`` in ``src/``, and the only reader of
the archives it writes (DESIGN.md §8 has the measurements):

- **write** builds the archive once in memory, with ``struct``, so the
  bytes that are hashed are the bytes that are written.  They are byte for
  byte what ``zipfile`` writes for the same members -- stored, not
  deflated, version 20, Unix host, no flags, the zip epoch as timestamp,
  mode ``0o600``, no extra fields but zip64's, and zip64 records exactly
  where ``zipfile`` puts them (more than 65 535 members, or past its 2 GiB
  sizes and offsets) -- so archives stay plain ``.npz`` files that
  ``np.load`` opens, and equal arrays give equal bytes.
- **read** parses the end record and central directory with ``struct``
  (``zipfile`` parses the rest: zip64, deflated or encrypted archives),
  and returns each stored member, when it is asked for and not before, as
  a read-only view of the image at its data offset, CRC-checked over that
  byte range.  That is what lets a log shard cost only the columns a stage
  reads, at memory speed.  Deflated or encrypted members of earlier
  writers go through ``ZipFile.read``, as they always did.

Members keep the dtype the caller hands over: integers are stored at the
width of their range (:func:`id_dtype`: log-shard ids and hot-bag ids at
their table's, FAE batch indices at the input count's) and widened once,
by the caller, on decode.

Metrics (registry counters, one increment per decoded member):
``data.shard.members_decoded`` and ``data.shard.bytes_decoded`` (decoded
bytes at the stored width, npy header included) -- how many columns a run
paid for.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
import zipfile
import zlib
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.obs import get_registry
from repro.resilience.atomic import atomic_write, recycling_write

__all__ = ["NpzReader", "id_dtype", "write_npz"]

# Everything the directory walk, zipfile, zlib (deflated archives of
# earlier writers) and the npy parser raise on damaged bytes.
_DAMAGE = (
    KeyError, IndexError, OSError, ValueError, EOFError, NotImplementedError, RuntimeError,
    struct.error, zipfile.BadZipFile, zlib.error,
)

# The zip records, as zipfile packs them.
_LOCAL = struct.Struct("<4s2B4HL2L2H")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_END = struct.Struct("<4s4H2LH")
_ZIP64_END = struct.Struct("<4sQ2H2L4Q")
_ZIP64_LOCATOR = struct.Struct("<4sLQL")
_LOCAL_SIG, _CENTRAL_SIG, _END_SIG = b"PK\x03\x04", b"PK\x01\x02", b"PK\x05\x06"
_ZIP64_END_SIG, _ZIP64_LOCATOR_SIG = b"PK\x06\x06", b"PK\x06\x07"
# zipfile's zip64 thresholds: member count, and offsets and sizes (a member
# gets a zip64 field once 1.05 x its size passes the byte limit).
_MAX_MEMBERS = 0xFFFF
_ZIP64_LIMIT = (1 << 31) - 1
# Version 20 (needed and made by; 45 with zip64), Unix host,
# 1980-01-01 00:00, ?rw-------.
_VERSION, _ZIP64_VERSION, _UNIX, _EPOCH_DATE, _MODE = 20, 45, 3, 0x0021, 0o600 << 16
# Flag bits that make a member unreadable in place: encrypted, compressed
# patch data, strong encryption.
_FOREIGN_FLAGS = 0x0061


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


@lru_cache(maxsize=256)
def _npy_header(shape: tuple[int, ...], fortran_order: bool, dtype: np.dtype) -> bytes:
    """The npy magic + header ``np.save`` writes for such an array (1.0, else 2.0).

    Memoised like :func:`_parse_header`; the fields are
    ``header_data_from_array_1_0``'s.
    """
    fields = {
        "shape": shape, "fortran_order": fortran_order,
        "descr": np.lib.format.dtype_to_descr(dtype),
    }
    handle = io.BytesIO()
    try:
        np.lib.format.write_array_header_1_0(handle, fields)
    except ValueError:  # a header past 65 535 bytes
        handle = io.BytesIO()
        np.lib.format.write_array_header_2_0(handle, fields)
    return handle.getvalue()


def _directory(blob: bytes) -> dict[str, tuple[int, int, int]] | None:
    """``name -> (local header offset, size, CRC)`` of a plain stored archive.

    ``None`` when the archive uses what this walk leaves to ``zipfile``
    (deflate, encryption, zip64, data before the first member).  Raises
    ``ValueError`` / ``struct.error`` on damage.
    """
    # The end record is the one whose comment reaches exactly the end of the
    # image (recycled checkpoints pad through that comment).
    floor = max(0, len(blob) - _END.size - 0xFFFF)
    end = blob.rfind(_END_SIG, floor)
    while end >= 0 and end + _END.size + int.from_bytes(blob[end + 20:end + 22], "little") != (
        len(blob)
    ):
        end = blob.rfind(_END_SIG, floor, end + 3)
    if end < 0:
        raise ValueError("no zip end record")
    *_, count, cd_size, cd_offset, _comment_len = _END.unpack_from(blob, end)
    if (
        count == 0xFFFF or cd_offset + cd_size != end
        or blob[max(0, end - 20):end - 16] == _ZIP64_LOCATOR_SIG
    ):
        return None
    members: dict[str, tuple[int, int, int]] = {}
    position = cd_offset
    for _ in range(count):
        fields = _CENTRAL.unpack_from(blob, position)
        if fields[0] != _CENTRAL_SIG:
            raise ValueError(f"bad central directory entry at {position}")
        flags, method, crc, packed, size, name_len, extra_len, comment_len = (
            fields[5], fields[6], *fields[9:15]
        )
        offset = fields[18]
        if method != zipfile.ZIP_STORED or flags & _FOREIGN_FLAGS or packed != size or (
            0xFFFFFFFF in (size, offset)
        ):
            return None
        raw = blob[position + _CENTRAL.size:position + _CENTRAL.size + name_len]
        # zipfile's rule; an ASCII name reads the same either way, and faster as UTF-8.
        encoding = "utf-8" if flags & 0x800 or raw.isascii() else "cp437"
        members[raw.decode(encoding)] = (offset, size, crc)
        position += _CENTRAL.size + name_len + extra_len + comment_len
    return members


def _in_place(info: zipfile.ZipInfo) -> tuple[int, int, int] | None:
    """A ``zipfile``-parsed member's ``(offset, size, CRC)``; ``None``: ``ZipFile.read`` it."""
    if (
        info.compress_type != zipfile.ZIP_STORED or info.flag_bits & _FOREIGN_FLAGS
        or info.compress_size != info.file_size
    ):
        return None
    return info.header_offset, info.file_size, info.CRC


class NpzReader:
    """Members of one in-memory ``.npz`` image, decoded when asked for.

    Construction parses the zip directory only, which is where a truncated
    image fails: with ``struct`` for the plain stored archives
    :func:`write_npz` writes below the zip64 limits, with ``zipfile`` for
    any other.  ``reader[name]`` CRC-checks member ``name``, refuses object
    dtypes as ``allow_pickle=False`` does, and returns a read-only view of
    the image's bytes (possibly unaligned; Fortran-ordered if it was stored
    so).  A caller that writes into a member copies it first.  Deflated or
    encrypted members, which :func:`write_npz` never produces, are read
    through ``ZipFile.read``, with the same contract.

    Raises:
        RuntimeError: damaged bytes or a missing member, at either step;
            the message starts with ``where`` (say what and which file).
    """

    def __init__(self, blob: bytes, where: str) -> None:
        self._where = where
        self._blob = bytes(blob)  # no copy for bytes; views of it are read-only
        self._zip: zipfile.ZipFile | None = None
        try:
            members = _directory(self._blob)
            if members is None:
                self._zip = zipfile.ZipFile(io.BytesIO(self._blob))
                members = {info.filename: _in_place(info) for info in self._zip.infolist()}
        except _DAMAGE as exc:
            raise self._corrupt(exc) from exc
        self._members: Mapping[str, tuple[int, int, int] | None] = members

    def _corrupt(self, exc: Exception) -> RuntimeError:
        return RuntimeError(f"{self._where} is truncated or corrupt: {exc}")

    def __contains__(self, name: str) -> bool:
        return name + ".npy" in self._members

    def __iter__(self) -> Iterator[str]:
        """Member names (without ``.npy``), in archive order."""
        return (name[:-4] for name in self._members if name.endswith(".npy"))

    def _member_bytes(self, filename: str) -> tuple[bytes, int, int]:
        """``(buffer, start, end)`` of a member's CRC-checked bytes."""
        entry = self._members[filename]
        if entry is None:
            data = self._zip.read(filename)
            return data, 0, len(data)
        local, size, crc = entry
        fields = _LOCAL.unpack_from(self._blob, local)
        if fields[0] != _LOCAL_SIG:
            raise ValueError(f"{filename}: bad local header at {local}")
        start = local + _LOCAL.size + fields[10] + fields[11]
        if start + size > len(self._blob):
            raise ValueError(f"{filename}: truncated")
        if zlib.crc32(memoryview(self._blob)[start:start + size]) != crc:
            raise ValueError(f"{filename}: bad CRC-32")
        return self._blob, start, start + size

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            data, start, end = self._member_bytes(name + ".npy")
            length_bytes = 2 if data[start + 6] == 1 else 4
            offset = start + 8 + length_bytes + int.from_bytes(
                data[start + 8:start + 8 + length_bytes], "little"
            )
            shape, fortran_order, dtype = _parse_header(data[start:offset])
            flat = np.frombuffer(data, dtype=dtype, count=math.prod(shape), offset=offset)
            if flat.nbytes != end - offset:
                raise ValueError(f"{name}: payload size disagrees with header {shape} {dtype}")
        except _DAMAGE as exc:
            raise self._corrupt(exc) from exc
        registry = get_registry()
        registry.counter("data.shard.members_decoded").inc()
        registry.counter("data.shard.bytes_decoded").inc(end - start)
        return flat.reshape(shape[::-1]).T if fortran_order else flat.reshape(shape)


def _pad_comment(blob: bytes, size: int) -> bytes:
    """``blob`` grown to ``size`` by the comment of its (comment-less) last record, if it fits."""
    gap = size - len(blob)
    if gap > 0xFFFF:
        return blob
    return b"".join((blob[:-2], gap.to_bytes(2, "little"), b" " * gap))


def _zip64_field(*values: int) -> bytes:
    """The zip64 extra field carrying ``values`` (none: no field)."""
    if not values:
        return b""
    return struct.pack(f"<2H{len(values)}Q", 1, 8 * len(values), *values)


def _archive(arrays: Mapping[str, np.ndarray]) -> bytes:
    """The stored zip image ``zipfile`` writes for ``arrays`` (one ``name.npy`` each).

    zip64 as ``zipfile`` writes it: a member of 1.05 x its size past the
    limit gets the field in its local header (version 45, sizes moved into
    the field); sizes or an offset past the limit move into a field of the
    central header; and more than 65 535 members, or a central directory
    that starts past the limit or is larger than it, add the zip64 end
    record and its locator.
    """
    parts: list = []
    directory: list = []
    offset = 0
    for name, value in arrays.items():
        array = np.asanyarray(value)
        if array.dtype.hasobject or array.dtype.kind not in "biufcmMSUV":
            raise ValueError(f"{name}: {array.dtype} arrays cannot be saved without pickle")
        fortran = array.flags.f_contiguous and not array.flags.c_contiguous
        header = _npy_header(array.shape, fortran, array.dtype)
        payload = np.ascontiguousarray(array.T if fortran else array).reshape(-1).view(np.uint8)
        size = len(header) + payload.size
        crc = zlib.crc32(payload, zlib.crc32(header))
        filename, flags = f"{name}.npy", 0
        try:
            raw = filename.encode("ascii")
        except UnicodeEncodeError:
            raw, flags = filename.encode("utf-8"), 0x800
        wide = size * 1.05 > _ZIP64_LIMIT
        local_extra = _zip64_field(size, size) if wide else b""
        local_size = 0xFFFFFFFF if wide else size
        version = _ZIP64_VERSION if wide else _VERSION
        parts += (
            _LOCAL.pack(
                _LOCAL_SIG, version, 0, flags, zipfile.ZIP_STORED, 0, _EPOCH_DATE,
                crc, local_size, local_size, len(raw), len(local_extra),
            ),
            raw, local_extra, header, payload,
        )
        big, far = size > _ZIP64_LIMIT, offset > _ZIP64_LIMIT
        central_extra = _zip64_field(*((size, size) if big else ()), *((offset,) if far else ()))
        central_size = 0xFFFFFFFF if big else size
        if central_extra:
            version = _ZIP64_VERSION
        directory += (
            _CENTRAL.pack(
                _CENTRAL_SIG, version, _UNIX, version, 0, flags, zipfile.ZIP_STORED, 0,
                _EPOCH_DATE, crc, central_size, central_size, len(raw), len(central_extra),
                0, 0, 0, _MODE, 0xFFFFFFFF if far else offset,
            ),
            raw, central_extra,
        )
        offset += _LOCAL.size + len(raw) + len(local_extra) + size
    count, cd_size = len(arrays), sum(map(len, directory))
    if count > _MAX_MEMBERS or offset > _ZIP64_LIMIT or cd_size > _ZIP64_LIMIT:
        directory += (
            _ZIP64_END.pack(
                _ZIP64_END_SIG, _ZIP64_END.size - 12, _ZIP64_VERSION, _ZIP64_VERSION,
                0, 0, count, count, cd_size, offset,
            ),
            _ZIP64_LOCATOR.pack(_ZIP64_LOCATOR_SIG, 0, offset + cd_size, 1),
        )
        count, cd_size = min(count, 0xFFFF), min(cd_size, 0xFFFFFFFF)
        offset = min(offset, 0xFFFFFFFF)
    end = _END.pack(_END_SIG, 0, 0, count, count, cd_size, offset, 0)
    return b"".join((*parts, *directory, end))


def write_npz(path: str | Path, arrays: Mapping[str, np.ndarray], recycle: bool = False) -> str:
    """Atomically write ``arrays`` as the archive ``path``; returns its SHA-256.

    The archive is serialised once in memory and the digest taken from
    that buffer, so the file is written once and never read back.  Members
    are stored, not deflated (DESIGN.md §8), and carry the zip epoch as
    their timestamp: equal arrays give equal bytes.  ``recycle``
    (checkpoints) writes through ``recycling_write``, padding through the
    zip comment; the digest covers the pad.

    Raises:
        ValueError: an object dtype.
    """
    blob = _archive(arrays)
    if recycle:
        blob = recycling_write(path, blob, _pad_comment)
    else:
        with atomic_write(path) as tmp:
            tmp.write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()
