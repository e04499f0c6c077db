"""Bit-exact binary checkpoints.

Layout (all integers little-endian):

    magic   8 bytes  b"APIQCKPT"
    version u32      currently 1
    count   u32      number of tensors
    directory, one record per tensor, in file order:
        name_len u32, name utf-8 bytes
        dtype    u8   0 = f32, 1 = f64, 2 = packed-codes
        aux      u8   bit width (2, 3, 4 or 8) for packed-codes, else 0
        rank     u32
        dims     rank x u64
        offset   u64  absolute file offset of the data
        length   u64  data length in bytes
    data section: each tensor starts at a 64-byte-aligned offset, padded
    with zeros; f32/f64 are raw little-endian arrays in row-major order,
    packed-codes are the LSB-first bitstream of `quant.pack`.

Saving the result of a load reproduces the original file byte-for-byte.
`write_tensors` writes a path directly; `save_tensors` is atomic: the
bytes go to "<path>.tmp", which then replaces <path>.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, InputError
from .quant import BITS, PackedCodes

MAGIC = b"APIQCKPT"
VERSION = 1
_ALIGN = 64

Entry = tuple[str, "np.ndarray | PackedCodes"]


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _entry_meta(obj) -> tuple[int, int, tuple[int, ...], bytes]:
    """(dtype code, aux, dims, payload bytes) for one tensor."""
    if isinstance(obj, PackedCodes):
        return 2, obj.bits, obj.shape, obj.data
    arr = np.asarray(obj)
    if arr.dtype == np.float32:
        return 0, 0, arr.shape, np.ascontiguousarray(arr, dtype="<f4").tobytes()
    if arr.dtype == np.float64:
        return 1, 0, arr.shape, np.ascontiguousarray(arr, dtype="<f8").tobytes()
    raise ValueError(f"unsupported tensor dtype {arr.dtype}")


def temp_path(path) -> str:
    """The name `atomic_write` writes `path` under before renaming it."""
    return f"{os.fspath(path)}.tmp"


@contextmanager
def atomic_write(paths):
    """Create the `temp_path` of each of `paths`, failing if one exists,
    yield them to be written, and rename each over its path once the block
    ends. If anything raises, the temp files this call created are
    removed: a failed write leaves the old files (or none), never a
    half-written one, nor a new one beside an old one, and never touches
    a file it did not create."""
    created = []
    try:
        for path in paths:
            tmp = temp_path(path)
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            created.append(tmp)
        yield created
        for tmp, path in zip(created, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in created:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def write_tensors(path, entries: list[Entry]) -> None:
    """Write `entries` to `path` itself, such as a temp file `atomic_write`
    yields."""
    metas = []
    dir_size = len(MAGIC) + 4 + 4
    for name, obj in entries:
        code, aux, dims, payload = _entry_meta(obj)
        nbytes = name.encode("utf-8")
        dir_size += 4 + len(nbytes) + 1 + 1 + 4 + 8 * len(dims) + 8 + 8
        metas.append((nbytes, code, aux, dims, payload))

    offsets = []
    cursor = _align(dir_size)
    for _, _, _, _, payload in metas:
        offsets.append(cursor)
        cursor = _align(cursor + len(payload))

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(entries)))
        for (nbytes, code, aux, dims, payload), off in zip(metas, offsets):
            fh.write(struct.pack("<I", len(nbytes)))
            fh.write(nbytes)
            fh.write(struct.pack("<BBI", code, aux, len(dims)))
            for d in dims:
                fh.write(struct.pack("<Q", d))
            fh.write(struct.pack("<QQ", off, len(payload)))
        pos = fh.tell()
        for (_, _, _, _, payload), off in zip(metas, offsets):
            fh.write(b"\x00" * (off - pos))
            fh.write(payload)
            pos = off + len(payload)


def save_tensors(path, entries: list[Entry]) -> None:
    """`write_tensors` through `atomic_write`: a failed save leaves the old
    file, or none."""
    with atomic_write([path]) as (tmp,):
        write_tensors(tmp, entries)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"truncated while reading {what}", offset=self.pos)
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def load_tensors(path) -> list[Entry]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from exc
    r = _Reader(blob)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise FormatError("bad magic", offset=0)
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=len(MAGIC))
    count = r.u32("tensor count")

    entries: list[Entry] = []
    for _ in range(count):
        name_len = r.u32("name length")
        try:
            name = r.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not UTF-8", offset=r.pos - name_len) from None
        code, aux = struct.unpack("<BB", r.take(2, "dtype"))
        rank = r.u32("rank")
        dims = tuple(r.u64("dim") for _ in range(rank))
        offset = r.u64("offset")
        length = r.u64("length")
        if offset + length > len(blob):
            raise FormatError(f"tensor {name!r} data out of bounds", offset=offset)
        payload = blob[offset:offset + length]
        if code in (0, 1):
            dtype = np.dtype("<f4" if code == 0 else "<f8")
            entries.append((name, _shaped(payload, dtype, dims, name, offset)))
        elif code == 2:
            if len(dims) != 2:
                raise FormatError(f"packed tensor {name!r} must be rank 2", offset=offset)
            codes = PackedCodes(data=payload, shape=dims, bits=aux)
            if aux not in BITS or length != dims[0] * codes.row_bytes:
                raise FormatError(f"packed tensor {name!r} is not {dims} codes of a bit "
                                  f"width in {BITS}", offset=offset)
            entries.append((name, codes))
        else:
            raise FormatError(f"unknown dtype code {code} for {name!r}", offset=offset)
    return entries


def _shaped(payload: bytes, dtype: np.dtype, dims: tuple, name: str,
            offset: int) -> np.ndarray:
    if len(payload) != math.prod(dims) * dtype.itemsize:
        raise FormatError(f"tensor {name!r} length {len(payload)} bytes != shape "
                          f"{dims} of {dtype.name}", offset=offset)
    try:
        return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    except ValueError:  # an extent numpy cannot hold, even of an empty array
        raise FormatError(f"tensor {name!r} shape {dims} is too large",
                          offset=offset) from None
