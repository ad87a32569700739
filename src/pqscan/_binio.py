"""Little-endian binary helpers shared by the persistence formats."""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Callable

import numpy as np


class FormatError(ValueError):
    """Malformed file content. Carries the byte offset of the violation."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def write_magic(f: BinaryIO, magic: bytes) -> None:
    assert len(magic) == 4
    f.write(magic)


def save(path, write: Callable[..., None], *args) -> None:
    """write(buffer, *args) into memory, then the buffer to path, so a write
    that raises leaves no new file and an existing one as it was."""
    buf = io.BytesIO()
    write(buf, *args)
    with open(path, "wb") as f:
        f.write(buf.getbuffer())


def expect_magic(f: BinaryIO, magic: bytes) -> None:
    off = f.tell()
    got = f.read(4)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}", offset=off)


def write_i32(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<i", value))


def read_i32(f: BinaryIO) -> int:
    off = f.tell()
    raw = f.read(4)
    if len(raw) != 4:
        raise FormatError("truncated int32 field", offset=off)
    return struct.unpack("<i", raw)[0]


_INT32 = np.iinfo(np.int32)


def index_array(values) -> np.ndarray:
    """values as a contiguous int32 array when every value fits, else int64.

    Every in-memory id and row-index array is stored this way; the file
    formats keep <i8 for them, as write_array casts on the way out.
    """
    arr = np.asarray(values)
    if arr.dtype != np.int32:
        arr = arr.astype(np.int64, copy=False)
        if arr.size == 0 or (arr.min() >= _INT32.min and arr.max() <= _INT32.max):
            arr = arr.astype(np.int32)
    return np.ascontiguousarray(arr)


def write_array(f: BinaryIO, arr: np.ndarray, dtype: str) -> None:
    """Write arr row-major as little-endian dtype, no header."""
    f.write(np.ascontiguousarray(arr, dtype=np.dtype(dtype)).tobytes())


def require_bytes(f: BinaryIO, nbytes: int, what: str) -> None:
    """Raise FormatError unless nbytes >= 0 and the rest of a seekable file
    holds them, so a bad header fails before any buffer is allocated."""
    off = f.tell()
    left = None
    if f.seekable():
        left = f.seek(0, io.SEEK_END) - off
        f.seek(off)
    if nbytes < 0 or (left is not None and nbytes > left):
        raise FormatError(f"truncated {what}, wanted {nbytes} bytes", offset=off)


def expect_eof(f: BinaryIO, what: str) -> None:
    """Raise FormatError if any byte follows the content just read."""
    if f.read(1):
        raise FormatError(f"bytes after the {what}", offset=f.tell() - 1)


def read_array(f: BinaryIO, dtype: str | np.dtype, count: int) -> np.ndarray:
    dt = np.dtype(dtype)
    off = f.tell()
    want = dt.itemsize * count
    require_bytes(f, want, f"array of {count} items of {dt}")
    raw = f.read(want)
    if len(raw) != want:
        raise FormatError(
            f"truncated array, wanted {count} items of {dt}", offset=off
        )
    return np.frombuffer(raw, dtype=dt).copy()
