"""Single-file binary checkpoints.

Layout (all integers little-endian):

    magic  b"DIVC"
    u32    format version (currently 1)
    32B    SHA-256 digest of the resolved config text
    u64    training step
    u32    number of blocks
    block* each:
        u16  name length, then UTF-8 name
        u8   dtype tag: 0 = float64, 1 = int64, 2 = raw bytes
        u8   ndim, then ndim x u64 dims (absent for raw bytes)
        u64  payload byte length
        ...  payload (f64/i64 stored little-endian)
        u32  CRC-32 of the payload

Numeric payloads round-trip bit-exactly on any platform. Saves go
through ``runio.replace_file``, a temp file and an atomic rename.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError
from .runio import replace_file

MAGIC = b"DIVC"
FORMAT_VERSION = 1

_DTYPE_F64 = 0
_DTYPE_I64 = 1
_DTYPE_BYTES = 2


@dataclass
class CheckpointState:
    step: int
    config_digest: bytes
    arrays: dict = field(default_factory=dict)  # name -> np.ndarray (f64/i64)
    meta: dict = field(default_factory=dict)    # name -> str


def _block(name: str, payload, dtype: int, shape=()) -> tuple:
    """A block's chunks: its header, ``payload`` (a byte sequence) and CRC."""
    encoded = name.encode("utf-8")
    head = struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", dtype)
    if dtype != _DTYPE_BYTES:
        head += struct.pack(f"<B{len(shape)}Q", len(shape), *shape)
    head += struct.pack("<Q", len(payload))
    return head, payload, struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def save_checkpoint(path, state: CheckpointState) -> None:
    digest = state.config_digest
    if len(digest) != 32:
        raise CheckpointError("config digest must be 32 bytes")
    n_blocks = len(state.arrays) + len(state.meta)
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION), digest,
              struct.pack("<QI", state.step, n_blocks)]
    for name, arr in state.arrays.items():
        arr = np.asarray(arr)
        if arr.dtype == np.float64:
            tag, wire = _DTYPE_F64, "<f8"
        elif arr.dtype == np.int64:
            tag, wire = _DTYPE_I64, "<i8"
        else:
            raise CheckpointError(
                f"block '{name}': unsupported dtype {arr.dtype} (use f64/i64)")
        # a view of the array's own bytes wherever it is already C-ordered
        # little-endian, so the file is written without a copy of it
        payload = np.ascontiguousarray(arr, wire).reshape(-1).view(np.uint8)
        chunks += _block(name, payload, tag, arr.shape)
    for name, text in state.meta.items():
        chunks += _block("meta/" + name, text.encode("utf-8"), _DTYPE_BYTES)

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    replace_file(path, chunks)


_U8, _U16, _U32, _U64 = (struct.Struct(f) for f in ("<B", "<H", "<I", "<Q"))


class _Reader:
    """Reads a checkpoint's bytes in order, through views of one buffer."""

    def __init__(self, data: bytes, path):
        self.data = memoryview(data)
        self.pos = 0
        self.path = path

    def read(self, n: int, what: str, block: str | None = None) -> memoryview:
        if self.pos + n > len(self.data):
            if block is not None:
                what = f"{what} of block '{block}'"
            raise CheckpointError(f"{self.path}: truncated while reading {what}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: struct.Struct, what: str, block: str | None = None):
        return fmt.unpack(self.read(fmt.size, what, block))[0]

    def text(self, raw: memoryview, what: str) -> str:
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8 (corrupt data)") from e


def load_checkpoint(path) -> CheckpointState:
    """Read a checkpoint. Its arrays are read-only views of the file's bytes,
    so a caller that keeps or changes one copies it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint '{path}': {e}") from e
    r = _Reader(data, path)
    if r.read(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = r.unpack(_U32, "version")
    if version > FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} is newer than this build "
            f"({FORMAT_VERSION})")
    digest = bytes(r.read(32, "config digest"))
    step = r.unpack(_U64, "step")
    n_blocks = r.unpack(_U32, "block count")
    state = CheckpointState(step=step, config_digest=digest)
    for _ in range(n_blocks):
        name_len = r.unpack(_U16, "block name length")
        name = r.text(r.read(name_len, "block name"), "block name")
        tag = r.unpack(_U8, "dtype", name)
        if tag not in (_DTYPE_F64, _DTYPE_I64, _DTYPE_BYTES):
            raise CheckpointError(f"{path}: block '{name}' has unknown dtype tag {tag}")
        shape = None
        if tag != _DTYPE_BYTES:
            ndim = r.unpack(_U8, "ndim", name)
            shape = struct.unpack(f"<{ndim}Q", r.read(8 * ndim, "shape", name))
        nbytes = r.unpack(_U64, "length", name)
        payload = r.read(nbytes, "payload", name)
        crc = r.unpack(_U32, "checksum", name)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CheckpointError(
                f"{path}: block '{name}' failed its checksum (corrupt data)")
        if tag == _DTYPE_BYTES:
            state.meta[name.removeprefix("meta/")] = r.text(payload, f"block '{name}'")
            continue
        expected = 8 * math.prod(shape)
        if len(payload) != expected:
            raise CheckpointError(
                f"{path}: block '{name}' length {len(payload)} != expected {expected}")
        wire, native = (("<f8", np.float64) if tag == _DTYPE_F64
                        else ("<i8", np.int64))
        arr = np.frombuffer(payload, dtype=wire).reshape(shape)
        state.arrays[name] = arr.astype(native, copy=False)
    if len(state.arrays) + len(state.meta) != n_blocks:  # a later block replaced one
        raise CheckpointError(f"{path}: a block name appears more than once")
    if r.pos != len(data):
        raise CheckpointError(f"{path}: {len(data) - r.pos} trailing bytes")
    return state
