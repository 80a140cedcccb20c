"""Versioned binary model checkpoints.

File layout (all integers little-endian):

    magic "CURR" | version u16 | four length-prefixed sections
    (config JSON, vocab-fingerprint JSON, parameter tensors, history JSON)
    | trailing 32-byte sha256 of everything before it

Each parameter tensor is stored as u16 name length + name, u8 ndim,
u32 dims, then raw float64 data. The checkpoint's identity fingerprint is
the sha256 of the config+vocab+parameter sections only, so editing the
training history does not change which model this is; the trailing hash
covers the whole file and guards against truncation or bit rot.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointCorruptError, CheckpointFormatError
from .seq2seq import ModelConfig

MAGIC = b"CURR"
FORMAT_VERSION = 1


@dataclass
class ModelCheckpoint:
    """All seq2seq parameters plus the context needed to reuse them safely."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    src_vocab_fingerprint: str
    tgt_vocab_fingerprint: str
    history: tuple[dict, ...] = ()
    version: int = FORMAT_VERSION
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = _identity(*_sections(self)[:3])
        return self._fingerprint


def _identity(config_b: bytes, vocab_b: bytes, params_b: bytes) -> str:
    # hashed section by section: joining them would copy every tensor again
    h = hashlib.sha256(config_b)
    h.update(vocab_b)
    h.update(params_b)
    return h.hexdigest()


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _params_bytes(params: dict[str, np.ndarray]) -> bytes:
    chunks = [struct.pack("<I", len(params))]
    for name in params:  # insertion order is the canonical order
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            chunks.append(struct.pack("<I", d))
        chunks.append(arr.astype("<f8").tobytes())
    return b"".join(chunks)


def _sections(ckpt: ModelCheckpoint) -> tuple[bytes, bytes, bytes, bytes]:
    config_b = _json_bytes(asdict(ckpt.config))
    vocab_b = _json_bytes(
        {"src": ckpt.src_vocab_fingerprint, "tgt": ckpt.tgt_vocab_fingerprint}
    )
    params_b = _params_bytes(ckpt.params)
    history_b = _json_bytes(list(ckpt.history))
    return config_b, vocab_b, params_b, history_b


def checkpoint_bytes(ckpt: ModelCheckpoint) -> bytes:
    body = [MAGIC, struct.pack("<H", ckpt.version)]
    for section in _sections(ckpt):
        body.append(struct.pack("<Q", len(section)))
        body.append(section)
    payload = b"".join(body)
    return payload + hashlib.sha256(payload).digest()


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    """Write atomically: temp file in the same directory, then rename."""
    path = Path(path)
    data = checkpoint_bytes(ckpt)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointCorruptError("checkpoint is truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]


def load_checkpoint(path) -> ModelCheckpoint:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 2 + 32:
        raise CheckpointCorruptError(f"checkpoint {path} is truncated")
    payload, digest = data[:-32], data[-32:]
    if payload[: len(MAGIC)] != MAGIC:
        raise CheckpointFormatError(f"{path} is not a checkpoint (bad magic)")
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointCorruptError(f"checkpoint {path} fails its content hash")
    r = _Reader(payload)
    r.take(len(MAGIC))
    version = r.u16()
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint version {version}; supported: {FORMAT_VERSION}"
        )
    config_b = r.take(r.u64())
    vocab_b = r.take(r.u64())
    params_b = r.take(r.u64())
    history_b = r.take(r.u64())
    if r.pos != len(payload):
        raise CheckpointCorruptError(f"checkpoint {path} has trailing bytes")

    config = ModelConfig(**json.loads(config_b))
    vocab = json.loads(vocab_b)
    pr = _Reader(params_b)
    count = pr.u32()
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = pr.take(pr.u16()).decode("utf-8")
        ndim = pr.u8()
        shape = tuple(pr.u32() for _ in range(ndim))
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(pr.take(n * 8), dtype="<f8").reshape(shape).copy()
        params[name] = arr
    history = tuple(json.loads(history_b))
    ckpt = ModelCheckpoint(
        config=config,
        params=params,
        src_vocab_fingerprint=vocab["src"],
        tgt_vocab_fingerprint=vocab["tgt"],
        history=history,
        version=version,
    )
    # the sections the content hash just verified are the fingerprint's input
    ckpt._fingerprint = _identity(config_b, vocab_b, params_b)
    return ckpt
