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
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import CheckpointCorruptError, CheckpointFormatError, ConfigError
from .seq2seq import ModelConfig, parameter_shapes

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
            identity = _sections(self)[:3]  # config, vocab, parameters
            self._fingerprint = _identity(c for section in identity for c in section)
        return self._fingerprint


def _identity(chunks) -> str:
    # hashed buffer by buffer: joining them would copy every tensor again
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _params_chunks(params: dict[str, np.ndarray]) -> list:
    """The parameter section as buffers: a small header per tensor, then its
    data, a view when the tensor already is contiguous little-endian float64."""
    chunks = [struct.pack("<I", len(params))]
    for name in params:  # insertion order is the canonical order
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        name_b = name.encode("utf-8")
        header = f"<H{len(name_b)}sB{arr.ndim}I"  # name length, name, ndim, dims
        chunks.append(struct.pack(header, len(name_b), name_b, arr.ndim, *arr.shape))
        chunks.append(memoryview(arr).cast("B"))
    return chunks


def _sections(ckpt: ModelCheckpoint) -> tuple[list, list, list, list]:
    """The four file sections (config, vocab, parameters, history), each a
    list of buffers."""
    vocab = {"src": ckpt.src_vocab_fingerprint, "tgt": ckpt.tgt_vocab_fingerprint}
    return (
        [_json_bytes(asdict(ckpt.config))],
        [_json_bytes(vocab)],
        _params_chunks(ckpt.params),
        [_json_bytes(list(ckpt.history))],
    )


def _payload_chunks(ckpt: ModelCheckpoint):
    """Every buffer of the file before its trailing hash, in order."""
    yield MAGIC
    yield struct.pack("<H", ckpt.version)
    for section in _sections(ckpt):
        yield struct.pack("<Q", sum(len(chunk) for chunk in section))
        yield from section


def checkpoint_bytes(ckpt: ModelCheckpoint) -> bytes:
    payload = b"".join(_payload_chunks(ckpt))
    return payload + hashlib.sha256(payload).digest()


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    """Write atomically: temp file in the same directory, then rename.

    The buffers are hashed and written one by one, so the tensors are
    never copied into one payload.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            digest = hashlib.sha256()
            for chunk in _payload_chunks(ckpt):
                digest.update(chunk)
                fh.write(chunk)
            fh.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    """Reads a memoryview front to back; every slice it returns is a view."""

    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
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


def _parse(path, section: str, raw: memoryview, decode):
    """decode(bytes of a section), any failure a CheckpointFormatError naming
    the section with the original exception as its cause."""
    try:
        return decode(bytes(raw))
    except (ValueError, TypeError, KeyError, ConfigError) as exc:
        raise CheckpointFormatError(
            f"checkpoint {path} has a malformed {section} section: {exc!r}"
        ) from exc


def load_checkpoint(path) -> ModelCheckpoint:
    data = memoryview(Path(path).read_bytes())
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

    config = _parse(path, "config", config_b, lambda d: ModelConfig(**json.loads(d)))
    src_fp, tgt_fp = _parse(
        path, "vocab", vocab_b, lambda d: itemgetter("src", "tgt")(json.loads(d))
    )
    history = _parse(path, "history", history_b, lambda d: tuple(json.loads(d)))
    pr = _Reader(params_b)
    count = pr.u32()
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = _parse(path, "parameter", pr.take(pr.u16()), lambda d: str(d, "utf-8"))
        ndim = pr.u8()
        shape = tuple(pr.u32() for _ in range(ndim))
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(pr.take(n * 8), dtype="<f8").reshape(shape).copy()
        params[name] = arr
    expected = parameter_shapes(config)
    found = [(name, arr.shape) for name, arr in params.items()]
    for k in range(max(len(found), len(expected))):
        got, wanted = found[k : k + 1], expected[k : k + 1]
        if got != wanted:
            raise CheckpointFormatError(
                f"checkpoint {path} does not fit its config: tensor {k} is "
                f"{got[0] if got else 'missing'}, the config wants "
                f"{wanted[0] if wanted else 'none'}"
            )
    ckpt = ModelCheckpoint(
        config=config,
        params=params,
        src_vocab_fingerprint=src_fp,
        tgt_vocab_fingerprint=tgt_fp,
        history=history,
        version=version,
    )
    # the sections the content hash just verified are the fingerprint's input
    ckpt._fingerprint = _identity((config_b, vocab_b, params_b))
    return ckpt
