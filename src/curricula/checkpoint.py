"""Versioned binary model checkpoints.

File layout (all integers little-endian):

    magic "CURR" | version u16 | four length-prefixed sections
    (config JSON, vocab-fingerprint JSON, parameter tensors, history JSON)
    | trailing 32-byte sha256 of everything before it

The version is always `FORMAT_VERSION`: the writer packs it, and a file
with any other version is rejected.

Each parameter tensor is stored as u16 name length + name, u8 ndim,
u32 dims, then raw float64 data. The checkpoint's identity fingerprint is
the sha256 of the config+vocab+parameter sections only, so editing the
training history does not change which model this is; the trailing hash
covers the whole file and guards against truncation or bit rot. The JSON
sections are canonical: sorted keys, no whitespace, as `_json_bytes` writes
them, so a file loads only if it re-serializes to its own bytes.

A load reads the file once, front to back, and holds one copy of the
tensors: each is read straight into its own array and hashed as it passes.
Defects are reported in a fixed order: a bad magic first, then a failed
content hash, then any other defect of the structure.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    yield struct.pack("<H", FORMAT_VERSION)
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


# Tensors and skipped bytes are read this many at a time, so each piece is
# hashed while it is still in cache.
_CHUNK = 1 << 20


class _Reader:
    """Reads a checkpoint's payload front to back from an open file.

    Every byte read feeds the content hash, and the bytes of the config,
    vocab and parameter sections feed the identity hash too. No read goes
    past the end of the current section, so a length from the file is
    checked against the bytes the file holds before anything is read or
    allocated for it.
    """

    def __init__(self, fh, path, size: int):
        self.fh, self.path = fh, path
        self.pos = 0
        self.end = self.size = size  # end of the section, end of the payload
        self.content = hashlib.sha256()
        self.identity = hashlib.sha256()
        self.hashes = (self.content,)

    @property
    def left(self) -> int:
        return self.end - self.pos

    def _need(self, n: int) -> None:
        if n > self.left:
            raise CheckpointCorruptError(f"checkpoint {self.path} is truncated")

    def _passed(self, buf, n: int) -> None:
        for h in self.hashes:
            h.update(buf)
        self.pos += len(buf)
        if len(buf) != n:  # the file is shorter than it was when opened
            raise CheckpointCorruptError(f"checkpoint {self.path} is truncated")

    def take(self, n: int) -> bytes:
        self._need(n)
        data = self.fh.read(n)
        self._passed(data, n)
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def section(self, identity: bool) -> int:
        """Start the next section: read its length, bound reads by it and
        return it."""
        self.end, self.hashes = self.size, (self.content,)
        (n,) = self.unpack("<Q")
        self._need(n)
        self.end = self.pos + n
        if identity:
            self.hashes = (self.content, self.identity)
        return n

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        """A new float64 array of `shape` read straight from the file; it is
        allocated only once its bytes are known to be in the section."""
        self._need(8 * math.prod(shape))
        arr = np.empty(shape, dtype="<f8")
        view = arr.reshape(-1).view(np.uint8)
        for start in range(0, len(view), _CHUNK):
            part = view[start : start + _CHUNK]
            n = self.fh.readinto(part)
            self._passed(part[:n], len(part))
        return arr

    def verify(self) -> None:
        """Hash what is left of the payload, then check the trailing hash."""
        self.hashes = (self.content,)
        while self.pos < self.size:
            chunk = self.fh.read(min(_CHUNK, self.size - self.pos))
            if not chunk:
                break
            self._passed(chunk, len(chunk))
        if self.fh.read(32) != self.content.digest():
            raise CheckpointCorruptError(
                f"checkpoint {self.path} fails its content hash"
            )


def _parse(path, section: str, raw: bytes, decode, encode=None):
    """decode(bytes of a section), any failure a CheckpointFormatError naming
    the section with the original exception as its cause. With `encode`, the
    bytes must also be `_json_bytes(encode(value))`, the only encoding
    `save_checkpoint` writes."""
    try:
        value = decode(raw)
    except (ValueError, TypeError, KeyError, ConfigError) as exc:
        raise CheckpointFormatError(
            f"checkpoint {path} has a malformed {section} section: {exc!r}"
        ) from exc
    if encode is not None and _json_bytes(encode(value)) != raw:
        raise CheckpointFormatError(
            f"checkpoint {path} has a malformed {section} section: "
            "its JSON is not in canonical form"
        )
    return value


def load_checkpoint(path) -> ModelCheckpoint:
    """Read a checkpoint file once, front to back, holding one copy of its
    tensors. A bad magic is reported first, then a failed content hash, then
    any other defect."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size - 32
        if size < len(MAGIC) + 2:
            raise CheckpointCorruptError(f"checkpoint {path} is truncated")
        r = _Reader(fh, path, size)
        if r.take(len(MAGIC)) != MAGIC:
            raise CheckpointFormatError(f"{path} is not a checkpoint (bad magic)")
        try:
            ckpt = _read_payload(r, path)
        except (CheckpointFormatError, CheckpointCorruptError):
            r.verify()  # a damaged file is reported as damaged
            raise
        r.verify()
    ckpt._fingerprint = r.identity.hexdigest()
    return ckpt


def _read_payload(r: _Reader, path) -> ModelCheckpoint:
    """The payload after the magic, up to the trailing hash."""
    (version,) = r.unpack("<H")
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint version {version}; supported: {FORMAT_VERSION}"
        )
    config = _parse(
        path, "config", r.take(r.section(identity=True)),
        lambda d: ModelConfig(**json.loads(d)), asdict,
    )
    src_fp, tgt_fp = _parse(
        path, "vocab", r.take(r.section(identity=True)),
        lambda d: itemgetter("src", "tgt")(json.loads(d)),
        lambda fps: {"src": fps[0], "tgt": fps[1]},
    )
    r.section(identity=True)
    expected = parameter_shapes(config)
    (count,) = r.unpack("<I")
    params: dict[str, np.ndarray] = {}
    # each header must be the config's before its data is read, so no bogus
    # shape ever reaches numpy
    for k in range(max(count, len(expected))):
        got = []
        if k < count:
            (n,) = r.unpack("<H")
            name = _parse(path, "parameter", r.take(n), lambda d: str(d, "utf-8"))
            (ndim,) = r.unpack("<B")
            got = [(name, r.unpack(f"<{ndim}I"))]
        wanted = expected[k : k + 1]
        if got != wanted:
            raise CheckpointFormatError(
                f"checkpoint {path} does not fit its config: tensor {k} is "
                f"{got[0] if got else 'missing'}, the config wants "
                f"{wanted[0] if wanted else 'none'}"
            )
        name, shape = got[0]
        params[name] = r.array(shape)
    if r.left:
        raise CheckpointFormatError(
            f"checkpoint {path} has a malformed parameter section: "
            f"{r.left} bytes after its last tensor"
        )
    history_b = r.take(r.section(identity=False))
    history = _parse(path, "history", history_b, lambda d: tuple(json.loads(d)), list)
    if r.pos != r.size:
        raise CheckpointCorruptError(f"checkpoint {path} has trailing bytes")
    return ModelCheckpoint(config, params, src_fp, tgt_fp, history)
