"""Versioned binary model checkpoints.

File layout (all integers little-endian):

    magic "CURR" | version u16 | four length-prefixed sections
    (config JSON, vocab-fingerprint JSON, parameter tensors, history JSON)
    | trailing 32-byte content hash

The version is always `FORMAT_VERSION`: the writer packs it, and a file
with any other version is rejected before its content hash is checked,
since what the hash covers is fixed by the version.

Each parameter tensor is stored as u16 name length + name, u8 ndim,
u32 dims, then raw float64 data. Two sha256 hashes cover the file, and each
byte feeds exactly one of them, so a save or a load hashes every byte once:

- the identity fingerprint covers the config, vocab and parameter sections
  only, so editing the training history does not change which model this is;
- the trailing content hash covers the magic, the version, the four section
  lengths, the 32-byte identity digest and the history section. Through the
  identity digest it covers the whole file, and it guards against
  truncation or bit rot.

The JSON sections are canonical: sorted keys, no whitespace, as
`_json_bytes` writes them, so a file loads only if it re-serializes to its
own bytes.

A load reads the file once, front to back, and holds one copy of the
tensors: each is read straight into its own array and hashed as it passes.
Defects are reported in a fixed order: a bad magic or an unsupported
version first, then a failed content hash, then any other defect of the
structure. A section length that runs past the end of the file is reported
as truncation, as the sections the content hash covers cannot be found.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from .corpus import write_file
from .errors import CheckpointCorruptError, CheckpointFormatError, ConfigError
from .seq2seq import ModelConfig, parameter_shapes

MAGIC = b"CURR"
FORMAT_VERSION = 2
# the config, vocab and parameter sections, which the fingerprint covers
_IDENTITY_SECTIONS = 3


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
            for _ in _file_chunks(self):  # sets the fingerprint as it passes
                pass
        return self._fingerprint


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


def _file_chunks(ckpt: ModelCheckpoint):
    """Every buffer of the file, in order, its trailing hash last. Each byte
    feeds one hash, and once the identity sections have passed, their digest
    becomes the checkpoint's fingerprint."""
    head = MAGIC + struct.pack("<H", FORMAT_VERSION)
    content, identity = hashlib.sha256(head), hashlib.sha256()
    yield head
    for n, section in enumerate(_sections(ckpt)):
        length = struct.pack("<Q", sum(len(chunk) for chunk in section))
        content.update(length)
        yield length
        if n == _IDENTITY_SECTIONS:  # the history
            content.update(identity.digest())
            ckpt._fingerprint = identity.hexdigest()
        for chunk in section:
            (identity if n < _IDENTITY_SECTIONS else content).update(chunk)
            yield chunk
    yield content.digest()


def checkpoint_bytes(ckpt: ModelCheckpoint) -> bytes:
    return b"".join(_file_chunks(ckpt))


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    """Write atomically through `corpus.write_file`, hashing and writing the
    buffers one by one, so the tensors are never copied into one payload.
    The save sets the checkpoint's fingerprint."""
    write_file(path, _file_chunks(ckpt))


# Tensors and skipped bytes are read this many at a time, so each piece is
# hashed while it is still in cache.
_CHUNK = 1 << 20


class _Reader:
    """Reads a checkpoint's payload front to back from an open file.

    Each byte read feeds one hash: the bytes of the config, vocab and
    parameter sections feed the identity hash, all others the content hash,
    which takes the identity digest after the history's length. No read goes
    past the end of the current section, so a length from the file is
    checked against the bytes the file holds before anything is read or
    allocated for it.
    """

    def __init__(self, fh, path, size: int):
        self.fh, self.path = fh, path
        self.pos = 0
        self.end = self.size = size  # end of the section, end of the payload
        self.sections = 0  # sections started
        self.identity = hashlib.sha256()
        self.content = self.hash = hashlib.sha256()  # `hash`: fed what is read

    @property
    def left(self) -> int:
        return self.end - self.pos

    def _need(self, n: int) -> None:
        if n > self.left:
            raise CheckpointCorruptError(f"checkpoint {self.path} is truncated")

    def _passed(self, buf, n: int) -> None:
        self.hash.update(buf)
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

    def section(self) -> int:
        """Start the next section: read its length, bound reads by it and
        return it."""
        self.end, self.hash = self.size, self.content
        (n,) = self.unpack("<Q")
        self._need(n)
        self.end = self.pos + n
        self.sections += 1
        if self.sections > _IDENTITY_SECTIONS:  # the history
            self.content.update(self.identity.digest())
        else:
            self.hash = self.identity
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

    def skip(self) -> None:
        """Hash what is left of the current section without keeping it."""
        while self.left:
            self.take(min(_CHUNK, self.left))

    def verify(self) -> None:
        """Hash what is left of the payload, finding the sections not yet
        started by their lengths, then check the trailing hash."""
        self.skip()
        while self.sections <= _IDENTITY_SECTIONS:
            self.section()
            self.skip()
        self.end, self.hash = self.size, self.content
        self.skip()  # bytes after the history, which no writer leaves
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
    tensors. A bad magic or version is reported first, then a failed content
    hash, then any other defect."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size - 32
        if size < len(MAGIC) + 2:
            raise CheckpointCorruptError(f"checkpoint {path} is truncated")
        r = _Reader(fh, path, size)
        if r.take(len(MAGIC)) != MAGIC:
            raise CheckpointFormatError(f"{path} is not a checkpoint (bad magic)")
        (version,) = r.unpack("<H")
        if version != FORMAT_VERSION:
            raise CheckpointFormatError(
                f"unsupported checkpoint version {version}; supported: {FORMAT_VERSION}"
            )
        try:
            ckpt = _read_payload(r, path)
        except (CheckpointFormatError, CheckpointCorruptError):
            r.verify()  # a damaged file is reported as damaged
            raise
        r.verify()
    ckpt._fingerprint = r.identity.hexdigest()
    return ckpt


def _read_payload(r: _Reader, path) -> ModelCheckpoint:
    """The payload after the magic and version, up to the trailing hash."""
    config = _parse(
        path, "config", r.take(r.section()),
        lambda d: ModelConfig(**json.loads(d)), asdict,
    )
    src_fp, tgt_fp = _parse(
        path, "vocab", r.take(r.section()),
        lambda d: itemgetter("src", "tgt")(json.loads(d)),
        lambda fps: {"src": fps[0], "tgt": fps[1]},
    )
    r.section()
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
    history_b = r.take(r.section())
    history = _parse(path, "history", history_b, lambda d: tuple(json.loads(d)), list)
    if r.pos != r.size:
        raise CheckpointCorruptError(f"checkpoint {path} has trailing bytes")
    return ModelCheckpoint(config, params, src_fp, tgt_fp, history)
