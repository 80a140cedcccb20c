"""Checkpoint files that are damaged or crafted.

Property: a checkpoint with one section altered, and whose section length
and trailing hash were then fixed up to match, is either rejected with a
typed error or loads to exactly the bytes it was read from. The other tests
pin which error a damaged file raises, the fingerprints and file bytes of
two fixed checkpoints, and how many bytes a save or a load hashes."""

import hashlib
import json
import struct
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from checkpoint_files import checkpoint_file, split_sections
from curricula import checkpoint
from curricula.checkpoint import (
    ModelCheckpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from curricula.errors import CheckpointCorruptError, CheckpointFormatError
from curricula.seq2seq import ModelConfig, init_params

CONFIG, PARAMS = 0, 2  # indices of two of the four sections


def tiny_checkpoint() -> ModelCheckpoint:
    config = ModelConfig(2, 2, 1, 1, True, 0.0, 5, 5)
    return ModelCheckpoint(config, init_params(config, seed=3), "a", "b", ({"epoch": 1},))


def small_checkpoint() -> ModelCheckpoint:
    config = ModelConfig.preset("small", 40, 30)
    return ModelCheckpoint(config, init_params(config, seed=0), "src", "tgt")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(path of a saved tiny checkpoint, its four sections)."""
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(tiny_checkpoint(), path)
    data = path.read_bytes()
    assert checkpoint_file(split_sections(data)) == data
    return path, split_sections(data)


@st.composite
def mutated(draw, section):
    """The section with one byte flipped, cut short, with bytes appended, or
    with one JSON-significant byte inserted."""
    kind = draw(st.sampled_from(["flip", "truncate", "append", "insert"]))
    if kind == "flip" and section:
        out = bytearray(section)
        out[draw(st.integers(0, len(section) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate" and section:
        return section[: draw(st.integers(0, len(section) - 1))]
    if kind == "insert":
        at = draw(st.integers(0, len(section)))
        byte = draw(st.sampled_from([b" ", b"\n", b"0", b",", b'"']))
        return section[:at] + byte + section[at:]
    return section + draw(st.binary(min_size=1, max_size=32))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(data=st.data())
def test_altered_section_is_rejected_or_round_trips(saved, data):
    path, sections = saved
    index = data.draw(st.sampled_from(range(4)), label="section")
    altered = list(sections)
    altered[index] = data.draw(mutated(sections[index]))
    raw = checkpoint_file(altered)
    target = path.with_name("altered.ckpt")
    target.write_bytes(raw)
    try:
        ckpt = load_checkpoint(target)
    except (CheckpointFormatError, CheckpointCorruptError):
        return
    assert checkpoint_bytes(ckpt) == raw


def test_flipped_config_byte_fails_the_content_hash(saved, tmp_path):
    path, sections = saved
    data = bytearray(path.read_bytes())
    data[6 + 8 + sections[CONFIG].index(b"embed_dim")] ^= 0x20  # 'e' -> 'E'
    (tmp_path / "m.ckpt").write_bytes(bytes(data))
    with pytest.raises(CheckpointCorruptError, match="content hash"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_flipped_tensor_header_byte_fails_the_content_hash(saved, tmp_path):
    path, sections = saved
    data = bytearray(path.read_bytes())
    params_at = 6 + sum(8 + len(s) for s in sections[:PARAMS]) + 8
    data[params_at + 4 + 2 + 9] = 200  # the first tensor's ndim: 2 -> 200
    (tmp_path / "m.ckpt").write_bytes(bytes(data))
    with pytest.raises(CheckpointCorruptError, match="content hash"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_every_flipped_byte_is_rejected(saved, tmp_path):
    """Bytes reach the content hash either directly or through the identity
    digest; either way, a flip anywhere after the magic and version fails."""
    path, sections = saved
    data = path.read_bytes()
    target = tmp_path / "m.ckpt"
    for at in range(6, len(data)):
        flipped = bytearray(data)
        flipped[at] ^= 0x01
        target.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointCorruptError, match="content hash|truncated"):
            load_checkpoint(target)


def test_tensor_larger_than_the_file_is_corrupt_not_allocated(saved, tmp_path):
    _, sections = saved
    # the header fits the config, but its data would take 160 GB
    config = asdict(ModelConfig(2**32 - 1, 2, 1, 1, True, 0.0, 5, 5))
    header = struct.pack("<IH9sB2I", 15, 9, b"src_embed", 2, 5, 2**32 - 1)
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    raw = checkpoint_file([canonical, sections[1], header + bytes(64), sections[3]])
    (tmp_path / "m.ckpt").write_bytes(raw)
    with pytest.raises(CheckpointCorruptError, match="truncated"):
        load_checkpoint(tmp_path / "m.ckpt")


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("length", [10**6, 2**63, 2**64 - 1])
def test_section_length_beyond_the_file_is_corrupt(saved, tmp_path, index, length):
    _, sections = saved
    lengths = [len(s) for s in sections]
    lengths[index] = length
    (tmp_path / "m.ckpt").write_bytes(checkpoint_file(sections, lengths))
    with pytest.raises(CheckpointCorruptError, match="truncated"):
        load_checkpoint(tmp_path / "m.ckpt")


# init_params draws from Philox and never touches the BLAS, so these do not
# depend on the machine. The fingerprints predate format version 2, which
# kept them; the file digests move with any change of the format.
PINNED = [
    pytest.param(
        tiny_checkpoint,
        "daa08aacdd56ef131db0741a855dc7bd9f85b834ac700d139b721dfd6371a50d",
        "0b19ed590bd3c660859faf073d16041c52014fc61f4ec1eaeaaa04774ad32ee5",
        id="tiny",
    ),
    pytest.param(
        small_checkpoint,
        "69d78b07d3685c86baeadb4735bf75871dc360a1bc74720bf10d2b0d69ea272b",
        "81e735321309f98faa312d4ad1975342f705f0a3a2cf6ea6331757cefd2966e8",
        id="small",
    ),
]


@pytest.mark.parametrize("make, fingerprint, file_digest", PINNED)
def test_fingerprints_are_pinned(tmp_path, make, fingerprint, file_digest):
    assert make().fingerprint == fingerprint
    save_checkpoint(make(), tmp_path / "m.ckpt")
    assert load_checkpoint(tmp_path / "m.ckpt").fingerprint == fingerprint


@pytest.mark.parametrize("make, fingerprint, file_digest", PINNED)
def test_file_bytes_are_pinned(tmp_path, make, fingerprint, file_digest):
    ckpt = make()
    save_checkpoint(ckpt, tmp_path / "m.ckpt")
    data = (tmp_path / "m.ckpt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == file_digest
    assert checkpoint_bytes(ckpt) == data
    assert checkpoint_file(split_sections(data)) == data


def count_hashed_bytes(monkeypatch) -> list[int]:
    """From now on, add every byte fed to a sha256 to the returned counter."""
    fed = [0]
    real = hashlib.sha256

    class Counting:
        def __init__(self, data=b""):
            self._h = real()
            self.update(data)

        def update(self, data):
            fed[0] += memoryview(data).nbytes
            self._h.update(data)

        def digest(self):
            return self._h.digest()

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(checkpoint.hashlib, "sha256", Counting)
    return fed


@pytest.mark.parametrize("make", [tiny_checkpoint, small_checkpoint])
def test_save_and_load_hash_each_byte_once(tmp_path, monkeypatch, make):
    ckpt, path = make(), tmp_path / "m.ckpt"
    fed = count_hashed_bytes(monkeypatch)
    save_checkpoint(ckpt, path)
    assert ckpt.fingerprint
    size = path.stat().st_size
    assert fed[0] <= size + 64
    fed[0] = 0
    assert load_checkpoint(path).fingerprint == ckpt.fingerprint
    assert fed[0] <= size + 64


def test_save_replaces_a_stale_fingerprint(tmp_path):
    ckpt = tiny_checkpoint()
    stale = ckpt.fingerprint
    ckpt.params["out_b"] += 1.0
    assert ckpt.fingerprint == stale  # cached
    save_checkpoint(ckpt, tmp_path / "m.ckpt")
    assert ckpt.fingerprint != stale
    assert ckpt.fingerprint == load_checkpoint(tmp_path / "m.ckpt").fingerprint
