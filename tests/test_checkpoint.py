"""Checkpoint files that are damaged or crafted.

Property: a checkpoint with one section altered, and whose section length
and trailing hash were then fixed up to match, is either rejected with a
typed error or loads to exactly the bytes it was read from. The other tests
pin which error a damaged file raises."""

import hashlib
import json
import struct
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from curricula.checkpoint import (
    ModelCheckpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from curricula.errors import CheckpointCorruptError, CheckpointFormatError
from curricula.seq2seq import ModelConfig, init_params

CONFIG, PARAMS = 0, 2  # indices of two of the four sections


def split_sections(data: bytes) -> list[bytes]:
    """The four sections of a checkpoint file, without their lengths."""
    pos, sections = 6, []  # after the magic and version
    for _ in range(4):
        (size,) = struct.unpack_from("<Q", data, pos)
        sections.append(data[pos + 8 : pos + 8 + size])
        pos += 8 + size
    return sections


def assemble(sections, lengths=None) -> bytes:
    """A checkpoint file from its sections, with a valid trailing hash."""
    lengths = lengths or [len(s) for s in sections]
    payload = b"CURR" + struct.pack("<H", 1) + b"".join(
        struct.pack("<Q", n) + s for n, s in zip(lengths, sections)
    )
    return payload + hashlib.sha256(payload).digest()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(path of a saved tiny checkpoint, its four sections)."""
    config = ModelConfig(2, 2, 1, 1, True, 0.0, 5, 5)
    params = init_params(config, seed=3)
    ckpt = ModelCheckpoint(config, params, "a", "b", ({"epoch": 1},))
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(ckpt, path)
    data = path.read_bytes()
    assert assemble(split_sections(data)) == data
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
    raw = assemble(altered)
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


def test_tensor_larger_than_the_file_is_corrupt_not_allocated(saved, tmp_path):
    _, sections = saved
    # the header fits the config, but its data would take 160 GB
    config = asdict(ModelConfig(2**32 - 1, 2, 1, 1, True, 0.0, 5, 5))
    header = struct.pack("<IH9sB2I", 15, 9, b"src_embed", 2, 5, 2**32 - 1)
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    raw = assemble([canonical, sections[1], header + bytes(64), sections[3]])
    (tmp_path / "m.ckpt").write_bytes(raw)
    with pytest.raises(CheckpointCorruptError, match="truncated"):
        load_checkpoint(tmp_path / "m.ckpt")


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("length", [10**6, 2**63, 2**64 - 1])
def test_section_length_beyond_the_file_is_corrupt(saved, tmp_path, index, length):
    _, sections = saved
    lengths = [len(s) for s in sections]
    lengths[index] = length
    (tmp_path / "m.ckpt").write_bytes(assemble(sections, lengths))
    with pytest.raises(CheckpointCorruptError, match="truncated"):
        load_checkpoint(tmp_path / "m.ckpt")
