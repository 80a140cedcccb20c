"""Property: a checkpoint whose parameter section was altered, and whose
section length and trailing hash were then fixed up to match, is either
rejected with a typed error or loads to exactly the bytes it was read from."""

import hashlib
import struct

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

PARAMS = 2  # index of the parameter section among the four


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(path of a saved tiny checkpoint, its bytes before the parameter
    section's length, the parameter section, the bytes after it up to the
    trailing hash)."""
    config = ModelConfig(2, 2, 1, 1, True, 0.0, 5, 5)
    params = init_params(config, seed=3)
    ckpt = ModelCheckpoint(config, params, "a", "b", ({"epoch": 1},))
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(ckpt, path)
    data = path.read_bytes()
    pos = 6  # magic and version
    for _ in range(PARAMS):
        pos += 8 + struct.unpack_from("<Q", data, pos)[0]
    size = struct.unpack_from("<Q", data, pos)[0]
    section = data[pos + 8 : pos + 8 + size]
    return path, data[:pos], section, data[pos + 8 + size : -32]


@st.composite
def mutated(draw, section):
    """The section with one byte flipped, cut short, or with bytes appended."""
    kind = draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "flip":
        out = bytearray(section)
        out[draw(st.integers(0, len(section) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate":
        return section[: draw(st.integers(0, len(section) - 1))]
    return section + draw(st.binary(min_size=1, max_size=32))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_altered_parameter_section_is_rejected_or_round_trips(saved, data):
    path, head, section, tail = saved
    params = data.draw(mutated(section))
    payload = head + struct.pack("<Q", len(params)) + params + tail
    raw = payload + hashlib.sha256(payload).digest()
    target = path.with_name("altered.ckpt")
    target.write_bytes(raw)
    try:
        ckpt = load_checkpoint(target)
    except (CheckpointFormatError, CheckpointCorruptError):
        return
    assert checkpoint_bytes(ckpt) == raw
