"""Checkpoint files built from raw sections by the format's own rule, for
crafting files the library would not write.

The trailing hash is the sha256 of the magic, the version, the four section
lengths, the sha256 of the config, vocab and parameter sections, and the
history section. It is computed here without the library's writer, so the
two check each other.
"""

import hashlib
import struct

FORMAT_VERSION = 2


def split_sections(data: bytes) -> list[bytes]:
    """The four sections of a checkpoint file, without their lengths."""
    pos, sections = 6, []  # after the magic and version
    for _ in range(4):
        (size,) = struct.unpack_from("<Q", data, pos)
        sections.append(data[pos + 8 : pos + 8 + size])
        pos += 8 + size
    return sections


def checkpoint_file(sections, lengths=None, version=FORMAT_VERSION) -> bytes:
    """A checkpoint file from its four sections, with a valid trailing hash.
    `lengths`, if given, are written and hashed in place of the true ones."""
    lengths = lengths or [len(s) for s in sections]
    head = b"CURR" + struct.pack("<H", version)
    identity = hashlib.sha256(b"".join(sections[:3])).digest()
    content = hashlib.sha256(head + struct.pack("<4Q", *lengths) + identity + sections[3])
    body = b"".join(struct.pack("<Q", n) + s for n, s in zip(lengths, sections))
    return head + body + content.digest()
