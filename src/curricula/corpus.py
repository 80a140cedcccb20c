"""Parallel corpus loading, filtering, vocabulary building and id encoding.

A corpus is an ordered sequence of sentence pairs. Each pair keeps the line
number it had in the raw files as a permanent identity (`index`), so filtered
corpora, score tables and ordering plans can all refer to the same pairs.
All operations here are pure functions over immutable inputs.

One reader and one writer serve every file: `read_text`, and `write_file`,
which writes atomically. Every text artifact but the corpus line files, where
a blank line is a pair, is parsed through `TextLines`; vocabularies, score
tables and plans share `save` and `load` through `TextFile`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    AlignmentError,
    ConfigError,
    CurriculaError,
    DataError,
    EmptyCorpusError,
)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

SPECIAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

VOCAB_HEADER = "CURRICULA-VOCAB v1"


def read_text(path, error: type[Exception] = DataError) -> str:
    """The text of a UTF-8 file; other bytes raise `error` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def write_file(path, data) -> None:
    """Write `data`, a str as UTF-8 or bytes-like buffers in order, into a
    new temp file beside `path`, made with the umask's mode, and rename it
    over `path`. On any failure the temp file goes and `path` stays as it was."""
    tmp = Path(f"{path}.{os.getpid()}.{threading.get_ident()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines([data.encode("utf-8")] if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class TextLines:
    """The lines of a text artifact for its parser. A failure raises `error`,
    the format's class, as `<source>:<n>: <name> line <n>: <detail>`; the
    `<source>:<n>: ` part only when the text came from a file."""

    def __init__(self, text: str, name: str, source=None, error=DataError):
        self.lines = text.splitlines()
        self.name, self.source, self.error = name, source, error

    def fail(self, number: int | None, detail: str) -> CurriculaError:
        """The error at line `number`, or in the whole text when it is None."""
        if number is not None:
            detail = f"{self.name} line {number}: {detail}"
        if self.source is not None:
            place = self.source if number is None else f"{self.source}:{number}"
            detail = f"{place}: {detail}"
        return self.error(detail)

    @contextmanager
    def at(self, number: int | None, detail: str | None = None):
        """Raise a conversion or check that fails inside the block as this
        text's error at line `number`, with `detail` or the cause's message."""
        try:
            yield
        except (ValueError, OverflowError, CurriculaError) as exc:
            raise self.fail(number, detail or str(exc)) from exc

    def header(self, magic: str, *fields: str) -> list[str]:
        """The space-separated fields after the two words of `magic` on line
        1, one per name."""
        first = self.lines[0].strip() if self.lines else ""
        head = first.split(" ")
        if " ".join(head[:2]) != magic or len(head) != 2 + len(fields):
            form = " ".join([magic, *(f"<{f}>" for f in fields)])
            raise self.fail(1, f"bad {self.name} header {first!r}; expected {form!r}")
        return head[2:]

    def numbered(self, start: int = 2):
        """(number, line) for each non-blank line from line `start` on."""
        for number, line in enumerate(self.lines[start - 1 :], start):
            if line:
                yield number, line


class TextFile:
    """A value kept as a UTF-8 text file: `to_text` writes it and
    `from_text(text, source)` reads it back."""

    def save(self, path) -> None:
        write_file(path, self.to_text())

    @classmethod
    def load(cls, path):
        return cls.from_text(read_text(path), path)

    def fingerprint(self) -> str:
        """The sha256 of the text."""
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SentencePair:
    """One aligned sentence pair; `index` is its position in the raw corpus."""

    index: int
    src_tokens: tuple[str, ...]
    tgt_tokens: tuple[str, ...]


@dataclass(frozen=True)
class ParallelCorpus:
    pairs: tuple[SentencePair, ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i: int) -> SentencePair:
        return self.pairs[i]

    def indices(self) -> tuple[int, ...]:
        return tuple(p.index for p in self.pairs)

    def content_hash(self) -> str:
        """Order-independent identity of the pair multiset (sorted by index)."""
        h = hashlib.sha256()
        for p in sorted(self.pairs, key=lambda q: q.index):
            line = f"{p.index}\t{' '.join(p.src_tokens)}\t{' '.join(p.tgt_tokens)}\n"
            h.update(line.encode("utf-8"))
        return h.hexdigest()


@dataclass
class Vocabulary(TextFile):
    """Token <-> id maps with fixed special ids PAD=0, BOS=1, EOS=2, UNK=3."""

    id_to_token: tuple[str, ...]
    frequencies: tuple[int, ...]
    _token_to_id: dict = field(init=False, repr=False, compare=False)
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if tuple(self.id_to_token[:4]) != SPECIAL_TOKENS:
            raise DataError("vocabulary must start with the four special tokens")
        if len(self.id_to_token) != len(self.frequencies):
            raise DataError("vocabulary token/frequency length mismatch")
        self._token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self._token_to_id) != len(self.id_to_token):
            raise DataError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token_id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def encode(self, tokens) -> tuple[int, ...]:
        return tuple(self._token_to_id.get(t, UNK_ID) for t in tokens)

    def decode(self, ids) -> tuple[str, ...]:
        return tuple(self.id_to_token[i] for i in ids)

    def to_text(self) -> str:
        lines = [VOCAB_HEADER]
        for i, (tok, freq) in enumerate(zip(self.id_to_token, self.frequencies)):
            lines.append(f"{tok}\t{i}\t{freq}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, source=None) -> "Vocabulary":
        lines = TextLines(text, "vocabulary", source)
        lines.header(VOCAB_HEADER)
        tokens, freqs = [], []
        for number, line in lines.numbered():
            with lines.at(number, "expected '<token>\\t<id>\\t<count>' with integer "
                          f"id and count, got {line!r}"):
                tok, ident, freq = line.split("\t")
                ident, freq = int(ident), int(freq)
            if ident != len(tokens):
                raise lines.fail(number, f"non-contiguous id {ident}")
            tokens.append(tok)
            freqs.append(freq)
        with lines.at(None):
            return cls(tuple(tokens), tuple(freqs))

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = super().fingerprint()
        return self._fingerprint


@dataclass(frozen=True)
class EncodedPair:
    """Id-encoded pair: target framed as BOS+tokens in, tokens+EOS out.

    The fingerprints of the vocabularies used for encoding travel with the
    pair so scoring can refuse a model trained on different vocabularies.
    """

    index: int
    src_ids: tuple[int, ...]
    tgt_in_ids: tuple[int, ...]
    tgt_out_ids: tuple[int, ...]
    src_vocab_fingerprint: str
    tgt_vocab_fingerprint: str


def _tokenize_line(line: str) -> tuple[str, ...]:
    return tuple(line.split())


def _read_lines(path) -> list[str]:
    """One line per pair: each ends in a newline (the last one may lack it),
    so an empty file is zero pairs and a file of one newline one empty pair."""
    text = read_text(path)
    return text.removesuffix("\n").split("\n") if text else []


def load_parallel_corpus(src_path, tgt_path) -> ParallelCorpus:
    """Read two line-aligned text files into a whitespace-tokenized corpus."""
    src_lines = _read_lines(src_path)
    tgt_lines = _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise AlignmentError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    pairs = []
    for i, (s, t) in enumerate(zip(src_lines, tgt_lines)):
        src_tokens = _tokenize_line(s)
        tgt_tokens = _tokenize_line(t)
        for tok in src_tokens + tgt_tokens:
            if tok in SPECIAL_TOKENS:
                raise DataError(f"reserved token {tok!r} appears in line {i + 1}")
        pairs.append(SentencePair(i, src_tokens, tgt_tokens))
    return ParallelCorpus(tuple(pairs))


def write_corpus(corpus: ParallelCorpus, src_path, tgt_path) -> None:
    """Write a corpus back out as two line-aligned text files, every line
    ending in a newline, so that `load_parallel_corpus` reads it back."""
    write_file(src_path, "".join(" ".join(p.src_tokens) + "\n" for p in corpus.pairs))
    write_file(tgt_path, "".join(" ".join(p.tgt_tokens) + "\n" for p in corpus.pairs))


def at_least_one(name: str, value: int) -> None:
    """Refuse a count below one, naming it."""
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


def check_lengths(min_len: int, max_len: int, names=("min_len", "max_len")) -> None:
    """`filter_corpus`'s bounds, named as the caller calls them."""
    at_least_one(names[0], min_len)
    if max_len < min_len:
        raise ConfigError(f"{names[1]} {max_len} < {names[0]} {min_len}")


def filter_corpus(
    corpus: ParallelCorpus, min_len: int, max_len: int
) -> ParallelCorpus:
    """Keep pairs whose sides both have min_len..max_len tokens (inclusive),
    dropping exact duplicate pairs after the first occurrence.

    Original indices are preserved, so the result is a subsequence of the
    input and the operation is idempotent.
    """
    check_lengths(min_len, max_len)
    seen: set[tuple] = set()
    kept = []
    for p in corpus.pairs:
        if not (min_len <= len(p.src_tokens) <= max_len):
            continue
        if not (min_len <= len(p.tgt_tokens) <= max_len):
            continue
        key = (p.src_tokens, p.tgt_tokens)
        if key in seen:
            continue
        seen.add(key)
        kept.append(p)
    if not kept:
        raise EmptyCorpusError(
            f"no pairs left after filtering to lengths [{min_len}, {max_len}]"
        )
    return ParallelCorpus(tuple(kept))


def truncate_corpus(corpus: ParallelCorpus, k: int) -> ParallelCorpus:
    """Keep the k pairs with the lowest indices (the first k, order intact)."""
    at_least_one("k", k)
    if k >= len(corpus):
        return corpus
    return ParallelCorpus(corpus.pairs[:k])


def build_vocab(corpus: ParallelCorpus, side: str, min_count: int) -> Vocabulary:
    """Count tokens on one side and assign ids by descending frequency.

    Ties break lexicographically; tokens below min_count are left out and
    encode to UNK. Deterministic: the same corpus always yields the same map.
    """
    if side not in ("source", "target"):
        raise ConfigError(f"side must be 'source' or 'target', got {side!r}")
    at_least_one("min_count", min_count)
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot build a vocabulary from an empty corpus")
    counts: Counter = Counter()
    for p in corpus.pairs:
        counts.update(p.src_tokens if side == "source" else p.tgt_tokens)
    eligible = sorted(
        ((tok, n) for tok, n in counts.items() if n >= min_count),
        key=lambda kv: (-kv[1], kv[0]),
    )
    tokens = list(SPECIAL_TOKENS) + [tok for tok, _ in eligible]
    freqs = [0, 0, 0, 0] + [n for _, n in eligible]
    return Vocabulary(tuple(tokens), tuple(freqs))


def encode_pair(
    pair: SentencePair, src_vocab: Vocabulary, tgt_vocab: Vocabulary
) -> EncodedPair:
    """Map a pair to ids; unknown tokens become UNK, target gets BOS/EOS framing."""
    src_ids = src_vocab.encode(pair.src_tokens)
    tgt_ids = tgt_vocab.encode(pair.tgt_tokens)
    return EncodedPair(
        index=pair.index,
        src_ids=src_ids,
        tgt_in_ids=(BOS_ID,) + tgt_ids,
        tgt_out_ids=tgt_ids + (EOS_ID,),
        src_vocab_fingerprint=src_vocab.fingerprint(),
        tgt_vocab_fingerprint=tgt_vocab.fingerprint(),
    )


def encode_corpus(
    corpus: ParallelCorpus, src_vocab: Vocabulary, tgt_vocab: Vocabulary
) -> tuple[EncodedPair, ...]:
    return tuple(encode_pair(p, src_vocab, tgt_vocab) for p in corpus.pairs)
