"""Parallel corpus loading, filtering, vocabulary building and id encoding.

A corpus is an ordered sequence of sentence pairs. Each pair keeps the line
number it had in the raw files as a permanent identity (`index`), so filtered
corpora, score tables and ordering plans can all refer to the same pairs.
All operations here are pure functions over immutable inputs.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    AlignmentError,
    ConfigError,
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
class Vocabulary:
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
    def from_text(cls, text: str) -> "Vocabulary":
        lines = text.splitlines()
        if not lines or lines[0] != VOCAB_HEADER:
            raise DataError(f"bad vocabulary header; expected {VOCAB_HEADER!r}")
        tokens, freqs = [], []
        for number, ln in enumerate(lines[1:], start=2):
            if not ln:
                continue
            try:
                tok, ident, freq = ln.split("\t")
                ident, freq = int(ident), int(freq)
            except ValueError as exc:
                raise DataError(
                    f"vocabulary line {number}: expected '<token>\\t<id>\\t<count>' "
                    f"with integer id and count, got {ln!r}"
                ) from exc
            if ident != len(tokens):
                raise DataError(f"vocabulary line {number}: non-contiguous id {ident}")
            tokens.append(tok)
            freqs.append(freq)
        return cls(tuple(tokens), tuple(freqs))

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls.from_text(read_text(path))

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            digest = hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()
            self._fingerprint = digest
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


def read_text(path, error: type[Exception] = DataError) -> str:
    """The text of a UTF-8 file; other bytes raise `error` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def _read_lines(path) -> list[str]:
    text = read_text(path)
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n") if text else []


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
    """Write a corpus back out as two line-aligned text files."""
    src_text = "\n".join(" ".join(p.src_tokens) for p in corpus.pairs)
    tgt_text = "\n".join(" ".join(p.tgt_tokens) for p in corpus.pairs)
    Path(src_path).write_text(src_text + "\n" if src_text else "", encoding="utf-8")
    Path(tgt_path).write_text(tgt_text + "\n" if tgt_text else "", encoding="utf-8")


def filter_corpus(
    corpus: ParallelCorpus, min_len: int, max_len: int
) -> ParallelCorpus:
    """Keep pairs whose sides both have min_len..max_len tokens (inclusive),
    dropping exact duplicate pairs after the first occurrence.

    Original indices are preserved, so the result is a subsequence of the
    input and the operation is idempotent.
    """
    if min_len < 1:
        raise ConfigError(f"min_len must be >= 1, got {min_len}")
    if max_len < min_len:
        raise ConfigError(f"max_len {max_len} < min_len {min_len}")
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
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
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
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
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
