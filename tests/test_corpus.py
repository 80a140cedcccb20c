import pytest

from curricula.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    ParallelCorpus,
    SentencePair,
    Vocabulary,
    build_vocab,
    encode_pair,
    filter_corpus,
    load_parallel_corpus,
    truncate_corpus,
    write_corpus,
)
from curricula.errors import (
    AlignmentError,
    ConfigError,
    DataError,
    EmptyCorpusError,
)


def corpus_of(*pairs):
    return ParallelCorpus(
        tuple(SentencePair(i, tuple(s.split()), tuple(t.split())) for i, (s, t) in enumerate(pairs))
    )


def test_load_mismatched_line_counts(tmp_path):
    (tmp_path / "a.txt").write_text("a b\nc d\n")
    (tmp_path / "b.txt").write_text("x y\n")
    with pytest.raises(AlignmentError) as err:
        load_parallel_corpus(tmp_path / "a.txt", tmp_path / "b.txt")
    assert "2" in str(err.value) and "1" in str(err.value)


def test_load_whitespace_tokenization(tmp_path):
    (tmp_path / "a.txt").write_text("hello world .\n")
    (tmp_path / "b.txt").write_text("xin chào .\n")
    corpus = load_parallel_corpus(tmp_path / "a.txt", tmp_path / "b.txt")
    assert len(corpus) == 1
    assert corpus[0].src_tokens == ("hello", "world", ".")
    assert corpus[0].tgt_tokens == ("xin", "chào", ".")


def test_load_assigns_line_indices(tmp_path):
    text = "one\ntwo\nthree\n"
    (tmp_path / "a.txt").write_text(text)
    (tmp_path / "b.txt").write_text(text)
    corpus = load_parallel_corpus(tmp_path / "a.txt", tmp_path / "b.txt")
    assert corpus.indices() == (0, 1, 2)


def test_load_rejects_reserved_tokens(tmp_path):
    (tmp_path / "a.txt").write_text("hello <pad>\n")
    (tmp_path / "b.txt").write_text("x y\n")
    with pytest.raises(DataError):
        load_parallel_corpus(tmp_path / "a.txt", tmp_path / "b.txt")


def test_write_then_load_round_trip(tmp_path, toy_data):
    write_corpus(toy_data["train"], tmp_path / "s.txt", tmp_path / "t.txt")
    again = load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt")
    assert [p.src_tokens for p in again] == [p.src_tokens for p in toy_data["train"]]
    assert [p.tgt_tokens for p in again] == [p.tgt_tokens for p in toy_data["train"]]


def test_filter_drops_out_of_bounds_source():
    long_src = " ".join(["w"] * 61)
    corpus = corpus_of((long_src, "a b c d e"), ("a b c d e", "a b c d e"))
    kept = filter_corpus(corpus, 5, 60)
    assert kept.indices() == (1,)


def test_filter_bounds_are_inclusive():
    corpus = corpus_of(("a b c d e", "v w x y z"))
    kept = filter_corpus(corpus, 5, 60)
    assert len(kept) == 1


def test_filter_applies_bounds_to_both_sides():
    corpus = corpus_of(("a b c d e", "x"), ("a b c d e", "v w x y z"))
    kept = filter_corpus(corpus, 5, 60)
    assert kept.indices() == (1,)


def test_filter_deduplicates_first_occurrence_wins():
    pairs = [("a b c d e", "x y z w v")] * 2
    corpus = ParallelCorpus(
        tuple(
            SentencePair(i, tuple(s.split()), tuple(t.split()))
            for i, (s, t) in zip((3, 7), pairs)
        )
    )
    kept = filter_corpus(corpus, 1, 60)
    assert kept.indices() == (3,)


def test_filter_is_idempotent_and_preserves_order(toy_data):
    once = filter_corpus(toy_data["train"], 3, 6)
    twice = filter_corpus(once, 3, 6)
    assert once.indices() == twice.indices()
    # output is a subsequence of the input
    inp = list(toy_data["train"].indices())
    positions = [inp.index(i) for i in once.indices()]
    assert positions == sorted(positions)


def test_filter_empty_result_raises():
    corpus = corpus_of(("a", "b"))
    with pytest.raises(EmptyCorpusError):
        filter_corpus(corpus, 2, 60)


def test_filter_validates_bounds():
    corpus = corpus_of(("a b", "c d"))
    with pytest.raises(ConfigError):
        filter_corpus(corpus, 0, 60)
    with pytest.raises(ConfigError):
        filter_corpus(corpus, 5, 4)


def test_truncate_keeps_lowest_indices():
    corpus = corpus_of(("a", "b"), ("c", "d"), ("e", "f"))
    assert truncate_corpus(corpus, 2).indices() == (0, 1)
    assert truncate_corpus(corpus, 5).indices() == (0, 1, 2)


def test_build_vocab_frequency_order():
    corpus = corpus_of(("a a a b", "x"))
    vocab = build_vocab(corpus, "source", 1)
    assert vocab.token_id("a") == 4
    assert vocab.token_id("b") == 5


def test_build_vocab_min_count_cutoff():
    corpus = corpus_of(("a a a b", "x"))
    vocab = build_vocab(corpus, "source", 2)
    assert "b" not in vocab
    assert vocab.encode(["b"]) == (UNK_ID,)


def test_build_vocab_lexicographic_ties():
    corpus = corpus_of(("b a b a", "x"))
    vocab = build_vocab(corpus, "source", 1)
    assert vocab.token_id("a") == 4
    assert vocab.token_id("b") == 5


def test_build_vocab_deterministic(toy_data):
    v1 = build_vocab(toy_data["train"], "source", 1)
    v2 = build_vocab(toy_data["train"], "source", 1)
    assert v1.id_to_token == v2.id_to_token
    assert v1.fingerprint() == v2.fingerprint()


def test_vocab_special_ids_fixed(toy_data):
    vocab = toy_data["src_vocab"]
    assert vocab.encode(["<pad>", "<bos>", "<eos>", "<unk>"]) == (
        PAD_ID,
        BOS_ID,
        EOS_ID,
        UNK_ID,
    )
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)


def test_vocab_file_round_trip(tmp_path, toy_data):
    vocab = toy_data["src_vocab"]
    vocab.save(tmp_path / "v.vocab")
    text = (tmp_path / "v.vocab").read_text()
    assert text.startswith("CURRICULA-VOCAB v1\n")
    assert text.splitlines()[1] == "<pad>\t0\t0"
    loaded = Vocabulary.load(tmp_path / "v.vocab")
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.frequencies == vocab.frequencies
    assert loaded.fingerprint() == vocab.fingerprint()


@pytest.mark.parametrize("min_count", [1, 2, 3])
def test_saved_vocab_loads_equal(tmp_path, toy_data, min_count):
    vocab = build_vocab(toy_data["train"], "source", min_count)
    vocab.save(tmp_path / "v.vocab")
    assert Vocabulary.load(tmp_path / "v.vocab") == vocab


def test_vocab_rejects_bad_header():
    with pytest.raises(DataError):
        Vocabulary.from_text("NOT-A-VOCAB v9\n")


def test_encode_pair_framing():
    corpus = corpus_of(("x y", "x y"))
    vocab = build_vocab(corpus, "source", 1)
    pair = encode_pair(corpus[0], vocab, vocab)
    x, y = vocab.token_id("x"), vocab.token_id("y")
    assert pair.tgt_in_ids == (BOS_ID, x, y)
    assert pair.tgt_out_ids == (x, y, EOS_ID)
    assert len(pair.tgt_in_ids) == len(pair.tgt_out_ids)


def test_encode_pair_unknown_goes_to_unk():
    corpus = corpus_of(("x y", "x y"))
    vocab = build_vocab(corpus, "source", 1)
    stranger = SentencePair(0, ("z",), ("x",))
    pair = encode_pair(stranger, vocab, vocab)
    assert pair.src_ids == (UNK_ID,)


def test_encode_pair_empty_target():
    corpus = corpus_of(("x y", "x y"))
    vocab = build_vocab(corpus, "source", 1)
    degenerate = SentencePair(0, ("x",), ())
    pair = encode_pair(degenerate, vocab, vocab)
    assert pair.tgt_in_ids == (BOS_ID,)
    assert pair.tgt_out_ids == (EOS_ID,)


def test_encode_decode_identity_on_known_tokens(toy_data):
    vocab = toy_data["src_vocab"]
    for pair in toy_data["train"].pairs[:10]:
        assert vocab.decode(vocab.encode(pair.src_tokens)) == pair.src_tokens
