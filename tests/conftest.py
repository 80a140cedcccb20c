import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from curricula.checkpoint import ModelCheckpoint
from curricula.corpus import build_vocab, encode_corpus
from curricula.harness import generate_toy_corpus
from curricula.seq2seq import ModelConfig, init_params


@pytest.fixture(scope="session")
def toy_data():
    """A small reverse-task corpus with vocabularies and encoded splits."""
    train, val, test = generate_toy_corpus("reverse", 60, 8, (3, 6), seed=11)
    src_vocab = build_vocab(train, "source", 1)
    tgt_vocab = build_vocab(train, "target", 1)
    return {
        "train": train,
        "val": val,
        "test": test,
        "src_vocab": src_vocab,
        "tgt_vocab": tgt_vocab,
        "train_enc": encode_corpus(train, src_vocab, tgt_vocab),
        "val_enc": encode_corpus(val, src_vocab, tgt_vocab),
        "test_enc": encode_corpus(test, src_vocab, tgt_vocab),
    }


@pytest.fixture(scope="session")
def tiny_checkpoint(toy_data):
    """An untrained tiny model wrapped as a checkpoint matching toy_data."""
    config = ModelConfig(
        embed_dim=12,
        hidden_dim=12,
        encoder_layers=1,
        decoder_layers=1,
        use_attention=True,
        dropout_p=0.2,
        src_vocab_size=len(toy_data["src_vocab"]),
        tgt_vocab_size=len(toy_data["tgt_vocab"]),
    )
    params = init_params(config, seed=99)
    return ModelCheckpoint(
        config=config,
        params=params,
        src_vocab_fingerprint=toy_data["src_vocab"].fingerprint(),
        tgt_vocab_fingerprint=toy_data["tgt_vocab"].fingerprint(),
    )


def uniform_output_checkpoint(ckpt: ModelCheckpoint) -> ModelCheckpoint:
    """Copy of a checkpoint whose output layer gives a uniform distribution."""
    params = {k: v.copy() for k, v in ckpt.params.items()}
    params["out_W"][:] = 0.0
    params["out_b"][:] = 0.0
    return ModelCheckpoint(
        config=ckpt.config,
        params=params,
        src_vocab_fingerprint=ckpt.src_vocab_fingerprint,
        tgt_vocab_fingerprint=ckpt.tgt_vocab_fingerprint,
    )


def overflowing_checkpoint(ckpt: ModelCheckpoint) -> ModelCheckpoint:
    """Copy of a checkpoint with weights so large that its cross-entropy
    passes 1,024 bits per token, where 2 ** H overflows a float."""
    params = {k: 2000.0 * v for k, v in ckpt.params.items()}
    params["out_W"] *= 10.0
    return ModelCheckpoint(
        config=ckpt.config,
        params=params,
        src_vocab_fingerprint=ckpt.src_vocab_fingerprint,
        tgt_vocab_fingerprint=ckpt.tgt_vocab_fingerprint,
    )


def chain_checkpoint():
    """A hand-built model that predicts the token chain 4->5->6->7->8->EOS
    with probability exactly 1.0 at every step.

    Saturated gates (+-50 biases) make the decoder hidden state a one-hot
    copy of the input token; a 1000-scaled projection maps it to the chain
    successor, so every wrong logit underflows to probability zero.
    Returns (checkpoint, encoded pair whose target is the chain).
    """
    import numpy as np

    from curricula.corpus import EOS_ID, EncodedPair
    from curricula.seq2seq import ModelConfig, parameter_shapes

    vocab = 12
    hidden = 16
    config = ModelConfig(hidden, hidden, 1, 1, False, 0.0, vocab, vocab)
    params = {n: np.zeros(sh) for n, sh in parameter_shapes(config)}
    for k in range(vocab):
        params["tgt_embed"][k, k] = 50.0
    for j in range(hidden):
        params["dec0_Wx"][j, 3 * hidden + j] = 1.0  # candidate gate reads x
    params["dec0_b"][:hidden] = 50.0  # input gate hard open
    params["dec0_b"][hidden : 2 * hidden] = -50.0  # forget gate hard closed
    params["dec0_b"][2 * hidden : 3 * hidden] = 50.0  # output gate hard open
    chain = {1: 4, 4: 5, 5: 6, 6: 7, 7: 8, 8: EOS_ID}
    for k, nxt in chain.items():
        params["out_W"][k, nxt] = 1000.0
    ckpt = ModelCheckpoint(
        config=config,
        params=params,
        src_vocab_fingerprint="p",
        tgt_vocab_fingerprint="p",
    )
    tgt = (4, 5, 6, 7, 8)
    pair = EncodedPair(0, (4, 5, 6), (1,) + tgt, tgt + (EOS_ID,), "p", "p")
    return ckpt, pair
