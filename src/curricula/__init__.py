"""curricula: data-ordering curricula for desk-scale seq2seq translation.

Score every training pair with a pre-trained model, freeze an ordering of
the corpus (by length, perplexity or sentence BLEU, ascending or
descending), train on that fixed ordering, and compare against per-epoch
and one-shot random shuffles.
"""

from .checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from .corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    EncodedPair,
    ParallelCorpus,
    SentencePair,
    Vocabulary,
    build_vocab,
    encode_corpus,
    encode_pair,
    filter_corpus,
    load_parallel_corpus,
    truncate_corpus,
    write_corpus,
)
from .evaluate import EvalResult, corpus_bleu, evaluate_model
from .harness import (
    CorpusSpec,
    ExperimentReport,
    ExperimentSpec,
    ReportRow,
    corrupt_targets,
    emit_report,
    generate_toy_corpus,
    pretrain_scorer,
    run_directional_sanity,
    run_experiment,
)
from .metrics import (
    PairScore,
    ScoreTable,
    pair_bleu,
    pair_cross_entropy,
    pair_perplexity,
    score_corpus,
    sentence_bleu,
)
from .ordering import (
    BatchSchedule,
    OrderingPlan,
    PlanCheck,
    Strategy,
    make_ordering,
    parse_strategy,
    schedule_batches,
    table_one_strategies,
    verify_plan,
)
from .seq2seq import (
    Batch,
    ForwardResult,
    ModelConfig,
    attention_weights,
    forward_teacher_forced,
    greedy_decode,
    init_params,
    loss_and_gradients,
    make_batch,
    parameter_count,
    parameter_shapes,
)
from .trainer import (
    AdamState,
    EpochStats,
    TrainConfig,
    adam_step,
    fit,
    train_epoch,
    validation_perplexity,
)

__version__ = "0.1.0"
