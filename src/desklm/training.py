"""Masking, optimization schedule, and one training loop for MLM with an
optional auxiliary objective.

Building a `TrainingRun` checks every rule of a run before any work, and
only its `train()` takes a step. `train_mlm` and `train_multi_objective`
build one, and so does `desklm train` once its inputs are read and its
tokenizer built, before it writes anything.

All randomness is drawn from per-purpose generators seeded as
default_rng([seed, purpose]): 1 = example shuffling, 2 = MLM masking,
3 = MLM-pass dropout, 4 = auxiliary batch order, 5 = auxiliary dropout.
Both objectives run through the same loop, and the auxiliary pass only
adds draws from its own streams, so a zero-weight multi-objective run
consumes exactly the same MLM randomness as a plain MLM run and exports
the same encoder; the tests compare the checkpoints byte for byte.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import re
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import autograd as ag
from . import model as mdl
from .autograd import Tensor
from .corpus import (Document, GrammarExample, WiktionaryEntry, corpus_digest,
                     load_grammar_examples, parse_wiktionary_csv, read_records, reading)
from .model import ModelConfig, ParameterSet
from .subwords import (SubwordModel, pack_examples, PAD_ID, CLS_ID, SEP_ID,
                       MASK_ID, NUM_SPECIALS)

log = logging.getLogger(__name__)

IGNORE_INDEX = ag.IGNORE_INDEX

# rng stream ids (second word of the generator seed)
_STREAM_SHUFFLE = 1
_STREAM_MASK = 2
_STREAM_DROPOUT = 3
_STREAM_AUX_ORDER = 4
_STREAM_AUX_DROPOUT = 5


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 2e-4
    weight_decay: float = 0.01
    warmup_steps: int = 4000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 50
    context_size: int = 64
    seed: int = 0
    aux_weight: float = 1.0

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "eps", "aux_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be non-negative")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise ValueError("betas must lie in (0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        if self.context_size < 2:
            raise ValueError("context_size must be >= 2")
        if self.aux_weight < 0:
            raise ValueError("aux_weight must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class MaskingConfig:
    mask_prob: float = 0.15
    mask_frac: float = 0.8
    random_frac: float = 0.1
    keep_frac: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ValueError("mask_prob must lie in [0, 1]")
        fractions = (self.mask_frac, self.random_frac, self.keep_frac)
        if not all(math.isfinite(f) for f in fractions):
            raise ValueError(f"fractions must be finite, got {fractions}")
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mask/random/keep fractions must sum to 1, got {total}")
        if min(fractions) < 0:
            raise ValueError("fractions must be non-negative")


def apply_mlm_masking(example: np.ndarray, mcfg: MaskingConfig,
                      rng: np.random.Generator,
                      vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Select eligible positions i.i.d. at mask_prob and corrupt them.

    Special tokens (ids < 6, including PAD) are never selected. Returns
    (corrupted ids, labels) where labels hold the original id at selected
    positions and IGNORE_INDEX elsewhere. Random draws cover every
    position regardless of eligibility, so consumption is shape-stable.
    """
    ids = np.asarray(example, dtype=np.int64)
    eligible = ids >= NUM_SPECIALS
    select = rng.random(ids.shape) < mcfg.mask_prob
    action = rng.random(ids.shape)
    replacement = rng.integers(NUM_SPECIALS, vocab_size, size=ids.shape)
    select &= eligible

    masked = ids.copy()
    use_mask = select & (action < mcfg.mask_frac)
    use_rand = select & (action >= mcfg.mask_frac) & (action < mcfg.mask_frac + mcfg.random_frac)
    masked[use_mask] = MASK_ID
    masked[use_rand] = replacement[use_rand]

    labels = np.where(select, ids, IGNORE_INDEX)
    return masked, labels


def _check_schedule(cfg: TrainingConfig, total_steps: int) -> None:
    """Raise unless warm-up ends before the last step."""
    if total_steps <= cfg.warmup_steps:
        raise ValueError(
            f"total_steps ({total_steps}) must exceed warmup_steps ({cfg.warmup_steps})"
        )


def lr_at(step: int, cfg: TrainingConfig, total_steps: int) -> float:
    """Linear warmup to learning_rate at warmup_steps, then linear decay
    to zero at total_steps. Continuous and piecewise-linear."""
    _check_schedule(cfg, total_steps)
    if step < 0:
        raise ValueError("step must be non-negative")
    if step <= cfg.warmup_steps:
        if cfg.warmup_steps == 0:
            return cfg.learning_rate
        return cfg.learning_rate * (step / cfg.warmup_steps)
    if step >= total_steps:
        return 0.0
    return cfg.learning_rate * ((total_steps - step) / (total_steps - cfg.warmup_steps))


class AdamWState:
    """First/second moment estimates and the shared step counter, plus two
    scratch rows, each as large as the largest parameter, that every
    update reuses."""

    def __init__(self, params: ParameterSet):
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.t = 0
        self.scratch = np.empty((2, max(t.data.size for _, t in params.items())))


def adamw_step(params: ParameterSet, grads: dict[str, np.ndarray],
               state: AdamWState, lr: float, cfg: TrainingConfig) -> None:
    """One AdamW update with bias correction; decoupled weight decay is
    applied to weight matrices only (ndim >= 2), not norms or biases.

    Works in place, in the operation order of the textbook expressions
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p), so its results
    are bit-identical to evaluating them out of place.
    """
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, t in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        tmp, update = (row[: t.data.size].reshape(t.data.shape) for row in state.scratch)
        m *= cfg.beta1
        m += np.multiply(g, 1.0 - cfg.beta1, out=tmp)
        v *= cfg.beta2
        np.multiply(g, 1.0 - cfg.beta2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.eps
        np.divide(m, bc1, out=update)
        update /= tmp
        if t.data.ndim >= 2:
            update += np.multiply(t.data, cfg.weight_decay, out=tmp)
        update *= lr
        t.data -= update


class TrainLog:
    """Per-step records plus the run manifest; steps strictly increase."""

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.steps: list[dict] = []

    def append(self, step: int, lr: float, losses: dict[str, float], total: float) -> None:
        if self.steps and step <= self.steps[-1]["step"]:
            raise ValueError("steps must be strictly increasing")
        self.steps.append({"step": step, "lr": lr, "losses": dict(losses), "total": total})

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"kind": "manifest", **self.manifest}, sort_keys=True) + "\n")
            for rec in self.steps:
                f.write(json.dumps({"kind": "step", **rec}, sort_keys=True) + "\n")

    @classmethod
    def read(cls, path: str | Path) -> "TrainLog":
        out = None

        def build(rec: dict, _: int) -> None:
            nonlocal out
            if out is not None:
                out.append(rec["step"], rec["lr"], rec["losses"], rec["total"])
            elif rec.get("kind") == "manifest":
                out = cls({k: v for k, v in rec.items() if k != "kind"})
            else:
                raise ValueError("first record must be the manifest")

        read_records(path, build, "train log")
        if out is None:
            with reading(path, "train log"):
                raise ValueError("first record must be the manifest")
        return out


def _mlm_step_loss(params: ParameterSet, batch: np.ndarray, mcfg: MaskingConfig,
                   mask_rng: np.random.Generator,
                   dropout_rng: np.random.Generator | None) -> Tensor | None:
    """Forward one MLM batch; None when masking selected nothing."""
    v = params.config.vocab_size
    masked, labels = apply_mlm_masking(batch, mcfg, mask_rng, v)
    # the head sees the labelled rows only: unlabelled logits reach no loss
    rows = np.flatnonzero(labels != IGNORE_INDEX)
    if rows.size == 0:
        return None
    hidden = mdl.encoder_forward(params, masked, batch != PAD_ID, dropout_rng)
    b, t, d = hidden.shape
    picked = ag.gather_rows(ag.reshape(hidden, (b * t, d)), rows)
    return ag.cross_entropy(mdl.mlm_logits(params, picked), labels.reshape(-1)[rows])


# -- auxiliary objectives ----------------------------------------------------

@dataclass
class AuxItem:
    """One auxiliary example: encoder input, where the decoder looks, and
    the decoder's target ids. The decoder is teacher-forced on
    [CLS] + target to predict target + [SEP]."""
    enc_ids: list[int]
    mem_index: int | None        # None = cross-attend to all hidden states
    target: list[int]


def find_word_span(text: str, word: str) -> tuple[int, int] | None:
    """Character span of `word` as a whole word in text, ignoring case."""
    m = re.search(rf"(?<!\w){re.escape(word)}(?!\w)", text, re.IGNORECASE)
    return (m.start(), m.end()) if m else None


def build_definition_batch(entries: Sequence[WiktionaryEntry],
                           subwords: SubwordModel) -> list[AuxItem]:
    """One item per (entry, example sentence containing the headword).

    The headword's first subword is marked in the encoder input; the
    decoder target is the definition. Examples that do not
    contain the headword as a whole word are skipped with a log line.
    """
    items: list[AuxItem] = []
    for entry in entries:
        def_ids = subwords.encode(entry.definition)
        for example in entry.examples:
            span = find_word_span(example, entry.word)
            if span is None:
                log.info("skipping example without headword %r: %r", entry.word, example)
                continue
            ids, offsets = subwords.encode_with_offsets(example)
            tok = mdl.locate_token(offsets, span)
            marked, index = mdl.mark_position(ids, tok)
            items.append(AuxItem(enc_ids=marked, mem_index=index, target=def_ids))
    return items


def render_tag_answer(value: str | tuple[str, ...]) -> str:
    if isinstance(value, tuple):
        return ", ".join(value)
    return {"yes": "yes", "no": "no", "n/a": "N/A"}[value]


def build_grammar_batch(examples: Sequence[GrammarExample],
                        subwords: SubwordModel) -> list[AuxItem]:
    """One item per (sentence, tag): the decoder answers whether/where a
    grammatical notion appears, as "notion <name> : <answer>". An untagged
    sentence gives no item and is not encoded."""
    items: list[AuxItem] = []
    for ex in examples:
        if not ex.tags:
            continue
        enc_ids = subwords.encode(ex.sentence)
        for tag in ex.tags:
            answer = f"notion {tag.notion} : {render_tag_answer(tag.value)}"
            items.append(AuxItem(enc_ids=enc_ids, mem_index=None,
                                 target=subwords.encode(answer)))
    return items


# each auxiliary objective: the reader of its flag's file, and the builder of
# its items from what that reader returns. perfbench/tracing.py times calls by
# replacing module attributes, so no function it times may be held here.
AUX_OBJECTIVES = {"definition": (parse_wiktionary_csv, build_definition_batch),
                  "grammar": (load_grammar_examples, build_grammar_batch)}


def _pad_2d(rows: list[list[int]], fill: int) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), fill, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def _aux_step_loss(params: ParameterSet, items: list[AuxItem],
                   dropout_rng: np.random.Generator | None) -> Tensor:
    """Forward a batch of auxiliary items; returns decoder cross-entropy."""
    enc_ids = _pad_2d([it.enc_ids for it in items], PAD_ID)
    enc_mask = enc_ids != PAD_ID
    hidden = mdl.encoder_forward(params, enc_ids, enc_mask, dropout_rng)
    if items[0].mem_index is not None:
        idx = np.array([it.mem_index for it in items])
        b, t, d = hidden.shape
        flat = ag.reshape(hidden, (b * t, d))
        memory = ag.reshape(ag.gather_rows(flat, np.arange(b) * t + idx), (b, 1, d))
        mem_mask = None
    else:
        memory = hidden
        mem_mask = enc_mask
    dec_in = _pad_2d([[CLS_ID] + it.target for it in items], PAD_ID)
    labels = _pad_2d([it.target + [SEP_ID] for it in items], IGNORE_INDEX)
    logits = mdl.decoder_forward(params, dec_in, memory, mem_mask, dropout_rng)
    b, t, v = logits.shape
    return ag.cross_entropy(ag.reshape(logits, (b * t, v)), labels.reshape(-1))


# -- the training loop -------------------------------------------------------

def _aux_batches(items: Sequence[AuxItem], size: int,
                 rng: np.random.Generator) -> Iterator[list[AuxItem]]:
    """Endless batches of `size` items, round-robin over a fresh shuffle
    of all items each time the previous shuffle is used up."""
    stream = (items[i] for _ in itertools.count() for i in rng.permutation(len(items)))
    while True:
        yield list(itertools.islice(stream, size))


class TrainingRun:
    """MLM pretraining, plus one auxiliary batch per step when `objective`
    is given; deterministic given cfg.seed. The constructor runs every rule
    before any work: `check_training`, `model.check_vocab_sizes`, a corpus
    that packs to at least one example and holds a token masking can select
    (a non-special id), a schedule whose warm-up ends before its last step
    and, with an objective, an item that fits the model's positions (longer
    ones are dropped)."""

    def __init__(self, docs: Sequence[Document], subwords: SubwordModel,
                 model_cfg: ModelConfig, cfg: TrainingConfig,
                 mcfg: MaskingConfig | None = None, objective: str | None = None,
                 aux_items: Sequence[AuxItem] = ()):
        check_training(model_cfg, cfg, objective)
        mdl.check_vocab_sizes(model_cfg, subwords)
        if not docs:
            raise ValueError("corpus is empty")
        self.packed = pack_examples(subwords, docs, cfg.context_size)
        n = len(self.packed)
        if n == 0:
            raise ValueError("corpus packed to zero examples")
        if not (self.packed >= NUM_SPECIALS).any():
            raise ValueError("corpus has no token that masking can select: "
                             "every packed id is a special token")
        self.total_steps = cfg.epochs * math.ceil(n / cfg.batch_size)
        _check_schedule(cfg, self.total_steps)
        limit = model_cfg.max_positions
        self.aux_items = [it for it in aux_items
                          if len(it.enc_ids) <= limit and len(it.target) < limit]
        if len(self.aux_items) < len(aux_items):
            log.info("dropped %d over-length auxiliary items",
                     len(aux_items) - len(self.aux_items))
        if objective and not self.aux_items:
            raise ValueError("no usable auxiliary items")
        self.model_cfg, self.cfg, self.objective = model_cfg, cfg, objective
        self.mcfg = mcfg or MaskingConfig()
        self.manifest = {
            "objective": f"mlm+{objective}" if objective else "mlm",
            "model_config": asdict(model_cfg), "training_config": asdict(cfg),
            "masking_config": asdict(self.mcfg), "corpus_hash": corpus_digest(docs),
            "n_documents": len(docs), "n_examples": n, "total_steps": self.total_steps,
            "seed": cfg.seed}
        if objective:
            self.manifest.update(n_aux_items=len(self.aux_items), aux_weight=cfg.aux_weight)

    def train(self) -> tuple[ParameterSet, TrainLog]:
        """Take every step; return the encoder, without a decoder, and the log.
        A batch whose masking selects no position takes no step. Each step's
        gradient is mlm + aux_weight * aux; the auxiliary pass runs even at
        aux_weight 0, on its own rng streams."""
        cfg, mcfg, objective, packed = self.cfg, self.mcfg, self.objective, self.packed
        tlog = TrainLog(self.manifest)
        params = mdl.init_params(self.model_cfg)
        state = AdamWState(params)

        def rng(stream: int) -> np.random.Generator:
            return np.random.default_rng([cfg.seed, stream])

        shuffle_rng = rng(_STREAM_SHUFFLE)
        mask_rng = rng(_STREAM_MASK)
        drop_rng = rng(_STREAM_DROPOUT)
        if objective:
            aux_batches = _aux_batches(self.aux_items, cfg.batch_size, rng(_STREAM_AUX_ORDER))
            aux_drop = rng(_STREAM_AUX_DROPOUT)

        lam = cfg.aux_weight
        shown = objective or "mlm"
        step = 0
        for epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(len(packed))
            epoch_losses = []
            for lo in range(0, len(packed), cfg.batch_size):
                batch = packed[order[lo: lo + cfg.batch_size]]
                mlm_loss = _mlm_step_loss(params, batch, mcfg, mask_rng, drop_rng)
                if mlm_loss is None:
                    continue
                grads = mdl.backward(params, mlm_loss)
                losses = {"mlm": float(mlm_loss.data)}
                # free the graph now, not when the next step rebinds the name
                del mlm_loss
                total = losses["mlm"]
                if objective:
                    aux_loss = _aux_step_loss(params, next(aux_batches), aux_drop)
                    g_aux = mdl.backward(params, aux_loss)
                    losses[objective] = float(aux_loss.data)
                    del aux_loss
                    if lam != 0.0:
                        # in place: each gradient array is this step's own
                        for k, g in g_aux.items():
                            g *= lam
                            grads[k] += g
                    total += lam * losses[objective]
                lr = lr_at(step, cfg, self.total_steps)
                adamw_step(params, grads, state, lr, cfg)
                tlog.append(step, lr, losses, total)
                epoch_losses.append(losses[shown])
                step += 1
            if epoch_losses:
                log.info("epoch %d/%d: mean %s loss %.4f",
                         epoch + 1, cfg.epochs, shown, sum(epoch_losses) / len(epoch_losses))
        return mdl.strip_decoder(params), tlog


def check_training(model_cfg: ModelConfig, cfg: TrainingConfig,
                   objective: str | None = None) -> None:
    """Raise ValueError unless these settings can train: MLM alone when
    `objective` is None, else MLM plus that auxiliary objective."""
    if model_cfg.max_positions < cfg.context_size:
        raise ValueError(f"model max_positions is smaller than context_size: "
                         f"{model_cfg.max_positions} < {cfg.context_size}")
    if objective is None:
        if model_cfg.decoder_layers:
            raise ValueError(f"MLM-only training requires decoder_layers = 0, "
                             f"got {model_cfg.decoder_layers}")
        return
    if objective not in AUX_OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; "
                         f"expected {' or '.join(map(repr, AUX_OBJECTIVES))}")
    if model_cfg.decoder_layers == 0:
        raise ValueError("multi-objective training requires decoder_layers > 0")


def train_mlm(docs: Sequence[Document], subwords: SubwordModel,
              model_cfg: ModelConfig, cfg: TrainingConfig,
              mcfg: MaskingConfig | None = None) -> tuple[ParameterSet, TrainLog]:
    """Masked-language-model pretraining, deterministic given cfg.seed."""
    return TrainingRun(docs, subwords, model_cfg, cfg, mcfg).train()


def train_multi_objective(docs: Sequence[Document], subwords: SubwordModel,
                          aux_items: Sequence[AuxItem], objective: str,
                          model_cfg: ModelConfig, cfg: TrainingConfig,
                          mcfg: MaskingConfig | None = None) -> tuple[ParameterSet, TrainLog]:
    """Joint MLM + auxiliary training; exports a stripped encoder.

    Each step draws one MLM batch and one auxiliary batch (round-robin
    over a per-cycle shuffle) and applies gradients of
    mlm_loss + aux_weight * aux_loss. The auxiliary pass always runs, so
    aux_weight = 0 reduces exactly to train_mlm for the encoder weights.
    objective names an entry of AUX_OBJECTIVES, whose builder made
    aux_items; items longer than max_positions are dropped.
    """
    return TrainingRun(docs, subwords, model_cfg, cfg, mcfg, objective, aux_items).train()
