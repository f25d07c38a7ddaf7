"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive results through a different code
path than the library (unbatched loops, closed-form arithmetic) so that
agreement between the two is meaningful.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from desklm import autograd as ag
from desklm import model as mdl
from desklm.corpus import Document, corpus_digest
from desklm.model import ModelConfig, ParameterSet
from desklm.subwords import (CLS_ID, NUM_SPECIALS, SEP_ID, SPECIAL_TOKENS, SubwordModel,
                             MASK_ID, _word_forms, pack_examples)
from desklm.training import (_STREAM_AUX_DROPOUT, _STREAM_AUX_ORDER, _STREAM_DROPOUT,
                             _STREAM_MASK, _STREAM_SHUFFLE, AdamWState, AuxItem,
                             MaskingConfig, TrainingConfig, TrainLog, _check_schedule,
                             _pad_2d, adamw_step, apply_mlm_masking, lr_at)

log = logging.getLogger(__name__)

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "bl", "br", "dr", "fl", "gr", "kr", "pl", "pr", "sk", "sl", "sm",
           "sn", "sp", "st", "tr", "zw"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"]
_CODAS = ["", "n", "s", "t", "r", "l", "m", "k", "nd", "st", "rn"]


def pseudo_lexicon(n_words: int, seed: int) -> list[str]:
    """Deterministic list of distinct pronounceable pseudo-words."""
    rng = np.random.default_rng(seed)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n_words:
        syllables = rng.integers(2, 4)
        w = "".join(_ONSETS[rng.integers(len(_ONSETS))]
                    + _VOWELS[rng.integers(len(_VOWELS))]
                    + _CODAS[rng.integers(len(_CODAS))]
                    for _ in range(syllables))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def make_pseudo_corpus(n_sentences: int, seed: int, lexicon_size: int = 800,
                       min_len: int = 6, max_len: int = 12) -> list[Document]:
    """Sentences of pseudo-words: lexically rich enough to train large
    subword vocabularies, with enough repetition to be learnable."""
    words = pseudo_lexicon(lexicon_size, seed)
    rng = np.random.default_rng([seed, 77])
    # zipf-ish reuse so frequent words dominate and MLM has signal
    ranks = np.arange(1, lexicon_size + 1, dtype=np.float64)
    probs = (1.0 / ranks) / (1.0 / ranks).sum()
    docs = []
    for i in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        picks = rng.choice(lexicon_size, size=length, p=probs)
        docs.append(Document(id=f"pseudo-{i:05d}", source="unconstrained",
                             text=" ".join(words[j] for j in picks)))
    return docs


def reference_train_subwords(corpus: Sequence[Document], vocab_size: int) -> SubwordModel:
    """Reference BPE: recount every adjacent pair of every word for each merge.

    Same contract as `subwords.train_subwords` (highest count first, then
    the lexicographically smallest pair; no pair that spells a special
    token; left-to-right non-overlapping rewrites; the same errors), at
    merges x word-forms cost.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    freq = _word_forms(corpus)
    alphabet = sorted({c for w in freq for c in w})
    base = NUM_SPECIALS + len(alphabet)
    if vocab_size <= base:
        raise ValueError(
            f"vocab_size must exceed specials + alphabet = {base}, got {vocab_size}"
        )
    n_merges = vocab_size - base

    words: dict[tuple[str, ...], int] = {tuple(w): c for w, c in freq.items()}
    merges: list[tuple[str, str]] = []
    for step in range(n_merges):
        pair_counts: Counter = Counter()
        for sym, c in words.items():
            for pair in zip(sym, sym[1:]):
                if "".join(pair) not in SPECIAL_TOKENS:
                    pair_counts[pair] += c
        if not pair_counts:
            raise ValueError(
                f"corpus supports a vocabulary of at most {base + step} tokens, "
                f"requested {vocab_size}"
            )
        top = max(pair_counts.values())
        best = min(p for p, c in pair_counts.items() if c == top)
        merges.append(best)
        a, b = best
        ab = a + b
        rewritten: dict[tuple[str, ...], int] = {}
        for sym, c in words.items():
            out: list[str] = []
            i = 0
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == a and sym[i + 1] == b:
                    out.append(ab)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            key = tuple(out)
            rewritten[key] = rewritten.get(key, 0) + c
        words = rewritten

    vocab = list(SPECIAL_TOKENS) + alphabet + [a + b for a, b in merges]
    return SubwordModel(vocab, merges)


def reference_adamw_step(params: mdl.ParameterSet, grads: dict, state, lr: float,
                         cfg) -> None:
    """Reference AdamW: the update written out of place, one temporary per
    term, in the operation order `training.adamw_step` keeps in place."""
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, t in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        if t.data.ndim >= 2:
            update = update + cfg.weight_decay * t.data
        t.data -= lr * update


def brute_force_pll(params: mdl.ParameterSet, subwords: SubwordModel,
                    sentence: str) -> float:
    """Reference PLL: one unbatched forward pass per masked position."""
    ids = subwords.encode(sentence)
    total = 0.0
    for i in range(len(ids)):
        corrupted = list(ids)
        corrupted[i] = MASK_ID
        row = np.asarray([corrupted], dtype=np.int64)
        hidden = mdl.encoder_forward(params, row, np.ones_like(row, dtype=bool))
        logits = mdl.mlm_logits(params, hidden).data[0, i]
        # independent log-softmax via logaddexp reduction
        lse = np.logaddexp.reduce(logits)
        total += float(logits[ids[i]] - lse)
    return total


def reference_pseudo_log_likelihood(params: mdl.ParameterSet, subwords: SubwordModel,
                                    sentence: str) -> float:
    """Reference PLL: all n masked copies in one (n, n) forward pass, the
    single-batch form that `evaluation.pseudo_log_likelihood` splits into
    row blocks."""
    ids = subwords.encode(sentence)
    n = len(ids)
    arr = np.asarray(ids, dtype=np.int64)
    batch = np.tile(arr, (n, 1))
    np.fill_diagonal(batch, MASK_ID)
    with ag.no_grad():
        hidden = mdl.encoder_forward(params, batch, np.ones_like(batch, dtype=bool))
        flat = ag.reshape(hidden, (n * n, params.config.d_model))
        diag = ag.gather_rows(flat, np.arange(n) * (n + 1))
        logp = ag.log_probs(mdl.mlm_logits(params, diag))
    return float(logp[np.arange(n), arr].sum())


def reference_log_probs(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, out of place."""
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def reference_cross_entropy(logits: ag.Tensor, labels: np.ndarray) -> ag.Tensor:
    """`autograd.cross_entropy` as it was before its backward reused the
    log-probabilities: the gradient is a zero-filled (N, V) array, into
    which the kept rows, gathered and exponentiated, are scattered."""
    labels = np.asarray(labels)
    kept = labels != ag.IGNORE_INDEX
    n_kept = int(kept.sum())
    logp = reference_log_probs(logits.data)
    rows = np.nonzero(kept)[0]
    nll = -logp[rows, labels[rows]]
    out = np.asarray(nll.sum() / n_kept)
    ln = logits.node

    def bwd(g):
        gl = np.zeros(ln.shape)
        p = np.exp(logp[rows])
        p[np.arange(len(rows)), labels[rows]] -= 1.0
        gl[rows] = p * (float(g) / n_kept)
        ln.accumulate(gl)

    return ag._make(out, (ln,), bwd)


def _maybe_dropout(x: ag.Tensor, rate: float, rng) -> ag.Tensor:
    """The model's dropout switch before `autograd.dropout` owned it."""
    if rng is None or rate == 0.0:
        return x
    return ag.dropout(x, rate, rng)


def _unfused_attention(p: ParameterSet, prefix: str, x: ag.Tensor, kv: ag.Tensor,
                       additive_mask: np.ndarray | None) -> ag.Tensor:
    """`model._attention` as it was before each bias was folded into its
    matmul: every projection is add(matmul(x, W), b)."""
    cfg = p.config
    h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    bq, tq, _ = x.shape
    tk = kv.shape[1]

    def project(y: ag.Tensor, t: int, w: str) -> ag.Tensor:
        y = ag.add(ag.matmul(y, p[f"{prefix}.w{w}"]), p[f"{prefix}.b{w}"])
        return ag.swapaxes(ag.reshape(y, (bq, t, h, dh)), 1, 2)

    q, k, v = project(x, tq, "q"), project(kv, tk, "k"), project(kv, tk, "v")
    scores = ag.scale(ag.matmul(q, ag.swapaxes(k, -1, -2)), 1.0 / math.sqrt(dh))
    ctx = ag.matmul(ag.softmax_masked(scores, additive_mask), v)
    ctx = ag.reshape(ag.swapaxes(ctx, 1, 2), (bq, tq, cfg.d_model))
    return ag.add(ag.matmul(ctx, p[f"{prefix}.wo"]), p[f"{prefix}.bo"])


def _unfused_head(params: ParameterSet, x: ag.Tensor, head: str) -> ag.Tensor:
    return ag.add(ag.matmul(x, params[f"{head}.w"]), params[f"{head}.b"])


def reference_encoder_forward(params: ParameterSet, token_ids,
                              attention_mask: np.ndarray | None = None,
                              dropout_rng: np.random.Generator | None = None
                              ) -> ag.Tensor:
    """Reference encoder: the layer loop `model.encoder_forward` ran before
    it shared one layer stack with the decoder."""
    cfg = params.config
    ids = mdl._check_ids(token_ids, cfg.vocab_size)
    if attention_mask is None:
        attention_mask = ids != mdl.PAD_ID
    attention_mask = np.asarray(attention_mask, dtype=bool)
    if attention_mask.ndim == 1:
        attention_mask = attention_mask[None, :]
    add_mask = np.where(attention_mask, 0.0, mdl.MASK_VALUE)[:, None, None, :]

    x = mdl._embed(params, ids, dropout_rng)
    for i in range(cfg.n_layers):
        pre = ag.layer_norm(x, params[f"enc.{i}.ln1.g"], params[f"enc.{i}.ln1.b"])
        a = _unfused_attention(params, f"enc.{i}.attn", pre, pre, add_mask)
        x = ag.add(x, _maybe_dropout(a, cfg.dropout, dropout_rng))
        pre = ag.layer_norm(x, params[f"enc.{i}.ln2.g"], params[f"enc.{i}.ln2.b"])
        f = ag.add(ag.matmul(ag.gelu(ag.add(ag.matmul(pre, params[f"enc.{i}.ffn.w1"]),
                                            params[f"enc.{i}.ffn.b1"])),
                             params[f"enc.{i}.ffn.w2"]),
                   params[f"enc.{i}.ffn.b2"])
        x = ag.add(x, _maybe_dropout(f, cfg.dropout, dropout_rng))
    return ag.layer_norm(x, params["enc_ln.g"], params["enc_ln.b"])


def reference_decoder_forward(params: ParameterSet, target_ids, memory: ag.Tensor,
                              memory_mask: np.ndarray | None = None,
                              dropout_rng: np.random.Generator | None = None
                              ) -> ag.Tensor:
    """Reference decoder: the layer loop `model.decoder_forward` ran before
    it shared one layer stack with the encoder."""
    cfg = params.config
    ids = mdl._check_ids(target_ids, cfg.vocab_size)
    t = ids.shape[1]
    causal = np.where(np.tril(np.ones((t, t), dtype=bool)), 0.0,
                      mdl.MASK_VALUE)[None, None, :, :]
    cross_mask = (None if memory_mask is None else
                  np.where(memory_mask, 0.0, mdl.MASK_VALUE)[:, None, None, :])

    x = mdl._embed(params, ids, dropout_rng)
    for i in range(cfg.decoder_layers):
        pre = ag.layer_norm(x, params[f"dec.{i}.ln1.g"], params[f"dec.{i}.ln1.b"])
        a = _unfused_attention(params, f"dec.{i}.attn", pre, pre, causal)
        x = ag.add(x, _maybe_dropout(a, cfg.dropout, dropout_rng))
        pre = ag.layer_norm(x, params[f"dec.{i}.lnc.g"], params[f"dec.{i}.lnc.b"])
        c = _unfused_attention(params, f"dec.{i}.cross", pre, memory, cross_mask)
        x = ag.add(x, _maybe_dropout(c, cfg.dropout, dropout_rng))
        pre = ag.layer_norm(x, params[f"dec.{i}.ln2.g"], params[f"dec.{i}.ln2.b"])
        f = ag.add(ag.matmul(ag.gelu(ag.add(ag.matmul(pre, params[f"dec.{i}.ffn.w1"]),
                                            params[f"dec.{i}.ffn.b1"])),
                             params[f"dec.{i}.ffn.w2"]),
                   params[f"dec.{i}.ffn.b2"])
        x = ag.add(x, _maybe_dropout(f, cfg.dropout, dropout_rng))
    x = ag.layer_norm(x, params["dec_ln.g"], params["dec_ln.b"])
    return _unfused_head(params, x, "dec_head")


def _reference_mlm_step_loss(params: ParameterSet, batch: np.ndarray,
                             mcfg: MaskingConfig, mask_rng, dropout_rng) -> ag.Tensor | None:
    """`training._mlm_step_loss` through the unfused reference encoder and head."""
    masked, labels = apply_mlm_masking(batch, mcfg, mask_rng, params.config.vocab_size)
    rows = np.flatnonzero(labels != ag.IGNORE_INDEX)
    if rows.size == 0:
        return None
    hidden = reference_encoder_forward(params, masked, batch != mdl.PAD_ID, dropout_rng)
    b, t, d = hidden.shape
    picked = ag.gather_rows(ag.reshape(hidden, (b * t, d)), rows)
    return ag.cross_entropy(_unfused_head(params, picked, "mlm"), labels.reshape(-1)[rows])


def _reference_aux_step_loss(params: ParameterSet, items: list[AuxItem],
                             dropout_rng) -> ag.Tensor:
    """`training._aux_step_loss` through the unfused reference encoder and decoder."""
    enc_ids = _pad_2d([it.enc_ids for it in items], mdl.PAD_ID)
    enc_mask = enc_ids != mdl.PAD_ID
    hidden = reference_encoder_forward(params, enc_ids, enc_mask, dropout_rng)
    if items[0].mem_index is not None:
        b, t, d = hidden.shape
        rows = np.arange(b) * t + np.array([it.mem_index for it in items])
        memory = ag.reshape(ag.gather_rows(ag.reshape(hidden, (b * t, d)), rows), (b, 1, d))
        mem_mask = None
    else:
        memory, mem_mask = hidden, enc_mask
    # teacher forcing: read [CLS] + target, predict target + [SEP]
    dec_in = _pad_2d([[CLS_ID] + it.target for it in items], mdl.PAD_ID)
    labels = _pad_2d([it.target + [SEP_ID] for it in items], ag.IGNORE_INDEX)
    logits = reference_decoder_forward(params, dec_in, memory, mem_mask, dropout_rng)
    b, t, v = logits.shape
    return ag.cross_entropy(ag.reshape(logits, (b * t, v)), labels.reshape(-1))


def _reference_layer_param_names(prefix: str, cross_attention: bool) -> list[tuple[str, str]]:
    names = [
        (f"{prefix}.ln1.g", "ln_g"), (f"{prefix}.ln1.b", "ln_b"),
        (f"{prefix}.attn.wq", "proj"), (f"{prefix}.attn.bq", "bias"),
        (f"{prefix}.attn.wk", "proj"), (f"{prefix}.attn.bk", "bias"),
        (f"{prefix}.attn.wv", "proj"), (f"{prefix}.attn.bv", "bias"),
        (f"{prefix}.attn.wo", "proj"), (f"{prefix}.attn.bo", "bias"),
    ]
    if cross_attention:
        names += [
            (f"{prefix}.lnc.g", "ln_g"), (f"{prefix}.lnc.b", "ln_b"),
            (f"{prefix}.cross.wq", "proj"), (f"{prefix}.cross.bq", "bias"),
            (f"{prefix}.cross.wk", "proj"), (f"{prefix}.cross.bk", "bias"),
            (f"{prefix}.cross.wv", "proj"), (f"{prefix}.cross.bv", "bias"),
            (f"{prefix}.cross.wo", "proj"), (f"{prefix}.cross.bo", "bias"),
        ]
    names += [
        (f"{prefix}.ln2.g", "ln_g"), (f"{prefix}.ln2.b", "ln_b"),
        (f"{prefix}.ffn.w1", "ffn_in"), (f"{prefix}.ffn.b1", "ffn_bias"),
        (f"{prefix}.ffn.w2", "ffn_out"), (f"{prefix}.ffn.b2", "bias"),
    ]
    return names


def reference_param_specs(config: ModelConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, kind, shape) of every parameter, in draw and checkpoint order,
    from an explicit table of what each name holds."""
    d, ff, v = config.d_model, config.d_ff, config.vocab_size
    shapes = {"proj": (d, d), "bias": (d,), "ln_g": (d,), "ln_b": (d,),
              "ffn_in": (d, ff), "ffn_bias": (ff,), "ffn_out": (ff, d)}
    specs = [("tok_emb", "emb", (v, d)), ("pos_emb", "emb", (config.max_positions, d))]
    for i in range(config.n_layers):
        specs += [(name, kind, shapes[kind]) for name, kind
                  in _reference_layer_param_names(f"enc.{i}", cross_attention=False)]
    specs += [("enc_ln.g", "ln_g", (d,)), ("enc_ln.b", "ln_b", (d,)),
              ("mlm.w", "head", (d, v)), ("mlm.b", "zeros", (v,))]
    for i in range(config.decoder_layers):
        specs += [(name, kind, shapes[kind]) for name, kind
                  in _reference_layer_param_names(f"dec.{i}", cross_attention=True)]
    if config.decoder_layers:
        specs += [("dec_ln.g", "ln_g", (d,)), ("dec_ln.b", "ln_b", (d,)),
                  ("dec_head.w", "head", (d, v)), ("dec_head.b", "zeros", (v,))]
    return specs


def reference_init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """Parameters drawn by kind: layer-norm gains one, biases and offsets
    zero, every other kind ~ N(0, 0.02^2), in `reference_param_specs` order."""
    rng = np.random.default_rng(config.seed)
    arrays = {}
    for name, kind, shape in reference_param_specs(config):
        if kind == "ln_g":
            arrays[name] = np.ones(shape)
        elif kind in ("ln_b", "bias", "ffn_bias", "zeros"):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.normal(0.0, 0.02, size=shape)
    return arrays


def subwords_of_size(n: int) -> SubwordModel:
    """A merge-free subword model of exactly n tokens: the specials, then w0, w1, ..."""
    return SubwordModel(list(SPECIAL_TOKENS) + [f"w{k}" for k in range(n - NUM_SPECIALS)], [])


def rewrite_checkpoint_header(path: Path, edit: Callable[[dict], None]) -> None:
    """Apply `edit` to the JSON header of the checkpoint at `path`, in place."""
    blob = path.read_bytes()
    off = len(mdl.CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<I", blob, off)
    header = json.loads(blob[off + 4: off + 4 + hlen])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:off] + struct.pack("<I", len(raw)) + raw + blob[off + 4 + hlen:])


def zero_params(config: mdl.ModelConfig) -> mdl.ParameterSet:
    """A model whose every weight is zero: exactly uniform MLM logits."""
    params = mdl.init_params(config)
    for t in params.values():
        t.data[...] = 0.0
    return params


def fd_check_params(params: mdl.ParameterSet, loss_fn, grads: dict,
                    coords_per_tensor: int, seed: int, eps: float = 1e-6,
                    rel_tol: float = 1e-4, abs_floor: float = 1e-7) -> list[str]:
    """Central finite differences on sampled coordinates of every tensor.

    Returns a list of human-readable mismatch descriptions (empty = pass).
    """
    rng = np.random.default_rng(seed)
    failures = []
    for name, t in params.items():
        flat = t.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        k = min(coords_per_tensor, flat.size)
        for i in rng.choice(flat.size, size=k, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(loss_fn().data)
            flat[i] = orig - eps
            down = float(loss_fn().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * eps)
            analytic = gflat[i]
            err = abs(analytic - fd)
            if err > rel_tol * max(abs(analytic), abs(fd)) and err > abs_floor:
                failures.append(f"{name}[{i}]: analytic {analytic:.3e} fd {fd:.3e}")
    return failures


def _run_manifest(objective: str, docs: Sequence[Document], n_examples: int,
                  total_steps: int, model_cfg: ModelConfig,
                  cfg: TrainingConfig, mcfg: MaskingConfig) -> dict:
    """The train-log manifest both reference loops wrote."""
    return {
        "objective": objective,
        "model_config": asdict(model_cfg),
        "training_config": asdict(cfg),
        "masking_config": asdict(mcfg),
        "corpus_hash": corpus_digest(docs),
        "n_documents": len(docs),
        "n_examples": n_examples,
        "total_steps": total_steps,
        "seed": cfg.seed,
    }


def reference_train_mlm(docs: Sequence[Document], subwords: SubwordModel,
                        model_cfg: ModelConfig, cfg: TrainingConfig,
                        mcfg: MaskingConfig | None = None) -> tuple[ParameterSet, TrainLog]:
    """Reference MLM loop: the standalone loop `training.train_mlm` ran
    before it shared one loop with the auxiliary objectives."""
    mcfg = mcfg or MaskingConfig()
    if not docs:
        raise ValueError("corpus is empty")
    if model_cfg.max_positions < cfg.context_size:
        raise ValueError("model max_positions is smaller than context_size")
    packed = pack_examples(subwords, docs, cfg.context_size)
    n = packed.shape[0]
    if n == 0:
        raise ValueError("corpus packed to zero examples")
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    _check_schedule(cfg, total_steps)
    manifest = _run_manifest("mlm", docs, n, total_steps, model_cfg, cfg, mcfg)
    tlog = TrainLog(manifest)

    params = mdl.init_params(model_cfg)
    state = AdamWState(params)
    shuffle_rng = np.random.default_rng([cfg.seed, _STREAM_SHUFFLE])
    mask_rng = np.random.default_rng([cfg.seed, _STREAM_MASK])
    drop_rng = np.random.default_rng([cfg.seed, _STREAM_DROPOUT]) if model_cfg.dropout else None

    step = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for lo in range(0, n, cfg.batch_size):
            batch = packed[order[lo: lo + cfg.batch_size]]
            loss = _reference_mlm_step_loss(params, batch, mcfg, mask_rng, drop_rng)
            if loss is None:
                continue
            grads = mdl.backward(params, loss)
            lr = lr_at(step, cfg, total_steps)
            adamw_step(params, grads, state, lr, cfg)
            val = float(loss.data)
            tlog.append(step, lr, {"mlm": val}, val)
            epoch_losses.append(val)
            step += 1
        if epoch_losses:
            log.info("epoch %d/%d: mean mlm loss %.4f",
                     epoch + 1, cfg.epochs, sum(epoch_losses) / len(epoch_losses))
    return params, tlog


def reference_train_multi_objective(docs: Sequence[Document], subwords: SubwordModel,
                                    aux_items: Sequence[AuxItem], objective: str,
                                    model_cfg: ModelConfig, cfg: TrainingConfig,
                                    mcfg: MaskingConfig | None = None) -> tuple[ParameterSet, TrainLog]:
    """Reference multi-objective loop: the standalone loop
    `training.train_multi_objective` ran before it shared one loop with
    plain MLM."""
    mcfg = mcfg or MaskingConfig()
    if objective not in ("definition", "grammar"):
        raise ValueError(f"unknown objective {objective!r}")
    if model_cfg.decoder_layers == 0:
        raise ValueError("multi-objective training requires decoder_layers > 0")
    if not docs:
        raise ValueError("corpus is empty")
    limit = model_cfg.max_positions
    usable = [it for it in aux_items
              if len(it.enc_ids) <= limit and len(it.target) + 1 <= limit]
    if len(usable) < len(aux_items):
        log.info("dropped %d over-length auxiliary items", len(aux_items) - len(usable))
    if not usable:
        raise ValueError("no usable auxiliary items")

    packed = pack_examples(subwords, docs, cfg.context_size)
    n = packed.shape[0]
    if n == 0:
        raise ValueError("corpus packed to zero examples")
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    _check_schedule(cfg, total_steps)
    manifest = _run_manifest(f"mlm+{objective}", docs, n, total_steps, model_cfg, cfg, mcfg)
    manifest["n_aux_items"] = len(usable)
    manifest["aux_weight"] = cfg.aux_weight
    tlog = TrainLog(manifest)

    params = mdl.init_params(model_cfg)
    state = AdamWState(params)
    shuffle_rng = np.random.default_rng([cfg.seed, _STREAM_SHUFFLE])
    mask_rng = np.random.default_rng([cfg.seed, _STREAM_MASK])
    drop_rng = np.random.default_rng([cfg.seed, _STREAM_DROPOUT]) if model_cfg.dropout else None
    aux_rng = np.random.default_rng([cfg.seed, _STREAM_AUX_ORDER])
    aux_drop = np.random.default_rng([cfg.seed, _STREAM_AUX_DROPOUT]) if model_cfg.dropout else None

    aux_order: list[int] = []
    aux_pos = 0

    def next_aux_batch(size: int) -> list[AuxItem]:
        nonlocal aux_order, aux_pos
        picked = []
        for _ in range(size):
            if aux_pos >= len(aux_order):
                aux_order = list(aux_rng.permutation(len(usable)))
                aux_pos = 0
            picked.append(usable[aux_order[aux_pos]])
            aux_pos += 1
        return picked

    lam = cfg.aux_weight
    step = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_aux = []
        for lo in range(0, n, cfg.batch_size):
            batch = packed[order[lo: lo + cfg.batch_size]]
            mlm_loss = _reference_mlm_step_loss(params, batch, mcfg, mask_rng, drop_rng)
            if mlm_loss is None:
                continue
            g_mlm = mdl.backward(params, mlm_loss)
            aux_loss = _reference_aux_step_loss(params, next_aux_batch(cfg.batch_size), aux_drop)
            g_aux = mdl.backward(params, aux_loss)
            if lam == 0.0:
                grads = g_mlm
            else:
                grads = {k: g_mlm[k] + lam * g_aux[k] for k in g_mlm}
            lr = lr_at(step, cfg, total_steps)
            adamw_step(params, grads, state, lr, cfg)
            losses = {"mlm": float(mlm_loss.data), objective: float(aux_loss.data)}
            tlog.append(step, lr, losses, losses["mlm"] + lam * losses[objective])
            epoch_aux.append(losses[objective])
            step += 1
        if epoch_aux:
            log.info("epoch %d/%d: mean %s loss %.4f",
                     epoch + 1, cfg.epochs, objective, sum(epoch_aux) / len(epoch_aux))
    return mdl.strip_decoder(params), tlog
