"""Transformer encoder with MLM head and an optional attachable decoder.

Pre-layer-norm residual blocks, learned absolute positions, scaled
dot-product attention, GELU feed-forward. Attention masking is additive
(-1e30 before softmax), which underflows to an exact zero weight, so PAD
invariance and decoder causality hold exactly rather than approximately.
Gradients come from the autograd module and are finite-difference checked.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import reading
from .subwords import PAD_ID, MARK_ID, NUM_SPECIALS, SubwordModel

MASK_VALUE = -1e30
CHECKPOINT_MAGIC = b"DLMCKPT1"
CHECKPOINT_VERSION = 1
# the fewest positions a model may have: the default, and the floor of every config
MIN_POSITIONS = 64


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 128
    d_ff: int = 512
    max_positions: int = MIN_POSITIONS
    decoder_layers: int = 0
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text (PEP 563)
            value = getattr(self, f.name)
            if f.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.vocab_size <= NUM_SPECIALS:
            raise ValueError(f"vocab_size must exceed {NUM_SPECIALS}")
        if self.n_layers < 1 or self.n_heads < 1 or self.d_model < 1 or self.d_ff < 1:
            raise ValueError("layer, head, and width counts must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.max_positions < MIN_POSITIONS:
            raise ValueError(f"max_positions must be at least {MIN_POSITIONS}")
        if self.decoder_layers < 0:
            raise ValueError("decoder_layers must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def check_vocab_sizes(config: ModelConfig, subwords: SubwordModel,
                      model: str = "the model", tokenizer: str = "the tokenizer") -> None:
    """Raise ValueError, naming `model` and `tokenizer`, unless they have one
    vocabulary size."""
    if config.vocab_size != subwords.vocab_size:
        raise ValueError(f"{model} is a model of {config.vocab_size} tokens but "
                         f"{tokenizer} has {subwords.vocab_size}")


class ParameterSet(dict):
    """Ordered name -> Tensor dict plus the config that shaped it."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        super().__init__(tensors)
        self.config = config

    def names(self) -> list[str]:
        return list(self)


def _param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in draw and checkpoint order."""
    d, ff, v = config.d_model, config.d_ff, config.vocab_size

    def norm(ln: str) -> list:
        return [(f"{ln}.g", (d,)), (f"{ln}.b", (d,))]

    def attention(a: str) -> list:
        return [spec for x in "qkvo" for spec in ((f"{a}.w{x}", (d, d)), (f"{a}.b{x}", (d,)))]

    def stack(prefix: str, n_layers: int, head: str) -> list:
        # decoder layers cross-attend to the encoder's states, as in _stack
        specs = []
        for i in range(n_layers):
            layer = f"{prefix}.{i}"
            specs += norm(f"{layer}.ln1") + attention(f"{layer}.attn")
            if prefix == "dec":
                specs += norm(f"{layer}.lnc") + attention(f"{layer}.cross")
            specs += norm(f"{layer}.ln2") + [
                (f"{layer}.ffn.w1", (d, ff)), (f"{layer}.ffn.b1", (ff,)),
                (f"{layer}.ffn.w2", (ff, d)), (f"{layer}.ffn.b2", (d,))]
        return specs + norm(f"{prefix}_ln") + [(f"{head}.w", (d, v)), (f"{head}.b", (v,))]

    specs = [("tok_emb", (v, d)), ("pos_emb", (config.max_positions, d))]
    specs += stack("enc", config.n_layers, "mlm")
    if config.decoder_layers:
        specs += stack("dec", config.decoder_layers, "dec_head")
    return specs


def init_params(config: ModelConfig) -> ParameterSet:
    """Draw parameters deterministically from config.seed.

    Every matrix (embeddings, projections, heads) ~ N(0, 0.02^2); every
    vector is zero except the layer-norm gains (`.g`), which are one.
    Encoder weights are drawn before any decoder weights, so the encoder
    initialization is identical whether or not a decoder is attached
    (same seed).
    """
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in _param_specs(config):
        if len(shape) == 2:
            data = rng.normal(0.0, 0.02, size=shape)
        else:
            data = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return ParameterSet(config, tensors)


def _attention(p: ParameterSet, prefix: str, x: Tensor, kv: Tensor,
               additive_mask: np.ndarray | None) -> Tensor:
    """Multi-head scaled dot-product attention. x supplies queries, kv
    supplies keys/values; additive_mask broadcasts over (B, H, Tq, Tk)."""
    cfg = p.config
    h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    bq, tq, _ = x.shape
    tk = kv.shape[1]

    def to_heads(y: Tensor, t: int) -> Tensor:
        # (B, T, d) -> (B, T, H, dh) -> (B, H, T, dh)
        return ag.swapaxes(ag.reshape(y, (bq, t, h, dh)), 1, 2)

    q = to_heads(ag.matmul(x, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), tq)
    k = to_heads(ag.matmul(kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), tk)
    v = to_heads(ag.matmul(kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"]), tk)

    scores = ag.scale(ag.matmul(q, ag.swapaxes(k, -1, -2)), 1.0 / math.sqrt(dh))
    probs = ag.softmax_masked(scores, additive_mask)
    ctx = ag.matmul(probs, v)                       # (B, H, Tq, dh)
    ctx = ag.swapaxes(ctx, 1, 2)                    # (B, Tq, H, dh)
    ctx = ag.reshape(ctx, (bq, tq, cfg.d_model))
    return ag.matmul(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _check_ids(token_ids: np.ndarray, vocab_size: int) -> np.ndarray:
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise ValueError("token ids must be a 1-D or 2-D integer array")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError(f"token id out of range [0, {vocab_size})")
    return ids


def _embed(p: ParameterSet, ids: np.ndarray, dropout_rng) -> Tensor:
    cfg = p.config
    t = ids.shape[1]
    if t > cfg.max_positions:
        raise ValueError(f"sequence length {t} exceeds max_positions {cfg.max_positions}")
    x = ag.add(ag.embedding(p["tok_emb"], ids),
               ag.embedding(p["pos_emb"], np.arange(t)))
    return ag.dropout(x, cfg.dropout, dropout_rng)


def _ffn(p: ParameterSet, prefix: str, x: Tensor) -> Tensor:
    """GELU feed-forward: gelu(x @ w1 + b1) @ w2 + b2."""
    hid = ag.gelu(ag.matmul(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    return ag.matmul(hid, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def _stack(p: ParameterSet, prefix: str, ids: np.ndarray, self_mask: np.ndarray,
           dropout_rng, memory: Tensor | None = None,
           cross_mask: np.ndarray | None = None,
           positions: np.ndarray | None = None) -> Tensor:
    """Embed ids and run the `prefix` ("enc" or "dec") layers and final norm.

    Each layer takes pre-LN residual steps x + dropout(sublayer(ln(x)))
    around self-attention, then cross-attention over `memory` when one is
    given, then the feed-forward. With `positions` (B, Q), the last layer
    computes its first norm, keys and values at every position but
    everything after them only at those rows, and the result is (B, Q, d).
    """
    cfg = p.config
    x = _embed(p, ids, dropout_rng)

    def every_row(y: Tensor) -> Tensor:
        return y

    def at_positions(y: Tensor) -> Tensor:
        # (B, T, d) -> the (B, Q, d) rows at `positions`
        b, t, d = y.shape
        index = (np.arange(b)[:, None] * t + positions).ravel()
        return ag.reshape(ag.gather_rows(ag.reshape(y, (b * t, d)), index),
                          positions.shape + (d,))

    def residual(x: Tensor, ln: str, sublayer, rows=every_row) -> Tensor:
        # sublayer(queries, normed): the `rows` of the normed input, and all of it
        pre = ag.layer_norm(x, p[f"{ln}.g"], p[f"{ln}.b"])
        return ag.add(rows(x), ag.dropout(sublayer(rows(pre), pre), cfg.dropout, dropout_rng))

    n_layers = cfg.n_layers if prefix == "enc" else cfg.decoder_layers
    for i in range(n_layers):
        layer = f"{prefix}.{i}"
        rows = at_positions if positions is not None and i == n_layers - 1 else every_row
        x = residual(x, f"{layer}.ln1", lambda q, kv: _attention(
            p, f"{layer}.attn", q, kv, self_mask), rows)
        if memory is not None:
            x = residual(x, f"{layer}.lnc", lambda q, _: _attention(
                p, f"{layer}.cross", q, memory, cross_mask))
        x = residual(x, f"{layer}.ln2", lambda q, _: _ffn(p, f"{layer}.ffn", q))
    return ag.layer_norm(x, p[f"{prefix}_ln.g"], p[f"{prefix}_ln.b"])


def encoder_forward(params: ParameterSet, token_ids,
                    attention_mask: np.ndarray | None = None,
                    dropout_rng: np.random.Generator | None = None,
                    positions: np.ndarray | None = None) -> Tensor:
    """Hidden states (batch, positions, d_model) of the encoder stack.
    attention_mask marks real (attendable) positions; None means every
    position not equal to PAD. Dropout is active only when a generator is
    supplied.

    `positions`, a (batch, Q) integer array, asks for the states at those
    positions of each sequence only, (batch, Q, d_model): the last layer
    then runs its queries, attention output, feed-forward and the final
    norm at those rows alone (see `_stack`). They equal the full output's
    rows within rounding, not in every bit: fewer rows can take other BLAS
    kernels. A smaller last layer draws less dropout, so training does not
    pass it.
    """
    cfg = params.config
    ids = _check_ids(token_ids, cfg.vocab_size)
    if attention_mask is None:
        attention_mask = ids != PAD_ID
    attention_mask = np.asarray(attention_mask, dtype=bool)
    if attention_mask.ndim == 1:
        attention_mask = attention_mask[None, :]
    if attention_mask.shape != ids.shape:
        raise ValueError("attention mask shape must match token ids")
    if positions is not None:
        positions = np.asarray(positions)
        b, t = ids.shape
        if (positions.dtype.kind not in "iu" or positions.ndim != 2
                or positions.shape[0] != b or positions.shape[1] == 0):
            raise ValueError(f"positions must be a ({b}, Q) integer array with Q >= 1, "
                             f"got {positions.dtype} of shape {positions.shape}")
        if positions.min() < 0 or positions.max() >= t:
            raise ValueError(f"position out of range [0, {t})")
    # a mask that admits every position adds nothing: no (B, 1, 1, T) zeros
    add_mask = (None if attention_mask.all()
                else np.where(attention_mask, 0.0, MASK_VALUE)[:, None, None, :])
    return _stack(params, "enc", ids, add_mask, dropout_rng, positions=positions)


def mlm_logits(params: ParameterSet, hidden: Tensor) -> Tensor:
    """Project hidden states to per-position vocabulary logits."""
    return ag.matmul(hidden, params["mlm.w"], params["mlm.b"])


def decoder_forward(params: ParameterSet, target_ids, memory: Tensor,
                    memory_mask: np.ndarray | None = None,
                    dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Teacher-forced decoder logits over the target sequence.

    memory: (B, S, d_model), the full encoder hidden states, or a single
    marked-position vector with S = 1. memory_mask marks attendable memory
    slots (None = all). Self-attention is causal.
    """
    cfg = params.config
    if cfg.decoder_layers == 0:
        raise ValueError("model has no decoder (decoder_layers = 0)")
    ids = _check_ids(target_ids, cfg.vocab_size)
    b, t = ids.shape
    if memory.ndim != 3 or memory.shape[0] != b:
        raise ValueError("memory must be (batch, slots, d_model)")
    s = memory.shape[1]
    causal = np.where(np.tril(np.ones((t, t), dtype=bool)), 0.0, MASK_VALUE)[None, None, :, :]
    if memory_mask is None:
        cross_mask = None
    else:
        memory_mask = np.asarray(memory_mask, dtype=bool)
        if memory_mask.shape != (b, s):
            raise ValueError("memory mask shape must match memory slots")
        cross_mask = np.where(memory_mask, 0.0, MASK_VALUE)[:, None, None, :]

    x = _stack(params, "dec", ids, causal, dropout_rng, memory, cross_mask)
    return ag.matmul(x, params["dec_head.w"], params["dec_head.b"])


def mark_position(token_ids, token_index: int) -> tuple[list[int], int]:
    """Insert the MARK token immediately before token_index.

    Returns (marked ids, index of the original token in the marked
    sequence); the hidden state at that index is the definition memory.
    """
    ids = list(token_ids)
    if not 0 <= token_index < len(ids):
        raise ValueError(f"token index {token_index} out of range for length {len(ids)}")
    return ids[:token_index] + [MARK_ID] + ids[token_index:], token_index + 1


def locate_token(offsets: list[tuple[int, int]], char_span: tuple[int, int]) -> int:
    """First token whose character span overlaps char_span (for marking)."""
    lo, hi = char_span
    for i, (s, e) in enumerate(offsets):
        if s < hi and lo < e:
            return i
    raise ValueError(f"no token overlaps character span {char_span}")


def backward(params: ParameterSet, loss: Tensor) -> dict[str, np.ndarray]:
    """Gradient of a scalar loss for every parameter (zeros if unused).

    Clears the stored gradients afterwards so the next step starts clean.
    """
    if not np.all(np.isfinite(loss.data)):
        raise FloatingPointError("loss is not finite")
    ag.backward(loss)
    grads: dict[str, np.ndarray] = {}
    for name, t in params.items():
        grads[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
        t.grad = None
    return grads


def strip_decoder(params: ParameterSet) -> ParameterSet:
    """Keep, bit-exactly and in order, the tensors of the same config
    without a decoder: the encoder and the MLM head."""
    cfg = replace(params.config, decoder_layers=0)
    return ParameterSet(cfg, {name: params[name] for name, _ in _param_specs(cfg)})


# -- checkpoint io -----------------------------------------------------------

def save_checkpoint(params: ParameterSet, path: str | Path) -> None:
    """Versioned binary checkpoint: JSON header + float32 LE tensor data."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "tensors": [[n, list(t.data.shape)] for n, t in params.items()],
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    # tensors go to the file one at a time: no in-memory copy of the whole file
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(raw)))
        f.write(raw)
        for _, t in params.items():
            f.write(np.ascontiguousarray(t.data, dtype="<f4"))


def load_checkpoint(path: str | Path) -> ParameterSet:
    """Read a checkpoint written by save_checkpoint.

    Raises ValueError naming `path` when the tensor list differs from the
    names and shapes the header's config implies, or when the tensor
    section is truncated or followed by trailing bytes.
    """
    with reading(path, "checkpoint"):
        blob = Path(path).read_bytes()
        if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise ValueError("not a model checkpoint (bad magic)")
        off = len(CHECKPOINT_MAGIC)
        if len(blob) < off + 4:
            raise ValueError("truncated checkpoint header")
        (hlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        if len(blob) < off + hlen:
            raise ValueError("truncated checkpoint header")
        header = json.loads(blob[off: off + hlen].decode("utf-8"))
        off += hlen
        if not isinstance(header, dict) or header.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError("unsupported checkpoint version")
        config = ModelConfig(**header["config"])
        listed = {name: tuple(shape) for name, shape in header["tensors"]}
        expected = dict(_param_specs(config))
        if len(listed) != len(header["tensors"]) or listed != expected:
            wrong = sorted(n for n in listed.keys() | expected.keys()
                           if listed.get(n) != expected.get(n))
            raise ValueError(f"tensors do not match the config; mismatched names: {wrong[:5]}")
        sizes = [math.prod(shape) for shape in listed.values()]
        data_bytes = 4 * sum(sizes)
        if len(blob) - off != data_bytes:
            what = "truncated tensor data" if len(blob) - off < data_bytes else "trailing bytes"
            raise ValueError(f"{what}: {len(blob) - off} bytes after the header, "
                             f"expected {data_bytes}")
    tensors: dict[str, Tensor] = {}
    for (name, shape), n in zip(listed.items(), sizes):
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).astype(np.float64)
        off += n * 4
        tensors[name] = Tensor(arr.reshape(shape), requires_grad=True)
    return ParameterSet(config, tensors)
