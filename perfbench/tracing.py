"""Per-layer tracing by wrapping desklm's public functions from outside.

`Tracer.install()` replaces module attributes (for example
`desklm.autograd.gelu` and `desklm.training.adamw_step`) with timing
wrappers; every desklm module that imported the same function by name is
patched too, so `from .subwords import pack_examples` in training is
covered. Autograd op wrappers also wrap the `_backward_fn` of each graph
node they return, which times an op's backward pass apart from its
forward pass. The wrappers only observe: arguments and results pass
through untouched, so a traced run writes the same bytes as an untraced
one (the benchmark checks this).

Spans nest: each span's self time is its duration minus the time of the
spans it encloses. Spans are aggregated in memory per name (calls, total,
self) and written out once, when the run ends.

Block attribution: an op that consumes a parameter tensor belongs to that
parameter's block (`enc.{i}.attn` for `enc.{i}.ln1.*` and
`enc.{i}.attn.*`, `enc.{i}.ffn` for `ln2`/`ffn`, `dec.{i}.cross` for
`lnc`/`cross`, and `emb`, `enc_ln`, `mlm`, `dec_ln`, `dec_head`). An op
that consumes no parameter (softmax, GELU, reshapes, residual adds)
belongs to the block of the last parameter consumed before it in forward
order. Backward time goes to the block of the node's forward pass.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import defaultdict
from fnmatch import fnmatch

AUTOGRAD_OPS = ("matmul", "add", "gelu", "layer_norm", "softmax_masked",
                "embedding", "gather_rows", "cross_entropy", "dropout",
                "reshape", "swapaxes", "scale")

ENC_LAYERS = 4
DEC_LAYERS = 2
BLOCKS = (["emb"]
          + [f"enc.{i}.{part}" for i in range(ENC_LAYERS) for part in ("attn", "ffn")]
          + ["enc_ln", "mlm"]
          + [f"dec.{i}.{part}" for i in range(DEC_LAYERS)
             for part in ("attn", "cross", "ffn")]
          + ["dec_ln", "dec_head"])

_BLOCK_OF_PART = {"ln1": "attn", "attn": "attn", "lnc": "cross", "cross": "cross",
                  "ln2": "ffn", "ffn": "ffn"}

# (name, unit, better) of every per-layer metric, in table order
PER_LAYER = (
    [("corpus.load_source_s", "s", "lower"),
     ("corpus.mix_corpora_s", "s", "lower"),
     ("corpus.mix_words_per_s", "words/s", "higher"),
     ("synthesis.generate_notion_dataset_s", "s", "lower"),
     ("synthesis.prompts_completed", "count", "lower"),
     ("synthesis.responses_parsed_ratio", "ratio", "higher"),
     ("subwords.train_subwords_s", "s", "lower"),
     ("subwords.merges_per_s", "merges/s", "higher"),
     ("subwords.pack_examples_s", "s", "lower"),
     ("subwords.encode_tokens_per_s", "tokens/s", "higher")]
    + [(f"autograd.{op}.{d}_s", "s", "lower") for op in AUTOGRAD_OPS for d in ("fwd", "bwd")]
    + [("autograd.nodes_per_step", "count", "lower"),
       ("autograd.backward_sweep_self_s", "s", "lower"),
       ("model.encoder_forward_s", "s", "lower"),
       ("model.mlm_logits_s", "s", "lower"),
       ("model.decoder_forward_s", "s", "lower"),
       ("model.backward_s", "s", "lower"),
       ("model.save_checkpoint_s", "s", "lower"),
       ("model.load_checkpoint_s", "s", "lower")]
    + [(f"model.block.{b}_s", "s", "lower") for b in BLOCKS]
    + [("training.step_s_p50", "s", "lower"),
       ("training.step_s_p90", "s", "lower"),
       ("training.steps", "count", "lower"),
       ("training.apply_mlm_masking_s", "s", "lower"),
       ("training.adamw_step_s", "s", "lower"),
       ("training.mlm_head_useful_ratio", "ratio", "higher"),
       ("training.mlm_loss_final", "nats", "lower"),
       ("training.aux_loss_final", "nats", "lower"),
       ("evaluation.evaluate_suite_s", "s", "lower"),
       ("evaluation.pll_s_p50", "s", "lower"),
       ("evaluation.pll_s_p99", "s", "lower"),
       ("evaluation.sentences_scored", "count", "lower"),
       ("evaluation.logit_rows_useful_ratio", "ratio", "higher"),
       ("evaluation.unique_sentence_ratio", "ratio", "lower"),
       ("cli.eval_self_s", "s", "lower")]
)


def metrics_matching(include, exclude=()) -> list[str]:
    """Per-layer metric names matching a pattern of `include` and none of `exclude`."""
    return [name for name, _, _ in PER_LAYER
            if any(fnmatch(name, p) for p in include)
            and not any(fnmatch(name, p) for p in exclude)]


def block_of(param_name: str) -> str:
    parts = param_name.split(".")
    if parts[0] in ("enc", "dec"):
        return f"{parts[0]}.{parts[1]}.{_BLOCK_OF_PART[parts[2]]}"
    if parts[0] in ("tok_emb", "pos_emb"):
        return "emb"
    return parts[0]


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Timing wrappers around desklm's layers plus the counters they feed."""

    def __init__(self):
        self.total = defaultdict(float)      # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> duration minus children
        self.calls = defaultdict(int)
        self.count = defaultdict(float)      # counters fed by on_return hooks
        self.samples = defaultdict(list)     # span name -> per-call durations
        self.block_s = defaultdict(float)
        self._stack: list[float] = []        # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._param_block: dict[int, str] = {}
        self._block = "emb"
        self._last_step_end: float | None = None
        self._last_encode_len = 0
        self._ignore_index = None
        self._sentences: set[str] = set()
        self.rounds = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, name: str, t0: float, keep_sample: bool = False) -> float:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        self.total[name] += dt
        self.self_time[name] += dt - child
        self.calls[name] += 1
        if keep_sample:
            self.samples[name].append(dt)
        return dt - child

    def _timed(self, name: str, fn, on_return=None, keep_sample=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(name, t0, keep_sample)
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    def _op(self, op: str, fn):
        """Forward wrapper for an autograd op; wraps the node's backward."""
        tracer = self
        fwd_name, bwd_name = f"autograd.{op}.fwd", f"autograd.{op}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inputs = [a for a in args if hasattr(a, "_backward_fn")]
            for a in inputs:
                blk = tracer._param_block.get(id(a))
                if blk is not None:
                    tracer._block = blk
            block = tracer._block
            t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.block_s[block] += tracer._leave(fwd_name, t0)
            if all(out is not a for a in inputs) and out._backward_fn is not None:
                tracer.count["autograd.nodes"] += 1
                out._backward_fn = tracer._backward(bwd_name, block, out._backward_fn)
            return out

        return wrapper

    def _backward(self, name: str, block: str, fn):
        tracer = self

        def timed_backward(g):
            t0 = tracer._enter()
            try:
                fn(g)
            finally:
                tracer.block_s[block] += tracer._leave(name, t0)

        return timed_backward

    # -- counters ------------------------------------------------------------

    def _register_params(self, args, params):
        self._param_block = {id(t): block_of(n) for n, t in params.items()}

    def _words_mixed(self, args, docs):
        self.count["corpus.words_mixed"] += sum(d.word_count for d in docs)

    def _merges(self, args, model):
        self.count["subwords.merges"] += len(model.merges)

    def _encoded(self, args, ids):
        self._last_encode_len = len(ids)
        self.count["subwords.tokens"] += len(ids)

    def _completed(self, args, response):
        self.count["synthesis.completed"] += 1

    def _parsed(self, args, value):
        self.count["synthesis.parsed"] += 1

    def _masked(self, args, result):
        labels = result[1]
        self.count["training.labelled"] += int((labels != self._ignore_index).sum())
        self.count["training.head_rows"] += labels.size

    def _stepped(self, args, result):
        now = time.perf_counter()
        if self._last_step_end is not None:
            self.samples["training.step"].append(now - self._last_step_end)
        self._last_step_end = now
        self.count["training.steps"] += 1

    def _scored(self, args, pll):
        n = self._last_encode_len
        self.count["evaluation.rows_useful"] += n
        self.count["evaluation.rows_computed"] += n * n
        self.count["evaluation.sentences"] += 1
        self._sentences.add(args[2])

    def start_round(self) -> None:
        """Step intervals never span two rounds."""
        self._last_step_end = None
        self.rounds += 1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from desklm import autograd, cli, corpus, evaluation, model, subwords, synthesis, training

        self._ignore_index = autograd.IGNORE_INDEX
        modules = [m for n, m in sys.modules.items() if n.startswith("desklm")]
        plan = [
            (corpus, "load_source", None),
            (corpus, "mix_corpora", self._words_mixed),
            (synthesis, "generate_notion_dataset", None),
            (synthesis, "parse_numbered_list", self._parsed),
            (synthesis, "parse_tag_response", self._parsed),
            (subwords, "train_subwords", self._merges),
            (subwords, "pack_examples", None),
            (model, "init_params", self._register_params),
            (model, "load_checkpoint", self._register_params),
            (model, "encoder_forward", None),
            (model, "mlm_logits", None),
            (model, "decoder_forward", None),
            (model, "backward", None),
            (model, "save_checkpoint", None),
            (autograd, "backward", None),
            (training, "apply_mlm_masking", self._masked),
            (training, "adamw_step", self._stepped),
            (evaluation, "evaluate_suite", None),
            (evaluation, "load_blimp_pairs", None),
            (evaluation, "pseudo_log_likelihood", self._scored),
            (cli, "cmd_eval", None),
        ]
        for mod, attr, hook in plan:
            name = f"{mod.__name__.split('.')[-1]}.{attr}"
            keep = attr == "pseudo_log_likelihood"
            self._replace_everywhere(modules, getattr(mod, attr),
                                     self._timed(name, getattr(mod, attr), hook, keep))
        for op in AUTOGRAD_OPS:
            fn = getattr(autograd, op)
            self._replace_everywhere(modules, fn, self._op(op, fn))

        sw_cls = subwords.SubwordModel
        self._patch(sw_cls, "encode",
                    self._timed("subwords.encode", sw_cls.encode, self._encoded))
        load = sw_cls.__dict__["load"].__func__
        self._patch(sw_cls, "load", classmethod(self._timed("subwords.load", load)))
        mock = synthesis.MockCompletionClient
        self._patch(mock, "complete",
                    self._timed("synthesis.complete", mock.complete, self._completed))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, modules, old, new) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._patch(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- report --------------------------------------------------------------

    def per_layer(self, losses: dict[str, float]) -> dict[str, float]:
        """Per-round figures of every per-layer metric (0 where unused)."""
        r = max(self.rounds, 1)
        tot, slf, cnt = self.total, self.self_time, self.count

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds > 0 else 0.0

        out = {
            "corpus.load_source_s": tot["corpus.load_source"] / r,
            "corpus.mix_corpora_s": tot["corpus.mix_corpora"] / r,
            "corpus.mix_words_per_s": rate(cnt["corpus.words_mixed"], tot["corpus.mix_corpora"]),
            "synthesis.generate_notion_dataset_s": tot["synthesis.generate_notion_dataset"] / r,
            "synthesis.prompts_completed": cnt["synthesis.completed"] / r,
            "synthesis.responses_parsed_ratio": rate(cnt["synthesis.parsed"],
                                                     cnt["synthesis.completed"]),
            "subwords.train_subwords_s": tot["subwords.train_subwords"] / r,
            "subwords.merges_per_s": rate(cnt["subwords.merges"], tot["subwords.train_subwords"]),
            "subwords.pack_examples_s": tot["subwords.pack_examples"] / r,
            "subwords.encode_tokens_per_s": rate(cnt["subwords.tokens"], tot["subwords.encode"]),
        }
        for op in AUTOGRAD_OPS:
            for d in ("fwd", "bwd"):
                out[f"autograd.{op}.{d}_s"] = slf[f"autograd.{op}.{d}"] / r
        steps = cnt["training.steps"]
        out["autograd.nodes_per_step"] = rate(cnt["autograd.nodes"], steps)
        out["autograd.backward_sweep_self_s"] = slf["autograd.backward"] / r
        for fn in ("encoder_forward", "mlm_logits", "decoder_forward", "backward",
                   "save_checkpoint", "load_checkpoint"):
            out[f"model.{fn}_s"] = tot[f"model.{fn}"] / r
        for b in BLOCKS:
            out[f"model.block.{b}_s"] = self.block_s[b] / r
        step_samples = self.samples["training.step"]
        pll = self.samples["evaluation.pseudo_log_likelihood"]
        out.update({
            "training.step_s_p50": statistics.median(step_samples) if step_samples else 0.0,
            "training.step_s_p90": _quantile(step_samples, 0.9),
            "training.steps": steps / r,
            "training.apply_mlm_masking_s": tot["training.apply_mlm_masking"] / r,
            "training.adamw_step_s": tot["training.adamw_step"] / r,
            "training.mlm_head_useful_ratio": rate(cnt["training.labelled"],
                                                   cnt["training.head_rows"]),
            "training.mlm_loss_final": losses.get("mlm", 0.0),
            "training.aux_loss_final": losses.get("aux", 0.0),
            "evaluation.evaluate_suite_s": tot["evaluation.evaluate_suite"] / r,
            "evaluation.pll_s_p50": statistics.median(pll) if pll else 0.0,
            "evaluation.pll_s_p99": _quantile(pll, 0.99),
            "evaluation.sentences_scored": cnt["evaluation.sentences"] / r,
            "evaluation.logit_rows_useful_ratio": rate(cnt["evaluation.rows_useful"],
                                                       cnt["evaluation.rows_computed"]),
            "evaluation.unique_sentence_ratio": rate(len(self._sentences) * r,
                                                     cnt["evaluation.sentences"]),
            "cli.eval_self_s": slf["cli.cmd_eval"] / r,
        })
        return out

    def span_table(self) -> list[dict]:
        r = max(self.rounds, 1)
        return [{"span": n, "calls_per_round": self.calls[n] / r,
                 "total_s_per_round": self.total[n] / r,
                 "self_s_per_round": self.self_time[n] / r}
                for n in sorted(self.total, key=lambda k: -self.self_time[k])]
