"""Minimal-pair preference evaluation via pseudo-log-likelihood.

A sentence's score is the sum over positions of the log-probability of
the original token when that position alone is masked (no length
normalization, so under a uniform model longer sentences score strictly
lower, a known artifact; minimal pairs are near-equal length). A pair is
correct when the grammatical sentence scores strictly higher; ties count
as incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autograd as ag
from . import model as mdl
from .corpus import read_records, str_field
from .model import ParameterSet
from .subwords import SubwordModel, MASK_ID

SUBJECT_VERB = "subject-verb agreement"
DETERMINER_NOUN = "determiner-noun agreement"


@dataclass(frozen=True)
class MinimalPair:
    good: str
    bad: str
    phenomenon: str

    def __post_init__(self):
        if not self.good.split() or not self.bad.split():
            raise ValueError("both sentences must be non-empty, not blank")
        if self.good == self.bad:
            raise ValueError("good and bad sentences must differ")
        if not self.phenomenon:
            raise ValueError("phenomenon must be non-empty")


class EvalReport:
    """One score record per input pair (see `evaluate_suite`), identifying
    strings, and what the records add up to: per-phenomenon correct/total
    counts of the scored pairs, in first-scored order, and the number of
    pairs skipped as too long for the model."""

    def __init__(self, model_id: str, pairs_id: str, scores: Sequence[dict]):
        self.model_id = model_id
        self.pairs_id = pairs_id
        self.scores = list(scores)
        self.counts: dict[str, tuple[int, int]] = {}
        for rec in self.scores:
            if not rec.get("skipped"):
                c, t = self.counts.get(rec["phenomenon"], (0, 0))
                self.counts[rec["phenomenon"]] = (c + int(rec["correct"]), t + 1)
        self.skipped = len(self.scores) - self.pair_count

    @property
    def pair_count(self) -> int:
        return sum(t for _, t in self.counts.values())

    @property
    def macro_average(self) -> float:
        accs = [c / t for c, t in self.counts.values()]
        return sum(accs) / len(accs)

    def to_json(self) -> str:
        obj = {
            "model": self.model_id,
            "pairs": self.pairs_id,
            "phenomena": {
                name: {"correct": c, "total": t, "accuracy": c / t}
                for name, (c, t) in sorted(self.counts.items())
            },
            "macro_average": self.macro_average,
            "pair_count": self.pair_count,
            "skipped": self.skipped,
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def scores_to_jsonl(self) -> str:
        """The per-pair score records, one JSON line each, in input order."""
        return "".join(json.dumps(rec) + "\n" for rec in self.scores)

    def to_text(self) -> str:
        width = max([len(n) for n in self.counts] + [len("phenomenon")])
        lines = [f"{'phenomenon':<{width}}  correct  total  accuracy"]
        for name, (c, t) in sorted(self.counts.items()):
            lines.append(f"{name:<{width}}  {c:>7d}  {t:>5d}  {c / t:8.4f}")
        lines.append(f"{'macro average':<{width}}  {'':>7}  {self.pair_count:>5d}  "
                     f"{self.macro_average:8.4f}")
        if self.skipped:
            lines.append(f"skipped {self.skipped} over-length pairs")
        return "\n".join(lines) + "\n"


# rows of masked copies per encoder pass: a block's (rows, d_ff) FFN
# activation is then about 1 MB, so the elementwise ops between GEMMs run
# in a 2 MB L2 cache instead of streaming an (n * n, d_ff) array from memory
_PLL_ROWS = 256


def pseudo_log_likelihood(params: ParameterSet, subwords: SubwordModel,
                          sentence: str) -> float:
    """Sum of masked-position log-probabilities of the original tokens.

    Copy i of the sentence has position i masked; the n copies are scored
    in blocks of at most `_PLL_ROWS` rows (at least one copy a block).
    """
    ids = subwords.encode(sentence)
    n = len(ids)
    if n == 0:
        raise ValueError(f"sentence tokenizes to zero tokens: {sentence!r}")
    if n > params.config.max_positions:
        raise ValueError(
            f"sentence is {n} tokens, model accepts {params.config.max_positions}"
        )
    arr = np.asarray(ids, dtype=np.int64)
    per_block = max(1, _PLL_ROWS // n)
    logp = np.empty(n)
    with ag.no_grad():
        for start in range(0, n, per_block):
            pos = np.arange(start, min(start + per_block, n))
            k = len(pos)
            batch = np.tile(arr, (k, 1))
            batch[np.arange(k), pos] = MASK_ID
            hidden = mdl.encoder_forward(params, batch, np.ones_like(batch, dtype=bool))
            # the head sees only the masked row of each copy
            flat = ag.reshape(hidden, (k * n, params.config.d_model))
            rows = ag.gather_rows(flat, np.arange(k) * n + pos)
            logp[pos] = ag.log_probs(mdl.mlm_logits(params, rows))[np.arange(k), arr[pos]]
    return float(logp.sum())


def _sentences(pairs: Sequence[MinimalPair]) -> list[str]:
    """Distinct sentences of the pairs, in order of first appearance."""
    return list(dict.fromkeys(s for p in pairs for s in (p.good, p.bad)))


def scorable_pairs(params: ParameterSet, subwords: SubwordModel,
                   pairs: Sequence[MinimalPair]) -> list[MinimalPair]:
    """The pairs whose sentences both fit the model's positions, in input
    order. Raises unless the model and tokenizer have one vocabulary size,
    there are pairs, and at least one of them fits."""
    mdl.check_vocab_sizes(params.config, subwords)
    if not pairs:
        raise ValueError("no pairs to evaluate")
    limit = params.config.max_positions
    length = {s: len(subwords.encode(s)) for s in _sentences(pairs)}
    scored = [p for p in pairs if max(length[p.good], length[p.bad]) <= limit]
    if not scored:
        raise ValueError(f"all {len(pairs)} pairs have a sentence longer than "
                         f"the model's {limit} positions")
    return scored


def evaluate_suite(params: ParameterSet, subwords: SubwordModel,
                   pairs: Sequence[MinimalPair], model_id: str = "",
                   pairs_id: str = "") -> EvalReport:
    """Score every pair, each distinct sentence once.

    Runs `scorable_pairs` first and raises as it does: a pair with a
    sentence longer than the model's positions is skipped and counted as
    such, and a phenomenon whose pairs were all skipped is left out of the
    report. The report's `scores` hold one record per pair, in input order:
    good, bad, phenomenon, then pll_good, pll_bad, margin and correct, or
    `"skipped": true` for a skipped pair.
    """
    scored = scorable_pairs(params, subwords, pairs)
    pll = {s: pseudo_log_likelihood(params, subwords, s) for s in _sentences(scored)}
    scores = []
    for pair in pairs:
        rec = {"good": pair.good, "bad": pair.bad, "phenomenon": pair.phenomenon}
        if pair.good in pll and pair.bad in pll:
            good, bad = pll[pair.good], pll[pair.bad]
            rec.update(pll_good=good, pll_bad=bad, margin=good - bad, correct=good > bad)
        else:
            rec["skipped"] = True
        scores.append(rec)
    return EvalReport(model_id, pairs_id, scores)


# -- synthetic minimal pairs --------------------------------------------------

# closed vocabulary: (singular, plural) noun and verb forms, modifiers,
# and sentence tails; every template slot differs in exactly one token
_NOUNS = [
    ("cat", "cats"), ("dog", "dogs"), ("bird", "birds"), ("horse", "horses"),
    ("teacher", "teachers"), ("farmer", "farmers"), ("student", "students"),
    ("doctor", "doctors"), ("child", "children"), ("woman", "women"),
    ("man", "men"), ("friend", "friends"), ("sister", "sisters"),
    ("brother", "brothers"), ("neighbor", "neighbors"), ("artist", "artists"),
]
_VERBS = [
    ("sleeps", "sleep"), ("runs", "run"), ("sings", "sing"), ("jumps", "jump"),
    ("smiles", "smile"), ("waits", "wait"), ("works", "work"), ("plays", "play"),
    ("reads", "read"), ("writes", "write"), ("listens", "listen"),
    ("dances", "dance"),
]
_ADJECTIVES = ["old", "young", "tall", "small", "happy", "quiet", "clever", "kind"]
_TAILS = [
    "near the river", "in the garden", "at the market", "after lunch",
    "every morning", "on the hill", "by the door", "before dawn",
    "at night", "in the town",
]
_DETERMINERS = [("this", "these"), ("that", "those")]

TOY_KINDS = {"subject-verb": SUBJECT_VERB, "determiner-noun": DETERMINER_NOUN}


def toy_vocabulary_sentences() -> list[str]:
    """Every word of the toy grammar in sentence form, for tokenizer
    training fixtures (covers nouns, verbs, adjectives, tails, determiners)."""
    words: list[str] = ["the"]
    for s, p in _NOUNS + _VERBS + _DETERMINERS:
        words += [s, p]
    words += _ADJECTIVES
    for t in _TAILS:
        words += t.split()
    return [" ".join(words[i: i + 8]) for i in range(0, len(words), 8)]


def generate_toy_minimal_pairs(kind: str, n: int, seed: int) -> list[MinimalPair]:
    """Template-generated agreement pairs over a closed vocabulary.

    The grammatical sentence follows the template grammar; the
    ungrammatical twin flips exactly one token (verb inflection for
    subject-verb, the determiner for determiner-noun). Singular and
    plural subjects are drawn in equal proportion. Pairs are unique by
    rejection, so `n` is at most the grammar's number of distinct pairs;
    deterministic for a given seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    phenomenon = TOY_KINDS.get(kind)
    if phenomenon is None:
        raise ValueError(f"unknown pair kind {kind!r}; "
                         f"expected {' or '.join(map(repr, TOY_KINDS))}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # every draw of number, noun, verb, optional adjective, tail (and
    # determiner) writes a different grammatical sentence
    distinct = 2 * len(_NOUNS) * len(_VERBS) * (len(_ADJECTIVES) + 1) * len(_TAILS)
    if phenomenon == DETERMINER_NOUN:
        distinct *= len(_DETERMINERS)
    if n > distinct:
        raise ValueError(f"n must be at most {distinct}, the distinct {kind} pairs "
                         f"of the toy grammar; got {n}")
    rng = np.random.default_rng(seed)
    pairs: list[MinimalPair] = []
    seen: set[str] = set()
    while len(pairs) < n:
        plural = bool(rng.integers(2))
        noun = _NOUNS[rng.integers(len(_NOUNS))][plural]
        verb_sg, verb_pl = _VERBS[rng.integers(len(_VERBS))]
        good_verb, bad_verb = (verb_pl, verb_sg) if plural else (verb_sg, verb_pl)
        adj = _ADJECTIVES[rng.integers(len(_ADJECTIVES))] if rng.integers(2) else None
        tail = _TAILS[rng.integers(len(_TAILS))]
        np_words = ([adj, noun] if adj else [noun])
        if phenomenon == SUBJECT_VERB:
            subject = ["the"] + np_words
            good = " ".join(subject + [good_verb, tail])
            bad = " ".join(subject + [bad_verb, tail])
        else:
            det_sg, det_pl = _DETERMINERS[rng.integers(len(_DETERMINERS))]
            good_det, bad_det = (det_pl, det_sg) if plural else (det_sg, det_pl)
            good = " ".join([good_det] + np_words + [good_verb, tail])
            bad = " ".join([bad_det] + np_words + [good_verb, tail])
        if good in seen:
            continue
        seen.add(good)
        pairs.append(MinimalPair(good, bad, phenomenon))
    return pairs


# -- pair file io -------------------------------------------------------------

def save_minimal_pairs(pairs: Iterable[MinimalPair], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for p in pairs:
            f.write(json.dumps({"good": p.good, "bad": p.bad,
                                "phenomenon": p.phenomenon}, sort_keys=True) + "\n")


def load_minimal_pairs(path: str | Path) -> list[MinimalPair]:
    """Native format: one JSON record per line, fields good/bad/phenomenon."""
    return read_records(path, lambda r, _: MinimalPair(
        str_field(r, "good"), str_field(r, "bad"), str_field(r, "phenomenon")), "pair")


def load_blimp_pairs(path: str | Path) -> list[MinimalPair]:
    """BLiMP-format loader: fields sentence_good / sentence_bad / UID."""
    return read_records(path, lambda r, _: MinimalPair(
        str_field(r, "sentence_good"), str_field(r, "sentence_bad"), str_field(r, "UID")),
        "BLiMP")
