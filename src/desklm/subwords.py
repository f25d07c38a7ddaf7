"""Byte-pair subword vocabulary: training, encoding, and context packing.

Words are split on whitespace; every word except the first in a text keeps
a leading space in its symbol sequence, so decoding is plain concatenation
and round-trips text up to whitespace normalization. Merges are learned by
most-frequent-adjacent-pair counting with lexicographic tie-breaking, so
training is fully deterministic.
"""

from __future__ import annotations

import heapq
import json
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document

SPECIAL_TOKENS = ("<pad>", "<unk>", "<cls>", "<sep>", "<mask>", "<mark>")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID, MARK_ID = range(6)
NUM_SPECIALS = len(SPECIAL_TOKENS)

FORMAT_VERSION = 1

_WORD_RE = re.compile(r"\S+")


class SubwordModel:
    """A trained subword vocabulary: id table plus ordered merges."""

    def __init__(self, vocab: Sequence[str], merges: Sequence[tuple[str, str]]):
        if tuple(vocab[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise ValueError(f"vocab must start with the special tokens {SPECIAL_TOKENS}")
        for i, token in enumerate(vocab):
            if not isinstance(token, str):
                raise ValueError(f"vocab entry {i} is not a string: {token!r}")
        for r, m in enumerate(merges):
            if not (isinstance(m, (list, tuple)) and len(m) == 2
                    and all(isinstance(s, str) for s in m)):
                raise ValueError(f"merge {r} is not a pair of strings: {m!r}")
        self.id_to_token: list[str] = list(vocab)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocab contains duplicate tokens")
        self.merges: list[tuple[str, str]] = [tuple(m) for m in merges]
        self._ranks = {pair: r for r, pair in enumerate(self.merges)}
        self._word_cache: dict[str, tuple[str, ...]] = {}

    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    # -- encoding ----------------------------------------------------------

    def _merge_word(self, word: str) -> tuple[str, ...]:
        """Apply merges to one word form (possibly carrying a leading space)."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        symbols = tuple(word)
        while len(symbols) > 1:
            ranks = [r for r in map(self._ranks.get, zip(symbols, symbols[1:])) if r is not None]
            if not ranks:
                break
            symbols = _merge_symbols(symbols, *self.merges[min(ranks)])
        self._word_cache[word] = symbols
        return symbols

    def encode(self, text: str) -> list[int]:
        """Tokenize text into ids; characters outside the alphabet become UNK."""
        return self.encode_with_offsets(text)[0]

    def encode_with_offsets(self, text: str) -> tuple[list[int], list[tuple[int, int]]]:
        """Encode and also report each token's (start, end) char span in `text`."""
        ids: list[int] = []
        offsets: list[tuple[int, int]] = []
        first = True
        for m in _WORD_RE.finditer(text):
            word = m.group(0) if first else " " + m.group(0)
            first = False
            pos = m.start()
            for piece in self._merge_word(word):
                length = len(piece) - (1 if piece.startswith(" ") else 0)
                ids.append(self.token_to_id.get(piece, UNK_ID))
                offsets.append((pos, pos + length))
                pos += length
        return ids, offsets

    def decode(self, ids: Iterable[int]) -> str:
        """Inverse of encode up to whitespace normalization."""
        return "".join(self.id_to_token[i] for i in ids)

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        obj = {
            "format_version": FORMAT_VERSION,
            "kind": "bpe-subwords",
            "vocab": self.id_to_token,
            "merges": [list(m) for m in self.merges],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f, ensure_ascii=False)
            f.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "SubwordModel":
        with open(path, encoding="utf-8") as f:
            try:
                obj = json.load(f)
                if (not isinstance(obj, dict) or obj.get("kind") != "bpe-subwords"
                        or obj.get("format_version") != FORMAT_VERSION):
                    raise ValueError(f"not a version-{FORMAT_VERSION} bpe-subwords object")
                return cls(obj["vocab"], obj["merges"])
            except (KeyError, TypeError, ValueError) as e:
                reason = f"missing field {e}" if isinstance(e, KeyError) else e
                raise ValueError(f"{path}: bad subword model file: {reason}") from e


def _word_forms(corpus: Iterable[Document]) -> Counter:
    """Frequency of word forms, leading-space-marked except text-initial."""
    freq: Counter = Counter()
    for doc in corpus:
        for i, w in enumerate(doc.text.split()):
            freq[w if i == 0 else " " + w] += 1
    return freq


def _merge_symbols(sym: tuple[str, ...], a: str, b: str) -> tuple[str, ...]:
    """Replace each (a, b) in `sym` with a + b, left to right, no overlaps."""
    out: list[str] = []
    i, n = 0, len(sym)
    while i < n:
        if i + 1 < n and sym[i] == a and sym[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(sym[i])
            i += 1
    return tuple(out)


def train_subwords(corpus: Sequence[Document], vocab_size: int) -> SubwordModel:
    """Learn a byte-pair vocabulary of exactly `vocab_size` tokens.

    The vocabulary is the 6 special tokens, the corpus character alphabet,
    and (vocab_size - 6 - alphabet) merge products. Raises if the corpus
    cannot support that many merges, stating the achievable size.

    Pair counts are taken once and then updated per merge (Sennrich et al.
    2016): a pair -> word index finds the words holding the merged pair,
    and only those are rewritten and recounted. The next merge comes from
    a heap of (-count, pair) entries, stale ones skipped when popped, so
    the highest count wins and ties go to the lexicographically smallest
    pair. No merge product is a special token.
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

    words = [tuple(w) for w in freq]
    counts = list(freq.values())
    pair_counts: Counter = Counter()
    where: dict[tuple[str, str], set[int]] = {}
    for idx, sym in enumerate(words):
        for pair in zip(sym, sym[1:]):
            pair_counts[pair] += counts[idx]
            where.setdefault(pair, set()).add(idx)
    heap = [(-c, p) for p, c in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    for step in range(n_merges):
        # an entry is current only while its count matches the table; a
        # pair that would spell a special token (a literal "<mask>") is
        # skipped the same way, so the vocabulary stays duplicate-free
        while heap and (pair_counts.get(heap[0][1]) != -heap[0][0]
                        or "".join(heap[0][1]) in SPECIAL_TOKENS):
            heapq.heappop(heap)
        if not heap:
            raise ValueError(
                f"corpus supports a vocabulary of at most {base + step} tokens, "
                f"requested {vocab_size}"
            )
        best = heapq.heappop(heap)[1]
        merges.append(best)
        a, b = best
        delta: Counter = Counter()
        # the index may name words that lost the pair in an earlier rewrite
        for idx in where.pop(best):
            old = words[idx]
            new = _merge_symbols(old, a, b)
            if new == old:
                continue
            words[idx] = new
            c = counts[idx]
            for pair in zip(old, old[1:]):
                delta[pair] -= c
            for pair in zip(new, new[1:]):
                delta[pair] += c
                where.setdefault(pair, set()).add(idx)
        for pair, d in delta.items():
            if d:
                c = pair_counts[pair] + d
                if c:
                    pair_counts[pair] = c
                    heapq.heappush(heap, (-c, pair))
                else:
                    del pair_counts[pair]

    vocab = list(SPECIAL_TOKENS) + alphabet + [a + b for a, b in merges]
    return SubwordModel(vocab, merges)


def pack_examples(model: SubwordModel, docs: Sequence[Document],
                  context_size: int) -> np.ndarray:
    """Encode documents, join them with SEP, and slice into fixed windows.

    Returns an int64 array of shape (n_examples, context_size); the final
    partial window is filled with PAD. Token count is conserved: the number
    of non-PAD ids equals the stream length.
    """
    if context_size < 2:
        raise ValueError("context_size must be >= 2")
    stream: list[int] = []
    for i, doc in enumerate(docs):
        if i:
            stream.append(SEP_ID)
        stream.extend(model.encode(doc.text))
    if not stream:
        return np.zeros((0, context_size), dtype=np.int64)
    n = -(-len(stream) // context_size)
    padded = np.full(n * context_size, PAD_ID, dtype=np.int64)
    padded[: len(stream)] = stream
    return padded.reshape(n, context_size)
