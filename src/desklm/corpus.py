"""Corpus ingestion, validation, and budget-constrained mixing.

Four kinds of training text flow through here: unconstrained documents,
paraphrase triplets (sentence / paraphrase / hard negative), generated
grammar sentences, and dictionary entries. Documents and triplets live in
line-delimited JSON; dictionary entries in CSV; mixing manifests in JSON.

Mixing is deterministic: a manifest (sources, per-source word budgets,
seed) always produces the same document list, truncated at document
boundaries so no per-source budget is ever exceeded.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

SOURCE_KINDS = ("unconstrained", "triplet", "grammar_gen", "grammar_book", "wiktionary")

MAX_WIKTIONARY_EXAMPLES = 13

# Sentinel values a grammar tag can take instead of a word list.
SENTENTIAL_YES = "yes"
SENTENTIAL_NO = "no"
NOT_PRESENT = "n/a"
_TAG_SENTINELS = (SENTENTIAL_YES, SENTENTIAL_NO, NOT_PRESENT)


def count_words(text: str) -> int:
    """Number of maximal non-whitespace runs in `text` (empty -> 0)."""
    return len(text.split())


@dataclass(frozen=True)
class Document:
    """One unit of training text with source attribution; `word_count` is
    derived from `text`."""

    id: str
    source: str
    text: str
    word_count: int = field(init=False)

    def __post_init__(self):
        if self.source not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.source!r}, expected one of {SOURCE_KINDS}")
        if not self.text:
            raise ValueError(f"document {self.id!r}: text must be non-empty")
        object.__setattr__(self, "word_count", count_words(self.text))


@dataclass(frozen=True)
class TripletExample:
    """A contrastive triple: sentence, its paraphrase, and a hard negative."""

    sent0: str
    sent1: str
    hard_neg: str

    def __post_init__(self):
        for name in ("sent0", "sent1", "hard_neg"):
            if not getattr(self, name):
                raise ValueError(f"triplet field {name!r} must be non-empty")
        if self.sent0 == self.hard_neg:
            raise ValueError("sent0 and hard_neg must differ")


@dataclass(frozen=True)
class WiktionaryEntry:
    """Word sense: headword, part of speech, definition, example sentences."""

    word: str
    pos: str
    definition: str
    examples: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.word:
            raise ValueError("entry word must be non-empty")
        if not self.definition:
            raise ValueError(f"entry {self.word!r}: definition must be non-empty")
        object.__setattr__(self, "examples", tuple(self.examples))
        if len(self.examples) > MAX_WIKTIONARY_EXAMPLES:
            raise ValueError(
                f"entry {self.word!r}: {len(self.examples)} examples exceeds "
                f"{MAX_WIKTIONARY_EXAMPLES}"
            )


@dataclass(frozen=True)
class NotionTag:
    """A grammar-notion annotation on a sentence.

    `value` is either a tuple of corresponding words, or one of the
    sentinels "yes" / "no" (clause-level notions) / "n/a" (not present).
    """

    notion: str
    value: str | tuple[str, ...]

    def __post_init__(self):
        if not self.notion:
            raise ValueError("tag notion must be non-empty")
        if isinstance(self.value, str):
            if self.value not in _TAG_SENTINELS:
                raise ValueError(
                    f"tag value string must be one of {_TAG_SENTINELS}, got {self.value!r}"
                )
        else:
            object.__setattr__(self, "value", tuple(self.value))
            if not all(isinstance(w, str) for w in self.value):
                raise ValueError(f"tag {self.notion!r}: words must be strings")


@dataclass(frozen=True)
class GrammarExample:
    """A generated sentence, the topic it was generated for, and its tags."""

    sentence: str
    topic: str
    tags: tuple[NotionTag, ...] = ()

    def __post_init__(self):
        if not self.sentence:
            raise ValueError("grammar example sentence must be non-empty")
        object.__setattr__(self, "tags", tuple(self.tags))
        notions = [t.notion for t in self.tags]
        if len(notions) != len(set(notions)):
            raise ValueError(f"duplicate notion tag on sentence {self.sentence!r}")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    kind: str
    budget: int

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.budget < 0:
            raise ValueError(f"budget for {self.path!r} must be >= 0")


@dataclass(frozen=True)
class CorpusManifest:
    """Recipe for a mixed corpus: sources, per-source word budgets, seed."""

    entries: tuple[ManifestEntry, ...]
    total_budget: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        allocated = sum(e.budget for e in self.entries)
        if allocated > self.total_budget:
            raise ValueError(
                f"entry budgets sum to {allocated}, exceeding total budget {self.total_budget}"
            )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def str_field(record: dict, name: str, default: str | int | None = None, kind: type = str):
    """The field `name` of a record, a string or, with `kind` int, an integer
    that is not a bool; required when `default` is None."""
    value = record[name] if default is None else record.get(name, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        noun = "a string" if kind is str else "an integer"
        raise TypeError(f"field {name!r} must be {noun}, got {type(value).__name__}")
    return value


def _reason(e: Exception) -> str:
    if isinstance(e, KeyError):
        return f"missing field {e.args[0]!r}"
    if isinstance(e, json.JSONDecodeError):
        return f"malformed JSON: {e.msg} at column {e.colno}"
    if isinstance(e, OSError):
        return e.strerror or str(e)
    return str(e)


class reading(AbstractContextManager):
    """Fault boundary of one input file, entered once per file: a KeyError,
    TypeError, ValueError, csv.Error or OSError (bar FileNotFoundError) raised
    inside becomes ValueError "<path>: [line <n>: ]bad <what>: <reason>".
    Readers set `.line`; a whole-file JSON document is named by its own line."""

    _FAULTS = (KeyError, TypeError, ValueError, csv.Error, OSError)

    def __init__(self, path: str | Path, what: str):
        self.path = path
        self.what = what
        self.line: int | None = None

    def __exit__(self, kind, e, tb) -> None:
        if isinstance(e, self._FAULTS) and not isinstance(e, FileNotFoundError):
            line = self.line
            if line is None and isinstance(e, json.JSONDecodeError):
                line = e.lineno
            at = "" if line is None else f"line {line}: "
            raise ValueError(f"{self.path}: {at}bad {self.what}: {_reason(e)}") from e


def _records(path: str | Path, build: Callable[[dict, int], object], what: str) -> Iterator:
    with reading(path, f"{what} record") as at, open(path, "rb") as f:
        for at.line, line in enumerate(f, start=1):
            if not line.strip():
                continue
            record = json.loads(line.decode("utf-8"))  # per line, so a bad byte names its line
            if not isinstance(record, dict):
                raise TypeError(f"expected a JSON object, got {type(record).__name__}")
            yield build(record, at.line)


def read_records(path: str | Path, build: Callable[[dict, int], object], what: str) -> list:
    """`build(record, line number)` for each non-blank line of a JSONL file,
    inside `reading`; a line must hold a JSON object."""
    return list(_records(path, build, what))


def _first_record(path: str | Path, what: str) -> dict:
    """The first record of a JSONL file, or {} when it has none."""
    return next(_records(path, lambda record, _: record, what), {})


def load_triplets(path: str | Path) -> list[TripletExample]:
    """Read line-delimited triplet records {sent0, sent1, hard_neg}."""
    return read_records(path, lambda r, _: TripletExample(
        str_field(r, "sent0"), str_field(r, "sent1"), str_field(r, "hard_neg")), "triplet")


def save_triplets(path: str | Path, triplets: Iterable[TripletExample]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in triplets:
            f.write(json.dumps(
                {"sent0": t.sent0, "sent1": t.sent1, "hard_neg": t.hard_neg},
                ensure_ascii=False) + "\n")


def flatten_triplets(triplets: Sequence[TripletExample]) -> list[Document]:
    """Expand each triplet into three plain documents, order preserved."""
    docs = []
    for i, t in enumerate(triplets):
        for part in ("sent0", "sent1", "hard_neg"):
            docs.append(Document(id=f"triplet-{i:06d}-{part}", source="triplet",
                                 text=getattr(t, part)))
    return docs


def load_documents(path: str | Path, source: str | None = None) -> list[Document]:
    """Read line-delimited document records {id?, source?, text}.

    `source` overrides the per-record source kind when given; a record
    without one is "unconstrained".
    """
    stem = Path(path).stem
    return read_records(path, lambda r, lineno: Document(
        text=str_field(r, "text"), source=source or str_field(r, "source", "unconstrained"),
        id=str_field(r, "id", f"{stem}-{lineno:06d}")), "document")


def save_documents(path: str | Path, docs: Iterable[Document]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for d in docs:
            f.write(json.dumps({"id": d.id, "source": d.source, "text": d.text},
                               ensure_ascii=False) + "\n")


def load_text_documents(path: str | Path, source: str) -> list[Document]:
    """Split a plain-text file into paragraph documents (blank-line separated)."""
    with reading(path, "text file"):
        raw = Path(path).read_text(encoding="utf-8")
    stem = Path(path).stem
    docs = []
    for k, block in enumerate(raw.split("\n\n")):
        block = block.strip()
        if block:
            docs.append(Document(id=f"{stem}-{k:05d}", source=source, text=block))
    return docs


_WIKT_HEADER = ["word", "pos", "definition"] + [
    f"example_{k}" for k in range(1, MAX_WIKTIONARY_EXAMPLES + 1)
]


def parse_wiktionary_csv(path: str | Path) -> list[WiktionaryEntry]:
    """Read dictionary rows: word, pos, definition, example_1..example_13.

    Empty example cells are dropped; row order is preserved. An invalid row
    raises naming the file line it starts on, never a partial entry.
    """
    entries = []
    with reading(path, "dictionary CSV") as at, open(path, encoding="utf-8", newline="") as f:
        # decoded whole, so a bad byte is not blamed on a row; strict, so an open quote raises
        reader = csv.reader(io.StringIO(f.read(), newline=""), strict=True)
        at.line = 1
        header = next(reader, [])
        if header[:3] != _WIKT_HEADER[:3] or len(header) > len(_WIKT_HEADER):
            raise ValueError("expected the header word, pos, definition, "
                             f"example_1 .. example_{MAX_WIKTIONARY_EXAMPLES}")
        while True:
            at.line = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                break
            if not row:
                continue
            if not 3 <= len(row) <= len(_WIKT_HEADER):
                raise ValueError(f"expected 3 to {len(_WIKT_HEADER)} cells (word, pos, "
                                 f"definition, examples), got {len(row)}")
            word, pos, definition = row[0], row[1], row[2]
            examples = tuple(cell.strip() for cell in row[3:] if cell.strip())
            entries.append(WiktionaryEntry(word, pos, definition, examples))
    return entries


def write_wiktionary_csv(path: str | Path, entries: Iterable[WiktionaryEntry]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_WIKT_HEADER)
        for e in entries:
            pad = [""] * (MAX_WIKTIONARY_EXAMPLES - len(e.examples))
            writer.writerow([e.word, e.pos, e.definition, *e.examples, *pad])


def _tag_to_json(tag: NotionTag) -> dict:
    value = list(tag.value) if isinstance(tag.value, tuple) else tag.value
    return {"notion": tag.notion, "value": value}


def _tag_from_json(obj: dict) -> NotionTag:
    if not isinstance(obj, dict):
        raise TypeError(f"tag must be an object, got {type(obj).__name__}")
    value = obj["value"]
    return NotionTag(str_field(obj, "notion"),
                     tuple(value) if isinstance(value, list) else value)


def save_grammar_examples(path: str | Path, examples: Iterable[GrammarExample]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(json.dumps(
                {"sentence": ex.sentence, "topic": ex.topic,
                 "tags": [_tag_to_json(t) for t in ex.tags]},
                ensure_ascii=False) + "\n")


def load_grammar_examples(path: str | Path) -> list[GrammarExample]:
    return read_records(path, lambda r, _: GrammarExample(
        sentence=str_field(r, "sentence"), topic=str_field(r, "topic", ""),
        tags=tuple(_tag_from_json(t) for t in r.get("tags", []))), "grammar")


def load_manifest(path: str | Path) -> CorpusManifest:
    with reading(path, "manifest"), open(path, encoding="utf-8") as f:
        obj = json.load(f)
        entries = tuple(ManifestEntry(str_field(e, "path"), str_field(e, "kind"),
                                      str_field(e, "budget", kind=int)) for e in obj["entries"])
        return CorpusManifest(entries=entries,
                              total_budget=str_field(obj, "total_budget", kind=int),
                              seed=str_field(obj, "seed", 0, int))


def save_manifest(path: str | Path, manifest: CorpusManifest) -> None:
    obj = {
        "total_budget": manifest.total_budget,
        "seed": manifest.seed,
        "entries": [{"path": e.path, "kind": e.kind, "budget": e.budget}
                    for e in manifest.entries],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def corpus_digest(docs: Sequence[Document]) -> str:
    """Stable sha256 over document ids and text, for run manifests."""
    h = hashlib.sha256()
    for d in docs:
        h.update(d.id.encode("utf-8"))
        h.update(b"\x00")
        h.update(d.text.encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------

def mix_corpora(manifest: CorpusManifest,
                sources: Sequence[Sequence[Document]]) -> list[Document]:
    """Select documents from each source under its word budget.

    Each source is shuffled by the manifest seed, then documents are taken
    greedily in shuffled order, skipping any that would overflow the budget
    (truncation happens only at document boundaries). A source that cannot
    fill its budget is emitted in full with a shortfall warning.
    """
    if len(sources) != len(manifest.entries):
        raise ValueError(
            f"manifest has {len(manifest.entries)} entries but {len(sources)} "
            "sources were provided"
        )
    mixed: list[Document] = []
    for i, (entry, docs) in enumerate(zip(manifest.entries, sources)):
        if entry.budget == 0:
            continue
        rng = np.random.default_rng([manifest.seed, i])
        order = rng.permutation(len(docs))
        taken = 0
        for j in order:
            doc = docs[int(j)]
            if taken + doc.word_count <= entry.budget:
                mixed.append(doc)
                taken += doc.word_count
        if taken < entry.budget:
            log.warning("source %s: budget %d words, only %d available after selection",
                        entry.path or f"#{i}", entry.budget, taken)
    return mixed


def load_source(path: str | Path, kind: str | None) -> list[Document]:
    """Load one manifest entry as documents, dispatching on kind and suffix.

    Kind "triplet" reads triplet records, whatever the suffix, and flattens
    them. Otherwise .txt files become paragraph documents of the given kind,
    and .csv files are dictionaries: each entry (headword, definition,
    examples) becomes one document of the given kind.
    For .jsonl, a grammar-kind file whose first record has a "sentence"
    field reads generated-sentence records; anything else reads document
    records. Kind None labels nothing: each document record keeps its own
    source ("unconstrained" when it has none), .txt paragraphs are
    "unconstrained" and dictionary entries "wiktionary".
    """
    p = Path(path)
    if kind == "triplet":
        return flatten_triplets(load_triplets(p))
    if p.suffix == ".txt":
        return load_text_documents(p, kind or "unconstrained")
    if (kind in ("grammar_gen", "grammar_book") and p.suffix == ".jsonl"
            and "sentence" in _first_record(p, kind)):
        examples = load_grammar_examples(p)
        return [Document(id=f"{p.stem}-{i:06d}", source=kind, text=ex.sentence)
                for i, ex in enumerate(examples)]
    if p.suffix == ".csv":
        entries = parse_wiktionary_csv(p)
        return [Document(id=f"{p.stem}-{i:06d}", source=kind or "wiktionary",
                         text=" ".join([f"{e.word} ({e.pos}): {e.definition}",
                                        *e.examples]))
                for i, e in enumerate(entries)]
    return load_documents(p, source=kind)


def mix_from_manifest(manifest: CorpusManifest) -> list[Document]:
    """Load every manifest source from disk and mix under the budgets."""
    sources = [load_source(e.path, e.kind) for e in manifest.entries]
    return mix_corpora(manifest, sources)


def source_word_totals(docs: Iterable[Document]) -> dict[str, int]:
    """Total word count per source kind."""
    totals: dict[str, int] = {}
    for d in docs:
        totals[d.source] = totals.get(d.source, 0) + d.word_count
    return totals
