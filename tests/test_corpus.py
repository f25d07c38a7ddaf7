"""Corpus types, serialization, and budgeted mixing."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from desklm import corpus as cp

# a published paraphrase-triplet sample used as a fixed reference point
TRIPLET_SENT0 = "One of our number will carry out your instructions minutely."
TRIPLET_SENT1 = ("One person from our group will execute your instructions "
                 "with great attention to detail.")
TRIPLET_NEG = "Each member of our group will carry out your instructions differently."

TAGGED_SENTENCE = ("The engineers proposed a new design for the bridge, while the "
                   "architects focused on the aesthetic elements, emphasizing "
                   "sustainability instead.")


def test_count_words():
    assert cp.count_words("") == 0
    assert cp.count_words("one") == 1
    assert cp.count_words("  spaced   out\ttabs\nnewlines ") == 4
    assert cp.count_words(TRIPLET_SENT0) == 10


class TestDocument:
    def test_word_count_derived(self):
        d = cp.Document(id="x", source="unconstrained", text="three word text")
        assert d.word_count == 3

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            cp.Document(id="x", source="unconstrained", text="")

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown source"):
            cp.Document(id="x", source="mystery", text="hi")


class TestTriplets:
    def test_validation(self):
        with pytest.raises(ValueError, match="sent1"):
            cp.TripletExample("a", "", "c")
        with pytest.raises(ValueError, match="differ"):
            cp.TripletExample("same", "para", "same")

    def test_flatten_order_and_ids(self):
        t = cp.TripletExample(TRIPLET_SENT0, TRIPLET_SENT1, TRIPLET_NEG)
        docs = cp.flatten_triplets([t, t])
        assert len(docs) == 6
        assert [d.text for d in docs[:3]] == [TRIPLET_SENT0, TRIPLET_SENT1, TRIPLET_NEG]
        assert docs[0].id == "triplet-000000-sent0"
        assert docs[5].id == "triplet-000001-hard_neg"
        assert all(d.source == "triplet" for d in docs)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        triplets = [cp.TripletExample(TRIPLET_SENT0, TRIPLET_SENT1, TRIPLET_NEG)]
        cp.save_triplets(path, triplets)
        assert cp.load_triplets(path) == triplets

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"sent0": "a", "sent1": "b", "hard_neg": "c"})
                        + "\n" + json.dumps({"sent0": "a", "sent1": "b"}) + "\n")
        with pytest.raises(ValueError) as err:
            cp.load_triplets(path)
        assert str(err.value) == f"{path}: line 2: bad triplet record: missing field 'hard_neg'"

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"sent0": "a", "sent1": "b", "hard_neg": "c"}\nnot json\n')
        with pytest.raises(ValueError) as err:
            cp.load_triplets(path)
        assert str(err.value).startswith(f"{path}: line 2: bad triplet record: malformed JSON")


def _fault_policy_breaches(source: str) -> list[str]:
    """Places outside the `reading` boundary that report a file fault
    themselves: a raise whose exception is built from a variable named
    `path`, or an except clause catching KeyError, TypeError or csv.Error."""
    tree = ast.parse(source)
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "reading"
              for node in ast.walk(cls)}
    breaches = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Raise) and node.exc is not None and any(
                isinstance(n, ast.Name) and n.id == "path" for n in ast.walk(node.exc)):
            breaches.append(f"line {node.lineno}: raise built from `path`")
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught = {ast.unparse(t) for t in types} & {"KeyError", "TypeError", "csv.Error"}
            if caught:
                breaches.append(f"line {node.lineno}: except {', '.join(sorted(caught))}")
    return breaches


def test_fault_policy_lives_in_the_boundary():
    package = Path(cp.__file__).parent
    breaches = {f.name: _fault_policy_breaches(f.read_text(encoding="utf-8"))
                for f in sorted(package.glob("*.py"))}
    assert {name: found for name, found in breaches.items() if found} == {}


def test_fault_policy_check_catches_a_reader_of_its_own():
    snippet = ("def load(path):\n"
               "    try:\n"
               "        return parse(path)\n"
               "    except (KeyError, ValueError):\n"
               "        raise ValueError(f\"{path}: bad\")\n")
    assert _fault_policy_breaches(snippet) == ["line 4: except KeyError",
                                               "line 5: raise built from `path`"]


class TestRecordReader:
    """Every JSONL format goes through one reader with one error form."""

    def _error(self, tmp_path, load, data: bytes) -> tuple[str, str]:
        path = tmp_path / "r.jsonl"
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            load(path)
        return str(path), str(err.value)

    def test_mistyped_field_rejected_where_read(self, tmp_path):
        path, msg = self._error(tmp_path, cp.load_documents,
                                b'\n{"source": "unconstrained", "text": 5}\n')
        assert msg == (f"{path}: line 2: bad document record: "
                       "field 'text' must be a string, got int")

    def test_non_object_line(self, tmp_path):
        path, msg = self._error(tmp_path, cp.load_triplets, b'["a", "b", "c"]\n')
        assert msg == f"{path}: line 1: bad triplet record: expected a JSON object, got list"

    @pytest.mark.parametrize("tag,reason", [
        (b'5', "tag must be an object, got int"),
        (b'{"notion": "n", "value": ["a", 5]}', "tag 'n': words must be strings")])
    def test_bad_tag(self, tmp_path, tag, reason):
        path, msg = self._error(tmp_path, cp.load_grammar_examples,
                                b'{"sentence": "a b", "tags": [' + tag + b']}\n')
        assert msg == f"{path}: line 1: bad grammar record: {reason}"

    def test_bad_utf8_names_line(self, tmp_path):
        path, msg = self._error(tmp_path, cp.load_documents,
                                b'{"source": "unconstrained", "text": "a"}\n\xff\n')
        assert msg.startswith(f"{path}: line 2: bad document record: 'utf-8' codec")


class TestWiktionary:
    def test_entry_validation(self):
        with pytest.raises(ValueError, match="exceeds"):
            cp.WiktionaryEntry("w", "noun", "d", tuple(f"e{i}" for i in range(14)))
        with pytest.raises(ValueError, match="definition"):
            cp.WiktionaryEntry("w", "noun", "")

    def test_csv_round_trip_drops_empty_cells(self, tmp_path):
        path = tmp_path / "w.csv"
        entries = [
            cp.WiktionaryEntry("run", "verb", "to move quickly",
                               ("She runs daily.", "They ran home.")),
            cp.WiktionaryEntry("run", "noun", "an act of running", ()),
        ]
        cp.write_wiktionary_csv(path, entries)
        assert cp.parse_wiktionary_csv(path) == entries
        # blank example cells between real ones are dropped too
        rows = path.read_text().splitlines()
        rows[1] = rows[1].replace("They ran home.", "")
        path.write_text("\n".join(rows) + "\n")
        again = cp.parse_wiktionary_csv(path)
        assert again[0].examples == ("She runs daily.",)

    def test_too_many_example_cells(self, tmp_path):
        path = tmp_path / "w.csv"
        cells = ["w", "noun", "def"] + [f"e{i}" for i in range(14)]
        header = ",".join(["word", "pos", "definition"]
                          + [f"example_{k}" for k in range(1, 14)])
        path.write_text(header + "\n" + ",".join(cells) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            cp.parse_wiktionary_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            cp.parse_wiktionary_csv(path)

    def test_quoted_commas_and_newlines_round_trip(self, tmp_path):
        path = tmp_path / "w.csv"
        entries = [cp.WiktionaryEntry("a, b", "noun", 'the "first", \r\nsaid so',
                                      ('"Quoted," she said.', "two\nlines")),
                   cp.WiktionaryEntry("c", "verb", "plain")]
        cp.write_wiktionary_csv(path, entries)
        assert cp.parse_wiktionary_csv(path) == entries

    def test_unclosed_quote_names_the_line_its_row_starts_on(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("word,pos,definition\n\na,noun,first\n"
                        'b,noun,"second opens a quote\nc,noun,third\n')
        with pytest.raises(ValueError) as err:
            cp.parse_wiktionary_csv(path)
        assert str(err.value) == f"{path}: line 4: bad dictionary CSV: unexpected end of data"


class TestGrammarExamples:
    def test_tag_validation(self):
        assert cp.NotionTag("common noun", ("engineers", "design")).value == \
            ("engineers", "design")
        assert cp.NotionTag("adjunct clause", cp.SENTENTIAL_YES).value == "yes"
        with pytest.raises(ValueError, match="one of"):
            cp.NotionTag("x", "maybe")

    def test_duplicate_notion_rejected(self):
        tags = (cp.NotionTag("common noun", ("a",)), cp.NotionTag("common noun", ("b",)))
        with pytest.raises(ValueError, match="duplicate"):
            cp.GrammarExample(sentence="s", topic="t", tags=tags)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.jsonl"
        examples = [cp.GrammarExample(
            sentence=TAGGED_SENTENCE, topic="engineering",
            tags=(cp.NotionTag("common noun",
                               ("engineers", "design", "bridge", "architects",
                                "elements", "sustainability")),
                  cp.NotionTag("adjunct clause", cp.SENTENTIAL_YES),
                  cp.NotionTag("ellipsis gapping", cp.NOT_PRESENT)))]
        cp.save_grammar_examples(path, examples)
        assert cp.load_grammar_examples(path) == examples


class TestManifest:
    def test_budget_sum_checked(self):
        entries = (cp.ManifestEntry("a.jsonl", "triplet", 600),
                   cp.ManifestEntry("b.txt", "unconstrained", 500))
        with pytest.raises(ValueError, match="exceeding total"):
            cp.CorpusManifest(entries=entries, total_budget=1000)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            cp.ManifestEntry("a.jsonl", "triplet", -1)

    def test_published_budget_round_trip(self, tmp_path):
        # word budgets of the three provided-pretraining sources we mirror
        entries = (cp.ManifestEntry("simple_wikipedia.txt", "unconstrained", 145000),
                   cp.ManifestEntry("gutenberg.txt", "unconstrained", 254000),
                   cp.ManifestEntry("switchboard.txt", "unconstrained", 147000))
        manifest = cp.CorpusManifest(entries=entries, total_budget=10_000_000, seed=7)
        path = tmp_path / "m.json"
        cp.save_manifest(path, manifest)
        loaded = cp.load_manifest(path)
        assert loaded == manifest
        assert [e.budget for e in loaded.entries] == [145000, 254000, 147000]

    def _load_written(self, tmp_path, text):
        path = tmp_path / "bad_manifest.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            cp.load_manifest(path)
        assert str(exc.value).startswith(f"{path}: ")
        return str(exc.value)

    def _manifest_text(self, kind="unconstrained", budget=5, total=10, path="a.txt"):
        return json.dumps({"total_budget": total, "entries": [
            {"path": path, "kind": kind, "budget": budget}]})

    def test_non_string_path_names_the_file(self, tmp_path):
        msg = self._load_written(tmp_path, self._manifest_text(path=5))
        assert "field 'path' must be a string, got int" in msg

    def test_unknown_kind_names_the_file(self, tmp_path):
        msg = self._load_written(tmp_path, self._manifest_text(kind="novel"))
        assert "unknown source kind 'novel'" in msg

    def test_non_integer_budget_names_the_file(self, tmp_path):
        msg = self._load_written(tmp_path, self._manifest_text(budget="five"))
        assert "field 'budget' must be an integer, got str" in msg

    def test_truncated_json_names_the_file(self, tmp_path):
        self._load_written(tmp_path, self._manifest_text()[:21])

    def test_budgets_over_total_name_the_file(self, tmp_path):
        msg = self._load_written(tmp_path, self._manifest_text(budget=11, total=10))
        assert "exceeding total budget 10" in msg

    def test_negative_seed_names_the_file(self, tmp_path):
        text = json.dumps({**json.loads(self._manifest_text()), "seed": -3})
        msg = self._load_written(tmp_path, text)
        assert "seed must be non-negative, got -3" in msg


class TestMixing:
    def _docs(self, rng, n, prefix="d"):
        return [cp.Document(id=f"{prefix}-{i}", source="unconstrained",
                            text=" ".join(["w"] * int(rng.integers(1, 30))))
                for i in range(n)]

    def test_budgets_respected(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n_sources = int(rng.integers(1, 4))
            entries = tuple(cp.ManifestEntry(f"s{k}.jsonl", "unconstrained",
                                             int(rng.integers(0, 300)))
                            for k in range(n_sources))
            manifest = cp.CorpusManifest(
                entries=entries,
                total_budget=sum(e.budget for e in entries) + int(rng.integers(0, 100)),
                seed=trial)
            sources = [self._docs(rng, int(rng.integers(0, 40)), prefix=f"src{k}")
                       for k, _ in enumerate(entries)]
            mixed = cp.mix_corpora(manifest, sources)
            for entry, docs in zip(entries, sources):
                ids = {d.id for d in docs}
                taken = sum(d.word_count for d in mixed if d.id in ids)
                assert taken <= entry.budget
            assert sum(d.word_count for d in mixed) <= manifest.total_budget

    def test_zero_budget_skips_source(self):
        rng = np.random.default_rng(1)
        entries = (cp.ManifestEntry("a", "unconstrained", 0),
                   cp.ManifestEntry("b", "unconstrained", 100))
        manifest = cp.CorpusManifest(entries=entries, total_budget=100)
        src_a = self._docs(rng, 5)
        src_b = [cp.Document(id="keep-0", source="unconstrained", text="x y z")]
        mixed = cp.mix_corpora(manifest, [src_a, src_b])
        assert [d.id for d in mixed] == ["keep-0"]

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(2)
        docs = self._docs(rng, 50)
        entries = (cp.ManifestEntry("a", "unconstrained", 200),)
        m1 = cp.CorpusManifest(entries=entries, total_budget=200, seed=3)
        out1 = cp.mix_corpora(m1, [docs])
        out2 = cp.mix_corpora(m1, [docs])
        assert [d.id for d in out1] == [d.id for d in out2]
        m2 = cp.CorpusManifest(entries=entries, total_budget=200, seed=4)
        out3 = cp.mix_corpora(m2, [docs])
        assert [d.id for d in out1] != [d.id for d in out3]

    def test_shortfall_logged(self, caplog):
        entries = (cp.ManifestEntry("tiny", "unconstrained", 1000),)
        manifest = cp.CorpusManifest(entries=entries, total_budget=1000)
        docs = [cp.Document(id="only", source="unconstrained", text="a b c")]
        with caplog.at_level("WARNING"):
            mixed = cp.mix_corpora(manifest, [docs])
        assert len(mixed) == 1
        assert any("only 3 available" in r.message for r in caplog.records)

    def test_source_count_mismatch(self):
        manifest = cp.CorpusManifest(
            entries=(cp.ManifestEntry("a", "unconstrained", 10),), total_budget=10)
        with pytest.raises(ValueError, match="1 entries but 2"):
            cp.mix_corpora(manifest, [[], []])

    def test_oversized_documents_skipped_not_truncated(self):
        entries = (cp.ManifestEntry("a", "unconstrained", 5),)
        manifest = cp.CorpusManifest(entries=entries, total_budget=5)
        docs = [cp.Document(id="big", source="unconstrained", text=" ".join(["w"] * 9)),
                cp.Document(id="fits", source="unconstrained", text="a b c")]
        mixed = cp.mix_corpora(manifest, [docs])
        assert [d.id for d in mixed] == ["fits"]


class TestLoadSource:
    def test_text_paragraphs(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text("first paragraph here\n\nsecond one\n\n\nthird\n")
        docs = cp.load_source(path, "unconstrained")
        assert [d.text for d in docs] == ["first paragraph here", "second one", "third"]
        assert docs[0].id == "doc-00000"

    def test_triplet_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        cp.save_triplets(path, [cp.TripletExample("a b", "c d", "e f")])
        docs = cp.load_source(path, "triplet")
        assert len(docs) == 3 and docs[0].source == "triplet"

    def test_triplet_kind_reads_triplet_records_only(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a b\n\nc d\n\ne f\n")
        with pytest.raises(ValueError, match="line 1: bad triplet record"):
            cp.load_source(path, "triplet")

    def test_grammar_jsonl(self, tmp_path):
        path = tmp_path / "g.jsonl"
        cp.save_grammar_examples(path, [cp.GrammarExample(sentence="a b c", topic="t")])
        docs = cp.load_source(path, "grammar_gen")
        assert [d.text for d in docs] == ["a b c"]
        assert docs[0].source == "grammar_gen"

    def test_grammar_jsonl_bad_tag_names_value(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"sentence": "a b c", "topic": "t", '
                        '"tags": [{"notion": "negation", "value": "maybe"}]}\n')
        with pytest.raises(ValueError) as err:
            cp.load_source(path, "grammar_gen")
        message = str(err.value)
        assert str(path) in message and "line 1" in message and "'maybe'" in message
        assert "missing field" not in message

    def test_grammar_kind_document_records(self, tmp_path):
        path = tmp_path / "g.jsonl"
        cp.save_documents(path, [cp.Document(id="x", source="grammar_gen", text="d e")])
        docs = cp.load_source(path, "grammar_book")
        assert [(d.id, d.text, d.source) for d in docs] == [("x", "d e", "grammar_book")]

    def test_wiktionary_csv(self, tmp_path):
        path = tmp_path / "w.csv"
        cp.write_wiktionary_csv(path, [
            cp.WiktionaryEntry("sprocket", "noun", "a toothed wheel",
                               ("The sprocket turned.",))])
        docs = cp.load_source(path, "wiktionary")
        assert docs[0].text == "sprocket (noun): a toothed wheel The sprocket turned."

    @pytest.mark.parametrize("kind, source", [("wiktionary", "wiktionary"),
                                              (None, "wiktionary"),
                                              ("unconstrained", "unconstrained")])
    def test_csv_reads_as_a_dictionary_whatever_the_kind(self, tmp_path, kind, source):
        path = tmp_path / "d.csv"
        cp.write_wiktionary_csv(path, [
            cp.WiktionaryEntry("sprocket", "noun", "a toothed wheel", ()),
            cp.WiktionaryEntry("gear", "noun", "a wheel", ("It turned.",))])
        docs = cp.load_source(path, kind)
        assert [(d.id, d.source, d.text) for d in docs] == [
            ("d-000000", source, "sprocket (noun): a toothed wheel"),
            ("d-000001", source, "gear (noun): a wheel It turned.")]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.jsonl"):
            cp.load_source(tmp_path / "nope.jsonl", "unconstrained")

    def test_no_kind_keeps_each_record_source(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a b"}\n{"source": "triplet", "text": "c d"}\n')
        docs = cp.load_source(path, None)
        assert [d.source for d in docs] == ["unconstrained", "triplet"]
        text = tmp_path / "d.txt"
        text.write_text("first paragraph\n\nsecond\n")
        assert [d.source for d in cp.load_source(text, None)] == ["unconstrained"] * 2


def test_source_word_totals():
    docs = [cp.Document(id="1", source="triplet", text="a b"),
            cp.Document(id="2", source="triplet", text="c"),
            cp.Document(id="3", source="unconstrained", text="d e f")]
    totals = cp.source_word_totals(docs)
    assert totals == {"triplet": 3, "unconstrained": 3}
    assert sum(totals.values()) == sum(d.word_count for d in docs)


def test_corpus_digest_sensitive_to_content_and_order():
    a = cp.Document(id="1", source="triplet", text="a b")
    b = cp.Document(id="2", source="triplet", text="c d")
    assert cp.corpus_digest([a, b]) == cp.corpus_digest([a, b])
    assert cp.corpus_digest([a, b]) != cp.corpus_digest([b, a])
    c = cp.Document(id="1", source="triplet", text="a c")
    assert cp.corpus_digest([a]) != cp.corpus_digest([c])


def test_documents_jsonl_round_trip(tmp_path):
    path = tmp_path / "d.jsonl"
    docs = [cp.Document(id="d1", source="unconstrained", text="hello world"),
            cp.Document(id="d2", source="grammar_gen", text="one two three")]
    cp.save_documents(path, docs)
    assert cp.load_documents(path) == docs
    # source override
    forced = cp.load_documents(path, source="unconstrained")
    assert all(d.source == "unconstrained" for d in forced)
