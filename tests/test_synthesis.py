"""Prompt templates, response parsing, and dataset generation."""

import time
from pathlib import Path

import numpy as np
import pytest
import requests

from desklm import synthesis as sy
from desklm.corpus import (GrammarExample, NotionTag, WiktionaryEntry,
                           NOT_PRESENT, SENTENTIAL_NO, SENTENTIAL_YES)

GOLDEN = Path(__file__).parent / "golden"

TAGGED_SENTENCE = ("The engineers proposed a new design for the bridge, while the "
                   "architects focused on the aesthetic elements, emphasizing "
                   "sustainability instead.")


class TestGenerationPrompt:
    def test_golden_with_alternate(self):
        rendered = sy.render_generation_prompt(
            sy.NotionSpec("<notion>", "<alternate notion>"), "<topic>", count=500)
        assert rendered.encode() == (GOLDEN / "figure1.txt").read_bytes()

    def test_golden_without_alternate(self):
        rendered = sy.render_generation_prompt(sy.NotionSpec("<notion>"), "<topic>",
                                               count=500)
        assert rendered.encode() == (GOLDEN / "figure1_noalt.txt").read_bytes()

    def test_substitution(self):
        text = sy.render_generation_prompt(
            sy.NotionSpec("telic verbs", "atelic verbs"), "physics")
        assert "Write 500 detailed sentences containing telic verbs (as opposed to atelic verbs)" in text
        assert "write about the topic of physics" in text

    def test_alternate_omitted(self):
        text = sy.render_generation_prompt(sy.NotionSpec("ellipsis"), "music")
        assert "(as opposed to" not in text

    def test_count_parameterized(self):
        text = sy.render_generation_prompt(sy.NotionSpec("ellipsis"), "music", count=25)
        assert "Write 25 detailed sentences" in text
        assert "write 25 detailed sentences" in text

    def test_pure(self):
        spec = sy.NotionSpec("telic verbs", "atelic verbs")
        assert (sy.render_generation_prompt(spec, "physics")
                == sy.render_generation_prompt(spec, "physics"))

    def test_empty_topic_rejected(self):
        with pytest.raises(ValueError, match="topic"):
            sy.render_generation_prompt(sy.NotionSpec("x"), "")


class TestTaggingPrompt:
    def test_golden_word_form(self):
        rendered = sy.render_tagging_prompt("<sentence>", sy.NotionSpec("<notion>"))
        assert rendered.encode() == (GOLDEN / "figure2.txt").read_bytes()

    def test_golden_sentential_form(self):
        rendered = sy.render_tagging_prompt(
            "<sentence>", sy.NotionSpec("<notion>", sentential=True))
        assert rendered.encode() == (GOLDEN / "figure2_sentential.txt").read_bytes()

    def test_contains_sentence_and_notion(self):
        text = sy.render_tagging_prompt(TAGGED_SENTENCE, sy.NotionSpec("common noun"))
        assert TAGGED_SENTENCE in text
        assert "notion of common noun" in text

    def test_sentential_asks_yes_no(self):
        text = sy.render_tagging_prompt(
            "Some sentence.", sy.NotionSpec("adjunct clause", sentential=True))
        assert "yes or no" in text
        assert "N/A" not in text

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="sentence"):
            sy.render_tagging_prompt("", sy.NotionSpec("x"))


class TestWiktionaryPrompt:
    def test_golden(self):
        entry = WiktionaryEntry("<word>", "<part of speech>", "<definition>", ())
        rendered = sy.render_wiktionary_example_prompt(entry, count=3)
        assert rendered.encode() == (GOLDEN / "figure3.txt").read_bytes()

    def test_substitution(self):
        entry = WiktionaryEntry("serendipity", "noun",
                                "an unsought fortunate discovery", ())
        text = sy.render_wiktionary_example_prompt(entry)
        assert "the word serendipity as a(n) noun" in text
        assert "an unsought fortunate discovery" in text
        assert "1. Example 1" in text

    def test_entry_with_examples_rejected(self):
        entry = WiktionaryEntry("run", "verb", "to move fast", ("He runs.",))
        with pytest.raises(ValueError, match="already has"):
            sy.render_wiktionary_example_prompt(entry)

    def test_pure(self):
        entry = WiktionaryEntry("x", "noun", "y", ())
        assert (sy.render_wiktionary_example_prompt(entry)
                == sy.render_wiktionary_example_prompt(entry))


class TestParseNumberedList:
    def test_basic(self):
        assert sy.parse_numbered_list("1. A cat.\n2. A dog.\n3. A bird.", 3) == \
            ["A cat.", "A dog.", "A bird."]

    def test_too_few_reports_count(self):
        with pytest.raises(ValueError, match="expected 3 numbered items, found 1"):
            sy.parse_numbered_list("1. Only one.", 3)

    def test_duplicate_index(self):
        with pytest.raises(ValueError, match="duplicate"):
            sy.parse_numbered_list("1. A.\n1. B.", 2)

    def test_crlf_equivalent(self):
        unix = sy.parse_numbered_list("1. A cat.\n2. A dog.", 2)
        windows = sy.parse_numbered_list("1. A cat.\r\n2. A dog.\r\n", 2)
        assert unix == windows

    def test_surrounding_noise_tolerated(self):
        got = sy.parse_numbered_list("Sure, here you go:\n 1.  First \n2. Second", 2)
        assert got == ["First", "Second"]

    def test_inversion_randomized(self):
        rng = np.random.default_rng(42)
        alphabet = list("abcdefghij ,.'-XYZ012")
        for _ in range(100):
            k = int(rng.integers(1, 9))
            items = []
            for _ in range(k):
                s = "".join(rng.choice(alphabet, size=int(rng.integers(1, 30))))
                s = s.strip() or "x"
                items.append(s)
            rendered = "\n".join(f"{i + 1}. {item}" for i, item in enumerate(items))
            assert sy.parse_numbered_list(rendered, k) == items


class TestParseTagResponse:
    def test_word_list(self):
        value = sy.parse_tag_response(
            "engineers, design, bridge, architects, elements, sustainability",
            sy.NotionSpec("common noun"))
        assert value == ("engineers", "design", "bridge", "architects",
                         "elements", "sustainability")
        assert len(value) == 6

    def test_not_present(self):
        spec = sy.NotionSpec("object pronoun")
        assert sy.parse_tag_response("N/A", spec) == NOT_PRESENT
        assert sy.parse_tag_response(" n/a ", spec) == NOT_PRESENT

    def test_sentential(self):
        spec = sy.NotionSpec("adjunct clause", sentential=True)
        assert sy.parse_tag_response("Yes", spec) == SENTENTIAL_YES
        assert sy.parse_tag_response("no.", spec) == SENTENTIAL_NO
        with pytest.raises(ValueError, match="yes/no"):
            sy.parse_tag_response("maybe", spec)

    def test_single_word(self):
        assert sy.parse_tag_response("bridge", sy.NotionSpec("x")) == ("bridge",)


class TestDefaults:
    def test_forty_topics(self):
        topics = sy.DEFAULT_TOPICS.topics
        assert len(topics) == 40
        assert topics[0] == "accounting"
        assert topics[-1] == "theater"
        assert len(set(topics)) == 40

    def test_notion_inventory(self):
        names = [s.notion for s in sy.DEFAULT_NOTIONS]
        assert len(names) == len(set(names)) == 25
        by_name = {s.notion: s for s in sy.DEFAULT_NOTIONS}
        assert by_name["singular noun"].alternate == "plural noun"
        assert by_name["adjunct clause"].sentential
        assert not by_name["common noun"].sentential


class TestClients:
    def test_prompt_key_stable(self):
        assert sy.prompt_key("hello") == sy.prompt_key("hello")
        assert sy.prompt_key("hello") != sy.prompt_key("world")
        assert len(sy.prompt_key("hello")) == 16

    def test_mock_directory(self, tmp_path):
        sy.write_canned_response(tmp_path, "disk prompt", "disk answer")
        client = sy.MockCompletionClient(directory=tmp_path)
        assert client.complete("disk prompt") == "disk answer"
        assert client.calls == 1

    def test_mock_missing_prompt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(time, "sleep", _no_sleep)
        client = sy.MockCompletionClient(directory=tmp_path)
        with pytest.raises(sy.CompletionError, match="no canned response"):
            sy.generate_notion_dataset(client, [sy.NotionSpec("x")],
                                       sy.TopicList(("a",)), per_notion=1,
                                       tag_count=0)
        assert client.calls == 1

    def test_http_client_requires_env(self, monkeypatch):
        monkeypatch.delenv(sy.ENV_API_URL, raising=False)
        monkeypatch.delenv(sy.ENV_API_KEY, raising=False)
        with pytest.raises(sy.CompletionError, match=sy.ENV_API_URL):
            sy.HTTPCompletionClient()
        monkeypatch.setenv(sy.ENV_API_URL, "http://example.invalid/v1")
        with pytest.raises(sy.CompletionError, match=sy.ENV_API_KEY):
            sy.HTTPCompletionClient()

    @staticmethod
    def _http(monkeypatch, replies):
        """A live client whose posts answer `replies` in turn, raising those
        that are exceptions; the posts and the sleeps are recorded."""
        posts, waits = [], []

        def post(url, **kw):
            posts.append(kw["json"])
            reply = replies[len(posts) - 1]
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(time, "sleep", waits.append)
        return sy.HTTPCompletionClient("http://example.invalid/v1", "key"), posts, waits

    def test_retry_then_success(self, monkeypatch):
        replies = [requests.ConnectionError("refused"), _Reply(503),
                   _Reply(200, {"completion": "ok"})]
        client, posts, waits = self._http(monkeypatch, replies)
        assert client.complete("p") == "ok"
        assert posts == [{"prompt": "p"}] * 3
        assert waits == [0.5, 1.0]

    def test_retry_exhausted(self, monkeypatch):
        client, posts, waits = self._http(monkeypatch, [_Reply(503)] * 4)
        with pytest.raises(sy.CompletionError, match="after 3 attempts.*503"):
            client.complete("p")
        assert len(posts) == 3
        assert waits == [0.5, 1.0]

    def test_malformed_body_not_retried(self, monkeypatch):
        body = requests.JSONDecodeError("Expecting value", "<html>", 0)
        client, posts, _ = self._http(monkeypatch, [_Reply(200, body)])
        with pytest.raises(sy.CompletionError, match="malformed JSON"):
            client.complete("p")
        assert len(posts) == 1


def _no_sleep(seconds):
    raise AssertionError(f"unexpected sleep of {seconds} s")


class _Reply:
    """Stand-in for a requests.Response: a status and a JSON body (an
    exception stands for a body that does not parse)."""

    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


def _numbered(items):
    return "\n".join(f"{i + 1}. {s}" for i, s in enumerate(items))


def _canned_generation(tmp_path, notions, topics, per_notion, chunk_size,
                       sentence_fn):
    """Pre-render every generation prompt the orchestrator will issue and
    write a canned response for each."""
    for spec in notions:
        made, call = 0, 0
        while made < per_notion:
            topic = topics.topics[call % len(topics.topics)]
            want = min(chunk_size, per_notion - made)
            prompt = sy.render_generation_prompt(spec, topic, count=want)
            items = [sentence_fn(spec, topic, made + k) for k in range(want)]
            sy.write_canned_response(tmp_path, prompt, _numbered(items))
            made += want
            call += 1


class TestGenerateNotionDataset:
    def _setup(self, tmp_path, per_notion=5, chunk=5, tag_count=2, tag_notions=2):
        notions = [sy.NotionSpec("common noun"),
                   sy.NotionSpec("adjunct clause", sentential=True)]
        topics = sy.TopicList(("physics", "music"))

        def sentence_fn(spec, topic, k):
            return f"A {topic} sentence {k} about {spec.notion}."

        _canned_generation(tmp_path, notions, topics, per_notion, chunk, sentence_fn)
        # tag responses: word list for the word notion, yes/no for sentential
        for spec in notions:
            for k in range(tag_count):
                for topic in topics.topics:
                    sentence = sentence_fn(spec, topic, k)
                    for tspec in notions[:tag_notions]:
                        prompt = sy.render_tagging_prompt(sentence, tspec)
                        answer = "Yes" if tspec.sentential else "sentence, words"
                        sy.write_canned_response(tmp_path, prompt, answer)
        return notions, topics

    def test_counts_match_arithmetic(self, tmp_path):
        notions, topics = self._setup(tmp_path)
        client = sy.MockCompletionClient(directory=tmp_path)
        examples = sy.generate_notion_dataset(
            client, notions, topics, per_notion=5, tag_count=2, tag_notions=2,
            chunk_size=5)
        assert len(examples) == 10
        tagged = [e for e in examples if e.tags]
        assert len(tagged) == 4
        assert all(len(e.tags) == 2 for e in tagged)

    def test_mock_determinism(self, tmp_path):
        notions, topics = self._setup(tmp_path)
        out1 = sy.generate_notion_dataset(
            sy.MockCompletionClient(directory=tmp_path), notions, topics,
            per_notion=5, tag_count=2, tag_notions=2, chunk_size=5)
        out2 = sy.generate_notion_dataset(
            sy.MockCompletionClient(directory=tmp_path), notions, topics,
            per_notion=5, tag_count=2, tag_notions=2, chunk_size=5)
        assert out1 == out2

    def test_per_notion_zero(self, tmp_path):
        client = sy.MockCompletionClient(directory=tmp_path)
        examples = sy.generate_notion_dataset(
            client, [sy.NotionSpec("x")], sy.TopicList(("physics",)),
            per_notion=0, tag_count=0, tag_notions=0)
        assert examples == []
        assert client.calls == 0

    def test_unparseable_generation_skipped(self, tmp_path, caplog):
        notions = [sy.NotionSpec("common noun")]
        topics = sy.TopicList(("physics", "music"))
        # first topic's response is garbage; the cycle recovers on later calls
        p_bad = sy.render_generation_prompt(notions[0], "physics", count=3)
        sy.write_canned_response(tmp_path, p_bad, "no list here")
        p_good = sy.render_generation_prompt(notions[0], "music", count=3)
        sy.write_canned_response(tmp_path, p_good, _numbered(["A.", "B.", "C."]))
        client = sy.MockCompletionClient(directory=tmp_path)
        with caplog.at_level("WARNING"):
            examples = sy.generate_notion_dataset(
                client, notions, topics, per_notion=3, tag_count=0, tag_notions=0,
                chunk_size=3)
        assert [e.sentence for e in examples] == ["A.", "B.", "C."]
        assert any("unparseable" in r.getMessage() for r in caplog.records)

    def test_tag_count_exceeds_per_notion(self, tmp_path):
        with pytest.raises(ValueError, match="exceeds"):
            sy.generate_notion_dataset(
                sy.MockCompletionClient(directory=tmp_path), [sy.NotionSpec("x")],
                sy.TopicList(("a",)), per_notion=1, tag_count=2)

    @pytest.mark.parametrize("kw, match", [
        ({"chunk_size": 0}, "chunk_size must be >= 1"),
        ({"per_notion": -2, "tag_count": -3}, "per_notion must be >= 0"),
        ({"tag_count": -3}, "tag_count must be >= 0"),
        ({"tag_notions": -1}, "tag_notions must be >= 0"),
    ])
    def test_bad_counts_rejected_before_any_call(self, tmp_path, kw, match):
        client = sy.MockCompletionClient(directory=tmp_path)
        counts = {"per_notion": 1, "tag_count": 0, **kw}
        with pytest.raises(ValueError, match=match):
            sy.generate_notion_dataset(client, [sy.NotionSpec("x")],
                                       sy.TopicList(("a",)), **counts)
        assert client.calls == 0

    def test_tag_parse_failure_skipped(self, tmp_path, caplog):
        notions = [sy.NotionSpec("adjunct clause", sentential=True)]
        topics = sy.TopicList(("physics",))
        prompt = sy.render_generation_prompt(notions[0], "physics", count=1)
        sy.write_canned_response(tmp_path, prompt, "1. Something happened.")
        tag_prompt = sy.render_tagging_prompt("Something happened.", notions[0])
        sy.write_canned_response(tmp_path, tag_prompt, "definitely")
        client = sy.MockCompletionClient(directory=tmp_path)
        with caplog.at_level("WARNING"):
            examples = sy.generate_notion_dataset(
                client, notions, topics, per_notion=1, tag_count=1, tag_notions=1,
                chunk_size=1)
        assert len(examples) == 1
        assert examples[0].tags == ()
        assert any("skipping tag" in r.getMessage() for r in caplog.records)
