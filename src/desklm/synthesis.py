"""Prompt-driven construction of grammar-notion training data.

Renders the three prompt templates (sentence generation per notion,
per-notion tagging, dictionary example generation), parses the model
responses, and orchestrates dataset generation against a pluggable
completion client. A deterministic offline mock ships alongside the live
HTTP client so everything runs without network access.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

from .corpus import (
    NOT_PRESENT,
    SENTENTIAL_NO,
    SENTENTIAL_YES,
    GrammarExample,
    NotionTag,
    WiktionaryEntry,
)

log = logging.getLogger(__name__)

ENV_API_URL = "DESKLM_API_URL"
ENV_API_KEY = "DESKLM_API_KEY"
# The live client's per-request timeout, its attempts per prompt, and its
# wait before the second attempt, which doubles after each further failure.
HTTP_TIMEOUT_S = 60.0
HTTP_ATTEMPTS = 3
HTTP_RETRY_WAIT_S = 0.5


@dataclass(frozen=True)
class NotionSpec:
    """A grammatical notion to generate/tag sentences for.

    Sentential notions are clause-level phenomena answered yes/no instead of
    by pointing at words.
    """

    notion: str
    alternate: str | None = None
    sentential: bool = False

    def __post_init__(self):
        if not self.notion:
            raise ValueError("notion must be non-empty")


@dataclass(frozen=True)
class TopicList:
    topics: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "topics", tuple(self.topics))
        if not self.topics:
            raise ValueError("topic list must be non-empty")
        if len(set(self.topics)) != len(self.topics):
            raise ValueError("topic list contains duplicates")


DEFAULT_TOPICS = TopicList((
    "accounting", "anthropology", "archaeology", "architecture", "art",
    "artificial intelligence", "astronomy", "biology", "botany", "business",
    "chemistry", "computer science", "cosmology", "criminology", "design",
    "economics", "education", "environmental science", "engineering",
    "geography", "geology", "government", "history", "humanities",
    "international relations", "journalism", "law", "literature",
    "linguistics", "math", "medicine", "music", "philosophy", "physics",
    "poetry", "politics", "psychology", "religion", "sports", "theater",
))

# Default notion inventory: the tagged-notion set shipped with the package.
DEFAULT_NOTIONS: tuple[NotionSpec, ...] = (
    NotionSpec("common noun"),
    NotionSpec("collective noun"),
    NotionSpec("singular noun", alternate="plural noun"),
    NotionSpec("plural noun", alternate="singular noun"),
    NotionSpec("nominative case"),
    NotionSpec("simple past tense"),
    NotionSpec("third person"),
    NotionSpec("plural verb"),
    NotionSpec("indicative mood"),
    NotionSpec("non-gradable adjective"),
    NotionSpec("positive adjective"),
    NotionSpec("aspectual adverb"),
    NotionSpec("comparative adverb"),
    NotionSpec("object pronoun"),
    NotionSpec("case preposition"),
    NotionSpec("coordinating conjunction"),
    NotionSpec("indefinite determiner"),
    NotionSpec("noun phrase"),
    NotionSpec("adjectival modification"),
    NotionSpec("verb phrase"),
    NotionSpec("transitive verb phrase"),
    NotionSpec("direct object"),
    NotionSpec("adjunct clause", sentential=True),
    NotionSpec("ellipsis gapping", sentential=True),
    NotionSpec("ellipsis pseudo-gapping", sentential=True),
)


# ---------------------------------------------------------------------------
# Prompt templates
# ---------------------------------------------------------------------------

def render_generation_prompt(spec: NotionSpec, topic: str, count: int = 500) -> str:
    """Prompt asking for `count` varied sentences containing the notion."""
    if not topic:
        raise ValueError("topic must be non-empty")
    if count < 1:
        raise ValueError("count must be >= 1")
    alternate = f" (as opposed to {spec.alternate})" if spec.alternate else ""
    return (
        f"You are an expert in grammar. Write {count} detailed sentences containing "
        f"{spec.notion}{alternate}. Make sure to write {count} detailed sentences that "
        "are all different from each other. Try to make the sentences sufficiently "
        "different, for example, don't start every sentence with \"the\", make both "
        f"short and long sentences, and write about the topic of {topic}. "
        "Don't write anything else."
    )


def render_tagging_prompt(sentence: str, spec: NotionSpec) -> str:
    """Prompt asking whether (and where) a sentence contains the notion.

    Word-level notions ask for the corresponding words or N/A; sentential
    notions ask for a bare yes/no.
    """
    if not sentence:
        raise ValueError("sentence must be non-empty")
    question = (
        f"Consider the sentence: {sentence}\n"
        f"Does the sentence contain the notion of {spec.notion}?"
    )
    if spec.sentential:
        return question + " Answer with yes or no. Only write 'yes' or 'no', nothing else."
    return (
        question
        + " If so, write which word or words correspond to the notion. If not, "
        "write \"N/A\". Only write the word or words that correspond, or N/A otherwise."
    )


def render_wiktionary_example_prompt(entry: WiktionaryEntry, count: int = 3) -> str:
    """Prompt asking for example sentences for a dictionary sense.

    Only intended for entries with no examples of their own.
    """
    if entry.examples:
        raise ValueError(
            f"entry {entry.word!r} already has {len(entry.examples)} examples"
        )
    if count < 1:
        raise ValueError("count must be >= 1")
    format_lines = "\n".join(f"{k}. Example {k}" for k in range(1, count + 1))
    return (
        f"Give {count} examples of the word {entry.word} as a(n) {entry.pos}, "
        f"where it means {entry.definition}. List the {count} examples in a "
        "numbered list, they should be full sentences. Don't say anything else. "
        f"The format should look like:\n{format_lines}"
    )


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------

_ITEM_RE = re.compile(r"^\s*(\d+)\s*\.\s*(.*\S)\s*$")


def parse_numbered_list(response: str, expected: int) -> list[str]:
    """Extract items "k. text" for k = 1..expected from a response.

    Non-item lines are ignored. Raises if any index in 1..expected is
    missing (reporting how many were found) or if an index repeats.
    """
    if expected < 1:
        raise ValueError("expected must be >= 1")
    items: dict[int, str] = {}
    for line in response.splitlines():
        m = _ITEM_RE.match(line)
        if not m:
            continue
        k = int(m.group(1))
        if k in items:
            raise ValueError(f"duplicate item index {k} in response")
        items[k] = m.group(2)
    found = sum(1 for k in range(1, expected + 1) if k in items)
    if found < expected:
        raise ValueError(f"expected {expected} numbered items, found {found}")
    return [items[k] for k in range(1, expected + 1)]


def parse_tag_response(response: str, spec: NotionSpec) -> str | tuple[str, ...]:
    """Turn a tagging response into a tag value.

    Sentential notions must answer yes/no. Word-level notions answer N/A
    (-> not present) or a comma-separated word list.
    """
    text = response.strip()
    if spec.sentential:
        normalized = text.rstrip(".").strip().lower()
        if normalized == "yes":
            return SENTENTIAL_YES
        if normalized == "no":
            return SENTENTIAL_NO
        raise ValueError(
            f"expected yes/no for sentential notion {spec.notion!r}, got {text!r}"
        )
    if text.rstrip(".").strip().lower() == "n/a":
        return NOT_PRESENT
    words = tuple(w.strip() for w in text.split(",") if w.strip())
    if not words:
        raise ValueError(f"empty tag response for notion {spec.notion!r}")
    return words


# ---------------------------------------------------------------------------
# Completion clients
# ---------------------------------------------------------------------------

class CompletionError(RuntimeError):
    """A completion client could not produce a response."""


class CompletionClient(Protocol):
    def complete(self, prompt: str) -> str: ...


def prompt_key(prompt: str) -> str:
    """Stable 16-hex-digit key for a prompt (used to file canned responses)."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


class MockCompletionClient:
    """Offline client returning the canned `<prompt_key>.txt` files of a
    directory. A missing response raises at once: it is never retried."""

    def __init__(self, directory: str | Path):
        self._directory = Path(directory)
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        key = prompt_key(prompt)
        path = self._directory / f"{key}.txt"
        if not path.exists():
            raise CompletionError(f"no canned response for prompt key {key}")
        return path.read_text(encoding="utf-8")


def write_canned_response(directory: str | Path, prompt: str, response: str) -> Path:
    """Store a canned response where MockCompletionClient will find it."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{prompt_key(prompt)}.txt"
    path.write_text(response, encoding="utf-8")
    return path


class HTTPCompletionClient:
    """Live client posting prompts to a completion endpoint.

    Endpoint URL and credential come from DESKLM_API_URL / DESKLM_API_KEY
    unless passed explicitly. The endpoint must accept a JSON body
    {"prompt": ...} and answer {"completion": ...}. A request that fails
    or answers a status other than 200 is retried, HTTP_ATTEMPTS times in
    all, waiting HTTP_RETRY_WAIT_S * 2**k seconds after failure k.
    """

    def __init__(self, url: str | None = None, api_key: str | None = None):
        self.url = url or os.environ.get(ENV_API_URL)
        if not self.url:
            raise CompletionError(f"completion endpoint not configured: set {ENV_API_URL}")
        self.api_key = api_key or os.environ.get(ENV_API_KEY)
        if not self.api_key:
            raise CompletionError(f"completion credential not configured: set {ENV_API_KEY}")

    def complete(self, prompt: str) -> str:
        import requests

        for attempt in range(1, HTTP_ATTEMPTS + 1):
            try:
                resp = requests.post(
                    self.url,
                    json={"prompt": prompt},
                    headers={"Authorization": f"Bearer {self.api_key}"},
                    timeout=HTTP_TIMEOUT_S,
                )
                if resp.status_code == 200:
                    break
                failure = f"endpoint returned {resp.status_code}"
            except requests.RequestException as e:
                failure = str(e)
            if attempt == HTTP_ATTEMPTS:
                raise CompletionError(
                    f"completion failed after {HTTP_ATTEMPTS} attempts: {failure}")
            wait = HTTP_RETRY_WAIT_S * 2 ** (attempt - 1)
            log.warning("completion attempt %d/%d failed (%s), retrying in %.1fs",
                        attempt, HTTP_ATTEMPTS, failure, wait)
            time.sleep(wait)
        try:
            body = resp.json()
        except ValueError as e:
            raise CompletionError(f"completion endpoint returned malformed JSON: {e}") from e
        if "completion" not in body:
            raise CompletionError("completion endpoint response missing 'completion'")
        return body["completion"]


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def generate_notion_dataset(
    client: CompletionClient,
    notions: Sequence[NotionSpec],
    topics: TopicList = DEFAULT_TOPICS,
    per_notion: int = 500,
    tag_count: int = 100,
    tag_notions: int = 50,
    seed: int = 0,
    chunk_size: int = 25,
) -> list[GrammarExample]:
    """Generate sentences per notion, then tag a subset against a notion set.

    For each notion, generation prompts cycle through the topic list (one
    call per topic, `chunk_size` sentences per call) until `per_notion`
    sentences have been parsed. The first `tag_count` sentences of the first
    `tag_notions` notions are then tagged against all of those notions.
    Unparseable responses are skipped with a log line; client failures are
    raised (the live client retries its own requests first).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    for name, count in (("per_notion", per_notion), ("tag_count", tag_count),
                        ("tag_notions", tag_notions)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if tag_count > per_notion:
        raise ValueError(f"tag_count {tag_count} exceeds per_notion {per_notion}")
    tag_notions = min(tag_notions, len(notions))
    names = [s.notion for s in notions]
    if len(set(names)) != len(names):
        raise ValueError("notion list contains duplicates")
    del seed  # selection is prefix-based and generation is already deterministic

    collected: list[list[tuple[str, str]]] = []
    for spec in notions:
        sentences: list[tuple[str, str]] = []
        call_index = 0
        max_calls = max(1, -(-per_notion // chunk_size)) * 10
        while len(sentences) < per_notion:
            if call_index >= max_calls:
                raise CompletionError(
                    f"notion {spec.notion!r}: only {len(sentences)}/{per_notion} "
                    f"sentences after {call_index} calls"
                )
            topic = topics.topics[call_index % len(topics.topics)]
            want = min(chunk_size, per_notion - len(sentences))
            prompt = render_generation_prompt(spec, topic, count=want)
            response = client.complete(prompt)
            call_index += 1
            try:
                items = parse_numbered_list(response, want)
            except ValueError as e:
                log.warning("notion %r, topic %r: unparseable generation response (%s)",
                            spec.notion, topic, e)
                continue
            sentences.extend((item, topic) for item in items[:want])
        collected.append(sentences)

    tag_set = list(notions[:tag_notions])
    examples: list[GrammarExample] = []
    for ni, spec in enumerate(notions):
        for si, (sentence, topic) in enumerate(collected[ni]):
            tags: list[NotionTag] = []
            if ni < tag_notions and si < tag_count:
                for tspec in tag_set:
                    prompt = render_tagging_prompt(sentence, tspec)
                    response = client.complete(prompt)
                    try:
                        value = parse_tag_response(response, tspec)
                    except ValueError as e:
                        log.warning("skipping tag %r on %r: %s", tspec.notion, sentence, e)
                        continue
                    tags.append(NotionTag(tspec.notion, value))
            examples.append(GrammarExample(sentence=sentence, topic=topic, tags=tuple(tags)))
    return examples
