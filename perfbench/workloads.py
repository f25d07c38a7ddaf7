"""The three benchmark workloads: inputs made from a seed, one timed round each.

`setup(dir, seed)` writes every input file the program reads; the program
sees only those files. `run_round(inputs, out)` drives desklm through the
same public calls the `desklm corpus mix / synth generate / train / eval`
commands make and times each stage from outside; it calls them through
their modules (`sbw.train_subwords`), so tracing.py's wrappers see every
call. A round always runs the same stages on the same inputs, so every
round writes the same bytes.
`check(inputs, out, state)` verifies the outputs by means that do not
share the code path under test (see checks.py).

Sizes are fixed so that the work per round does not depend on the seed:
the pseudo-word lexicons are the same for every seed, and the seed picks
which words each sentence uses and in which order.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from desklm import cli
from desklm import corpus as cp
from desklm import evaluation as ev
from desklm import model as mdl
from desklm import subwords as sbw
from desklm import synthesis as sy
from desklm import training as tr

import checks
import tracing

CONTEXT = 32
BATCH = 16
EPOCHS = 2


def _train_config(seed: int, aux_weight: float = 1.0) -> tr.TrainingConfig:
    return tr.TrainingConfig(learning_rate=2e-3, warmup_steps=2, batch_size=BATCH,
                             epochs=EPOCHS, context_size=CONTEXT, seed=seed,
                             aux_weight=aux_weight)


@dataclass
class Round:
    """What one round did: stage times, work done and its outcome."""
    wall_s: float = 0.0
    stage_s: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    model_s: float = 0.0
    state: dict = field(default_factory=dict)


def _run_stages(stages, ops_per_stage) -> Round:
    """Run stages in order; a stage that raises fails itself and the rest."""
    rnd = Round()
    t_start = time.perf_counter()
    for k, (name, fn) in enumerate(stages):
        rnd.attempted += ops_per_stage
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as e:  # a failed stage is counted, not fatal
            rnd.failed += ops_per_stage * (len(stages) - k)
            rnd.attempted += ops_per_stage * (len(stages) - k - 1)
            rnd.state["error"] = f"{name}: {type(e).__name__}: {e}"
            break
        rnd.stage_s[name] = time.perf_counter() - t0
    rnd.wall_s = time.perf_counter() - t_start
    return rnd


def _last_epoch_mean(tlog: tr.TrainLog, key) -> float:
    per_epoch = math.ceil(tlog.manifest["n_examples"] / BATCH)
    return float(np.mean([key(s) for s in tlog.steps[-per_epoch:]]))


def _nonpad_tokens(subwords: sbw.SubwordModel, docs) -> int:
    return int((sbw.pack_examples(subwords, docs, CONTEXT) != 0).sum())


# -- pseudo-words -------------------------------------------------------------

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "bl", "br", "dr", "fl", "gr", "kr", "pl", "pr", "sk", "sl", "sn", "st", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "", "n", "s", "t", "r", "l", "m", "nd", "st"]
LEXICON_SEED = 20241028


def pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct pronounceable pseudo-words of two or three syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        w = "".join(_ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
                    + _CODAS[rng.integers(len(_CODAS))] for _ in range(int(rng.integers(2, 4))))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def zipf_sentence(rng: np.random.Generator, words: list[str], lo: int, hi: int) -> list[str]:
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    p = (1.0 / ranks) / (1.0 / ranks).sum()
    return [words[j] for j in rng.choice(len(words), size=int(rng.integers(lo, hi + 1)), p=p)]


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")


# -- paraphrase_mlm -----------------------------------------------------------

class ParaphraseMLM:
    """Paraphrase triplets mixed with plain documents, BPE, MLM pretraining."""

    # BPE training is about a quarter of the round: a BPE ten times faster
    # moves run_s by more than its run-to-run spread; at 44% (a 1200-token
    # vocabulary over 4000 words) pure-Python BPE's noise widened that
    # spread to 0.28
    VOCAB = 600
    LEXICON = 800         # base words; as many again serve as their synonyms
    # the sources hold about ten times the words their budgets admit
    N_DOCS = 550          # plain documents of 6-14 words
    N_TRIPLETS = 250      # sentence / paraphrase / hard negative, 6-12 words each
    # seeds 1-20 pack the mix into 71-78 windows: 5 steps an epoch, as
    # anything from 65 to 80 windows gives
    BUDGETS = {"unconstrained": 530, "triplet": 610}
    TOTAL_BUDGET = 1200
    # per-layer metrics a traced run must see non-zero
    LAYERS = tracing.metrics_matching(
        ("corpus.*", "subwords.*", "autograd.*", "model.*", "training.*"),
        ("autograd.gather_rows.*", "model.decoder_forward_s", "model.load_checkpoint_s",
         "model.block.dec*", "training.aux_loss_final"))

    def setup(self, d: Path, seed: int) -> dict:
        d.mkdir(parents=True)
        rng = np.random.default_rng([seed, 1])
        n = self.LEXICON
        words = pseudo_words(np.random.default_rng(LEXICON_SEED), 2 * n)
        # each word has a synonym: the paraphrase swaps about half the words
        synonym = {w: words[(i + n) % (2 * n)] for i, w in enumerate(words)}
        docs = [{"id": f"doc-{i:05d}", "source": "unconstrained",
                 "text": " ".join(zipf_sentence(rng, words[:n], 6, 14))}
                for i in range(self.N_DOCS)]
        triplets = []
        for _ in range(self.N_TRIPLETS):
            sent = zipf_sentence(rng, words[:n], 6, 12)
            para = [synonym[w] if rng.random() < 0.5 else w for w in sent]
            neg = list(sent)
            k = int(rng.integers(len(neg)))
            neg[k] = next(w for w in rng.permutation(words[:n]) if w != sent[k])
            triplets.append({"sent0": " ".join(sent), "sent1": " ".join(para),
                             "hard_neg": " ".join(neg)})
        _write_jsonl(d / "docs.jsonl", docs)
        _write_jsonl(d / "triplets.jsonl", triplets)
        manifest = {"total_budget": self.TOTAL_BUDGET, "seed": seed, "entries": [
            {"path": str(d / "docs.jsonl"), "kind": "unconstrained",
             "budget": self.BUDGETS["unconstrained"]},
            {"path": str(d / "triplets.jsonl"), "kind": "triplet",
             "budget": self.BUDGETS["triplet"]}]}
        (d / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        return {"manifest": d / "manifest.json", "seed": seed}

    def run_round(self, inputs: dict, out: Path) -> Round:
        seed = inputs["seed"]
        st: dict = {}

        def mix():
            mixed = cp.mix_from_manifest(cp.load_manifest(inputs["manifest"]))
            cp.save_documents(out / "mixed.jsonl", mixed)

        def bpe():
            st["docs"] = cp.load_source(out / "mixed.jsonl", "unconstrained")
            st["subwords"] = sbw.train_subwords(st["docs"], self.VOCAB)
            st["subwords"].save(out / "subwords.json")

        def train():
            model_cfg = mdl.ModelConfig(vocab_size=self.VOCAB, seed=seed)
            st["params"], st["tlog"] = tr.train_mlm(st["docs"], st["subwords"], model_cfg,
                                                    _train_config(seed))

        def save():
            mdl.save_checkpoint(st["params"], out / "checkpoint.bin")
            st["tlog"].write(out / "trainlog.jsonl")

        rnd = _run_stages([("mix", mix), ("bpe", bpe), ("train", train), ("save", save)], 1)
        rnd.model_s = rnd.stage_s.get("train", 0.0)
        rnd.state = {**st, **rnd.state}
        return rnd

    def model_tokens(self, inputs: dict, state: dict) -> int:
        return _nonpad_tokens(state["subwords"], state["docs"]) * EPOCHS

    def losses(self, state: dict) -> dict:
        mlm = _last_epoch_mean(state["tlog"], lambda s: s["losses"]["mlm"])
        return {"mlm": mlm, "total": mlm}

    def check(self, inputs: dict, out: Path, state: dict) -> list[str]:
        manifest = json.loads(Path(inputs["manifest"]).read_text(encoding="utf-8"))
        mixed = [json.loads(line) for line in
                 (out / "mixed.jsonl").read_text(encoding="utf-8").splitlines()]
        sw, docs, tlog = state["subwords"], state["docs"], state["tlog"]
        return checks.collect(
            lambda: checks.budgets(manifest, mixed),
            lambda: checks.vocab_size(out / "subwords.json", self.VOCAB),
            lambda: checks.round_trip(sw, [d.text for d in docs]),
            lambda: checks.packing(sw, [d.text for d in docs],
                                   sbw.pack_examples(sw, docs, CONTEXT), CONTEXT,
                                   tlog.manifest["n_examples"]),
            lambda: checks.checkpoint(out / "checkpoint.bin", state["params"]),
            lambda: checks.all_steps_ran(tlog, EPOCHS, BATCH),
            lambda: checks.below_uniform("mlm_loss_final", self.losses(state)["mlm"],
                                         self.VOCAB),
        )


# -- grammar_aux_mlm ----------------------------------------------------------

_G_NOUNS = [("farmer", "farmers"), ("teacher", "teachers"), ("planet", "planets"),
            ("engine", "engines"), ("poem", "poems"), ("market", "markets"),
            ("theory", "theories"), ("river", "rivers"), ("judge", "judges"),
            ("song", "songs"), ("museum", "museums"), ("cell", "cells")]
_G_ADJECTIVES = ["old", "bright", "quiet", "ancient", "modern", "careful", "famous", "small"]
_G_VERBS = [("studies", "study"), ("builds", "build"), ("explains", "explain"),
            ("describes", "describe"), ("measures", "measure"), ("visits", "visit")]
_G_CLAUSES = ["because the lab closed", "after the storm ended",
              "while the city slept", "before the court met"]
_G_NOTIONS = ("common noun", "singular noun", "plural noun", "adjunct clause")


def _grammar_sentence(rng: np.random.Generator, full: bool = False) -> tuple[str, dict]:
    """A template sentence and the answer to each tagging question.

    Adjectives and the adjunct clause are optional, or always present
    when `full` (the MLM corpus, whose token count is then the same for
    every seed)."""
    nouns = []
    phrases = []
    for det in ("The", "the"):
        plural = bool(rng.integers(2))
        noun = _G_NOUNS[rng.integers(len(_G_NOUNS))][int(plural)]
        adj = [_G_ADJECTIVES[rng.integers(len(_G_ADJECTIVES))]] if full or rng.integers(2) else []
        phrases.append(" ".join([det, *adj, noun]))
        nouns.append((noun, plural))
    verb = _G_VERBS[rng.integers(len(_G_VERBS))][int(nouns[0][1])]
    clause = _G_CLAUSES[rng.integers(len(_G_CLAUSES))] if full or rng.integers(2) else None
    text = " ".join([phrases[0], verb, phrases[1]] + ([clause] if clause else [])) + "."

    def listed(ws):
        return ", ".join(ws) if ws else "N/A"

    answers = {"common noun": listed([n for n, _ in nouns]),
               "singular noun": listed([n for n, p in nouns if not p]),
               "plural noun": listed([n for n, p in nouns if p]),
               "adjunct clause": "yes" if clause else "no"}
    return text, answers


def _numbered(items: list[str]) -> str:
    return "".join(f"{k}. {s}\n" for k, s in enumerate(items, 1))


class GrammarAuxMLM:
    """Mock-LLM grammar sentences, tagged, trained as an auxiliary decoder task."""

    VOCAB = 240
    N_DOCS = 100          # MLM corpus sentences from the same template grammar
    PER_NOTION = 16
    CHUNK = 8
    TAG_COUNT = 8
    AUX_WEIGHT = 0.5
    LAYERS = tracing.metrics_matching(
        ("corpus.load_source_s", "synthesis.*", "subwords.pack_examples_s",
         "subwords.encode_tokens_per_s", "autograd.*", "model.*", "training.*"),
        ("autograd.gather_rows.*", "model.load_checkpoint_s"))

    def setup(self, d: Path, seed: int) -> dict:
        d.mkdir(parents=True)
        rng = np.random.default_rng([seed, 2])
        notions = [s for s in sy.DEFAULT_NOTIONS if s.notion in _G_NOTIONS]
        topics = sy.DEFAULT_TOPICS.topics
        canned = d / "canned"
        sentences = []
        for spec in notions:
            # calls 0..2 of each notion answer; one of the first two is malformed
            bad_call = int(rng.integers(2))
            collected = []
            for call in range(3):
                batch = [_grammar_sentence(rng) for _ in range(self.CHUNK)]
                listing = [s for s, _ in batch]
                response = _numbered(listing[:-1] if call == bad_call else listing)
                prompt = sy.render_generation_prompt(spec, topics[call], count=self.CHUNK)
                sy.write_canned_response(canned, prompt, response)
                if call != bad_call:
                    collected += batch
            sentences += collected
            for k, (text, answers) in enumerate(collected[: self.TAG_COUNT]):
                for tspec in notions:
                    # one tagging answer per notion comes back empty
                    reply = "" if k == 3 and tspec is notions[-1] else answers[tspec.notion]
                    sy.write_canned_response(canned, sy.render_tagging_prompt(text, tspec), reply)
        docs = [cp.Document(id=f"g-{i:05d}", source="unconstrained",
                            text=_grammar_sentence(rng, full=True)[0])
                for i in range(self.N_DOCS)]
        cp.save_documents(d / "corpus.jsonl", docs)
        # the tokenizer sees the MLM corpus, the generated sentences and the
        # decoder's answer vocabulary, so no grammar item needs UNK
        answer_words = " ".join(f"notion {n} : N/A yes no" for n in _G_NOTIONS)
        tok_docs = docs + [cp.Document(id=f"s-{i}", source="unconstrained", text=t)
                           for i, (t, _) in enumerate(sentences)]
        tok_docs.append(cp.Document(id="answers", source="unconstrained", text=answer_words))
        sbw.train_subwords(tok_docs, self.VOCAB).save(d / "subwords.json")
        return {"canned": canned, "corpus": d / "corpus.jsonl",
                "subwords": d / "subwords.json", "notions": notions, "seed": seed}

    def run_round(self, inputs: dict, out: Path) -> Round:
        seed = inputs["seed"]
        st: dict = {}

        def synth():
            client = sy.MockCompletionClient(directory=inputs["canned"])
            examples = sy.generate_notion_dataset(
                client, inputs["notions"], per_notion=self.PER_NOTION,
                tag_count=self.TAG_COUNT, tag_notions=len(inputs["notions"]),
                seed=seed, chunk_size=self.CHUNK)
            cp.save_grammar_examples(out / "dataset.jsonl", examples)

        def prepare():
            st["docs"] = cp.load_source(inputs["corpus"], "unconstrained")
            st["subwords"] = sbw.SubwordModel.load(inputs["subwords"])
            tagged = [ex for ex in cp.load_grammar_examples(out / "dataset.jsonl") if ex.tags]
            st["items"] = tr.build_grammar_batch(tagged, st["subwords"])

        def train():
            model_cfg = mdl.ModelConfig(vocab_size=self.VOCAB, decoder_layers=2, seed=seed)
            st["params"], st["tlog"] = tr.train_multi_objective(
                st["docs"], st["subwords"], st["items"], "grammar", model_cfg,
                _train_config(seed, self.AUX_WEIGHT))

        def save():
            mdl.save_checkpoint(st["params"], out / "checkpoint.bin")
            st["tlog"].write(out / "trainlog.jsonl")

        rnd = _run_stages([("synth", synth), ("prepare", prepare), ("train", train),
                           ("save", save)], 1)
        rnd.model_s = rnd.stage_s.get("train", 0.0)
        rnd.state = {**st, **rnd.state}
        return rnd

    def model_tokens(self, inputs: dict, state: dict) -> int:
        return _nonpad_tokens(state["subwords"], state["docs"]) * EPOCHS

    def losses(self, state: dict) -> dict:
        tlog = state["tlog"]
        return {"mlm": _last_epoch_mean(tlog, lambda s: s["losses"]["mlm"]),
                "aux": _last_epoch_mean(tlog, lambda s: s["losses"]["grammar"]),
                "total": _last_epoch_mean(tlog, lambda s: s["total"])}

    def check(self, inputs: dict, out: Path, state: dict) -> list[str]:
        losses = self.losses(state)
        return checks.collect(
            lambda: checks.log_totals(out / "trainlog.jsonl", "grammar", self.AUX_WEIGHT),
            lambda: checks.tensor_names(out / "checkpoint.bin",
                                        checks.encoder_tensor_names(4)),
            lambda: checks.checkpoint(out / "checkpoint.bin", state["params"]),
            lambda: checks.all_steps_ran(state["tlog"], EPOCHS, BATCH),
            lambda: checks.below_uniform("mlm_loss_final", losses["mlm"], self.VOCAB),
            lambda: checks.below_uniform("aux_loss_final", losses["aux"], self.VOCAB),
        )


# -- minimal_pair_eval --------------------------------------------------------

PSEUDO_PHENOMENON = "pseudo-word substitution"


class MinimalPairEval:
    """`desklm eval --pairs ... --blimp` on a checkpoint written at setup."""

    VOCAB = 400
    TOY_PER_KIND = 12
    TOY_REPEATS = 6                     # toy pairs listed twice
    # (token length of the good and bad sentences, number of pairs sharing
    # the good one); the longest comes close to the model's 64 positions
    LONG = ((56, 1), (40, 2), (24, 2))
    LAYERS = tracing.metrics_matching(
        ("subwords.encode_tokens_per_s", "autograd.*.fwd_s", "model.encoder_forward_s",
         "model.mlm_logits_s", "model.load_checkpoint_s", "model.block.emb_s",
         "model.block.enc*", "model.block.mlm_s", "evaluation.*", "cli.*"),
        ("autograd.gather_rows.*", "autograd.cross_entropy.*", "autograd.dropout.*"))

    def setup(self, d: Path, seed: int) -> dict:
        d.mkdir(parents=True)
        rng = np.random.default_rng([seed, 3])
        lexicon = pseudo_words(np.random.default_rng(LEXICON_SEED), 160)
        # toy words are frequent enough in the tokenizer corpus to be merged
        # whole, so toy sentences are a few tokens; pseudo-words split into pieces
        texts = ev.toy_vocabulary_sentences() + [
            p.good for kind in ("subject-verb", "determiner-noun")
            for p in ev.generate_toy_minimal_pairs(kind, 100, seed + 2)]
        texts += [" ".join(zipf_sentence(rng, lexicon, 6, 12)) for _ in range(80)]
        corpus = [cp.Document(id=f"tok-{i}", source="unconstrained", text=t)
                  for i, t in enumerate(texts)]
        sw = sbw.train_subwords(corpus, self.VOCAB)
        sw.save(d / "subwords.json")
        config = mdl.ModelConfig(vocab_size=self.VOCAB, seed=seed)
        mdl.save_checkpoint(mdl.init_params(config), d / "checkpoint.bin")

        # toy pairs of exactly 6 tokens a sentence, so the work is the same for every seed
        pairs = []
        for k, kind in enumerate(("subject-verb", "determiner-noun")):
            pool = ev.generate_toy_minimal_pairs(kind, 20 * self.TOY_PER_KIND, seed + k)
            pairs += [p for p in pool if len(sw.encode(p.good)) == len(sw.encode(p.bad)) == 6
                      ][: self.TOY_PER_KIND]
        pairs += [pairs[int(k)] for k in rng.choice(len(pairs), self.TOY_REPEATS, replace=False)]
        samples = [pairs[0].good]
        for target, shared in self.LONG:
            good = self._sentence_of_length(sw, rng, lexicon, target)
            samples.append(good)
            for _ in range(shared):
                pairs.append(ev.MinimalPair(good, self._substitute(sw, rng, lexicon, good),
                                            PSEUDO_PHENOMENON))
        pairs = [pairs[int(k)] for k in rng.permutation(len(pairs))]
        _write_jsonl(d / "pairs.jsonl", ({"sentence_good": p.good, "sentence_bad": p.bad,
                                          "UID": p.phenomenon} for p in pairs))
        slots = [s for p in pairs for s in (p.good, p.bad)]
        return {"checkpoint": d / "checkpoint.bin", "subwords": d / "subwords.json",
                "pairs": d / "pairs.jsonl", "n_pairs": len(pairs),
                "tokens": sum(len(sw.encode(s)) for s in slots), "samples": samples}

    @staticmethod
    def _sentence_of_length(sw, rng, lexicon, target: int) -> str:
        """Pseudo-words that encode to exactly `target` tokens."""
        words: list[str] = []
        length = 0
        for w in (lexicon[int(k)] for k in rng.integers(len(lexicon), size=100 * target)):
            n = len(sw.encode(" ".join(words + [w])))
            if n <= target:
                words.append(w)
                length = n
            if length == target:
                return " ".join(words)
        raise RuntimeError(f"no pseudo-word sentence of {target} tokens found")

    @staticmethod
    def _substitute(sw, rng, lexicon, good: str) -> str:
        """Replace one word, keeping the token count of the good sentence."""
        words, n = good.split(), len(sw.encode(good))
        for _ in range(10000):
            k, w = int(rng.integers(len(words))), lexicon[int(rng.integers(len(lexicon)))]
            bad = " ".join(words[:k] + [w] + words[k + 1:])
            if bad != good and len(sw.encode(bad)) == n:
                return bad
        raise RuntimeError(f"no {n}-token substitution found for {good[:40]!r}")

    def run_round(self, inputs: dict, out: Path) -> Round:
        def evaluate():
            argv = ["eval", "--checkpoint", str(inputs["checkpoint"]),
                    "--subwords", str(inputs["subwords"]), "--pairs", str(inputs["pairs"]),
                    "--blimp", "--out-dir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"desklm eval exited with code {code}")

        rnd = _run_stages([("eval", evaluate)], inputs["n_pairs"])
        rnd.model_s = rnd.stage_s.get("eval", 0.0)
        return rnd

    def model_tokens(self, inputs: dict, state: dict) -> int:
        return inputs["tokens"]

    def losses(self, state: dict) -> dict:
        return {"total": state["pseudo_nll"]}

    def check(self, inputs: dict, out: Path, state: dict) -> list[str]:
        try:
            params = checks.read_checkpoint(inputs["checkpoint"])
        except checks.CheckFailed as e:
            state["pseudo_nll"] = 0.0
            return [str(e)]
        sw = sbw.SubwordModel.load(inputs["subwords"])
        samples = inputs["samples"]
        plls = [ev.pseudo_log_likelihood(params, sw, s) for s in samples]
        state["pseudo_nll"] = -sum(plls) / sum(len(sw.encode(s)) for s in samples)
        # the per-sentence PLL, checked against brute force on the samples,
        # rescores every pair of the suite
        cache = dict(zip(samples, plls))

        def pll(sentence: str) -> float:
            if sentence not in cache:
                cache[sentence] = ev.pseudo_log_likelihood(params, sw, sentence)
            return cache[sentence]

        return checks.collect(
            lambda: checks.pll_matches_brute_force(params, sw, samples, plls),
            lambda: checks.uniform_pll(params, sw, samples[:3]),
            lambda: checks.report_counts(out / "report.json", inputs["pairs"]),
            lambda: checks.report_scores(out / "report.json", inputs["pairs"], pll),
        )


WORKLOADS = {"paraphrase_mlm": ParaphraseMLM, "grammar_aux_mlm": GrammarAuxMLM,
             "minimal_pair_eval": MinimalPairEval}
