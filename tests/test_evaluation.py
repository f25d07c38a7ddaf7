"""PLL scoring against brute-force and closed-form oracles; pair tooling."""

import json
import math

import numpy as np
import pytest

from desklm import autograd as ag
from desklm import evaluation as ev
from desklm import model as mdl
from desklm.corpus import Document
from desklm.subwords import MASK_ID, SPECIAL_TOKENS, UNK_ID, SubwordModel, train_subwords

from helpers import (brute_force_pll, reference_pseudo_log_likelihood, subwords_of_size,
                     zero_params)


@pytest.fixture(scope="module")
def toy_subwords():
    docs = [Document(id=f"t{i}", text=t, source="unconstrained")
            for i, t in enumerate(ev.toy_vocabulary_sentences())]
    return train_subwords(docs, 250)


@pytest.fixture(scope="module")
def small_params():
    cfg = mdl.ModelConfig(vocab_size=250, n_layers=1, n_heads=2, d_model=16,
                          d_ff=32, max_positions=64, dropout=0.0, seed=7)
    return mdl.init_params(cfg)


class TestMinimalPair:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            ev.MinimalPair("", "b", "p")
        with pytest.raises(ValueError, match="non-empty"):
            ev.MinimalPair("a", " \t ", "p")
        with pytest.raises(ValueError, match="differ"):
            ev.MinimalPair("same", "same", "p")
        with pytest.raises(ValueError, match="phenomenon"):
            ev.MinimalPair("a", "b", "")


class TestPseudoLogLikelihood:
    def test_agrees_with_brute_force(self, toy_subwords, small_params):
        pairs = ev.generate_toy_minimal_pairs("subject-verb", 5, seed=3)
        sentences = [p.good for p in pairs] + [p.bad for p in pairs]
        for s in sentences:
            fast = ev.pseudo_log_likelihood(small_params, toy_subwords, s)
            slow = brute_force_pll(small_params, toy_subwords, s)
            assert abs(fast - slow) <= 1e-6, s

    def test_uniform_model_closed_form(self, toy_subwords):
        cfg = mdl.ModelConfig(vocab_size=250, n_layers=1, n_heads=2,
                              d_model=16, d_ff=32, dropout=0.0)
        params = zero_params(cfg)
        sentence = "the old cat sleeps near the river"
        n = len(toy_subwords.encode(sentence))
        pll = ev.pseudo_log_likelihood(params, toy_subwords, sentence)
        assert abs(pll - n * math.log(1.0 / 250)) <= 1e-9

    def test_uniform_model_prefers_shorter(self, toy_subwords):
        cfg = mdl.ModelConfig(vocab_size=250, n_layers=1, n_heads=2,
                              d_model=16, d_ff=32, dropout=0.0)
        params = zero_params(cfg)
        short = ev.pseudo_log_likelihood(params, toy_subwords, "the cat sleeps")
        long = ev.pseudo_log_likelihood(params, toy_subwords,
                                        "the cat sleeps near the river")
        assert short > long

    def test_empty_sentence_rejected(self, toy_subwords, small_params):
        with pytest.raises(ValueError, match="zero tokens"):
            ev.pseudo_log_likelihood(small_params, toy_subwords, "   ")

    def test_over_length_rejected(self, toy_subwords, small_params):
        sentence = " ".join(["cat"] * 70)
        with pytest.raises(ValueError, match="model accepts 64"):
            ev.pseudo_log_likelihood(small_params, toy_subwords, sentence)


def _biased_model_and_vocab():
    """Zeroed model over a 12-token hand vocabulary with a known bias row:
    every masked position sees exactly softmax(bias)."""
    vocab = list(SPECIAL_TOKENS) + [" ", "x", "y", "z", " y", " z"]
    sub = SubwordModel(vocab, [(" ", "y"), (" ", "z")])
    cfg = mdl.ModelConfig(vocab_size=12, n_layers=1, n_heads=2, d_model=8,
                          d_ff=16, dropout=0.0)
    params = zero_params(cfg)
    bias = np.zeros(12)
    bias[7], bias[10], bias[11] = 1.0, 0.5, -0.5   # "x", " y", " z"
    bias[8], bias[9] = 0.25, -1.0                  # "y", "z"
    params["mlm.b"].data[...] = bias
    return params, sub, bias


class TestClosedFormModel:
    def test_hand_computed_pll(self):
        params, sub, bias = _biased_model_and_vocab()
        assert sub.encode("x y z") == [7, 10, 11]
        lse = math.log(math.fsum(math.exp(b) for b in bias))
        expect = (bias[7] - lse) + (bias[10] - lse) + (bias[11] - lse)
        got = ev.pseudo_log_likelihood(params, sub, "x y z")
        assert abs(got - expect) <= 1e-9

    def test_shift_invariance(self):
        params, sub, _ = _biased_model_and_vocab()
        base = ev.pseudo_log_likelihood(params, sub, "x y z")
        params["mlm.b"].data += 3.7
        shifted = ev.pseudo_log_likelihood(params, sub, "x y z")
        assert abs(base - shifted) <= 1e-9

    def test_verdict_follows_bias(self):
        params, sub, _ = _biased_model_and_vocab()
        # single-token sentences: preference is exactly by bias entry
        pairs = [ev.MinimalPair("x", "y", "p"), ev.MinimalPair("z", "x", "p")]
        recs = ev.evaluate_suite(params, sub, pairs).scores
        assert [r["correct"] for r in recs] == [True, False]

    def test_ties_count_as_incorrect(self):
        params, sub, _ = _biased_model_and_vocab()
        params["mlm.b"].data[...] = 0.0
        pairs = [ev.MinimalPair("x", "y", "p"), ev.MinimalPair("y", "x", "p")]
        recs = ev.evaluate_suite(params, sub, pairs).scores
        assert [r["margin"] for r in recs] == [0.0, 0.0]
        assert [r["correct"] for r in recs] == [False, False]

    def test_evaluate_suite_arithmetic(self):
        params, sub, _ = _biased_model_and_vocab()
        pairs = [ev.MinimalPair("x", "y", "p1"),   # correct
                 ev.MinimalPair("z", "x", "p1"),   # incorrect
                 ev.MinimalPair("x", "z", "p2")]   # correct
        report = ev.evaluate_suite(params, sub, pairs, model_id="m",
                                   pairs_id="hand")
        assert report.counts == {"p1": (1, 2), "p2": (1, 1)}
        assert report.pair_count == 3
        assert abs(report.macro_average - 0.75) <= 1e-12

    def test_empty_suite_rejected(self):
        params, sub, _ = _biased_model_and_vocab()
        with pytest.raises(ValueError, match="no pairs"):
            ev.evaluate_suite(params, sub, [])


class TestEvaluateSuite:
    def test_model_and_tokenizer_of_different_sizes_refused(self, monkeypatch):
        params = mdl.init_params(mdl.ModelConfig(vocab_size=120, n_layers=1, n_heads=2,
                                                 d_model=16, d_ff=32))

        def never(*args, **kwargs):
            raise AssertionError("ran the model before checking the vocabulary sizes")
        monkeypatch.setattr(mdl, "encoder_forward", never)
        monkeypatch.setattr(ev, "pseudo_log_likelihood", never)
        with pytest.raises(ValueError, match="the model is a model of 120 tokens "
                                             "but the tokenizer has 80"):
            ev.evaluate_suite(params, subwords_of_size(80),
                              [ev.MinimalPair("w1 w2", "w2 w1", "p")])

    def test_each_distinct_sentence_scored_once(self, toy_subwords, small_params,
                                                monkeypatch):
        pairs = [ev.MinimalPair("the cat sleeps", "the cat sleep", "sv"),
                 ev.MinimalPair("the cats sleep", "the cats sleeps", "sv"),
                 ev.MinimalPair("the cat sleeps", "the cats sleeps", "sv"),
                 ev.MinimalPair("this dog runs", "these dog runs", "dn"),
                 ev.MinimalPair("the cat sleeps", "the cat sleep", "sv")]
        # the old way, each pair on its own: two PLL calls a pair
        expect: dict[str, list[int]] = {}
        for p in pairs:
            c = expect.setdefault(p.phenomenon, [0, 0])
            c[0] += int(ev.pseudo_log_likelihood(small_params, toy_subwords, p.good)
                        > ev.pseudo_log_likelihood(small_params, toy_subwords, p.bad))
            c[1] += 1

        scored: list[str] = []
        original = ev.pseudo_log_likelihood

        def counting(params, subwords, sentence):
            scored.append(sentence)
            return original(params, subwords, sentence)

        monkeypatch.setattr(ev, "pseudo_log_likelihood", counting)
        report = ev.evaluate_suite(small_params, toy_subwords, pairs)
        distinct = {s for p in pairs for s in (p.good, p.bad)}
        assert sorted(scored) == sorted(distinct)
        assert report.counts == {k: (c, t) for k, (c, t) in expect.items()}
        assert report.skipped == 0

    def test_over_length_pairs_skipped_and_counted(self, toy_subwords, small_params):
        long = " ".join(["cat"] * 70)
        pairs = [ev.MinimalPair("the cat sleeps", "the cat sleep", "sv"),
                 ev.MinimalPair(long, "the dog runs", "sv"),
                 ev.MinimalPair("this dog runs", "these dog runs", "dn"),
                 ev.MinimalPair("the cats sleep", long, "long only")]
        report = ev.evaluate_suite(small_params, toy_subwords, pairs)
        alone = ev.evaluate_suite(small_params, toy_subwords, [pairs[0], pairs[2]])
        assert report.counts == alone.counts
        assert set(report.counts) == {"sv", "dn"}
        assert report.pair_count == 2
        assert report.skipped == 2
        assert "skipped 2 over-length pairs" in report.to_text()

    def test_all_pairs_over_length_rejected(self, toy_subwords, small_params):
        long = " ".join(["cat"] * 70)
        with pytest.raises(ValueError, match="all 1 pairs .* longer than the model's 64"):
            ev.evaluate_suite(small_params, toy_subwords,
                              [ev.MinimalPair(long, "the cat sleeps", "sv")])


class TestRowBlocks:
    """Masked copies scored in blocks of at most `_PLL_ROWS` rows."""

    LETTERS = "abcdefgh"

    @pytest.fixture(scope="class")
    def letters(self):
        # no merges: a word of n letters is n tokens
        return SubwordModel(list(SPECIAL_TOKENS) + list(self.LETTERS), [])

    @pytest.fixture(scope="class")
    def params(self):
        cfg = mdl.ModelConfig(vocab_size=len(SPECIAL_TOKENS) + len(self.LETTERS),
                              n_layers=2, n_heads=2, d_model=16, d_ff=32,
                              max_positions=64, dropout=0.0, seed=5)
        return mdl.init_params(cfg)

    def word(self, n: int) -> str:
        rng = np.random.default_rng(n)
        return "".join(self.LETTERS[k] for k in rng.integers(len(self.LETTERS), size=n))

    # one block, an exact fit, 15 + 2 copies, and 4 copies a block
    @pytest.mark.parametrize("n", [1, 2, 16, 17, 63, 64])
    def test_matches_single_batch(self, letters, params, n):
        sentence = self.word(n)
        assert len(letters.encode(sentence)) == n
        blocked = ev.pseudo_log_likelihood(params, letters, sentence)
        single = reference_pseudo_log_likelihood(params, letters, sentence)
        assert abs(blocked - single) <= 1e-12

    @pytest.mark.parametrize("n, calls", [(16, 1), (17, 2), (63, 16), (64, 16)])
    def test_blocks_bounded_and_cover_each_copy_once(self, letters, params, n, calls,
                                                     monkeypatch):
        ids = np.asarray(letters.encode(self.word(n)))
        batches = []
        original = mdl.encoder_forward

        def spy(p, batch, mask, **kw):
            batches.append(batch.copy())
            return original(p, batch, mask, **kw)

        monkeypatch.setattr(mdl, "encoder_forward", spy)
        ev.pseudo_log_likelihood(params, letters, self.word(n))
        assert len(batches) == calls
        assert all(b.size <= ev._PLL_ROWS for b in batches)
        rows = np.concatenate(batches)
        masked = rows == MASK_ID
        assert (masked.sum(axis=1) == 1).all()
        assert sorted(masked.argmax(axis=1)) == list(range(n))
        assert (np.where(masked, ids, rows) == ids).all()

    @pytest.mark.parametrize("n", [5, 17])
    def test_last_layer_runs_one_row_a_copy(self, letters, params, n, monkeypatch):
        # rows into each FFN's GELU: k * n in the first layer, k in the last
        rows = []
        original = ag.gelu

        def spy(a):
            rows.append(math.prod(a.shape[:-1]))
            return original(a)

        monkeypatch.setattr(ag, "gelu", spy)
        ev.pseudo_log_likelihood(params, letters, self.word(n))
        per_block = ev._PLL_ROWS // n
        blocks = [min(per_block, n - start) for start in range(0, n, per_block)]
        assert rows == [r for k in blocks for r in (k * n, k)]


class TestPairScores:
    def test_one_record_per_pair_in_input_order(self, toy_subwords, small_params):
        long = " ".join(["cat"] * 70)
        pairs = [ev.MinimalPair("the cat sleeps", "the cat sleep", "sv"),
                 ev.MinimalPair(long, "the dog runs", "sv"),
                 ev.MinimalPair("this dog runs", "these dog runs", "dn"),
                 ev.MinimalPair("the cats sleep", "the cats sleeps", "sv")]
        report = ev.evaluate_suite(small_params, toy_subwords, pairs)
        recs = [json.loads(line) for line in report.scores_to_jsonl().splitlines()]
        assert [(r["good"], r["bad"], r["phenomenon"]) for r in recs] == [
            (p.good, p.bad, p.phenomenon) for p in pairs]
        assert recs[1] == {"good": long, "bad": "the dog runs", "phenomenon": "sv",
                           "skipped": True}
        for p, r in zip(pairs, recs):
            if r.get("skipped"):
                continue
            assert list(r) == ["good", "bad", "phenomenon", "pll_good", "pll_bad",
                               "margin", "correct"]
            assert r["pll_good"] == ev.pseudo_log_likelihood(small_params, toy_subwords,
                                                             p.good)
            assert r["pll_bad"] == ev.pseudo_log_likelihood(small_params, toy_subwords,
                                                            p.bad)
            assert r["margin"] == r["pll_good"] - r["pll_bad"]
            assert r["correct"] == (r["pll_good"] > r["pll_bad"])


def _records(counts: dict[str, tuple[int, int]], skipped: int = 0) -> list[dict]:
    """Score records holding `counts` (correct, total) a phenomenon, then
    `skipped` skipped pairs."""
    recs = [{"good": f"{name} {k}", "bad": f"{name} {k} x", "phenomenon": name,
             "correct": k < c} for name, (c, t) in counts.items() for k in range(t)]
    return recs + [{"good": f"long {k}", "bad": f"long {k} x", "phenomenon": "long",
                    "skipped": True} for k in range(skipped)]


class TestEvalReport:
    def test_counts_are_the_aggregate_of_the_scores(self, toy_subwords, small_params):
        long = " ".join(["cat"] * 70)
        pairs = [ev.MinimalPair("this dog runs", "these dog runs", "dn"),
                 ev.MinimalPair(long, "the dog runs", "sv"),
                 ev.MinimalPair("the cat sleeps", "the cat sleep", "sv"),
                 ev.MinimalPair("the cats sleep", "the cats sleeps", "sv"),
                 ev.MinimalPair("the dog runs", long, "only long"),
                 ev.MinimalPair("those cats sleep", "that cats sleep", "dn")]
        report = ev.evaluate_suite(small_params, toy_subwords, pairs)
        counts: dict[str, tuple[int, int]] = {}
        for r in report.scores:
            if not r.get("skipped"):
                c, t = counts.get(r["phenomenon"], (0, 0))
                counts[r["phenomenon"]] = (c + r["correct"], t + 1)
        assert list(report.counts.items()) == list(counts.items())
        assert list(report.counts) == ["dn", "sv"]
        assert report.skipped == sum(bool(r.get("skipped")) for r in report.scores) == 2
        assert report.pair_count == 4
        accs = [c / t for c, t in counts.values()]
        assert report.macro_average == sum(accs) / len(accs)

    def test_json_round_trip(self):
        report = ev.EvalReport("model-a", "pairs-b",
                               _records({"sv": (400, 500), "dn": (250, 500)}))
        assert json.loads(report.to_json()) == {
            "model": "model-a", "pairs": "pairs-b",
            "phenomena": {"dn": {"correct": 250, "total": 500, "accuracy": 0.5},
                          "sv": {"correct": 400, "total": 500, "accuracy": 0.8}},
            "macro_average": 0.65, "pair_count": 1000, "skipped": 0}

    def test_json_round_trip_with_skipped(self):
        report = ev.EvalReport("m", "p", _records({"sv": (3, 4)}, skipped=5))
        obj = json.loads(report.to_json())
        assert (obj["skipped"], obj["pair_count"]) == (5, 4)
        assert "long" not in obj["phenomena"]
        assert report.to_text().splitlines()[-1] == "skipped 5 over-length pairs"
        assert "skipped" not in ev.EvalReport("m", "p", _records({"sv": (3, 4)})).to_text()

    def test_json_is_stable(self):
        report = ev.EvalReport("m", "p", _records({"a": (1, 2)}))
        assert report.to_json() == report.to_json()
        assert report.to_json().endswith("\n")

    def test_text_table(self):
        report = ev.EvalReport("m", "p", _records({"subject-verb agreement": (400, 500),
                                                   "determiner-noun agreement": (100, 200)}))
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("phenomenon")
        assert "0.8000" in text and "0.5000" in text
        assert "macro average" in lines[-1]
        assert "0.6500" in lines[-1]
        assert text.endswith("\n")


class TestToyPairs:
    def test_exactly_one_token_differs(self):
        for kind in ("subject-verb", "determiner-noun"):
            for p in ev.generate_toy_minimal_pairs(kind, 50, seed=1):
                g, b = p.good.split(), p.bad.split()
                assert len(g) == len(b)
                assert sum(x != y for x, y in zip(g, b)) == 1

    def test_subject_verb_flip_position(self):
        singular_verbs = {v for v, _ in ev._VERBS}
        plural_verbs = {v for _, v in ev._VERBS}
        plural_nouns = {p for _, p in ev._NOUNS}
        for p in ev.generate_toy_minimal_pairs("subject-verb", 50, seed=2):
            g, b = p.good.split(), p.bad.split()
            i = next(k for k, (x, y) in enumerate(zip(g, b)) if x != y)
            assert {g[i], b[i]} <= singular_verbs | plural_verbs
            noun = g[i - 1]
            if noun in plural_nouns:
                assert g[i] in plural_verbs and b[i] in singular_verbs
            else:
                assert g[i] in singular_verbs and b[i] in plural_verbs

    def test_determiner_noun_flip_position(self):
        dets = {d for pair in ev._DETERMINERS for d in pair}
        plural_dets = {p for _, p in ev._DETERMINERS}
        plural_nouns = {p for _, p in ev._NOUNS}
        for p in ev.generate_toy_minimal_pairs("determiner-noun", 50, seed=3):
            g, b = p.good.split(), p.bad.split()
            assert g[0] != b[0]
            assert {g[0], b[0]} <= dets
            assert g[1:] == b[1:]
            noun = next(w for w in g if w in plural_nouns
                        or any(w == s for s, _ in ev._NOUNS))
            assert (g[0] in plural_dets) == (noun in plural_nouns)

    def test_phenomenon_labels_and_aliases(self):
        # each short kind names one phenomenon label; the labels are not kinds
        p1 = ev.generate_toy_minimal_pairs("subject-verb", 1, seed=0)[0]
        assert p1.phenomenon == ev.SUBJECT_VERB
        p3 = ev.generate_toy_minimal_pairs("determiner-noun", 1, seed=0)[0]
        assert p3.phenomenon == ev.DETERMINER_NOUN
        for label in (ev.SUBJECT_VERB, ev.DETERMINER_NOUN):
            with pytest.raises(ValueError, match="unknown pair kind"):
                ev.generate_toy_minimal_pairs(label, 1, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown pair kind"):
            ev.generate_toy_minimal_pairs("anaphora", 5, seed=0)
        with pytest.raises(ValueError, match="n must be"):
            ev.generate_toy_minimal_pairs("subject-verb", 0, seed=0)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            ev.generate_toy_minimal_pairs("subject-verb", 5, seed=-1)

    @pytest.mark.parametrize("kind", ["subject-verb", "determiner-noun"])
    def test_n_beyond_the_distinct_pairs_is_refused_up_front(self, kind):
        # every grammatical sentence the templates can write, built here word by word
        goods = set()
        for plural in (0, 1):
            for noun in ev._NOUNS:
                for verb in ev._VERBS:
                    for adj in [None] + ev._ADJECTIVES:
                        for tail in ev._TAILS:
                            words = ([adj] if adj else []) + [noun[plural], verb[plural], tail]
                            if kind == "subject-verb":
                                goods.add(" ".join(["the"] + words))
                            else:
                                goods.update(" ".join([det[plural]] + words)
                                             for det in ev._DETERMINERS)
        with pytest.raises(ValueError, match=f"n must be at most {len(goods)}, "):
            ev.generate_toy_minimal_pairs(kind, len(goods) + 1, seed=0)

    def test_five_hundred_unique_and_deterministic(self):
        a = ev.generate_toy_minimal_pairs("subject-verb", 500, seed=9)
        b = ev.generate_toy_minimal_pairs("subject-verb", 500, seed=9)
        assert a == b
        assert len({p.good for p in a}) == 500
        c = ev.generate_toy_minimal_pairs("subject-verb", 500, seed=10)
        assert c != a

    def test_plurality_balanced(self):
        plural_nouns = {p for _, p in ev._NOUNS}
        pairs = ev.generate_toy_minimal_pairs("subject-verb", 500, seed=4)
        frac = np.mean([any(w in plural_nouns for w in p.good.split())
                        for p in pairs])
        assert 0.4 < frac < 0.6

    def test_vocabulary_closed_under_tokenizer(self, toy_subwords):
        pairs = (ev.generate_toy_minimal_pairs("subject-verb", 10, seed=5)
                 + ev.generate_toy_minimal_pairs("determiner-noun", 10, seed=5))
        for p in pairs:
            for s in (p.good, p.bad):
                assert UNK_ID not in toy_subwords.encode(s)


class TestPairFiles:
    def test_round_trip(self, tmp_path):
        pairs = ev.generate_toy_minimal_pairs("determiner-noun", 10, seed=6)
        path = tmp_path / "pairs.jsonl"
        ev.save_minimal_pairs(pairs, path)
        assert ev.load_minimal_pairs(path) == pairs

    def test_blimp_format(self, tmp_path):
        path = tmp_path / "blimp.jsonl"
        recs = [{"sentence_good": "the cat sleeps",
                 "sentence_bad": "the cat sleep",
                 "UID": "regular_plural_subject_verb_agreement_1",
                 "field": "morphology"}]
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        pairs = ev.load_blimp_pairs(path)
        assert pairs == [ev.MinimalPair(
            "the cat sleeps", "the cat sleep",
            "regular_plural_subject_verb_agreement_1")]

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"good": "a", "bad": "b", "phenomenon": "p"}\n'
                        'not json\n')
        with pytest.raises(ValueError, match="line 2"):
            ev.load_minimal_pairs(path)
        path.write_text('{"good": "a", "bad": "b"}\n')
        with pytest.raises(ValueError, match="line 1: bad pair record"):
            ev.load_minimal_pairs(path)

    def test_invalid_pair_reports_file_and_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"good": "a", "bad": "b", "phenomenon": "p"}\n'
                        '{"good": "a", "bad": "a", "phenomenon": "p"}\n')
        with pytest.raises(ValueError) as exc:
            ev.load_minimal_pairs(path)
        assert str(exc.value).startswith(f"{path}: line 2: bad pair record")
        assert "good and bad sentences must differ" in str(exc.value)

    def test_invalid_blimp_pair_reports_file_and_line(self, tmp_path):
        path = tmp_path / "blimp.jsonl"
        path.write_text('{"sentence_good": "a", "sentence_bad": "a", "UID": "u"}\n')
        with pytest.raises(ValueError) as exc:
            ev.load_blimp_pairs(path)
        assert str(exc.value).startswith(f"{path}: line 1: bad BLiMP record")
        assert "good and bad sentences must differ" in str(exc.value)

    @pytest.mark.parametrize("loader, record, what", [
        (ev.load_minimal_pairs, {"good": "a b", "bad": "  ", "phenomenon": "p"}, "pair"),
        (ev.load_blimp_pairs, {"sentence_good": " ", "sentence_bad": "a", "UID": "u"},
         "BLiMP"),
    ])
    def test_blank_sentence_reports_file_and_line(self, tmp_path, loader, record, what):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"good": "a", "bad": "b", "phenomenon": "p", '
                        '"sentence_good": "a", "sentence_bad": "b", "UID": "u"}\n'
                        + json.dumps(record) + "\n")
        with pytest.raises(ValueError) as exc:
            loader(path)
        assert str(exc.value).startswith(f"{path}: line 2: bad {what} record")
        assert "non-empty" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('\n{"good": "a", "bad": "b", "phenomenon": "p"}\n\n')
        assert len(ev.load_minimal_pairs(path)) == 1
