"""Masking statistics, schedule/optimizer exactness, and training loops."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from desklm import autograd as ag
from desklm import model as mdl
from desklm import training as tr
from desklm.corpus import (Document, GrammarExample, NotionTag,
                           WiktionaryEntry, corpus_digest)
from desklm.subwords import (CLS_ID, MARK_ID, MASK_ID, NUM_SPECIALS, PAD_ID,
                             SEP_ID, train_subwords)

from helpers import (make_pseudo_corpus, reference_adamw_step, reference_train_mlm,
                     reference_train_multi_objective, subwords_of_size)


def tiny_model(**kw):
    base = dict(vocab_size=60, n_layers=1, n_heads=2, d_model=16, d_ff=32,
                max_positions=64, decoder_layers=0, dropout=0.0, seed=0)
    base.update(kw)
    return mdl.ModelConfig(**base)


def tiny_training(**kw):
    base = dict(learning_rate=5e-3, weight_decay=0.01, warmup_steps=2,
                batch_size=8, epochs=2, context_size=16, seed=0)
    base.update(kw)
    return tr.TrainingConfig(**base)


class TestConfigs:
    def test_training_defaults_are_published_recipe(self):
        cfg = tr.TrainingConfig()
        assert cfg.learning_rate == 2e-4
        assert cfg.weight_decay == 0.01
        assert cfg.warmup_steps == 4000
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
        assert cfg.batch_size == 64
        assert cfg.epochs == 50
        assert cfg.context_size == 64

    def test_training_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            tr.TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            tr.TrainingConfig(batch_size=0)
        with pytest.raises(ValueError, match="context_size"):
            tr.TrainingConfig(context_size=1)
        with pytest.raises(ValueError, match="aux_weight"):
            tr.TrainingConfig(aux_weight=-0.5)
        with pytest.raises(ValueError, match="betas"):
            tr.TrainingConfig(beta2=1.0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            tr.TrainingConfig(seed=-1)
        for name in ("learning_rate", "weight_decay", "eps", "aux_weight"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    tr.TrainingConfig(**{name: value})

    def test_masking_defaults(self):
        m = tr.MaskingConfig()
        assert (m.mask_prob, m.mask_frac, m.random_frac, m.keep_frac) == \
            (0.15, 0.8, 0.1, 0.1)

    def test_masking_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            tr.MaskingConfig(mask_frac=0.5, random_frac=0.1, keep_frac=0.1)
        with pytest.raises(ValueError, match="mask_prob"):
            tr.MaskingConfig(mask_prob=1.5)
        with pytest.raises(ValueError, match="non-negative"):
            tr.MaskingConfig(mask_frac=1.2, random_frac=-0.1, keep_frac=-0.1)
        with pytest.raises(ValueError, match="fractions must be finite"):
            tr.MaskingConfig(mask_frac=float("nan"))


class TestMasking:
    def test_zero_prob_is_identity(self):
        ids = np.arange(6, 26).reshape(2, 10)
        rng = np.random.default_rng(0)
        masked, labels = tr.apply_mlm_masking(
            ids, tr.MaskingConfig(mask_prob=0.0), rng, 60)
        np.testing.assert_array_equal(masked, ids)
        assert np.all(labels == tr.IGNORE_INDEX)

    def test_specials_never_selected(self):
        ids = np.tile(np.arange(NUM_SPECIALS), (4, 1))
        rng = np.random.default_rng(1)
        masked, labels = tr.apply_mlm_masking(
            ids, tr.MaskingConfig(mask_prob=1.0), rng, 60)
        np.testing.assert_array_equal(masked, ids)
        assert np.all(labels == tr.IGNORE_INDEX)

    def test_full_mask_branch(self):
        ids = np.full((3, 7), 20)
        cfg = tr.MaskingConfig(mask_prob=1.0, mask_frac=1.0,
                               random_frac=0.0, keep_frac=0.0)
        masked, labels = tr.apply_mlm_masking(ids, cfg, np.random.default_rng(2), 60)
        assert np.all(masked == MASK_ID)
        np.testing.assert_array_equal(labels, ids)

    def test_full_random_branch_range(self):
        ids = np.full((10, 50), 30)
        cfg = tr.MaskingConfig(mask_prob=1.0, mask_frac=0.0,
                               random_frac=1.0, keep_frac=0.0)
        masked, labels = tr.apply_mlm_masking(ids, cfg, np.random.default_rng(3), 60)
        assert masked.min() >= NUM_SPECIALS and masked.max() < 60
        np.testing.assert_array_equal(labels, ids)

    def test_full_keep_branch(self):
        ids = np.full((3, 7), 20)
        cfg = tr.MaskingConfig(mask_prob=1.0, mask_frac=0.0,
                               random_frac=0.0, keep_frac=1.0)
        masked, labels = tr.apply_mlm_masking(ids, cfg, np.random.default_rng(4), 60)
        np.testing.assert_array_equal(masked, ids)
        np.testing.assert_array_equal(labels, ids)

    def test_unselected_positions_keep_ids_and_ignore_label(self):
        ids = np.arange(6, 106).reshape(4, 25)
        masked, labels = tr.apply_mlm_masking(
            ids, tr.MaskingConfig(), np.random.default_rng(5), 200)
        untouched = labels == tr.IGNORE_INDEX
        np.testing.assert_array_equal(masked[untouched], ids[untouched])
        selected = ~untouched
        np.testing.assert_array_equal(labels[selected], ids[selected])

    def test_loose_rate_statistics(self):
        ids = np.full((100, 100), 20)
        masked, labels = tr.apply_mlm_masking(
            ids, tr.MaskingConfig(), np.random.default_rng(6), 60)
        rate = np.mean(labels != tr.IGNORE_INDEX)
        assert 0.13 < rate < 0.17
        sel = labels != tr.IGNORE_INDEX
        frac_mask = np.mean(masked[sel] == MASK_ID)
        assert 0.75 < frac_mask < 0.85

    def test_rng_consumption_is_shape_stable(self):
        # same draws whether or not positions are eligible
        a = np.full((5, 9), 30)
        b = np.zeros((5, 9), dtype=np.int64)
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        tr.apply_mlm_masking(a, tr.MaskingConfig(), r1, 60)
        tr.apply_mlm_masking(b, tr.MaskingConfig(), r2, 60)
        assert r1.random() == r2.random()


class TestSchedule:
    def test_boundary_values_exact(self):
        cfg = tr.TrainingConfig(learning_rate=2e-4, warmup_steps=4000)
        total = 10000
        assert tr.lr_at(0, cfg, total) == 0.0
        assert tr.lr_at(4000, cfg, total) == 2e-4
        assert tr.lr_at(total, cfg, total) == 0.0
        assert tr.lr_at(total + 500, cfg, total) == 0.0

    def test_piecewise_linear(self):
        cfg = tr.TrainingConfig(learning_rate=1e-3, warmup_steps=100)
        total = 300
        assert abs(tr.lr_at(50, cfg, total) - 5e-4) < 1e-12
        assert abs(tr.lr_at(200, cfg, total) - 5e-4) < 1e-12
        # slope constancy on each side
        up = [tr.lr_at(s, cfg, total) for s in range(0, 101)]
        diffs = np.diff(up)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-18)
        down = [tr.lr_at(s, cfg, total) for s in range(100, 301)]
        np.testing.assert_allclose(np.diff(down), np.diff(down)[0], atol=1e-18)

    def test_zero_warmup(self):
        cfg = tr.TrainingConfig(learning_rate=1e-3, warmup_steps=0)
        assert tr.lr_at(0, cfg, 10) == 1e-3

    def test_errors(self):
        cfg = tr.TrainingConfig(warmup_steps=100)
        with pytest.raises(ValueError, match="must exceed warmup"):
            tr.lr_at(0, cfg, 100)
        with pytest.raises(ValueError, match="non-negative"):
            tr.lr_at(-1, cfg, 200)


class TestAdamW:
    def test_single_step_hand_computed(self):
        cfg = tr.TrainingConfig(learning_rate=0.1, weight_decay=0.0,
                                warmup_steps=0)
        p = mdl.ParameterSet(tiny_model(), {"x": tr.Tensor(np.array([1.0]),
                                                           requires_grad=True)})
        state = tr.AdamWState(p)
        tr.adamw_step(p, {"x": np.array([0.5])}, state, 0.1, cfg)
        m1, v1 = 0.1 * 0.5, 0.001 * 0.25
        expect = 1.0 - 0.1 * (m1 / 0.1) / (math.sqrt(v1 / 0.001) + 1e-8)
        np.testing.assert_allclose(p["x"].data, [expect], rtol=1e-12)
        assert state.t == 1

    def test_updates_in_place_and_returns_nothing(self):
        cfg = tr.TrainingConfig(learning_rate=0.1, warmup_steps=0)
        x = tr.Tensor(np.array([1.0]), requires_grad=True)
        p = mdl.ParameterSet(tiny_model(), {"x": x})
        assert tr.adamw_step(p, {"x": np.array([0.5])}, tr.AdamWState(p), 0.1, cfg) is None
        assert p["x"] is x and x.data[0] < 1.0

    def test_second_step_bias_correction(self):
        cfg = tr.TrainingConfig(learning_rate=0.1, weight_decay=0.0,
                                warmup_steps=0)
        p = mdl.ParameterSet(tiny_model(), {"x": tr.Tensor(np.array([1.0]),
                                                           requires_grad=True)})
        state = tr.AdamWState(p)
        x1_expect = None
        g = np.array([0.5])
        tr.adamw_step(p, {"x": g}, state, 0.1, cfg)
        x1 = float(p["x"].data[0])
        tr.adamw_step(p, {"x": g}, state, 0.1, cfg)
        m2 = 0.9 * 0.05 + 0.1 * 0.5
        v2 = 0.999 * 0.00025 + 0.001 * 0.25
        bc1, bc2 = 1 - 0.9 ** 2, 1 - 0.999 ** 2
        expect = x1 - 0.1 * (m2 / bc1) / (math.sqrt(v2 / bc2) + 1e-8)
        np.testing.assert_allclose(p["x"].data, [expect], rtol=1e-12)
        assert state.t == 2

    def test_decay_only_on_matrices(self):
        cfg = tr.TrainingConfig(learning_rate=0.5, weight_decay=0.1,
                                warmup_steps=0)
        w = tr.Tensor(np.full((1, 1), 2.0), requires_grad=True)
        b = tr.Tensor(np.full((1,), 2.0), requires_grad=True)
        p = mdl.ParameterSet(tiny_model(), {"w": w, "b": b})
        zeros = {"w": np.zeros((1, 1)), "b": np.zeros(1)}
        tr.adamw_step(p, zeros, tr.AdamWState(p), 0.5, cfg)
        # zero grads: update is pure decay for the matrix, nothing for bias
        np.testing.assert_allclose(w.data, [[2.0 - 0.5 * 0.1 * 2.0]], rtol=1e-12)
        np.testing.assert_array_equal(b.data, [2.0])

    def test_no_decay_no_grad_is_identity(self):
        cfg = tr.TrainingConfig(learning_rate=0.5, weight_decay=0.0,
                                warmup_steps=0)
        w = tr.Tensor(np.full((2, 2), 3.0), requires_grad=True)
        p = mdl.ParameterSet(tiny_model(), {"w": w})
        tr.adamw_step(p, {"w": np.zeros((2, 2))}, tr.AdamWState(p), 0.5, cfg)
        np.testing.assert_array_equal(w.data, np.full((2, 2), 3.0))

    def test_non_finite_gradient_rejected(self):
        cfg = tr.TrainingConfig()
        w = tr.Tensor(np.ones(2), requires_grad=True)
        p = mdl.ParameterSet(tiny_model(), {"w": w})
        with pytest.raises(FloatingPointError, match="non-finite"):
            tr.adamw_step(p, {"w": np.array([1.0, np.nan])},
                          tr.AdamWState(p), 0.1, cfg)

    def test_non_finite_gradient_changes_nothing(self):
        # the check runs before any parameter or moment is touched, even
        # when the bad gradient belongs to the last parameter
        cfg = tr.TrainingConfig(weight_decay=0.1)
        p = mdl.ParameterSet(tiny_model(), {
            "a": tr.Tensor(np.ones((2, 2)), requires_grad=True),
            "b": tr.Tensor(np.ones(2), requires_grad=True)})
        state = tr.AdamWState(p)
        with pytest.raises(FloatingPointError, match="non-finite"):
            tr.adamw_step(p, {"a": np.ones((2, 2)), "b": np.array([np.inf, 1.0])},
                          state, 0.1, cfg)
        assert state.t == 0
        np.testing.assert_array_equal(p["a"].data, np.ones((2, 2)))
        assert not state.m["a"].any() and not state.v["a"].any()

    def test_bit_identical_to_reference(self):
        # matrices (decayed) and vectors (not), gradients from 1e-6 to 1e2
        # in size and of both signs, a changing learning rate, six steps
        cfg = tr.TrainingConfig(weight_decay=0.05)
        rng = np.random.default_rng(5)
        shapes = {"w": (7, 5), "e": (3, 4, 2), "b": (5,), "g": (1,)}

        def fresh():
            r = np.random.default_rng(11)
            return mdl.ParameterSet(tiny_model(), {
                n: tr.Tensor(r.normal(size=s), requires_grad=True)
                for n, s in shapes.items()})

        got, ref = fresh(), fresh()
        s_got, s_ref = tr.AdamWState(got), tr.AdamWState(ref)
        for step in range(6):
            grads = {n: rng.choice([-1.0, 1.0], size=s) * 10.0 ** rng.uniform(-6, 2, size=s)
                     for n, s in shapes.items()}
            lr = 1e-3 * (step + 1)
            tr.adamw_step(got, grads, s_got, lr, cfg)
            reference_adamw_step(ref, grads, s_ref, lr, cfg)
            for n in shapes:
                assert got[n].data.tobytes() == ref[n].data.tobytes(), (step, n)
                assert s_got.m[n].tobytes() == s_ref.m[n].tobytes(), (step, n)
                assert s_got.v[n].tobytes() == s_ref.v[n].tobytes(), (step, n)
        assert s_got.t == s_ref.t == 6


class TestTrainLog:
    def test_monotonic_steps_enforced(self):
        t = tr.TrainLog({"objective": "mlm"})
        t.append(0, 1e-4, {"mlm": 3.0}, 3.0)
        t.append(1, 1e-4, {"mlm": 2.9}, 2.9)
        with pytest.raises(ValueError, match="strictly increasing"):
            t.append(1, 1e-4, {"mlm": 2.8}, 2.8)

    def test_round_trip(self, tmp_path):
        t = tr.TrainLog({"objective": "mlm", "seed": 3})
        t.append(0, 1e-4, {"mlm": 3.0}, 3.0)
        t.append(5, 2e-4, {"mlm": 2.5, "grammar": 1.0}, 3.5)
        path = tmp_path / "log.jsonl"
        t.write(path)
        back = tr.TrainLog.read(path)
        assert back.manifest == t.manifest
        assert back.steps == t.steps

    def test_requires_manifest_first(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"kind": "step", "step": 0, "lr": 0.1, '
                        '"losses": {}, "total": 0}\n')
        with pytest.raises(ValueError, match="manifest"):
            tr.TrainLog.read(path)

    def _log_with_second_line(self, path, line):
        t = tr.TrainLog({"objective": "mlm"})
        t.write(path)
        with open(path, "a", encoding="utf-8") as f:
            f.write(line + "\n")

    def test_missing_key_names_file_and_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._log_with_second_line(
            path, '{"kind": "step", "step": 0, "losses": {}, "total": 0}')
        with pytest.raises(ValueError) as err:
            tr.TrainLog.read(path)
        assert str(err.value) == f"{path}: line 2: bad train log record: missing field 'lr'"

    def test_bad_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._log_with_second_line(path, '{"kind": "step", "step": 0,')
        with pytest.raises(ValueError) as err:
            tr.TrainLog.read(path)
        assert str(err.value).startswith(
            f"{path}: line 2: bad train log record: malformed JSON")


@pytest.fixture(scope="module")
def small_corpus():
    return make_pseudo_corpus(25, seed=11, lexicon_size=40, min_len=5, max_len=9)


@pytest.fixture(scope="module")
def small_subwords(small_corpus):
    return train_subwords(small_corpus, 80)


class TestTrainMLM:
    def test_masked_rows_head_matches_all_rows(self):
        # the step's head scores only labelled rows; the loss and every
        # parameter gradient equal those of all B*T rows under IGNORE_INDEX
        cfg = tiny_model(dropout=0.1)
        rng = np.random.default_rng(3)
        batch = rng.integers(NUM_SPECIALS, cfg.vocab_size, size=(4, 12))
        batch[1, 7:] = PAD_ID
        mcfg = tr.MaskingConfig()

        def rngs():
            return np.random.default_rng([9, 2]), np.random.default_rng([9, 3])

        params = mdl.init_params(cfg)
        loss = tr._mlm_step_loss(params, batch, mcfg, *rngs())
        grads = mdl.backward(params, loss)

        mask_rng, drop_rng = rngs()
        masked, labels = tr.apply_mlm_masking(batch, mcfg, mask_rng, cfg.vocab_size)
        assert 0 < int((labels != tr.IGNORE_INDEX).sum()) < labels.size
        hidden = mdl.encoder_forward(params, masked, batch != PAD_ID, drop_rng)
        logits = ag.reshape(mdl.mlm_logits(params, hidden), (batch.size, cfg.vocab_size))
        ref = ag.cross_entropy(logits, labels.reshape(-1))
        ref_grads = mdl.backward(params, ref)

        assert abs(float(loss.data) - float(ref.data)) <= 1e-12
        for name, g in ref_grads.items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)

    def test_empty_corpus(self, small_subwords):
        with pytest.raises(ValueError, match="empty"):
            tr.train_mlm([], small_subwords, tiny_model(vocab_size=80),
                         tiny_training())

    def test_context_exceeding_positions(self, small_corpus, small_subwords):
        with pytest.raises(ValueError, match="max_positions"):
            tr.train_mlm(small_corpus, small_subwords,
                         tiny_model(vocab_size=80),
                         tiny_training(context_size=65))

    def test_schedule_checked_before_first_step(self, small_corpus, small_subwords,
                                                monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("ran a model call before the schedule check")
        monkeypatch.setattr(mdl, "init_params", never)
        monkeypatch.setattr(mdl, "encoder_forward", never)
        with pytest.raises(ValueError, match=r"must exceed warmup_steps \(4000\)"):
            tr.train_mlm(small_corpus, small_subwords, tiny_model(vocab_size=80),
                         tiny_training(warmup_steps=4000))

    def test_manifest_and_log_contents(self, small_corpus, small_subwords):
        params, tlog = tr.train_mlm(small_corpus, small_subwords,
                                    tiny_model(vocab_size=80), tiny_training())
        man = tlog.manifest
        assert man["objective"] == "mlm"
        assert man["corpus_hash"] == corpus_digest(small_corpus)
        assert man["n_documents"] == 25
        assert man["seed"] == 0
        n = man["n_examples"]
        expect_steps = 2 * math.ceil(n / 8)
        assert man["total_steps"] == expect_steps
        assert len(tlog.steps) == expect_steps
        assert [s["step"] for s in tlog.steps] == list(range(expect_steps))
        for s in tlog.steps:
            assert s["total"] == s["losses"]["mlm"]

    def test_first_loss_near_uniform(self, small_corpus, small_subwords):
        _, tlog = tr.train_mlm(small_corpus, small_subwords,
                               tiny_model(vocab_size=80), tiny_training(epochs=1))
        assert abs(tlog.steps[0]["losses"]["mlm"] - math.log(80)) < 0.05

    def test_deterministic_given_seed(self, small_corpus, small_subwords, tmp_path):
        cfg = tiny_training()
        p1, t1 = tr.train_mlm(small_corpus, small_subwords,
                              tiny_model(vocab_size=80), cfg)
        p2, t2 = tr.train_mlm(small_corpus, small_subwords,
                              tiny_model(vocab_size=80), cfg)
        mdl.save_checkpoint(p1, tmp_path / "a.bin")
        mdl.save_checkpoint(p2, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert t1.steps == t2.steps

    def test_seed_changes_trajectory(self, small_corpus, small_subwords):
        p1, _ = tr.train_mlm(small_corpus, small_subwords,
                             tiny_model(vocab_size=80), tiny_training(seed=0, epochs=1))
        p2, _ = tr.train_mlm(small_corpus, small_subwords,
                             tiny_model(vocab_size=80), tiny_training(seed=1, epochs=1))
        assert any(not np.array_equal(p1[n].data, p2[n].data) for n in p1.names())

    def test_loss_decreases(self, small_corpus, small_subwords):
        _, tlog = tr.train_mlm(small_corpus, small_subwords,
                               tiny_model(vocab_size=80),
                               tiny_training(epochs=25, learning_rate=1e-2))
        first = tlog.steps[0]["losses"]["mlm"]
        tail = [s["losses"]["mlm"] for s in tlog.steps[-4:]]
        assert sum(tail) / len(tail) < first - 0.5

    def test_dropout_path_runs(self, small_corpus, small_subwords):
        params, tlog = tr.train_mlm(small_corpus, small_subwords,
                                    tiny_model(vocab_size=80, dropout=0.2),
                                    tiny_training(epochs=1))
        assert all(np.all(np.isfinite(t.data)) for t in params.values())


class TestWordSpan:
    def test_basic_and_case(self):
        assert tr.find_word_span("The cat sat.", "cat") == (4, 7)
        assert tr.find_word_span("The Cat sat.", "cat") == (4, 7)

    def test_whole_word_only(self):
        assert tr.find_word_span("concatenate cats", "cat") is None
        assert tr.find_word_span("the scatter", "cat") is None

    def test_punctuation_boundary(self):
        assert tr.find_word_span("I saw a cat, then left.", "cat") == (8, 11)

    def test_absent(self):
        assert tr.find_word_span("nothing here", "cat") is None


DEF_ENTRIES = [
    WiktionaryEntry("lanterm", "noun", "a glassed housing for a flame",
                    ("The lanterm glowed at dusk.",
                     "Bring the lanterm inside.")),
    WiktionaryEntry("gleft", "verb", "to split along the grain",
                    ("She gleft the plank cleanly.",
                     "No splitting happened here.")),  # headword absent
    WiktionaryEntry("morrow", "noun", "the following day", ()),
]


@pytest.fixture(scope="module")
def def_subwords():
    text = " ".join(e.word + " " + e.definition + " " + " ".join(e.examples)
                    for e in DEF_ENTRIES)
    return train_subwords([Document(id="d", text=text, source="wiktionary")], 120)


class TestDefinitionBatch:

    def test_item_count_matches_containment(self, def_subwords):
        items = tr.build_definition_batch(DEF_ENTRIES, def_subwords)
        expect = sum(1 for e in DEF_ENTRIES for ex in e.examples
                     if tr.find_word_span(ex, e.word) is not None)
        assert len(items) == len(items) == expect == 3

    def test_skip_logged(self, def_subwords, caplog):
        with caplog.at_level("INFO", logger="desklm.training"):
            tr.build_definition_batch(DEF_ENTRIES, def_subwords)
        assert any("skipping example without headword" in r.getMessage()
                   for r in caplog.records)

    def test_mark_and_targets(self, def_subwords):
        items = tr.build_definition_batch(DEF_ENTRIES[:1], def_subwords)
        entry = DEF_ENTRIES[0]
        def_ids = def_subwords.encode(entry.definition)
        for item, example in zip(items, entry.examples):
            assert item.enc_ids[item.mem_index - 1] == MARK_ID
            unmarked = [t for i, t in enumerate(item.enc_ids)
                        if i != item.mem_index - 1]
            assert unmarked == def_subwords.encode(example)
            assert item.dec_in == [CLS_ID] + def_ids
            assert item.dec_labels == def_ids + [SEP_ID]
            # the marked token is the first subword of the headword
            span = tr.find_word_span(example, entry.word)
            ids, offsets = def_subwords.encode_with_offsets(example)
            tok = mdl.locate_token(offsets, span)
            assert item.enc_ids[item.mem_index] == ids[tok]


TAGGED = GrammarExample(
    sentence="The engineers proposed a new design.",
    topic="engineering",
    tags=(NotionTag("common noun", ("engineers", "design")),
          NotionTag("object pronoun", "n/a"),
          NotionTag("adjunct clause", "no")))


@pytest.fixture(scope="module")
def grammar_subwords():
    text = (TAGGED.sentence + " notion common noun object pronoun adjunct"
            " clause : N/A yes no engineers design")
    return train_subwords([Document(id="d", text=text, source="grammar_gen")], 95)


@pytest.fixture(scope="module")
def mo_docs():
    return make_pseudo_corpus(12, seed=21, lexicon_size=30, min_len=5,
                              max_len=8)


class TestGrammarBatch:

    def test_answer_rendering(self):
        assert tr.render_tag_answer(("engineers", "design")) == "engineers, design"
        assert tr.render_tag_answer("yes") == "yes"
        assert tr.render_tag_answer("no") == "no"
        assert tr.render_tag_answer("n/a") == "N/A"

    def test_item_per_tag(self, grammar_subwords):
        items = tr.build_grammar_batch([TAGGED], grammar_subwords)
        assert len(items) == 3
        for item in items:
            assert item.mem_index is None
            assert item.enc_ids == grammar_subwords.encode(TAGGED.sentence)

    def test_target_strings(self, grammar_subwords):
        items = tr.build_grammar_batch([TAGGED], grammar_subwords)
        t0 = grammar_subwords.encode("notion common noun : engineers, design")
        t1 = grammar_subwords.encode("notion object pronoun : N/A")
        t2 = grammar_subwords.encode("notion adjunct clause : no")
        assert items[0].dec_in == [CLS_ID] + t0
        assert items[0].dec_labels == t0 + [SEP_ID]
        assert items[1].dec_in == [CLS_ID] + t1
        assert items[2].dec_in == [CLS_ID] + t2

    def test_untagged_sentences_contribute_nothing(self, grammar_subwords, monkeypatch):
        bare = GrammarExample(sentence="Just a sentence.", topic="art", tags=())
        expected = tr.build_grammar_batch([TAGGED], grammar_subwords)
        encoded = []
        encode = grammar_subwords.encode
        monkeypatch.setattr(grammar_subwords, "encode",
                            lambda text: encoded.append(text) or encode(text))
        assert tr.build_grammar_batch([bare], grammar_subwords) == []
        assert tr.build_grammar_batch([bare, TAGGED, bare], grammar_subwords) == expected
        assert bare.sentence not in encoded


class TestMultiObjective:
    def _grammar_items(self, subwords):
        return tr.build_grammar_batch([TAGGED], subwords)

    def test_requires_decoder(self, mo_docs, grammar_subwords):
        with pytest.raises(ValueError, match="decoder_layers"):
            tr.train_multi_objective(mo_docs, grammar_subwords,
                                     self._grammar_items(grammar_subwords),
                                     "grammar", tiny_model(vocab_size=95),
                                     tiny_training())

    def test_unknown_objective(self, mo_docs, grammar_subwords):
        with pytest.raises(ValueError, match="^unknown objective 'tagging'; "
                                             "expected 'definition' or 'grammar'$"):
            tr.train_multi_objective(mo_docs, grammar_subwords,
                                     self._grammar_items(grammar_subwords),
                                     "tagging",
                                     tiny_model(vocab_size=95, decoder_layers=1),
                                     tiny_training())

    def test_schedule_checked_before_first_step(self, mo_docs, grammar_subwords,
                                                monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("ran a model call before the schedule check")
        monkeypatch.setattr(mdl, "init_params", never)
        monkeypatch.setattr(mdl, "encoder_forward", never)
        with pytest.raises(ValueError, match=r"must exceed warmup_steps \(4000\)"):
            tr.train_multi_objective(mo_docs, grammar_subwords,
                                     self._grammar_items(grammar_subwords), "grammar",
                                     tiny_model(vocab_size=95, decoder_layers=1),
                                     tiny_training(warmup_steps=4000))

    def test_context_checked_before_first_step(self, mo_docs, grammar_subwords,
                                               monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("ran a model call before the context check")
        monkeypatch.setattr(mdl, "init_params", never)
        monkeypatch.setattr(mdl, "encoder_forward", never)
        with pytest.raises(ValueError, match="max_positions is smaller than context_size"):
            tr.train_multi_objective(mo_docs, grammar_subwords,
                                     self._grammar_items(grammar_subwords), "grammar",
                                     tiny_model(vocab_size=95, decoder_layers=1),
                                     tiny_training(context_size=65))

    def test_all_items_too_long(self, mo_docs, grammar_subwords, caplog):
        long_item = tr.AuxItem(enc_ids=[7] * 200, mem_index=None,
                               dec_in=[CLS_ID], dec_labels=[SEP_ID])
        with pytest.raises(ValueError, match="no usable auxiliary items"):
            tr.train_multi_objective(mo_docs, grammar_subwords, [long_item],
                                     "grammar",
                                     tiny_model(vocab_size=95, decoder_layers=1),
                                     tiny_training())

    def test_over_length_items_dropped_with_log(self, mo_docs, grammar_subwords, caplog):
        items = self._grammar_items(grammar_subwords)
        long_item = tr.AuxItem(enc_ids=[7] * 200, mem_index=None,
                               dec_in=[CLS_ID], dec_labels=[SEP_ID])
        with caplog.at_level("INFO", logger="desklm.training"):
            _, tlog = tr.train_multi_objective(
                mo_docs, grammar_subwords, items + [long_item], "grammar",
                tiny_model(vocab_size=95, decoder_layers=1),
                tiny_training(epochs=1))
        assert any("dropped 1 over-length" in r.getMessage()
                   for r in caplog.records)
        assert tlog.manifest["n_aux_items"] == len(items)

    def test_zero_weight_reduces_to_pure_mlm(self, mo_docs, grammar_subwords, tmp_path):
        # dropout on, to prove the auxiliary pass taps separate rng streams
        cfg = tiny_training(epochs=2, aux_weight=0.0)
        multi, _ = tr.train_multi_objective(
            mo_docs, grammar_subwords, self._grammar_items(grammar_subwords),
            "grammar",
            tiny_model(vocab_size=95, decoder_layers=1, dropout=0.1), cfg)
        pure, _ = tr.train_mlm(mo_docs, grammar_subwords,
                               tiny_model(vocab_size=95, dropout=0.1), cfg)
        assert multi.names() == pure.names()
        for name in pure.names():
            np.testing.assert_array_equal(multi[name].data, pure[name].data)
        mdl.save_checkpoint(multi, tmp_path / "multi.bin")
        mdl.save_checkpoint(pure, tmp_path / "pure.bin")
        assert (tmp_path / "multi.bin").read_bytes() == \
            (tmp_path / "pure.bin").read_bytes()

    def test_export_has_no_decoder(self, mo_docs, grammar_subwords):
        params, tlog = tr.train_multi_objective(
            mo_docs, grammar_subwords, self._grammar_items(grammar_subwords),
            "grammar", tiny_model(vocab_size=95, decoder_layers=1),
            tiny_training(epochs=1))
        assert params.config.decoder_layers == 0
        assert not any(n.startswith("dec") for n in params.names())
        assert tlog.manifest["objective"] == "mlm+grammar"

    def test_log_totals_combine_objectives(self, mo_docs, grammar_subwords):
        lam = 0.25
        _, tlog = tr.train_multi_objective(
            mo_docs, grammar_subwords, self._grammar_items(grammar_subwords),
            "grammar", tiny_model(vocab_size=95, decoder_layers=1),
            tiny_training(epochs=1, aux_weight=lam))
        for s in tlog.steps:
            assert set(s["losses"]) == {"mlm", "grammar"}
            assert s["total"] == s["losses"]["mlm"] + lam * s["losses"]["grammar"]

    def test_definition_objective_learns(self, mo_docs):
        entries = [DEF_ENTRIES[0]]
        text = " ".join(entries[0].examples) + " " + entries[0].definition
        sub = train_subwords([Document(id="t", text=text, source="wiktionary")], 75)
        items = tr.build_definition_batch(entries, sub)
        assert items
        params, tlog = tr.train_multi_objective(
            mo_docs, sub, items, "definition",
            tiny_model(vocab_size=75, decoder_layers=1),
            tiny_training(epochs=12, learning_rate=8e-3))
        first = tlog.steps[0]["losses"]["definition"]
        last = tlog.steps[-1]["losses"]["definition"]
        assert last < 0.5 * first


class TestStepGraphFreed:
    """Each step's autograd graph is released before the next forward pass,
    so peak memory holds one step's graph, not two."""

    @pytest.mark.parametrize("objective", [None, "grammar"])
    def test_previous_losses_dead_when_next_step_starts(self, objective, monkeypatch,
                                                        mo_docs, grammar_subwords):
        refs, alive = [], []

        def watched(real, starts_step):
            def step_loss(*args, **kwargs):
                if starts_step:
                    alive.extend(ref() is not None for ref in refs)
                    refs.clear()
                loss = real(*args, **kwargs)
                if loss is not None:  # a Tensor takes no weakref; its array dies with it
                    refs.append(weakref.ref(loss.data))
                return loss
            return step_loss

        monkeypatch.setattr(tr, "_mlm_step_loss", watched(tr._mlm_step_loss, True))
        monkeypatch.setattr(tr, "_aux_step_loss", watched(tr._aux_step_loss, False))
        if objective:
            tr.train_multi_objective(mo_docs, grammar_subwords,
                                     tr.build_grammar_batch([TAGGED], grammar_subwords),
                                     objective, tiny_model(vocab_size=95, decoder_layers=1),
                                     tiny_training())
        else:
            tr.train_mlm(mo_docs, grammar_subwords, tiny_model(vocab_size=95),
                         tiny_training())
        assert len(alive) >= (4 if objective else 2)
        assert not any(alive)


    def test_backward_frees_the_graph_as_it_sweeps(self):
        # without freeing, the sweep adds a gradient for every node on top
        # of the whole graph (about 0.6 of it here); with freeing, little
        # more than the parameter gradients it returns
        params = mdl.init_params(tiny_model(vocab_size=50, n_layers=2, d_model=32,
                                            d_ff=64, dropout=0.1))
        batch = np.random.default_rng(0).integers(NUM_SPECIALS, 50, size=(8, 16))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = tr._mlm_step_loss(params, batch, tr.MaskingConfig(),
                                     np.random.default_rng(1), np.random.default_rng(2))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mdl.backward(params, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        param_bytes = sum(t.data.nbytes for t in params.values())
        assert peak - held < param_bytes + (held - before) / 4

    def test_the_tape_frees_what_no_backward_reads(self, monkeypatch):
        # no backward formula reads the pre-scale attention scores, a
        # sublayer's pre-dropout output or the residual stream, so each is
        # freed as soon as the model drops it, while the loss holds the graph
        params = mdl.init_params(tiny_model(vocab_size=50, n_layers=2, d_model=32,
                                            d_ff=64, dropout=0.1))
        batch = np.random.default_rng(0).integers(NUM_SPECIALS, 50, size=(8, 16))

        def step(hold):
            refs = {"scale": [], "dropout": [], "add": []}
            kept = []

            def watch(op, real, of_input):
                def wrapper(*args):
                    out = real(*args)
                    array = args[0].data if of_input else out.data
                    refs[op].append(weakref.ref(array))
                    if hold:
                        kept.append(array)
                    return out
                return wrapper

            with monkeypatch.context() as m:
                m.setattr(ag, "scale", watch("scale", ag.scale, True))
                m.setattr(ag, "dropout", watch("dropout", ag.dropout, True))
                m.setattr(ag, "add", watch("add", ag.add, False))
                loss = tr._mlm_step_loss(params, batch, tr.MaskingConfig(),
                                         np.random.default_rng(1), np.random.default_rng(2))
            alive = {op: [r() is not None for r in rs] for op, rs in refs.items()}
            grads = mdl.backward(params, loss)
            return alive, b"".join(g.tobytes() for g in grads.values())

        freed, grad_bytes = step(hold=False)
        # 2 layers: 2 score arrays, 5 dropouts and 5 adds (embedding + 4 residual)
        assert {op: len(a) for op, a in freed.items()} == {"scale": 2, "dropout": 5, "add": 5}
        assert not any(a for alive in freed.values() for a in alive)
        # a step that holds every one of them, as a tape of whole tensors did
        held, held_bytes = step(hold=True)
        assert all(a for alive in held.values() for a in alive)
        assert grad_bytes == held_bytes


class TestGradientTraffic:
    """`Node.accumulate` drops a gradient for a node that requires none,
    and in training no op hands it one."""

    @pytest.mark.parametrize("objective", [None, "grammar"])
    def test_one_step_hands_no_gradient_to_a_constant(self, objective, monkeypatch,
                                                      mo_docs, grammar_subwords):
        kept = []
        accumulate = ag.Node.accumulate

        def spy(self, g):
            kept.append(self.requires_grad)
            accumulate(self, g)

        class OneStep(Exception):
            pass

        def stop(*args, **kwargs):
            raise OneStep

        monkeypatch.setattr(ag.Node, "accumulate", spy)
        monkeypatch.setattr(tr, "adamw_step", stop)
        model_cfg = tiny_model(vocab_size=95, dropout=0.1,
                               decoder_layers=1 if objective else 0)
        with pytest.raises(OneStep):
            if objective:
                tr.train_multi_objective(mo_docs, grammar_subwords,
                                         tr.build_grammar_batch([TAGGED], grammar_subwords),
                                         objective, model_cfg, tiny_training())
            else:
                tr.train_mlm(mo_docs, grammar_subwords, model_cfg, tiny_training())
        assert kept and all(kept)


@pytest.fixture(scope="module")
def definition_setup():
    entries = [DEF_ENTRIES[0]]
    text = " ".join(entries[0].examples) + " " + entries[0].definition
    sub = train_subwords([Document(id="t", text=text, source="wiktionary")], 75)
    return sub, tr.build_definition_batch(entries, sub)


class TestOneLoopMatchesReferences:
    """The shared loop writes the same checkpoint and train-log bytes as
    the two standalone loops it replaced (kept in helpers.py)."""

    def _bytes_of_both(self, objective, docs, subwords, items, model_cfg, cfg,
                       mcfg, tmp_path):
        if objective is None:
            runs = [tr.train_mlm(docs, subwords, model_cfg, cfg, mcfg),
                    reference_train_mlm(docs, subwords, model_cfg, cfg, mcfg)]
        else:
            runs = [f(docs, subwords, items, objective, model_cfg, cfg, mcfg)
                    for f in (tr.train_multi_objective, reference_train_multi_objective)]
        out = []
        for i, (params, tlog) in enumerate(runs):
            mdl.save_checkpoint(params, tmp_path / f"{i}.bin")
            tlog.write(tmp_path / f"{i}.jsonl")
            out.append(((tmp_path / f"{i}.bin").read_bytes(),
                        (tmp_path / f"{i}.jsonl").read_bytes()))
        return out, runs[0][1]

    def _setup(self, objective, dropout, grammar_subwords, definition_setup):
        if objective == "definition":
            sub, items = definition_setup
        else:
            sub = grammar_subwords
            items = tr.build_grammar_batch([TAGGED], sub)
        return sub, items, tiny_model(vocab_size=sub.vocab_size, dropout=dropout,
                                      decoder_layers=1 if objective else 0)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("objective,aux_weight", [
        (None, 1.0), ("grammar", 0.0), ("grammar", 0.25), ("definition", 0.25)])
    def test_same_bytes(self, objective, aux_weight, dropout, mo_docs,
                        grammar_subwords, definition_setup, tmp_path):
        sub, items, model_cfg = self._setup(objective, dropout, grammar_subwords,
                                            definition_setup)
        (new, ref), _ = self._bytes_of_both(objective, mo_docs, sub, items, model_cfg,
                                            tiny_training(aux_weight=aux_weight), None,
                                            tmp_path)
        assert new[0] == ref[0]
        assert new[1] == ref[1]

    @pytest.mark.parametrize("objective", [None, "grammar"])
    def test_same_bytes_when_batches_select_no_label(self, objective, mo_docs,
                                                     grammar_subwords,
                                                     definition_setup, tmp_path):
        sub, items, model_cfg = self._setup(objective, 0.1, grammar_subwords,
                                            definition_setup)
        (new, ref), tlog = self._bytes_of_both(
            objective, mo_docs, sub, items, model_cfg,
            tiny_training(batch_size=4, aux_weight=0.25),
            tr.MaskingConfig(mask_prob=0.05), tmp_path)
        assert 0 < len(tlog.steps) < tlog.manifest["total_steps"]
        assert new[0] == ref[0]
        assert new[1] == ref[1]


class TestRunRules:
    """check_training holds the rules between settings; both entry points run
    it, and model.check_vocab_sizes, before any work."""

    DOCS = [Document(id="d0", source="unconstrained", text="w0 w1 w2 w3")]
    ITEMS = [tr.AuxItem(enc_ids=[CLS_ID, 7, SEP_ID], mem_index=None,
                        dec_in=[CLS_ID], dec_labels=[SEP_ID])]
    CASES = [
        ({}, {"context_size": 65}, None,
         "model max_positions is smaller than context_size: 64 < 65"),
        ({"decoder_layers": 1}, {"context_size": 65}, "grammar",
         "model max_positions is smaller than context_size: 64 < 65"),
        ({"decoder_layers": 1}, {}, "tagging",
         "unknown objective 'tagging'; expected 'definition' or 'grammar'"),
        ({}, {}, "definition", "multi-objective training requires decoder_layers > 0"),
        ({"decoder_layers": 1}, {}, None,
         "MLM-only training requires decoder_layers = 0, got 1"),
    ]

    @pytest.fixture
    def no_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("did work before checking the settings")
        monkeypatch.setattr(tr, "pack_examples", never)
        monkeypatch.setattr(mdl, "init_params", never)
        monkeypatch.setattr(mdl, "encoder_forward", never)

    def _train(self, model_cfg, cfg, objective, subwords):
        if objective is None:
            return tr.train_mlm(self.DOCS, subwords, model_cfg, cfg)
        return tr.train_multi_objective(self.DOCS, subwords, self.ITEMS, objective,
                                        model_cfg, cfg)

    @pytest.mark.parametrize("model_kw, train_kw, objective, message", CASES)
    def test_check_training_is_the_rule_both_entry_points_run_first(
            self, no_work, model_kw, train_kw, objective, message):
        model_cfg, cfg = tiny_model(**model_kw), tiny_training(**train_kw)
        with pytest.raises(ValueError) as checked:
            tr.check_training(model_cfg, cfg, objective)
        assert str(checked.value) == message
        with pytest.raises(ValueError) as trained:
            self._train(model_cfg, cfg, objective, subwords_of_size(model_cfg.vocab_size))
        assert str(trained.value) == message

    @pytest.mark.parametrize("objective", [None, "grammar"])
    def test_model_and_tokenizer_of_different_sizes_refused(self, no_work, objective):
        model_cfg = tiny_model(vocab_size=120, decoder_layers=0 if objective is None else 1)
        with pytest.raises(ValueError, match="the model is a model of 120 tokens "
                                             "but the tokenizer has 80"):
            self._train(model_cfg, tiny_training(), objective, subwords_of_size(80))
