"""Encoder/decoder architecture: masking exactness, init, checkpoints."""

import re

import numpy as np
import pytest

from desklm import autograd as ag
from desklm import model as mdl
from desklm.subwords import CLS_ID, MARK_ID, PAD_ID, SEP_ID

from helpers import (fd_check_params, reference_decoder_forward,
                     reference_encoder_forward, reference_init_params,
                     reference_param_specs, rewrite_checkpoint_header,
                     subwords_of_size, zero_params)


def tiny_config(**kw):
    base = dict(vocab_size=23, n_layers=1, n_heads=2, d_model=8, d_ff=16,
                max_positions=64, decoder_layers=0, dropout=0.0, seed=0)
    base.update(kw)
    return mdl.ModelConfig(**base)


def rand_ids(rng, cfg, b, t, no_pad=True):
    lo = 1 if no_pad else 0
    return rng.integers(lo, cfg.vocab_size, size=(b, t), dtype=np.int64)


class TestConfig:
    def test_vocab_floor(self):
        with pytest.raises(ValueError, match="vocab_size"):
            tiny_config(vocab_size=6)

    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_config(d_model=10, n_heads=4)

    def test_position_floor(self):
        with pytest.raises(ValueError, match="max_positions"):
            tiny_config(max_positions=32)

    def test_dropout_range(self):
        with pytest.raises(ValueError, match="dropout"):
            tiny_config(dropout=1.0)

    def test_negative_decoder(self):
        with pytest.raises(ValueError, match="decoder_layers"):
            tiny_config(decoder_layers=-1)

    def test_positive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            tiny_config(n_layers=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            tiny_config(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("n_heads", 2.0), ("vocab_size", 40.0), ("n_layers", True), ("seed", "0"),
        ("d_model", np.int64(8))])
    def test_integer_fields_must_be_ints(self, field, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} must be an integer, got {value!r}")):
            tiny_config(**{field: value})


class TestVocabSizes:
    @pytest.mark.parametrize("model_size, tokenizer_size", [(120, 80), (80, 120)])
    def test_different_sizes_named_with_both(self, model_size, tokenizer_size):
        config = tiny_config(vocab_size=model_size)
        with pytest.raises(ValueError) as default:
            mdl.check_vocab_sizes(config, subwords_of_size(tokenizer_size))
        assert str(default.value) == (f"the model is a model of {model_size} tokens "
                                      f"but the tokenizer has {tokenizer_size}")
        with pytest.raises(ValueError) as named:
            mdl.check_vocab_sizes(config, subwords_of_size(tokenizer_size),
                                  "run/checkpoint.bin", "run/subwords.json")
        assert str(named.value) == (f"run/checkpoint.bin is a model of {model_size} tokens "
                                    f"but run/subwords.json has {tokenizer_size}")


class TestInit:
    def test_deterministic(self):
        a = mdl.init_params(tiny_config(seed=5))
        b = mdl.init_params(tiny_config(seed=5))
        assert a.names() == b.names()
        for name in a.names():
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_seed_changes_weights(self):
        a = mdl.init_params(tiny_config(seed=0))
        b = mdl.init_params(tiny_config(seed=1))
        assert not np.array_equal(a["tok_emb"].data, b["tok_emb"].data)

    def test_norm_and_bias_values(self):
        p = mdl.init_params(tiny_config(n_layers=2))
        np.testing.assert_array_equal(p["enc.0.ln1.g"].data, 1.0)
        np.testing.assert_array_equal(p["enc.1.ln2.b"].data, 0.0)
        np.testing.assert_array_equal(p["enc.0.attn.bq"].data, 0.0)
        np.testing.assert_array_equal(p["mlm.b"].data, 0.0)

    def test_weight_scale(self):
        p = mdl.init_params(mdl.ModelConfig(vocab_size=2000, seed=3))
        std = p["tok_emb"].data.std()
        assert 0.019 < std < 0.021

    def test_parameter_count_closed_form(self):
        v, L, d, ff, P = 2000, 2, 64, 256, 64
        p = mdl.init_params(mdl.ModelConfig(
            vocab_size=v, n_layers=L, n_heads=4, d_model=d, d_ff=ff,
            max_positions=P))
        per_layer = (2 * d) + (4 * d * d + 4 * d) + (2 * d) \
            + (d * ff + ff + ff * d + d)
        expected = v * d + P * d + L * per_layer + 2 * d + (d * v + v)
        assert sum(t.data.size for t in p.values()) == expected

    def test_encoder_identical_with_and_without_decoder(self):
        enc_only = mdl.init_params(tiny_config(seed=9, decoder_layers=0))
        with_dec = mdl.init_params(tiny_config(seed=9, decoder_layers=2))
        for name in enc_only.names():
            np.testing.assert_array_equal(enc_only[name].data,
                                          with_dec[name].data)

    def test_decoder_tensors_present_only_when_asked(self):
        p0 = mdl.init_params(tiny_config(decoder_layers=0))
        p2 = mdl.init_params(tiny_config(decoder_layers=2))
        assert not any(n.startswith("dec") for n in p0.names())
        assert "dec.1.cross.wq" in p2
        assert "dec_head.w" in p2

    # encoder only, a 2-layer decoder, and a decoder deeper than the encoder
    SPEC_CONFIGS = [dict(decoder_layers=0), dict(n_layers=2, decoder_layers=2),
                    dict(n_layers=1, decoder_layers=3)]

    @pytest.mark.parametrize("kw", SPEC_CONFIGS)
    def test_specs_match_kind_table(self, kw):
        cfg = tiny_config(seed=4, **kw)
        assert mdl._param_specs(cfg) == [(name, shape) for name, _, shape
                                         in reference_param_specs(cfg)]

    @pytest.mark.parametrize("kw", SPEC_CONFIGS)
    def test_init_matches_kind_table_bytes(self, kw):
        cfg = tiny_config(seed=4, **kw)
        p, ref = mdl.init_params(cfg), reference_init_params(cfg)
        assert p.names() == list(ref)
        for name in p.names():
            assert p[name].data.tobytes() == ref[name].tobytes(), name


class TestEncoderForward:
    def test_shapes(self):
        cfg = tiny_config(n_layers=2)
        p = mdl.init_params(cfg)
        ids = rand_ids(np.random.default_rng(0), cfg, 3, 7)
        hidden = mdl.encoder_forward(p, ids)
        assert hidden.shape == (3, 7, cfg.d_model)
        logits = mdl.mlm_logits(p, hidden)
        assert logits.shape == (3, 7, cfg.vocab_size)

    def test_one_dim_input_promoted(self):
        p = mdl.init_params(tiny_config())
        assert mdl.encoder_forward(p, np.array([7, 8, 9])).shape == (1, 3, 8)

    def test_pad_identity_invariance_bitwise(self):
        # swapping what sits in masked tail slots must not move real outputs
        cfg = tiny_config(n_layers=2)
        p = mdl.init_params(cfg)
        rng = np.random.default_rng(2)
        for _ in range(5):
            t = int(rng.integers(2, 8))
            real = rand_ids(rng, cfg, 2, t)
            mask = np.concatenate(
                [np.ones((2, t), bool), np.zeros((2, 4), bool)], axis=1)
            tail1 = np.full((2, 4), PAD_ID, dtype=np.int64)
            tail2 = rand_ids(rng, cfg, 2, 4)
            out1 = mdl.mlm_logits(p, mdl.encoder_forward(
                p, np.concatenate([real, tail1], axis=1), mask)).data
            out2 = mdl.mlm_logits(p, mdl.encoder_forward(
                p, np.concatenate([real, tail2], axis=1), mask)).data
            assert np.array_equal(out1[:, :t], out2[:, :t])

    def test_appending_pads_leaves_outputs_in_tolerance(self):
        # zero weights kill PAD contributions; only summation regrouping
        # across the longer axis can perturb the result
        cfg = tiny_config(n_layers=2)
        p = mdl.init_params(cfg)
        ids = rand_ids(np.random.default_rng(3), cfg, 2, 6)
        base = mdl.mlm_logits(p, mdl.encoder_forward(p, ids)).data
        padded = np.concatenate(
            [ids, np.full((2, 5), PAD_ID, dtype=np.int64)], axis=1)
        got = mdl.mlm_logits(p, mdl.encoder_forward(p, padded)).data
        np.testing.assert_allclose(got[:, :6], base, rtol=1e-10, atol=1e-12)

    def test_single_token_attention_is_one(self):
        # one key gets weight exactly 1, so queries and keys cannot matter
        p = mdl.init_params(tiny_config(n_layers=2))
        before = mdl.encoder_forward(p, np.array([[9]])).data
        rng = np.random.default_rng(6)
        for i in range(2):
            for name in (f"enc.{i}.attn.wq", f"enc.{i}.attn.wk", f"enc.{i}.attn.bk"):
                p[name].data[...] = rng.normal(size=p[name].shape)
        after = mdl.encoder_forward(p, np.array([[9]])).data
        np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_all_true_mask_bits_match_an_added_zero_mask(self, dropout):
        # a mask that admits every position reaches softmax as None, not
        # as an all-zero additive array: the same bits either way
        cfg = tiny_config(n_layers=2, dropout=dropout)
        p = mdl.init_params(cfg)
        ids = rand_ids(np.random.default_rng(8), cfg, 3, 9)

        def run(forward):
            rng = np.random.default_rng(5) if dropout else None
            return forward(rng).data.tobytes()

        zeros = np.zeros((3, 1, 1, 9))
        added = run(lambda rng: mdl._stack(p, "enc", ids, zeros, rng))
        assert run(lambda rng: mdl.encoder_forward(
            p, ids, np.ones(ids.shape, dtype=bool), rng)) == added
        assert run(lambda rng: mdl.encoder_forward(p, ids, dropout_rng=rng)) == added

    @pytest.mark.parametrize("pad", [False, True])
    @pytest.mark.parametrize("positions", [[[3], [0], [6]],
                                           [[0, 6, 2], [5, 5, 1], [4, 3, 0]]])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_positions_match_the_full_rows_there(self, n_layers, positions, pad):
        cfg = tiny_config(n_layers=n_layers)
        p = mdl.init_params(cfg)
        ids = rand_ids(np.random.default_rng(11), cfg, 3, 7)
        mask = np.ones(ids.shape, dtype=bool)
        if pad:
            # rows 1 and 2 end in PAD, and some positions asked for are PAD
            mask[1, 4:] = mask[2, 6:] = False
            ids[~mask] = PAD_ID
        positions = np.array(positions)
        full = mdl.encoder_forward(p, ids, mask).data
        got = mdl.encoder_forward(p, ids, mask, positions=positions).data
        assert got.shape == positions.shape + (cfg.d_model,)
        want = np.take_along_axis(full, positions[:, :, None], axis=1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("positions, message", [
        (np.array([1, 2]), "positions must be a"),
        (np.array([[1], [2]]), "positions must be a"),
        (np.zeros((1, 0), dtype=np.int64), "positions must be a"),
        (np.array([[1.0]]), "positions must be a"),
        (np.array([[True]]), "positions must be a"),
        (np.array([[3]]), "position out of range"),
        (np.array([[0, -1]]), "position out of range"),
    ])
    def test_bad_positions_rejected(self, positions, message):
        p = mdl.init_params(tiny_config())
        with pytest.raises(ValueError, match=message):
            mdl.encoder_forward(p, np.array([[7, 8, 9]]), positions=positions)

    def test_id_out_of_range(self):
        p = mdl.init_params(tiny_config(vocab_size=23))
        with pytest.raises(ValueError, match="out of range"):
            mdl.encoder_forward(p, np.array([[5, 23]]))
        with pytest.raises(ValueError, match="out of range"):
            mdl.encoder_forward(p, np.array([[-1, 5]]))

    def test_mask_shape_mismatch(self):
        p = mdl.init_params(tiny_config())
        with pytest.raises(ValueError, match="mask shape"):
            mdl.encoder_forward(p, np.array([[7, 8]]), np.ones(3, dtype=bool))

    def test_sequence_length_cap(self):
        cfg = tiny_config(max_positions=64)
        p = mdl.init_params(cfg)
        with pytest.raises(ValueError, match="exceeds max_positions"):
            mdl.encoder_forward(p, np.full((1, 65), 7))

    def test_zeroed_model_gives_uniform_logits(self):
        p = zero_params(tiny_config())
        logits = mdl.mlm_logits(p, mdl.encoder_forward(p, np.array([[7, 8, 9]])))
        np.testing.assert_array_equal(logits.data, 0.0)

    def test_dropout_changes_output_but_stays_deterministic(self):
        cfg = tiny_config(dropout=0.3)
        p = mdl.init_params(cfg)
        ids = np.array([[7, 8, 9, 10]])
        clean = mdl.encoder_forward(p, ids).data
        d1 = mdl.encoder_forward(p, ids, dropout_rng=np.random.default_rng(4)).data
        d2 = mdl.encoder_forward(p, ids, dropout_rng=np.random.default_rng(4)).data
        assert not np.array_equal(clean, d1)
        np.testing.assert_array_equal(d1, d2)


class TestDecoderForward:
    def _setup(self, rng, s=4, **kw):
        cfg = tiny_config(decoder_layers=2, **kw)
        p = mdl.init_params(cfg)
        memory = ag.Tensor(rng.normal(size=(1, s, cfg.d_model)))
        return cfg, p, memory

    def test_shapes(self):
        rng = np.random.default_rng(0)
        cfg, p, memory = self._setup(rng)
        logits = mdl.decoder_forward(p, np.array([[CLS_ID, 7, 8]]), memory)
        assert logits.shape == (1, 3, cfg.vocab_size)

    def test_causality_bitwise(self):
        rng = np.random.default_rng(1)
        cfg, p, memory = self._setup(rng)
        ids1 = np.array([[CLS_ID, 7, 8, 9]])
        ids2 = ids1.copy()
        ids2[0, 3] = 11
        l1 = mdl.decoder_forward(p, ids1, memory).data
        l2 = mdl.decoder_forward(p, ids2, memory).data
        assert np.array_equal(l1[:, :3], l2[:, :3])
        assert not np.array_equal(l1[:, 3], l2[:, 3])

    def test_single_memory_slot_gets_full_attention(self):
        # one slot, or the same slot three times, gives the same context
        rng = np.random.default_rng(2)
        cfg, p, memory = self._setup(rng, s=1)
        ids = np.array([[CLS_ID, 7, 8]])
        one = mdl.decoder_forward(p, ids, memory).data
        three = mdl.decoder_forward(
            p, ids, ag.Tensor(np.repeat(memory.data, 3, axis=1))).data
        np.testing.assert_allclose(three, one, rtol=1e-12, atol=1e-14)

    def test_memory_mask_excludes_slots_exactly(self):
        # whatever sits in masked memory slots, the logits keep their bits
        rng = np.random.default_rng(3)
        cfg, p, memory = self._setup(rng, s=4)
        ids = np.array([[CLS_ID, 7, 8]])
        mask = np.array([[True, True, False, False]])
        other = memory.data.copy()
        other[:, 2:] = rng.normal(size=(1, 2, cfg.d_model))
        l1 = mdl.decoder_forward(p, ids, memory, memory_mask=mask).data
        l2 = mdl.decoder_forward(p, ids, ag.Tensor(other), memory_mask=mask).data
        assert np.array_equal(l1, l2)
        l3 = mdl.decoder_forward(p, ids, ag.Tensor(other)).data
        assert not np.array_equal(l1, l3)

    def test_requires_decoder(self):
        p = mdl.init_params(tiny_config(decoder_layers=0))
        memory = ag.Tensor(np.zeros((1, 1, 8)))
        with pytest.raises(ValueError, match="no decoder"):
            mdl.decoder_forward(p, np.array([[CLS_ID]]), memory)

    def test_memory_shape_validation(self):
        rng = np.random.default_rng(4)
        cfg, p, _ = self._setup(rng)
        with pytest.raises(ValueError, match="memory must be"):
            mdl.decoder_forward(p, np.array([[CLS_ID]]),
                                ag.Tensor(np.zeros((1, 8))))
        with pytest.raises(ValueError, match="memory mask"):
            mdl.decoder_forward(p, np.array([[CLS_ID]]),
                                ag.Tensor(np.zeros((1, 2, 8))),
                                memory_mask=np.ones((1, 3), dtype=bool))

    def test_overfit_copies_memory_conditioned_sequence(self):
        # a one-layer decoder memorizes a 3-token continuation
        cfg = tiny_config(vocab_size=12, decoder_layers=1, d_model=16,
                          d_ff=32, n_heads=2)
        p = mdl.init_params(cfg)
        rng = np.random.default_rng(5)
        memory = ag.Tensor(rng.normal(size=(1, 1, cfg.d_model)))
        target = [7, 9, 8]
        dec_in = np.array([[CLS_ID] + target])
        labels = np.array(target + [SEP_ID])
        for _ in range(120):
            logits = mdl.decoder_forward(p, dec_in, memory)
            flat = ag.reshape(logits, (4, cfg.vocab_size))
            loss = ag.cross_entropy(flat, labels)
            grads = mdl.backward(p, loss)
            for name, t in p.items():
                t.data -= 0.5 * grads[name]
        with ag.no_grad():
            logits = mdl.decoder_forward(p, dec_in, memory)
        assert np.argmax(logits.data[0], axis=-1).tolist() == target + [SEP_ID]


def _stack_outputs(encoder_forward, decoder_forward, case: str, dropout: float):
    """Hidden states, logits and every parameter gradient of one loss, as
    byte strings."""
    cfg = tiny_config(vocab_size=19, n_layers=2, dropout=dropout, seed=3,
                      decoder_layers=0 if case == "encoder" else 2)
    p = mdl.init_params(cfg)
    rng = np.random.default_rng(8)
    ids = rand_ids(rng, cfg, 2, 6)
    mask = np.ones(ids.shape, dtype=bool)
    mask[1, 4:] = False
    drop = np.random.default_rng(9) if dropout else None
    hidden = encoder_forward(p, ids, mask, drop)
    arrays = [hidden.data]
    if case == "encoder":
        logits = mdl.mlm_logits(p, hidden)
    else:
        if case == "full_memory":
            memory, memory_mask = hidden, mask
        else:
            flat = ag.reshape(hidden, (12, cfg.d_model))
            memory = ag.reshape(ag.gather_rows(flat, np.array([2, 9])), (2, 1, cfg.d_model))
            memory_mask = None
        dec_ids = np.concatenate([np.full((2, 1), CLS_ID), rand_ids(rng, cfg, 2, 4)], axis=1)
        logits = decoder_forward(p, dec_ids, memory, memory_mask, drop)
    arrays.append(logits.data)
    labels = rng.integers(0, cfg.vocab_size, size=logits.shape[0] * logits.shape[1])
    loss = ag.cross_entropy(ag.reshape(logits, (labels.size, cfg.vocab_size)), labels)
    grads = mdl.backward(p, loss)
    return [a.tobytes() for a in arrays + [grads[n] for n in p.names()]]


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("case", ["encoder", "full_memory", "one_slot_memory"])
def test_layer_stack_bits_match_reference_loops(case, dropout):
    got = _stack_outputs(mdl.encoder_forward, mdl.decoder_forward, case, dropout)
    want = _stack_outputs(reference_encoder_forward, reference_decoder_forward,
                          case, dropout)
    assert len(got) == len(want)
    assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == []


class TestGradients:
    def test_full_model_fd_spot_check(self):
        cfg = tiny_config(vocab_size=11, decoder_layers=1)
        p = mdl.init_params(cfg)
        rng = np.random.default_rng(0)
        enc_ids = rand_ids(rng, cfg, 2, 5)
        labels = np.full((2, 5), ag.IGNORE_INDEX)
        labels[0, 1] = 7
        labels[1, 3] = 9

        def loss_fn():
            hidden = mdl.encoder_forward(p, enc_ids)
            logits = mdl.mlm_logits(p, hidden)
            mloss = ag.cross_entropy(
                ag.reshape(logits, (10, cfg.vocab_size)), labels.reshape(-1))
            dec_logits = mdl.decoder_forward(
                p, np.array([[CLS_ID, 7, 8], [CLS_ID, 9, 10]]), hidden,
                memory_mask=enc_ids != PAD_ID)
            dloss = ag.cross_entropy(
                ag.reshape(dec_logits, (6, cfg.vocab_size)),
                np.array([7, 8, SEP_ID, 9, 10, SEP_ID]))
            return ag.add(mloss, dloss)

        grads = mdl.backward(p, loss_fn())
        failures = fd_check_params(p, loss_fn, grads, coords_per_tensor=2,
                                   seed=1)
        assert failures == []

    def test_unused_decoder_gets_zero_grads(self):
        cfg = tiny_config(decoder_layers=1)
        p = mdl.init_params(cfg)
        logits = mdl.mlm_logits(p, mdl.encoder_forward(p, np.array([[7, 8]])))
        labels = np.array([7, ag.IGNORE_INDEX])
        loss = ag.cross_entropy(ag.reshape(logits, (2, cfg.vocab_size)), labels)
        grads = mdl.backward(p, loss)
        assert set(grads) == set(p.names())
        assert np.all(grads["dec.0.attn.wq"] == 0.0)
        assert np.any(grads["tok_emb"] != 0.0)

    def test_grads_cleared_after_backward(self):
        cfg = tiny_config()
        p = mdl.init_params(cfg)
        logits = mdl.mlm_logits(p, mdl.encoder_forward(p, np.array([[7, 8]])))
        loss = ag.cross_entropy(ag.reshape(logits, (2, cfg.vocab_size)),
                                np.array([7, 8]))
        mdl.backward(p, loss)
        assert all(t.grad is None for t in p.values())

    def test_backward_deterministic(self):
        cfg = tiny_config(n_layers=2)
        p = mdl.init_params(cfg)
        ids = np.array([[7, 8, 9]])
        labels = np.array([8, ag.IGNORE_INDEX, 7])

        def once():
            logits = mdl.mlm_logits(p, mdl.encoder_forward(p, ids))
            loss = ag.cross_entropy(ag.reshape(logits, (3, cfg.vocab_size)), labels)
            return mdl.backward(p, loss)

        g1, g2 = once(), once()
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_non_finite_loss_rejected(self):
        p = mdl.init_params(tiny_config())
        bad = ag.Tensor(np.array(np.inf), requires_grad=True)
        with pytest.raises(FloatingPointError, match="not finite"):
            mdl.backward(p, bad)

    def test_overfit_single_masked_example(self):
        from desklm.subwords import MASK_ID
        cfg = tiny_config(vocab_size=20, d_model=16, d_ff=32)
        p = mdl.init_params(cfg)
        ids = np.array([[CLS_ID, 9, MASK_ID, 11, SEP_ID]])
        labels = np.full(5, ag.IGNORE_INDEX)
        labels[2] = 14
        for _ in range(80):
            logits = mdl.mlm_logits(p, mdl.encoder_forward(p, ids))
            loss = ag.cross_entropy(ag.reshape(logits, (5, cfg.vocab_size)), labels)
            grads = mdl.backward(p, loss)
            for name, t in p.items():
                t.data -= 0.5 * grads[name]
        final = mdl.mlm_logits(p, mdl.encoder_forward(p, ids)).data
        assert int(np.argmax(final[0, 2])) == 14


class TestMarking:
    def test_mark_insertion(self):
        marked, idx = mdl.mark_position([10, 11, 12], 1)
        assert marked == [10, MARK_ID, 11, 12]
        assert idx == 2
        assert marked[idx] == 11

    def test_mark_first_and_last(self):
        marked, idx = mdl.mark_position([10, 11], 0)
        assert marked == [MARK_ID, 10, 11] and idx == 1
        marked, idx = mdl.mark_position([10, 11], 1)
        assert marked == [10, MARK_ID, 11] and idx == 2

    def test_mark_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            mdl.mark_position([10, 11], 2)
        with pytest.raises(ValueError, match="out of range"):
            mdl.mark_position([10], -1)

    def test_locate_token(self):
        offsets = [(0, 3), (3, 6), (6, 11)]
        assert mdl.locate_token(offsets, (3, 6)) == 1
        assert mdl.locate_token(offsets, (4, 5)) == 1
        # span straddling two tokens resolves to the first
        assert mdl.locate_token(offsets, (5, 8)) == 1
        with pytest.raises(ValueError, match="no token overlaps"):
            mdl.locate_token(offsets, (11, 14))


class TestStripAndCheckpoint:
    def test_strip_keeps_encoder_bitwise(self):
        cfg = tiny_config(decoder_layers=2)
        p = mdl.init_params(cfg)
        stripped = mdl.strip_decoder(p)
        assert stripped.config.decoder_layers == 0
        assert not any(n.startswith("dec") for n in stripped.names())
        rng = np.random.default_rng(0)
        for _ in range(5):
            ids = rand_ids(rng, cfg, 2, 6)
            a = mdl.mlm_logits(p, mdl.encoder_forward(p, ids)).data
            b = mdl.mlm_logits(stripped, mdl.encoder_forward(stripped, ids)).data
            assert np.array_equal(a, b)

    def test_parameter_set_is_its_dict_in_checkpoint_order(self, tmp_path):
        cfg = tiny_config(decoder_layers=1)
        p = mdl.init_params(cfg)
        order = [name for name, _ in mdl._param_specs(cfg)]
        assert list(p) == p.names() == order
        assert all(p[name] is t for name, t in p.items())
        assert "tok_emb" in p and "nope" not in p
        mdl.save_checkpoint(p, tmp_path / "m.bin")
        loaded = mdl.load_checkpoint(tmp_path / "m.bin")
        assert loaded.names() == order and loaded.config == cfg
        stripped = mdl.strip_decoder(p)
        assert stripped.config == tiny_config(decoder_layers=0)
        assert stripped.names() == [n for n in order if not n.startswith("dec")]

    def test_strip_shrinks_checkpoint(self, tmp_path):
        p = mdl.init_params(tiny_config(decoder_layers=2))
        mdl.save_checkpoint(p, tmp_path / "full.bin")
        mdl.save_checkpoint(mdl.strip_decoder(p), tmp_path / "enc.bin")
        assert (tmp_path / "enc.bin").stat().st_size < \
            (tmp_path / "full.bin").stat().st_size

    def test_checkpoint_round_trip_stable_bytes(self, tmp_path):
        p = mdl.init_params(tiny_config(n_layers=2, decoder_layers=1, seed=13))
        first = tmp_path / "a.bin"
        mdl.save_checkpoint(p, first)
        loaded = mdl.load_checkpoint(first)
        assert loaded.config == p.config
        assert loaded.names() == p.names()
        second = tmp_path / "b.bin"
        mdl.save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_checkpoint_rounds_to_float32(self, tmp_path):
        p = mdl.init_params(tiny_config())
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(p, path)
        loaded = mdl.load_checkpoint(path)
        for name, t in p.items():
            expect = t.data.astype("<f4").astype(np.float64)
            np.testing.assert_array_equal(loaded[name].data, expect)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            mdl.load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        p = mdl.init_params(tiny_config())
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(p, path)
        blob = bytearray(path.read_bytes())
        # bump the version integer inside the JSON header
        idx = blob.find(b'"format_version": 1')
        blob[idx + len(b'"format_version": '):idx + len(b'"format_version": ') + 1] = b"9"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["encoder", "decoder", "stripped"])
    def test_checkpoint_round_trip_bit_exact(self, kind, tmp_path):
        p = mdl.init_params(tiny_config(decoder_layers=0 if kind == "encoder" else 2,
                                        seed=5))
        if kind == "stripped":
            p = mdl.strip_decoder(p)
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(p, path)
        loaded = mdl.load_checkpoint(path)
        assert loaded.config == p.config and loaded.names() == p.names()
        for name, t in p.items():
            assert loaded[name].data.tobytes() == \
                t.data.astype("<f4").astype(np.float64).tobytes()
        again = tmp_path / "again.bin"
        mdl.save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(mdl.init_params(tiny_config()), path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ValueError, match="trailing bytes") as err:
            mdl.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_truncated_tensor_data_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(mdl.init_params(tiny_config()), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated") as err:
            mdl.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_wrong_shape_rejected(self, tmp_path):
        # same element count, so only the shape check can catch it
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(mdl.init_params(tiny_config()), path)

        def reshape_ln(header):
            for entry in header["tensors"]:
                if entry[0] == "enc_ln.g":
                    entry[1] = [4, 2]
        rewrite_checkpoint_header(path, reshape_ln)
        with pytest.raises(ValueError, match="enc_ln.g") as err:
            mdl.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_tensor_list_must_match_config(self, tmp_path):
        # a decoder-less config cannot carry decoder tensors
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(mdl.init_params(tiny_config(decoder_layers=1)), path)

        def drop_decoder(header):
            header["config"]["decoder_layers"] = 0
        rewrite_checkpoint_header(path, drop_decoder)
        with pytest.raises(ValueError, match="do not match the config"):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("n_heads", 2.0), ("vocab_size", 40.0), ("n_layers", True)])
    def test_non_integer_config_size_rejected_naming_file(self, tmp_path, field, value):
        # n_heads 2.0 divides d_model and n_layers true counts as 1, so only
        # the type check stops these before a model call fails on them
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(mdl.init_params(tiny_config(vocab_size=40)), path)
        rewrite_checkpoint_header(path, lambda header: header["config"].update({field: value}))
        with pytest.raises(ValueError) as err:
            mdl.load_checkpoint(path)
        assert str(err.value) == (f"{path}: bad checkpoint: "
                                  f"{field} must be an integer, got {value!r}")

    def test_loaded_checkpoint_is_trainable(self, tmp_path):
        cfg = tiny_config()
        p = mdl.init_params(cfg)
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(p, path)
        loaded = mdl.load_checkpoint(path)
        logits = mdl.mlm_logits(loaded, mdl.encoder_forward(loaded, np.array([[7]])))
        loss = ag.cross_entropy(ag.reshape(logits, (1, cfg.vocab_size)),
                                np.array([9]))
        grads = mdl.backward(loaded, loss)
        assert np.any(grads["mlm.w"] != 0.0)
