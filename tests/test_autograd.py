"""Finite-difference verification of every autodiff op, plus graph mechanics."""

import inspect
import re
import tracemalloc

import numpy as np
import pytest

from desklm import autograd as ag
from helpers import reference_cross_entropy, reference_log_probs


def weighted_sum(t, w):
    """Reduce a tensor to a (1, 1) scalar with fixed weights."""
    flat = ag.reshape(t, (1, -1))
    return ag.matmul(flat, ag.Tensor(np.asarray(w).reshape(-1, 1)))


def gradcheck(build, inputs, eps=1e-6, rel_tol=1e-4, abs_floor=1e-7, constants=()):
    """Compare analytic gradients of build(*inputs) against central differences.

    `build` maps Tensors to a scalar Tensor and must be deterministic.
    Sweeps every coordinate of every input (keep them small). The inputs
    whose indices are in `constants` do not require a gradient and must
    get none.
    """
    tensors = [ag.Tensor(x, requires_grad=k not in constants) for k, x in enumerate(inputs)]
    loss = build(*tensors)
    ag.backward(loss)

    def value(arrays):
        return float(build(*[ag.Tensor(a) for a in arrays]).data.reshape(()))

    for k, x in enumerate(inputs):
        grad = tensors[k].grad
        if k in constants:
            assert grad is None, f"constant input {k} got a gradient"
            continue
        assert grad is not None, f"input {k} got no gradient"
        flat = x.reshape(-1)
        for j in range(flat.size):
            bumped = [a.copy() for a in inputs]
            bumped[k].reshape(-1)[j] = flat[j] + eps
            up = value(bumped)
            bumped[k].reshape(-1)[j] = flat[j] - eps
            down = value(bumped)
            fd = (up - down) / (2 * eps)
            an = grad.reshape(-1)[j]
            tol = max(abs_floor, rel_tol * max(abs(an), abs(fd)))
            assert abs(an - fd) <= tol, (
                f"input {k} coord {j}: analytic {an:.8g} vs fd {fd:.8g}")


RNG = np.random.default_rng(20240731)


class TestElementwise:
    def test_add_broadcast(self):
        a, b = RNG.normal(size=(3, 4)), RNG.normal(size=(4,))
        w = RNG.normal(size=12)
        for constants in [(), (0,), (1,)]:
            gradcheck(lambda x, y: weighted_sum(ag.add(x, y), w), [a, b], constants=constants)

    def test_scale(self):
        a = RNG.normal(size=(2, 5))
        w = RNG.normal(size=10)
        gradcheck(lambda x: weighted_sum(ag.scale(x, -2.5), w), [a])

    def test_gelu(self):
        # include clearly negative, zero-adjacent, and positive inputs
        a = np.array([[-3.0, -1.0, -0.01, 0.0, 0.01, 1.0, 3.0]])
        w = RNG.normal(size=7)
        gradcheck(lambda x: weighted_sum(ag.gelu(x), w), [a])

    def test_gelu_gradient_bits_match_two_temporary_form(self):
        x = RNG.normal(size=(3, 4, 6)) * 2
        g = RNG.normal(size=x.shape)
        a = ag.Tensor(x, requires_grad=True)
        out = ag.gelu(a)
        out._backward_fn(g)
        # the forward's t, then the backward with (1 - t * t) as two temporaries
        t = np.tanh((x * x * x * ag._GELU_A + x) * ag._GELU_C)
        s = x * x
        s *= 3.0 * ag._GELU_A
        s += 1.0
        s *= ag._GELU_C
        s *= x
        s *= 1.0 - t * t
        s += t
        s += 1.0
        s *= 0.5
        s *= g
        assert a.grad.tobytes() == s.tobytes()

    def test_gelu_known_values(self):
        out = ag.gelu(ag.Tensor([0.0])).data
        np.testing.assert_allclose(out, [0.0], atol=1e-12)
        big = ag.gelu(ag.Tensor([10.0])).data
        np.testing.assert_allclose(big, [10.0], rtol=1e-6)


class TestShapes:
    def test_matmul_broadcast_batched(self):
        a, b = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5))
        w = RNG.normal(size=30)
        gradcheck(lambda x, y: weighted_sum(ag.matmul(x, y), w), [a, b])

    def test_matmul_plain(self):
        a, b = RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))
        w = RNG.normal(size=6)
        gradcheck(lambda x, y: weighted_sum(ag.matmul(x, y), w), [a, b])

    @pytest.mark.parametrize("left, right", [((2, 3, 4), (2, 4, 5)),
                                             ((2, 3, 4), (1, 4, 5)),
                                             ((3, 4), (2, 4, 5))])
    def test_matmul_batched_right(self, left, right):
        # a batched right operand takes the general path, whose broadcast
        # operand gets its gradient summed over the expanded axes
        a, b = RNG.normal(size=left), RNG.normal(size=right)
        w = RNG.normal(size=2 * 3 * 5)
        for constants in [(), (0,), (1,)]:
            gradcheck(lambda x, y: weighted_sum(ag.matmul(x, y), w), [a, b],
                      constants=constants)

    def test_matmul_strided_3d_left_2d_right(self):
        # a swapaxes view is not contiguous, so the flattened 2-D product
        # has to copy it rather than reinterpret its memory
        a, b = RNG.normal(size=(3, 2, 4)), RNG.normal(size=(4, 5))
        view = np.swapaxes(a, 0, 1)
        assert not view.flags.c_contiguous
        out = ag.matmul(ag.Tensor(view), ag.Tensor(b))
        np.testing.assert_allclose(out.data, view @ b, rtol=1e-12)
        w = RNG.normal(size=30)
        gradcheck(lambda x, y: weighted_sum(ag.matmul(x, y), w), [view, b])
        gradcheck(lambda x, y: weighted_sum(ag.matmul(ag.swapaxes(x, 0, 1), y), w),
                  [a, b])

    def test_matmul_4d_left_2d_right(self):
        a, b = RNG.normal(size=(2, 3, 2, 4)), RNG.normal(size=(4, 3))
        out = ag.matmul(ag.Tensor(a), ag.Tensor(b))
        np.testing.assert_allclose(out.data, a @ b, rtol=1e-12)
        w = RNG.normal(size=36)
        gradcheck(lambda x, y: weighted_sum(ag.matmul(x, y), w), [a, b])

    def test_matmul_misaligned_2d_right_rejected(self):
        for left in ((2, 3, 4), (3, 4)):
            with pytest.raises(ValueError, match="do not align"):
                ag.matmul(ag.Tensor(np.ones(left)), ag.Tensor(np.ones((6, 2))))

    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_matmul_bias_gradcheck(self, lead):
        x, m, b = RNG.normal(size=(*lead, 4)), RNG.normal(size=(4, 3)), RNG.normal(size=(3,))
        w = RNG.normal(size=x.size // 4 * 3)
        for constants in [(), (0,), (1,), (2,)]:
            gradcheck(lambda x, m, b: weighted_sum(ag.matmul(x, m, b), w), [x, m, b],
                      constants=constants)

    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_matmul_bias_bits_match_add_of_matmul(self, lead):
        arrays = [RNG.normal(size=(*lead, 4)), RNG.normal(size=(4, 3)), RNG.normal(size=(3,))]
        w = RNG.normal(size=arrays[0].size // 4 * 3)

        def run(fused):
            x, m, b = (ag.Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = ag.matmul(x, m, b) if fused else ag.add(ag.matmul(x, m), b)
            # gelu makes the output gradient differ from element to element
            ag.backward(weighted_sum(ag.gelu(out), w))
            return [a.tobytes() for a in (out.data, x.grad, m.grad, b.grad)]

        assert run(True) == run(False)

    def test_matmul_bias_with_batched_right_rejected(self):
        a, b = ag.Tensor(np.ones((2, 3, 4))), ag.Tensor(np.ones((2, 4, 5)))
        with pytest.raises(ValueError, match="2-D right operand"):
            ag.matmul(a, b, ag.Tensor(np.ones(5)))

    def test_swapaxes(self):
        a = RNG.normal(size=(2, 3, 4))
        w = RNG.normal(size=24)
        gradcheck(lambda x: weighted_sum(ag.swapaxes(x, 0, 2), w), [a])

    def test_swapaxes_last_two(self):
        a = RNG.normal(size=(2, 3, 4))
        out = ag.swapaxes(ag.Tensor(a), -1, -2)
        np.testing.assert_array_equal(out.data, np.swapaxes(a, -1, -2))
        w = RNG.normal(size=24)
        gradcheck(lambda x: weighted_sum(ag.swapaxes(x, -1, -2), w), [a])

    def test_reshape(self):
        a = RNG.normal(size=(3, 4))
        w = RNG.normal(size=12)
        gradcheck(lambda x: weighted_sum(ag.reshape(x, (2, 6)), w), [a])


class TestIndexing:
    def test_embedding_gradcheck(self):
        table = RNG.normal(size=(5, 3))
        ids = np.array([[0, 2], [2, 4]])
        w = RNG.normal(size=12)
        gradcheck(lambda t: weighted_sum(ag.embedding(t, ids), w), [table])

    def test_embedding_duplicate_rows_accumulate(self):
        table = ag.Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        ids = np.array([1, 1, 3])
        w = RNG.normal(size=(3, 3))
        loss = weighted_sum(ag.embedding(table, ids), w.reshape(-1))
        ag.backward(loss)
        expect = np.zeros((4, 3))
        expect[1] = w[0] + w[1]
        expect[3] = w[2]
        np.testing.assert_allclose(table.grad, expect, rtol=1e-12)

    def test_gather_rows(self):
        a = RNG.normal(size=(6, 2))
        index = np.array([5, 0, 5])
        w = RNG.normal(size=6)
        gradcheck(lambda x: weighted_sum(ag.gather_rows(x, index), w), [a])


class TestNormalization:
    def test_layer_norm_all_inputs(self):
        x = RNG.normal(size=(2, 3, 5))
        gain = RNG.normal(size=(5,)) + 1.0
        bias = RNG.normal(size=(5,))
        w = RNG.normal(size=30)
        for constants in [(), (0,), (1,), (2,)]:
            gradcheck(lambda a, g, b: weighted_sum(ag.layer_norm(a, g, b), w),
                      [x, gain, bias], constants=constants)

    def test_layer_norm_forward_bits_match_var_expression(self):
        # a strided 3-D view, so the reductions do not run over contiguous rows
        x = (RNG.normal(size=(5, 3, 14)) * 3 + 2).swapaxes(0, 1)[:, :, ::2]
        gain = RNG.normal(size=(7,)) + 1.0
        bias = RNG.normal(size=(7,))
        out = ag.layer_norm(ag.Tensor(x), ag.Tensor(gain), ag.Tensor(bias))
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        expect = gain * ((x - mu) * inv) + bias
        assert out.data.tobytes() == expect.tobytes()

    def test_layer_norm_eps_is_one_module_constant(self):
        # no caller passes its own epsilon, so layer_norm takes none
        assert "eps" not in inspect.signature(ag.layer_norm).parameters
        assert ag.LN_EPS == 1e-5
        x = np.array([[0.0, 1e-3]])  # variance 2.5e-7, well below the epsilon
        out = ag.layer_norm(ag.Tensor(x), ag.Tensor(np.ones(2)), ag.Tensor(np.zeros(2)))
        half = 5e-4 / np.sqrt(2.5e-7 + ag.LN_EPS)
        np.testing.assert_allclose(out.data, [[-half, half]], rtol=1e-12)

    def test_layer_norm_output_statistics(self):
        x = ag.Tensor(RNG.normal(size=(4, 8)) * 3 + 7)
        out = ag.layer_norm(x, ag.Tensor(np.ones(8)), ag.Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_softmax_masked(self):
        scores = RNG.normal(size=(2, 3, 4))
        mask = np.zeros((2, 1, 4))
        mask[0, 0, 3] = -1e30
        w = RNG.normal(size=24)
        gradcheck(lambda s: weighted_sum(ag.softmax_masked(s, mask), w), [scores])

    def test_softmax_masked_slots_exactly_zero(self):
        scores = ag.Tensor(RNG.normal(size=(3, 5)))
        mask = np.zeros((3, 5))
        mask[:, 2] = -1e30
        p = ag.softmax_masked(scores, mask).data
        assert np.all(p[:, 2] == 0.0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)

    def test_softmax_no_mask_rows_sum_to_one(self):
        p = ag.softmax_masked(ag.Tensor(RNG.normal(size=(4, 6)))).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)


class TestDropout:
    def test_p_zero_is_identity_object(self):
        t = ag.Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        rng = np.random.default_rng(0)
        assert ag.dropout(t, 0.0, rng) is t
        # and no randomness was consumed
        assert rng.random() == np.random.default_rng(0).random()

    def test_no_generator_is_identity_object(self):
        t = ag.Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        before = np.random.get_state()[1].copy()
        assert ag.dropout(t, 0.5, None) is t
        assert np.array_equal(np.random.get_state()[1], before)

    def test_invalid_rate(self):
        t = ag.Tensor(np.ones(3))
        rng = np.random.default_rng(0)
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="dropout rate"):
                ag.dropout(t, p, rng)

    def test_gradcheck(self):
        a = RNG.normal(size=(4, 5))
        w = RNG.normal(size=20)
        gradcheck(lambda x: weighted_sum(ag.dropout(x, 0.3, np.random.default_rng(2)), w),
                  [a])

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_bits_match_float_mask_expression(self, p):
        # negative inputs, so dropped entries must come out as -0.0
        x = RNG.normal(size=(30, 40))
        w = RNG.normal(size=x.size)
        t = ag.Tensor(x, requires_grad=True)
        out = ag.dropout(t, p, np.random.default_rng(11))
        ag.backward(weighted_sum(out, w))
        keep = (np.random.default_rng(11).random(x.shape) >= p) / (1.0 - p)
        assert out.data.tobytes() == (x * keep).tobytes()
        assert t.grad.tobytes() == (w.reshape(x.shape) * keep).tobytes()
        assert np.signbit(out.data[keep == 0]).any()

    def test_backward_matches_kept_mask(self):
        t = ag.Tensor(np.ones((200,)), requires_grad=True)
        out = ag.dropout(t, 0.25, np.random.default_rng(7))
        loss = weighted_sum(out, np.ones(200))
        ag.backward(loss)
        # forward output on all-ones input IS the keep mask
        np.testing.assert_allclose(t.grad, out.data, rtol=1e-12)
        kept = out.data != 0
        np.testing.assert_allclose(out.data[kept], 1 / 0.75, rtol=1e-12)


class TestCrossEntropy:
    def test_gradcheck(self):
        logits = RNG.normal(size=(5, 7))
        labels = np.array([3, 0, ag.IGNORE_INDEX, 6, 2])
        gradcheck(lambda z: ag.cross_entropy(z, labels), [logits])

    def test_uniform_two_way_is_ln2(self):
        logits = ag.Tensor(np.zeros((4, 2)))
        loss = ag.cross_entropy(logits, np.array([0, 1, 0, 1]))
        np.testing.assert_allclose(loss.data, np.log(2.0), rtol=1e-12)

    def test_ignored_rows_get_zero_grad(self):
        logits = ag.Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        labels = np.array([1, ag.IGNORE_INDEX, 2])
        ag.backward(ag.cross_entropy(logits, labels))
        assert np.all(logits.grad[1] == 0.0)
        assert np.any(logits.grad[0] != 0.0)

    def test_ignore_label_is_the_module_constant(self):
        # the tracer and the masking read IGNORE_INDEX; no caller passes another
        assert "ignore_index" not in inspect.signature(ag.cross_entropy).parameters
        logits = ag.Tensor(np.zeros((2, 2)))
        loss = ag.cross_entropy(logits, np.array([0, ag.IGNORE_INDEX]))
        np.testing.assert_allclose(loss.data, np.log(2.0), rtol=1e-12)

    def test_all_ignored(self):
        logits = ag.Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="all labels are ignored"):
            ag.cross_entropy(logits, np.full(2, ag.IGNORE_INDEX))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="expects"):
            ag.cross_entropy(ag.Tensor(np.zeros((2, 3, 4))), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="expects"):
            ag.cross_entropy(ag.Tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))

    def test_log_probs(self):
        z = RNG.normal(size=(3, 5))
        lp = ag.log_probs(ag.Tensor(z))
        np.testing.assert_allclose(np.exp(lp).sum(axis=-1), 1.0, rtol=1e-12)
        manual = z - np.log(np.exp(z - z.max(-1, keepdims=True)).sum(-1, keepdims=True)) \
            - z.max(-1, keepdims=True)
        np.testing.assert_allclose(lp, manual, rtol=1e-12)
        assert lp.tobytes() == reference_log_probs(z).tobytes()

    @staticmethod
    def _labels(rng, n, v, padded):
        """Random labels; padded ones end each of 8 sequences in a run of
        IGNORE_INDEX, as the decoder's are."""
        labels = rng.integers(0, v, size=n)
        if padded:
            seqs = labels.reshape(8, -1)
            for row, length in zip(seqs, rng.integers(1, seqs.shape[1], size=8)):
                row[length:] = ag.IGNORE_INDEX
        return labels

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("v", [240, 600, 2000])
    def test_bytes_match_the_gather_scatter_oracle(self, v, padded):
        rng = np.random.default_rng(v)
        x = rng.normal(scale=3.0, size=(64, v))
        labels = self._labels(rng, 64, v, padded)
        results = []
        for loss_fn in (ag.cross_entropy, reference_cross_entropy):
            logits = ag.Tensor(x, requires_grad=True)
            loss = loss_fn(logits, labels)
            # an upstream gradient other than 1, as a weighted loss gets
            ag.backward(ag.scale(loss, 0.7))
            results.append((loss.data.tobytes(), logits.grad.tobytes()))
        assert results[0] == results[1]

    def test_backward_allocates_no_logits_sized_array(self):
        n, v = 64, 2000
        logits = ag.Tensor(RNG.normal(size=(n, v)), requires_grad=True)
        loss = ag.cross_entropy(logits, self._labels(RNG, n, v, padded=True))
        tracemalloc.start()
        try:
            ag.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * v * 8


class TestGraphMechanics:
    def test_diamond_accumulates(self):
        x = ag.Tensor(RNG.normal(size=(4,)), requires_grad=True)
        d = ag.add(x, x)
        loss = ag.matmul(ag.reshape(d, (1, 4)), ag.reshape(d, (4, 1)))
        ag.backward(loss)
        # loss = d . d = sum(4 x^2) so dloss/dx = 8 x
        np.testing.assert_allclose(x.grad, 8 * x.data, rtol=1e-12)

    def test_first_gradient_is_a_copy(self):
        # add hands one array to both inputs; a's later gradient from the
        # product must not be summed into b.grad through a shared buffer
        w, v = RNG.normal(size=4), RNG.normal(size=4)
        for sum_first in (True, False):
            a = ag.Tensor(RNG.normal(size=(4,)), requires_grad=True)
            b = ag.Tensor(RNG.normal(size=(4,)), requires_grad=True)
            s = weighted_sum(ag.add(a, b), w)
            # q = sum_i v_i a_i^2
            q = ag.matmul(ag.matmul(ag.reshape(a, (1, 4)), ag.Tensor(np.diag(v))),
                          ag.reshape(a, (4, 1)))
            ag.backward(ag.add(s, q) if sum_first else ag.add(q, s))
            np.testing.assert_allclose(b.grad, w, rtol=1e-12)
            np.testing.assert_allclose(a.grad, w + 2 * v * a.data, rtol=1e-12)
            assert not np.shares_memory(a.grad, b.grad)

    def test_fan_out_leaf_gradients_own_their_memory(self):
        # add(x, x) hands g to x twice, y reaches the loss through a
        # reshape and a swapaxes view, b is broadcast over rows, and c is
        # both gain and bias of a 1-D layer norm, whose bias takes g itself;
        # every first gradient is kept without a copy
        inputs = [RNG.normal(size=(2, 3)), RNG.normal(size=(3, 2)),
                  RNG.normal(size=(3,)), RNG.normal(size=(6,))]
        w = RNG.normal(size=6)

        def build(x, y, b, c):
            yt = ag.swapaxes(y, 0, 1)
            h = ag.add(ag.add(ag.add(x, x), yt), ag.reshape(y, (2, 3)))
            h = ag.add(ag.matmul(ag.matmul(h, y), yt), b)
            return weighted_sum(ag.layer_norm(ag.reshape(h, (6,)), c, c), w)

        leaves = [ag.Tensor(a.copy(), requires_grad=True) for a in inputs]
        ag.backward(build(*leaves))
        for i, p in enumerate(leaves):
            for q in leaves[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad)
        gradcheck(build, inputs)

    @pytest.mark.parametrize("grad, shape", [((3,), (2, 4)), ((2, 5), (2, 4)),
                                             ((6,), (2, 3)), ((2, 3, 4), (2, 1))])
    def test_gradient_that_cannot_be_reduced_raises(self, grad, shape):
        t = ag.Tensor(np.zeros(shape), requires_grad=True)
        with pytest.raises(ValueError, match=re.escape(
                f"gradient of shape {grad} does not reduce to shape {shape}")):
            t.node.accumulate(np.ones(grad))
        assert t.grad is None

    def test_broadcast_gradient_is_summed_and_constant_drops_it(self):
        t = ag.Tensor(np.zeros((1, 4)), requires_grad=True)
        t.node.accumulate(np.ones((2, 3, 4)))
        t.node.accumulate(np.ones((3, 4)))
        np.testing.assert_array_equal(t.grad, np.full((1, 4), 9.0))
        c = ag.Tensor(np.zeros((2, 4)))
        c.node.accumulate(np.ones((3,)))  # not even checked: no gradient is kept
        assert c.grad is None

    def test_sweep_frees_the_graph_and_keeps_leaf_gradients(self):
        x = ag.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        m = ag.Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        h = ag.gelu(ag.matmul(x, m))
        loss = weighted_sum(h, RNG.normal(size=6))
        ag.backward(loss)
        for t in (h, loss):
            assert t.grad is None and t.node.parents == ()
        assert x.grad.shape == (2, 3) and m.grad.shape == (3, 3)

    def test_a_wrapped_backward_fn_runs_in_the_sweep(self):
        # a profiler finds autograd inputs by `_backward_fn` and times an
        # op's backward by wrapping it on the Tensor the op returns
        w = RNG.normal(size=6)
        xv, mv = RNG.normal(size=(2, 3)), RNG.normal(size=(3, 3))

        def gradients(wrap):
            x = ag.Tensor(xv, requires_grad=True)
            m = ag.Tensor(mv, requires_grad=True)
            h = ag.gelu(ag.matmul(x, m))
            tensors = (x, m, h, ag.Tensor(w))
            assert all(hasattr(t, "_backward_fn") for t in tensors)
            calls = []
            if wrap:
                fn = h._backward_fn

                def timed(g):
                    calls.append(g.shape)
                    fn(g)

                h._backward_fn = timed
            loss = weighted_sum(h, w)
            ag.backward(loss)
            assert all(hasattr(t, "_backward_fn") for t in tensors + (loss,))
            return calls, x.grad.tobytes() + m.grad.tobytes()

        calls, wrapped = gradients(wrap=True)
        assert calls == [(2, 3)]
        assert wrapped == gradients(wrap=False)[1]

    def test_second_sweep_of_a_graph_raises(self):
        x = ag.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        w = RNG.normal(size=6)
        h = ag.gelu(x)
        loss = weighted_sum(h, w)
        ag.backward(loss)
        first = x.grad.copy()
        with pytest.raises(ValueError, match="already swept"):
            ag.backward(loss)
        # a new graph over a swept node cannot reach the leaves either
        with pytest.raises(ValueError, match="already swept"):
            ag.backward(weighted_sum(h, w))
        np.testing.assert_array_equal(x.grad, first)

    def test_non_scalar_root_rejected(self):
        x = ag.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ag.backward(ag.add(x, x))

    def test_constant_root_rejected(self):
        with pytest.raises(ValueError, match="require"):
            ag.backward(ag.Tensor(1.0))

    def test_no_grad_suppresses_graph(self):
        x = ag.Tensor(np.ones(3), requires_grad=True)
        with ag.no_grad():
            out = ag.add(x, x)
        assert not out.requires_grad
        out2 = ag.add(x, x)
        assert out2.requires_grad

    def test_no_grad_restores_on_exception(self):
        x = ag.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with ag.no_grad():
                raise RuntimeError("boom")
        assert ag.add(x, x).requires_grad

    def test_deep_chain_no_recursion_limit(self):
        x = ag.Tensor(np.ones((1, 1)), requires_grad=True)
        t = x
        for _ in range(5000):
            t = ag.scale(t, 1.0)
        ag.backward(ag.reshape(t, (1, 1)))
        np.testing.assert_allclose(x.grad, [[1.0]])

    def test_float64_everywhere(self):
        t = ag.Tensor(np.ones(3, dtype=np.float32))
        assert t.data.dtype == np.float64
        assert ag.Tensor([1, 2]).data.dtype == np.float64

    def test_randomized_composite_chain(self):
        # reshape -> matmul -> gelu -> layer_norm -> softmax -> reduce
        for seed in range(3):
            r = np.random.default_rng(seed)
            x = r.normal(size=(2, 6))
            m = r.normal(size=(3, 4))
            gain = r.normal(size=(4,)) + 1.0
            bias = r.normal(size=(4,))
            w = r.normal(size=16)

            def build(xv, mv, gv, bv):
                h = ag.matmul(ag.reshape(xv, (4, 3)), mv)
                h = ag.gelu(h)
                h = ag.layer_norm(h, gv, bv)
                p = ag.softmax_masked(h)
                return weighted_sum(p, w)

            gradcheck(build, [x, m, gain, bias])
