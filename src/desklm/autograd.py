"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor holds a forward value (`data`) and a graph `Node`: its shape,
gradient, parents and backward closure. Nodes never hold arrays, so the
graph keeps alive only what some closure captured, and any other
intermediate is freed as soon as the model code drops its Tensor. Each
op's closure maps the output gradient to each input's gradient
(hand-derived, exact) and hands it to `Node.accumulate`, which keeps or
drops and reduces it; the closure captures its parents' nodes plus only
the arrays its formula reads:

    matmul          both operands
    layer_norm      the normalized input, the inverse deviation, the gain
    gelu            the input and its tanh
    softmax_masked  the output
    dropout         the keep mask
    embedding,
    gather_rows     the index
    cross_entropy   the labels, the kept rows as a mask and as indices, and
                    the log-probabilities, which its backward turns in place
                    into the logits' gradient

add, scale, reshape and swapaxes keep no array. Every tensor that needs
no gradient shares one constant node. `backward` runs an iterative
topological sweep from a scalar loss; every analytic formula here is
checked against finite differences in the tests.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference speed-up)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Node:
    """A tensor's place in the graph: everything backward needs but the value."""

    __slots__ = ("shape", "grad", "requires_grad", "parents", "backward_fn")

    def __init__(self, shape: tuple[int, ...] | None, requires_grad: bool = True,
                 parents: tuple[Node, ...] = (), backward_fn: Callable | None = None):
        self.shape = shape
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.backward_fn = backward_fn

    def accumulate(self, g: np.ndarray) -> None:
        """Add g to this node's gradient; every op's backward calls this.

        A node that does not require a gradient drops g. A g of another
        shape is summed over the axes broadcasting expanded, or raises. The
        first g is kept, not copied, and later ones are summed into it in
        place. So the node owns g: a closure hands any one array to at
        most one input, and only after its own last read of it.
        """
        if not self.requires_grad:
            return
        if g.shape != self.shape:
            g = _unbroadcast(g, self.shape)
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


# the node of every tensor that needs no gradient; it never keeps one
_CONSTANT = Node(None, requires_grad=False)


class Tensor:
    """A float64 array plus its graph node.

    `grad`, `requires_grad` and `_backward_fn` are the node's;
    `_backward_fn` is settable, so a profiler can wrap an op's backward.
    Tensors that need no gradient share one node, so set neither on them.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = Node(self.data.shape) if requires_grad else _CONSTANT

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self.node.grad = g

    @property
    def _backward_fn(self) -> Callable | None:
        return self.node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn: Callable | None) -> None:
        self.node.backward_fn = fn

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: Sequence[Node],
          backward_fn: Callable) -> Tensor:
    """The op's output; it gets a node of its own when some parent needs a
    gradient, and that node keeps only those parents."""
    out = Tensor(data)
    if _GRAD_ENABLED:
        parents = tuple(p for p in parents if p.requires_grad)
        if parents:
            out.node = Node(out.data.shape, parents=parents, backward_fn=backward_fn)
    return out


def backward(root: Tensor) -> None:
    """Backpropagate from a scalar root through the recorded graph.

    The sweep frees the graph behind it: afterwards only the leaves hold
    gradients, and a second sweep through any of its nodes raises.
    """
    if root.data.size != 1:
        raise ValueError("backward requires a scalar root")
    if not root.requires_grad:
        raise ValueError("root does not require gradients")
    # iterative postorder; recursion would overflow on deep graphs
    topo: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root.node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.node.grad = np.ones_like(root.data)
    # each node is dropped once its closure has run, so its closure (with
    # the arrays it captured) and its gradient are freed as the sweep
    # passes; leaves keep their .grad
    while topo:
        node = topo.pop()
        if node.backward_fn is None:
            continue
        if node.grad is not None:
            node.backward_fn(node.grad)
        node.grad = None
        node.backward_fn = _swept
        node.parents = ()


def _swept(g: np.ndarray) -> None:
    """The closure of a node a sweep has passed: its graph is gone."""
    raise ValueError("backward: this graph was already swept; "
                     "run the forward pass again")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over the axes that broadcasting `shape` to g's shape expanded;
    raise if g's shape is no broadcast of `shape`."""
    extra = g.ndim - len(shape)
    out = g.sum(axis=tuple(range(extra))) if extra > 0 else g
    axes = tuple(i for i, (d, n) in enumerate(zip(shape, out.shape)) if d == 1 and n != 1)
    if axes:
        out = out.sum(axis=axes, keepdims=True)
    if out.shape != shape:
        raise ValueError(f"gradient of shape {g.shape} does not reduce to shape {shape}")
    return out


# -- arithmetic -------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    an, bn = a.node, b.node

    def bwd(g):
        an.accumulate(g)
        # a kept g as its first gradient: b gets a copy, or a fresh sum of g
        bn.accumulate(g.copy() if an.grad is g and bn.shape == g.shape else g)

    return _make(out, (an, bn), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s
    an = a.node

    def bwd(g):
        an.accumulate(g * s)

    return _make(out, (an,), bwd)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Batched matrix product with numpy broadcasting on leading axes.

    A 2-D right operand (x @ W) is one 2-D GEMM over the flattened leading
    rows of a, forward and backward alike, and may take a bias added in
    place: matmul(x, W, b) has the bits of add(matmul(x, W), b) without
    the pre-bias array or the add node.
    """
    if b.data.ndim == 2 and a.data.ndim >= 2:
        return _matmul_rows(a, b, bias)
    if bias is not None:
        raise ValueError("matmul: a bias needs a 2-D right operand")
    ad, bd = a.data, b.data
    an, bn = a.node, b.node
    out = ad @ bd

    def bwd(g):
        an.accumulate(g @ np.swapaxes(bd, -1, -2))
        bn.accumulate(np.swapaxes(ad, -1, -2) @ g)

    return _make(out, (an, bn), bwd)


def _matmul_rows(a: Tensor, b: Tensor, bias: Tensor | None) -> Tensor:
    ad, bd = a.data, b.data
    k, n = bd.shape
    if ad.shape[-1] != k:
        # checked here: the flattening reshape alone could misreport it
        raise ValueError(f"matmul: shapes {ad.shape} and {bd.shape} "
                         "do not align")
    lead = ad.shape[:-1]
    out = (ad.reshape(-1, k) @ bd).reshape(*lead, n)
    if bias is not None:
        out += bias.data
    an, bn = a.node, b.node
    biasn = None if bias is None else bias.node

    def bwd(g):
        g2 = g.reshape(-1, n)
        an.accumulate((g2 @ bd.T).reshape(ad.shape))
        # reshaped again here rather than kept: a copy for a strided a
        bn.accumulate(ad.reshape(-1, k).T @ g2)
        if biasn is not None:
            # the unflattened g, as add's backward sums it; last: bias may keep g
            biasn.accumulate(g)

    return _make(out, (an, bn) if biasn is None else (an, bn, biasn), bwd)


def swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    out = np.swapaxes(a.data, axis1, axis2)
    an = a.node

    def bwd(g):
        an.accumulate(np.swapaxes(g, axis1, axis2))

    return _make(out, (an,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)
    an = a.node

    def bwd(g):
        an.accumulate(g.reshape(an.shape))

    return _make(out, (an,), bwd)


# -- indexing ---------------------------------------------------------------

def _gather(a: Tensor, index: np.ndarray) -> Tensor:
    """out[...] = a[index[...]]; backward scatter-adds into a's rows."""
    index = np.asarray(index)
    out = a.data[index]
    an = a.node

    def bwd(g):
        # the scatter sums into an existing gradient in place, so rows
        # gathered by several nodes add up in the order their nodes run
        if an.grad is None:
            ga = np.zeros(an.shape)
            np.add.at(ga, index, g)
            an.accumulate(ga)
        else:
            np.add.at(an.grad, index, g)

    return _make(out, (an,), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    return _gather(table, ids)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor: out[i] = a[index[i]]."""
    return _gather(a, index)


# -- nonlinearities ---------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh form), differentiated exactly."""
    # t = tanh(u), u = C (x + A x^3); out = x (1 + t) / 2. Products, not
    # x ** 3 (numpy's float power is many times slower), evaluated in place
    # to save activation-sized temporaries.
    x = a.data
    u = x * x
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    t = np.tanh(u, out=u)
    out = t + 1.0
    out *= x
    out *= 0.5
    an = a.node

    def bwd(g):
        # d out/dx = ((1 + t) + x (1 - t^2) du/dx) / 2 with
        # du/dx = C (1 + 3 A x^2); x * x is recomputed here rather than
        # kept from the forward pass, so no extra array lives until now
        s = x * x
        s *= 3.0 * _GELU_A
        s += 1.0
        s *= _GELU_C
        s *= x
        w = t * t
        np.subtract(1.0, w, out=w)
        s *= w
        s += t
        s += 1.0
        s *= 0.5
        s *= g
        an.accumulate(s)

    return _make(out, (an,), bwd)


LN_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then apply learned gain and bias."""
    # x - mean once, then squared and scaled in place: the same operations,
    # in the same order, as np.var and (x - mean) * inv, so the same bits
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / x.data.shape[-1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    gd = gain.data
    out = xhat * gd
    out += bias.data
    xn, gainn, biasn = x.node, gain.node, bias.node

    def bwd(g):
        gx = g * gd
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        xn.accumulate(inv * (gx - m1 - xhat * m2))
        gainn.accumulate(g * xhat)
        # last: bias may keep g itself, which the lines above read
        biasn.accumulate(g)

    return _make(out, (xn, gainn, biasn), bwd)


def softmax_masked(scores: Tensor, additive_mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis of (scores + additive_mask).

    The mask is a constant array broadcastable to scores; disallowed slots
    carry a large negative value whose exp underflows to exactly 0.
    """
    z = scores.data if additive_mask is None else scores.data + additive_mask
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    sn = scores.node

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        sn.accumulate(p * (g - dot))

    return _make(p, (sn,), bwd)


def dropout(a: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; p = 0 or no generator is an exact identity that
    consumes no randomness."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0 or rng is None:
        return a
    # a bool mask, an eighth of a float one; x * keep * (1 / (1 - p)) is the
    # same double as x * (keep / (1 - p)), signed zeros included
    keep = rng.random(a.data.shape) >= p
    inv = 1.0 / (1.0 - p)
    out = a.data * keep
    out *= inv
    an = a.node

    def bwd(g):
        an.accumulate(g * keep * inv)

    return _make(out, (an,), bwd)


# -- loss -------------------------------------------------------------------

IGNORE_INDEX = -100


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of `labels` under row-wise softmax.

    logits: (N, V); labels: (N,) ints, rows equal to IGNORE_INDEX excluded.
    Raises if every label is ignored.
    """
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise ValueError("cross_entropy expects (N, V) logits and (N,) labels")
    kept = labels != IGNORE_INDEX
    n_kept = int(kept.sum())
    if n_kept == 0:
        raise ValueError("cross_entropy: all labels are ignored")
    logp = log_probs(logits)
    rows = np.nonzero(kept)[0]
    # negated before the sum, which then reads +0.0, not -0.0, at zero loss
    out = np.asarray((-logp[rows, labels[rows]]).sum() / n_kept)
    ln = logits.node

    def bwd(g):
        # written over logp: the sweep runs this once, then the logits own it
        p = np.exp(logp, out=logp)
        p[rows, labels[rows]] -= 1.0
        p *= float(g) / n_kept
        p[~kept] = 0.0
        ln.accumulate(p)

    return _make(out, (ln,), bwd)


def log_probs(logits: Tensor) -> np.ndarray:
    """Row-wise log-softmax of a (N, V) logits tensor, as a plain array."""
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z
