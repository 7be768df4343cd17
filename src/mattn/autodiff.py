"""Tape-based reverse-mode differentiation over Mat values.

A Var wraps one Mat and remembers how it was produced; backward() walks the
graph in reverse topological order and accumulates gradients as float64
arrays. Forward values go through the core kernels, so FLOPs and live-byte
counters see real work; vector-Jacobian products use raw numpy.

Ops act on the trailing axes and treat leading axes as a stack, so one Var
holds a whole (T, N, D) clip. matmul, add, sub and mul broadcast like
numpy, and their VJPs sum over the broadcast axes: a (1, D) bias, a (1, 1)
gate or a (D, D_h) weight applied to every frame receives the summed
gradient of all frames.

Inside a `no_grad()` scope ops compute values only and retain no parents,
which lets inference-time temporaries die as soon as refcounts drop (the
benchmark relies on this for honest peak-memory numbers).
"""
from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from . import core
from .core import DimensionError, Mat

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Var:
    __slots__ = ("m", "parents", "vjp", "grad", "name", "trainable",
                 "__weakref__")

    def __init__(self, m: Mat, parents=(), vjp=None, name: str = "",
                 trainable: bool = False) -> None:
        self.m = m
        if _GRAD_ENABLED:
            self.parents = tuple(parents)
            self.vjp = vjp
        else:
            self.parents = ()
            self.vjp = None
        self.grad: np.ndarray | None = None
        self.name = name
        self.trainable = trainable

    @property
    def value(self) -> np.ndarray:
        return self.m.a

    @property
    def shape(self) -> tuple[int, ...]:
        return self.m.shape

    def set_value(self, arr: np.ndarray) -> None:
        """Replace the stored matrix (optimizer updates, FD perturbation)."""
        self.m = Mat(np.array(arr, dtype=np.float64))

    def __repr__(self) -> str:
        tag = self.name or "var"
        return f"Var({tag}, {'x'.join(map(str, self.shape))})"


def param(values, name: str = "") -> Var:
    return Var(Mat(values), name=name, trainable=True)


def const(values, name: str = "") -> Var:
    m = values if isinstance(values, Mat) else Mat(values)
    return Var(m, name=name)


def _make(value: Mat, parents, vjp) -> Var:
    return Var(value, parents=parents, vjp=vjp)


# ---------------------------------------------------------------------------
# ops

def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over the axes that broadcasting added or stretched to reach
    g's shape, so the gradient takes the operand's own shape."""
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    stretched = tuple(i for i, s in enumerate(shape)
                      if s == 1 and g.shape[i] != 1)
    if stretched:
        g = g.sum(axis=stretched, keepdims=True)
    return g


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _broadcast(op, x: Var, y: Var) -> Mat:
    try:
        value = op(x.value, y.value)
    except ValueError as exc:
        raise DimensionError(
            f"{op.__name__} shape mismatch: {x.shape} vs {y.shape}") from exc
    return Mat._wrap(value)


def matmul(x: Var, y: Var) -> Var:
    """Product of the stacked matrices in the trailing two axes."""
    out = core.matmul(x.m, y.m)

    def vjp(g):
        return [_unbroadcast(g @ _swap(y.value), x.shape),
                _unbroadcast(_swap(x.value) @ g, y.shape)]

    return _make(out, (x, y), vjp)


def attention_weights(q: Var, k: Var, scale: float) -> Var:
    """softmax(scale * q k^T) along the last axis, as one op."""
    scale = float(scale)
    out = core.attention_weights(q.m, k.m, scale)
    p = out.a

    def vjp(g):
        ds = p * (g - (g * p).sum(axis=-1, keepdims=True)) * scale
        return [_unbroadcast(ds @ k.value, q.shape),
                _unbroadcast(_swap(ds) @ q.value, k.shape)]

    return _make(out, (q, k), vjp)


def add(x: Var, y: Var) -> Var:
    out = _broadcast(np.add, x, y)
    return _make(out, (x, y), lambda g: [_unbroadcast(g, x.shape),
                                         _unbroadcast(g, y.shape)])


def sub(x: Var, y: Var) -> Var:
    out = _broadcast(np.subtract, x, y)
    return _make(out, (x, y), lambda g: [_unbroadcast(g, x.shape),
                                         -_unbroadcast(g, y.shape)])


def mul(x: Var, y: Var) -> Var:
    out = _broadcast(np.multiply, x, y)
    return _make(out, (x, y),
                 lambda g: [_unbroadcast(g * y.value, x.shape),
                            _unbroadcast(g * x.value, y.shape)])


def smul(x: Var, c: float) -> Var:
    c = float(c)
    out = core.scale(x.m, c)
    return _make(out, (x,), lambda g: [g * c])


def transpose(x: Var, *axes: int) -> Var:
    """Permute the axes; with none given, transpose every stacked matrix."""
    if not axes:
        nd = len(x.shape)
        axes = (*range(nd - 2), nd - 1, nd - 2)
    out = core.transpose(x.m, axes)
    inverse = tuple(np.argsort(axes))
    return _make(out, (x,), lambda g: [np.transpose(g, inverse)])


def reshape(x: Var, *shape: int) -> Var:
    try:
        out = Mat._wrap(x.value.reshape(shape))
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from exc
    old = x.shape
    return _make(out, (x,), lambda g: [g.reshape(old)])


def concat(xs: list[Var], axis: int) -> Var:
    out = Mat._wrap(np.concatenate([x.value for x in xs], axis=axis))
    bounds = np.cumsum([x.shape[axis] for x in xs])[:-1]
    return _make(out, tuple(xs), lambda g: np.split(g, bounds, axis=axis))


def slice_axis(x: Var, axis: int, start: int, stop: int) -> Var:
    """Entries start:stop along one axis."""
    index = [slice(None)] * len(x.shape)
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = Mat._wrap(x.value[index])
    shape = x.shape

    def vjp(g):
        full = np.zeros(shape)
        full[index] = g
        return [full]

    return _make(out, (x,), vjp)


def softmax_rows(x: Var) -> Var:
    """Softmax along the last axis."""
    out = core.softmax_rows(x.m)
    p = out.a

    def vjp(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return [p * (g - dot)]

    return _make(out, (x,), vjp)


def sigmoid(x: Var) -> Var:
    s = 1.0 / (1.0 + np.exp(-x.value))
    out = Mat._wrap(s)
    return _make(out, (x,), lambda g: [g * s * (1.0 - s)])


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Var) -> Var:
    """Smooth GELU (tanh form)."""
    v = x.value
    t = np.tanh(_GELU_C * (v + 0.044715 * v ** 3))
    out = Mat._wrap(0.5 * v * (1.0 + t))

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * v ** 2)
        dv = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t ** 2) * dinner
        return [g * dv]

    return _make(out, (x,), vjp)


def layernorm_rows(x: Var, eps: float = 1e-6) -> Var:
    """Normalization of the last axis to zero mean, unit variance (no
    affine)."""
    v = x.value
    mu = v.mean(axis=-1, keepdims=True)
    xc = v - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = Mat._wrap(y)

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        return [inv * (g - gm - y * gy)]

    return _make(out, (x,), vjp)


def sum_all(x: Var) -> Var:
    out = Mat._wrap(np.array([[float(np.sum(x.value))]]))
    shape = x.shape

    def vjp(g):
        return [np.full(shape, float(g[0, 0]))]

    return _make(out, (x,), vjp)


def mean_all(x: Var) -> Var:
    return smul(sum_all(x), 1.0 / x.value.size)


def l1_normalize_rows(x: Var, eps: float = 1e-12) -> Var:
    """Divide each last-axis row by its absolute sum; rows below eps pass
    through."""
    v = x.value
    s = np.abs(v).sum(axis=-1, keepdims=True)
    live = s >= eps
    safe = np.where(live, s, 1.0)
    y = np.where(live, v / safe, v)
    out = Mat._wrap(y)

    def vjp(g):
        dot = (g * v).sum(axis=-1, keepdims=True)
        gn = g / safe - np.sign(v) * dot / safe ** 2
        return [np.where(live, gn, g)]

    return _make(out, (x,), vjp)


def l2_normalize_rows(x: Var, eps: float = 1e-12) -> Var:
    """Divide each last-axis row by its Euclidean norm; rows below eps pass
    through."""
    v = x.value
    s = np.sqrt((v ** 2).sum(axis=-1, keepdims=True))
    live = s >= eps
    safe = np.where(live, s, 1.0)
    y = np.where(live, v / safe, v)
    out = Mat._wrap(y)

    def vjp(g):
        dot = (g * v).sum(axis=-1, keepdims=True)
        gn = g / safe - v * dot / safe ** 3
        return [np.where(live, gn, g)]

    return _make(out, (x,), vjp)


# ---------------------------------------------------------------------------
# backward

def backward(out: Var, seed: np.ndarray | None = None) -> dict[int, np.ndarray]:
    """Accumulate gradients of `out` (seeded by `seed`) into Var.grad.

    Returns the full id->gradient map; Vars reached by the sweep get their
    .grad attribute set (replacing any previous value).
    """
    if seed is None:
        seed = np.ones(out.shape)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != out.shape:
        raise DimensionError(
            f"seed shape {seed.shape} != output shape {out.shape}")

    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(out): seed}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node.vjp is None:
            continue
        for p, pg in zip(node.parents, node.vjp(g)):
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg
    for node in order:
        node.grad = grads.get(id(node))
    return grads


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
