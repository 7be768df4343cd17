"""Tape-based reverse-mode differentiation over core tensors.

A Var holds one tensor, a read-only float64 array of rank >= 2 that
`core.checked` has passed, and remembers how it was produced; backward()
walks the graph in reverse topological order and accumulates gradients as
float64 arrays. backward() consumes the graph it walks: the leaves (Vars
from param(), const() or no_grad(), which have no VJP) get .grad, while
each inner node loses its gradient and its links to its parents as soon
as its VJP has run and gets neither back, so training holds one graph at
a time. Outside values enter through param(), const() and
Var.set_value(), which copy them and reject rank < 2 and non-finite
entries. Every entry is scanned once, where it is computed: an op that
computes entries checks its result the same way, while reshape,
transpose, slice_axis and concat, which only move entries of checked
tensors, adopt theirs unscanned (`core.adopt`), and so does softmax_rows,
whose finite input gives a finite result.

Fused ops are one node each, with the VJPs of the chain they replace and
the chain's values bit for bit; only their result is checked, since a
non-finite intermediate always reaches it:
* linear (x @ W + b) and matrix_linear (ut @ z @ W + B) add their bias in
  place into the gemm output;
* modulate (AdaLN: layernorm_rows(x) * (1 + scale) + shift) takes two
  buffers, the normalized x kept for the VJP and the output;
* residual (x + a * gate) takes one.
gelu runs op for op in place, forward and VJP, in two buffers each, or
one under no_grad(). Forward matrix products go through the core kernels,
so FLOPs and live-byte counters see real work; vector-Jacobian products
use raw numpy.

Ops act on the trailing axes and treat leading axes as a stack, so one Var
holds a whole (T, N, D) clip. matmul, add, sub and mul broadcast like
numpy, and their VJPs sum over the broadcast axes: a (1, D) bias, a (1, 1)
gate or a (D, D_h) weight applied to every frame receives the summed
gradient of all frames.

Inside a `no_grad()` scope ops compute values only and retain no parents,
which lets inference-time temporaries die as soon as refcounts drop (the
benchmark relies on this for honest peak-memory numbers). The scope is a
context variable: it does not reach a thread started inside it.

fd_error is the one gradient check: the largest relative error of an
analytic gradient against central differences, NaN if any error is NaN.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields, is_dataclass

import numpy as np

from . import core
from .core import DimensionError

_GRAD_ENABLED: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Record no graph in this scope. The setting belongs to the current
    context: a thread started inside the scope runs in a fresh context
    and records its graph as usual."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Var:
    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value: np.ndarray, parents=(), vjp=None) -> None:
        self.value = value
        if _GRAD_ENABLED.get():
            self.parents = tuple(parents)
            self.vjp = vjp
        else:
            self.parents = ()
            self.vjp = None
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def set_value(self, values) -> None:
        """Replace the stored tensor (optimizer updates, FD perturbation)."""
        self.value = _outside(values)

    def __repr__(self) -> str:
        return f"Var({'x'.join(map(str, self.shape))})"


def _outside(values) -> np.ndarray:
    """A checked float64 copy of values from outside the graph."""
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim < 2:
        raise DimensionError(
            f"a tensor needs rank >= 2 data, got ndim={arr.ndim}")
    return core.checked(arr)


def param(values) -> Var:
    """A leaf Var holding a checked copy of values."""
    return Var(_outside(values))


const = param


def named_params(tree, prefix: str = ""):
    """(dotted field path, Var) for every Var in a tree of dataclasses, in
    field order. Fields that hold None, or anything but a Var or a
    dataclass, are skipped; one trailing underscore is dropped from a
    field's name, so a field `global_` is named `global`. The paths are a
    model's parameter names and its checkpoint keys."""
    for f in fields(tree):
        value = getattr(tree, f.name)
        name = prefix + f.name.removesuffix("_")
        if isinstance(value, Var):
            yield name, value
        elif is_dataclass(value):
            yield from named_params(value, name + ".")


# ---------------------------------------------------------------------------
# ops

def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over the axes that broadcasting added or stretched to reach
    g's shape, so the gradient takes the operand's own shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    stretched = tuple(i for i, s in enumerate(shape)
                      if s == 1 and g.shape[i] != 1)
    if stretched:
        g = g.sum(axis=stretched, keepdims=True)
    return g


def _swap(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _broadcast(op, x: Var, y: Var) -> np.ndarray:
    try:
        value = op(x.value, y.value)
    except ValueError as exc:
        raise DimensionError(
            f"{op.__name__} shape mismatch: {x.shape} vs {y.shape}") from exc
    return core.checked(value)


def _product_vjp(a: np.ndarray, b: np.ndarray):
    """The VJP of the product a @ b as `core.matmul` runs it."""
    if b.ndim == 2 and a.ndim > 2:
        # one weight shared by the whole stack, as the forward product
        # runs it: a single gemm over all stacked rows each way
        def vjp(g):
            k, n = b.shape
            g2 = g.reshape(-1, n)
            return [(g2 @ b.T).reshape(a.shape), a.reshape(-1, k).T @ g2]
    else:
        def vjp(g):
            return [_unbroadcast(g @ _swap(b), a.shape),
                    _unbroadcast(_swap(a) @ g, b.shape)]
    return vjp


def matmul(x: Var, y: Var) -> Var:
    """Product of the stacked matrices in the trailing two axes."""
    out = core.matmul(x.value, y.value)
    return Var(out, (x, y), _product_vjp(x.value, y.value))


def linear(x: Var, W: Var, b: Var) -> Var:
    """x @ W + b as one op: b, which must broadcast to the product's
    shape, is added in place into the product."""
    out = core.matmul(x.value, W.value, bias=b.value)
    product_vjp = _product_vjp(x.value, W.value)
    shape = b.shape
    return Var(out, (x, W, b),
               lambda g: [*product_vjp(g), _unbroadcast(g, shape)])


def matrix_linear(ut: Var, z: Var, W: Var, B: Var) -> Var:
    """ut @ z @ W + B for every stacked (N, D) matrix of z, as one op: B,
    which must broadcast to the result's shape, is added in place into
    the second product.

    The intermediate ut @ z is not scanned: each of its entries enters
    every entry of one row of the result, multiplied by a finite weight,
    and inf or nan times a finite number is inf or nan, so a non-finite
    intermediate fails the result's check."""
    h = core.matmul(ut.value, z.value, check=False)
    out = core.matmul(h, W.value, bias=B.value)
    first_vjp = _product_vjp(ut.value, z.value)
    second_vjp = _product_vjp(h, W.value)
    shape = B.shape

    def vjp(g):
        gh, gw = second_vjp(g)
        return [*first_vjp(gh), gw, _unbroadcast(g, shape)]

    return Var(out, (ut, z, W, B), vjp)


def attention_weights(q: Var, k: Var, scale: float) -> Var:
    """softmax(scale * q k^T) along the last axis, as one op."""
    scale = float(scale)
    p = core.attention_weights(q.value, k.value, scale)

    def vjp(g):
        ds = p * (g - (g * p).sum(axis=-1, keepdims=True)) * scale
        return [_unbroadcast(ds @ k.value, q.shape),
                _unbroadcast(_swap(ds) @ q.value, k.shape)]

    return Var(p, (q, k), vjp)


def add(x: Var, y: Var) -> Var:
    out = _broadcast(np.add, x, y)
    return Var(out, (x, y), lambda g: [_unbroadcast(g, x.shape),
                                       _unbroadcast(g, y.shape)])


def sub(x: Var, y: Var) -> Var:
    out = _broadcast(np.subtract, x, y)
    return Var(out, (x, y), lambda g: [_unbroadcast(g, x.shape),
                                       -_unbroadcast(g, y.shape)])


def mul(x: Var, y: Var) -> Var:
    out = _broadcast(np.multiply, x, y)
    return Var(out, (x, y),
               lambda g: [_unbroadcast(g * y.value, x.shape),
                          _unbroadcast(g * x.value, y.shape)])


def smul(x: Var, c: float) -> Var:
    c = float(c)
    out = core.checked(x.value * c)
    return Var(out, (x,), lambda g: [g * c])


def transpose(x: Var, *axes: int) -> Var:
    """Permute the axes; with none given, transpose every stacked matrix."""
    if not axes:
        nd = len(x.shape)
        axes = (*range(nd - 2), nd - 1, nd - 2)
    out = core.adopt(x.value.transpose(axes))
    inverse = tuple(axes.index(i) for i in range(len(axes)))
    return Var(out, (x,), lambda g: [g.transpose(inverse)])


def reshape(x: Var, *shape: int) -> Var:
    try:
        out = core.adopt(x.value.reshape(shape))
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from exc
    old = x.shape
    return Var(out, (x,), lambda g: [g.reshape(old)])


def concat(xs: list[Var], axis: int) -> Var:
    out = core.adopt(np.concatenate([x.value for x in xs], axis=axis))
    bounds = np.cumsum([x.shape[axis] for x in xs])[:-1]
    return Var(out, tuple(xs), lambda g: np.split(g, bounds, axis=axis))


def slice_axis(x: Var, axis: int, start: int, stop: int) -> Var:
    """Entries start:stop along one axis."""
    index = [slice(None)] * len(x.shape)
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = core.adopt(x.value[index])
    shape = x.shape

    def vjp(g):
        full = np.zeros(shape)
        full[index] = g
        return [full]

    return Var(out, (x,), vjp)


def softmax_rows(x: Var) -> Var:
    """Softmax along the last axis."""
    # a finite row gives a finite softmax (see core.attention_weights), and
    # x is a checked tensor, so the result needs no scan
    p = core.adopt(core.softmax_in_place(np.array(x.value)))

    def vjp(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return [p * (g - dot)]

    return Var(p, (x,), vjp)


def sigmoid(x: Var) -> Var:
    s = 1.0 / (1.0 + np.exp(-x.value))
    out = core.checked(s)
    return Var(out, (x,), lambda g: [g * s * (1.0 - s)])


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-6
_ROW_EPS = 1e-12


def gelu(x: Var) -> Var:
    """Smooth GELU (tanh form), 0.5 v (1 + tanh(c (v + a v^3))), op for op
    in place: the tanh argument and t take one buffer, the output another,
    or under no_grad() the same one, since no VJP needs t. The order
    differs from the formula only by commuted products and sums and by
    halving 1 + t (a multiple of 2^-53 in [0, 2], so exactly) instead of
    v, so every entry is bit-equal to the formula's."""
    v = x.value
    t = v * v
    t *= v
    t *= _GELU_A
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t if not _GRAD_ENABLED.get() else np.empty_like(t)
    np.add(t, 1.0, out=out)
    out *= 0.5
    out *= v
    out = core.checked(out)
    if out is not t:
        core.adopt(t)  # kept for the VJP, so counted as live

    def vjp(g):
        # dv = 0.5 (1 + t) + 0.5 v (1 - t^2) c (1 + 3 a v^2) with the
        # products and sums commuted and 1 - t^2 (a multiple of 2^-53 in
        # [0, 1]) halved instead of v, bit-equal as in the forward
        dinner = v * v
        dinner *= 3 * _GELU_A
        dinner += 1.0
        dinner *= _GELU_C
        dv = t * t
        np.subtract(1.0, dv, out=dv)
        dv *= 0.5
        dv *= v
        dv *= dinner
        half = np.add(t, 1.0, out=dinner)
        half *= 0.5
        dv += half
        dv *= g
        return [dv]

    return Var(out, (x,), vjp)


def _normalized(v: np.ndarray):
    """(y, inv, sq) for the normalization of v's last axis: y = (v - mean)
    * inv in a fresh buffer, inv = 1 / sqrt(var + _LN_EPS) per row, and sq, a
    second buffer of v's shape that held the squares for the variance and
    is free for the caller's use."""
    n = v.shape[-1]
    # sum / n is what ndarray.mean computes, without its dispatch
    mu = v.sum(axis=-1, keepdims=True) / n
    y = v - mu
    sq = np.multiply(y, y)
    var = sq.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    y *= inv
    return y, inv, sq


def _normalized_vjp(gy: np.ndarray, y: np.ndarray,
                    inv: np.ndarray) -> np.ndarray:
    """The gradient reaching the normalization's input, inv * (gy - mean(gy)
    - y * mean(gy * y)), formed in gy's buffer, which must be writable."""
    n = y.shape[-1]
    gm = gy.sum(axis=-1, keepdims=True) / n
    tmp = gy * y
    gyy = tmp.sum(axis=-1, keepdims=True) / n
    gy -= gm
    gy -= np.multiply(y, gyy, out=tmp)
    gy *= inv
    return gy


def layernorm_rows(x: Var) -> Var:
    """Normalization of the last axis to zero mean, unit variance (no
    affine)."""
    y, inv, _ = _normalized(x.value)
    out = core.checked(y)
    return Var(out, (x,), lambda g: [_normalized_vjp(np.array(g), out, inv)])


def modulate(x: Var, shift: Var, scale: Var) -> Var:
    """layernorm_rows(x) * (1 + scale) + shift as one op (AdaLN): shift and
    scale broadcast to x's shape. It takes two buffers, the normalized y,
    kept for the VJP, and the output, which first holds the squares.

    y is not scanned: inf or nan in y stays inf or nan through a finite
    factor (inf times 0 is nan) and a finite shift, so the result's check
    catches it."""
    y, inv, out = _normalized(x.value)
    y = core.adopt(y)
    factor = 1.0 + scale.value
    try:
        np.multiply(y, factor, out=out)
        out += shift.value
    except ValueError as exc:
        raise DimensionError(
            f"modulate shape mismatch: x {x.shape}, shift {shift.shape}, "
            f"scale {scale.shape}") from exc
    out = core.checked(out)
    shift_shape, scale_shape = shift.shape, scale.shape

    def vjp(g):
        # the VJPs of the add -> mul -> layernorm_rows chain, in its order
        gscale = _unbroadcast(g * y, scale_shape)
        return [_normalized_vjp(g * factor, y, inv),
                _unbroadcast(g, shift_shape), gscale]

    return Var(out, (x, shift, scale), vjp)


def residual(x: Var, a: Var, gate: Var) -> Var:
    """x + a * gate as one op: the product takes one buffer of the
    broadcast shape, and x is added in place. a * gate is not scanned:
    inf or nan in it stays inf or nan when a finite x is added."""
    try:
        out = np.empty(np.broadcast_shapes(x.shape, a.shape, gate.shape))
        np.multiply(a.value, gate.value, out=out)
    except ValueError as exc:
        raise DimensionError(
            f"residual shape mismatch: x {x.shape}, a {a.shape}, gate "
            f"{gate.shape}") from exc
    out += x.value
    out = core.checked(out)
    av, gv, x_shape = a.value, gate.value, x.shape

    def vjp(g):
        return [_unbroadcast(g, x_shape), _unbroadcast(g * gv, av.shape),
                _unbroadcast(g * av, gv.shape)]

    return Var(out, (x, a, gate), vjp)


def sum_all(x: Var) -> Var:
    out = core.checked(np.array([[float(np.sum(x.value))]]))
    shape = x.shape

    def vjp(g):
        return [np.full(shape, float(g[0, 0]))]

    return Var(out, (x,), vjp)


def l1_normalize_rows(x: Var) -> Var:
    """Divide each last-axis row by its absolute sum; rows below _ROW_EPS
    pass through."""
    v = x.value
    s = np.abs(v).sum(axis=-1, keepdims=True)
    live = s >= _ROW_EPS
    safe = np.where(live, s, 1.0)
    y = np.where(live, v / safe, v)
    out = core.checked(y)

    def vjp(g):
        dot = (g * v).sum(axis=-1, keepdims=True)
        gn = g / safe - np.sign(v) * dot / safe ** 2
        return [np.where(live, gn, g)]

    return Var(out, (x,), vjp)


def l2_normalize_rows(x: Var) -> Var:
    """Divide each last-axis row by its Euclidean norm; rows below _ROW_EPS
    pass through."""
    v = x.value
    s = np.sqrt((v ** 2).sum(axis=-1, keepdims=True))
    live = s >= _ROW_EPS
    safe = np.where(live, s, 1.0)
    y = np.where(live, v / safe, v)
    out = core.checked(y)

    def vjp(g):
        dot = (g * v).sum(axis=-1, keepdims=True)
        gn = g / safe - v * dot / safe ** 3
        return [np.where(live, gn, g)]

    return Var(out, (x,), vjp)


# ---------------------------------------------------------------------------
# backward

def _consumed(g):
    raise RuntimeError("graph already consumed by backward()")


def backward(out: Var, seed: np.ndarray | None = None) -> None:
    """Accumulate gradients of `out` (seeded by `seed`) into the .grad of
    the leaves it depends on, consuming the graph.

    A leaf is a Var without a VJP: one made by param(), const() or under
    no_grad(). Every leaf reached gets its .grad set (replacing any
    previous value). Inner nodes get no .grad: each one's gradient and its
    links to its parents are dropped as soon as its VJP has run, so a
    forward value dies once its node and every node that read it are
    differentiated and, after the call, `out` holds only its own value. A
    second backward() through a node already consumed raises RuntimeError.
    """
    if seed is None:
        seed = np.ones(out.shape)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != out.shape:
        raise DimensionError(
            f"seed shape {seed.shape} != output shape {out.shape}")

    order: list[Var] = []
    seen: set[Var] = set()
    stack: list[tuple[Var, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    del seen  # it would keep every node alive to the end of the sweep

    # reverse topological order; popping lets each node die once handled
    grads: dict[Var, np.ndarray] = {out: seed}
    while order:
        node = order.pop()
        g = grads.pop(node)
        vjp = node.vjp
        if vjp is None:
            node.grad = g
            continue
        parents = node.parents
        node.parents = ()
        node.vjp = _consumed
        for p, pg in zip(parents, vjp(g)):
            acc = grads.get(p)
            grads[p] = pg if acc is None else acc + pg


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# gradient check

def fd_error(build, wrt, upstream, entries=None) -> float:
    """Largest relative error |a - f| / max(1, |f|) between the analytic
    gradient a of sum(build().value * upstream) and its central difference
    f (step 1e-5) over the entries of each Var in wrt; NaN if any error is
    NaN. entries(var), called once per Var in wrt's order, yields the index
    tuples to check (default: every entry). A Var the output does not
    reach has a zero gradient. build must draw no random numbers."""
    zero_grads(wrt)
    backward(build(), upstream)
    h, errors = 1e-5, [0.0]
    for var in wrt:
        grad = np.zeros(var.shape) if var.grad is None else var.grad
        base = var.value
        for idx in np.ndindex(var.shape) if entries is None else entries(var):
            pert, sums = base.copy(), []
            for step in (h, -2 * h):
                pert[idx] += step
                var.set_value(pert)
                with no_grad():
                    sums.append(float(np.sum(build().value * upstream)))
            var.set_value(base)
            lp, lm = sums
            fd = (lp - lm) / (2 * h)
            errors.append(abs(grad[idx] - fd) / max(1.0, abs(fd)))
    return float(np.max(errors))
