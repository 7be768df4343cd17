"""Tape-based reverse-mode differentiation over core tensors.

A Var holds one tensor in .value, a read-only float64 array of rank >= 2
that `core.checked` has passed, and its graph Node in .node. The node
records how the tensor was produced: its parents' nodes and its VJP, a
closure over the arrays and shapes that VJP reads, never over a Var. The
graph is nodes only and holds no tensor itself: a forward value lives
while forward code holds its Var or a VJP has captured it. add, sub,
reshape, transpose, concat and slice_axis, and residual for its x, read
only their operands' shapes, so an operand of theirs that no other VJP
reads, such as a residual output, dies with its last forward reference,
before backward().

backward(out, wrt) runs the nodes newest first, since a node is made
after its parents, and sums the float64 gradients reaching each node in
the order their consumers were made. It returns the gradients of the
leaves in wrt (Vars from param(), const() or no_grad(), whose nodes have
no VJP) as a list: no gradient is stored in the graph or on a Var. It
consumes the graph it walks: each inner node loses its links to its
parents and its VJP, with the arrays that VJP captured, as soon as the VJP
has run, so training holds one graph at a time.

Outside values enter through param(), const() and Var.set_value(), which
copy them and reject rank < 2 and non-finite entries. Every entry is
scanned once, where it is computed: an op that computes entries checks
its result the same way, while reshape, transpose, slice_axis and concat,
which only move entries of checked tensors, adopt theirs unscanned
(`core.adopt`), and so does softmax_rows, whose finite input gives a
finite result.

Fused ops are one node each, with the VJPs of the chain they replace and
the chain's values bit for bit; only their result is checked, since a
non-finite intermediate always reaches it:
* linear (x @ W + b) and matrix_linear (ut @ z @ W + B) add their bias in
  place into the gemm output;
* matrix attention holds its values as v.transpose(2, 0, 1), where
  every head is a view: matrix_linear(..., transposed=True) writes its
  result so, head_values is the per-head value product on that layout,
  and matrix_linear_from_t reads it. Their products are matrix_linear's
  and matmul's with transposed operands or results, bit for bit where no
  dimension is 1 (numpy then multiplies by gemv); their VJPs may sum in
  another order;
* modulate(x, m, i) (AdaLN: layernorm_rows(x) * (1 + m[i + 1]) + m[i])
  takes two buffers, the normalized x kept for the VJP and the output.
  The one intermediate it checks is the (rows, 1) row variance, shared
  with layernorm_rows: one that overflows to inf would give a finite
  all-zero row, so it raises NumericError;
* residual(x, a, m, i) (x + a * m[i]) takes one. Both read rows of a
  stacked tensor m in place, such as a block's (9, 1, D) AdaLN output;
* mse (the loss over a list of predictions) keeps each pred - target;
* mlp (GELU(h @ W1 + b1) @ W2 + b2) runs in row tiles: GELU op for op in
  place in one tile-sized scratch buffer, and both products tile by tile
  into row blocks (`core.matmul(..., block=True)`), so only v = h @ W1 +
  b1 is kept for the VJP, which recomputes GELU tile by tile. The
  tanh-form GELU and sigmoid print no warning where an overflow gives
  an exact result.
Forward matrix products go through the core kernels, so FLOPs and
live-byte counters see real work; vector-Jacobian products use raw numpy.

Ops act on the trailing axes and treat leading axes as a stack, so one Var
holds a whole (T, N, D) clip. matmul, add, sub and mul broadcast like
numpy, and their VJPs sum over the broadcast axes: a (1, D) bias, a (1, 1)
gate or a (D, D_h) weight applied to every frame receives the summed
gradient of all frames. An op whose operands do not fit raises
DimensionError through `core.typed_shapes`; where the failing step is
an inner `core.matmul`, the error names that product's operands.

Inside a `no_grad()` scope ops compute values only and retain no parents,
which lets inference-time temporaries die as soon as refcounts drop (the
benchmark relies on this for honest peak-memory numbers). The scope is a
context variable: it does not reach a thread started inside it.

fd_error is the one gradient check: the largest relative error of an
analytic gradient against central differences, NaN if any error is NaN.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields, is_dataclass

import numpy as np

from . import core
from .core import DimensionError, NumericError

_GRAD_ENABLED: ContextVar[bool] = ContextVar("grad_enabled", default=True)
_INDEX = itertools.count()


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


class Node:
    """A Var's place in the graph: the nodes of its parents, its VJP and
    its creation index, the order in which backward() runs. A node holds
    no tensor, not even a gradient."""
    __slots__ = ("parents", "vjp", "index")

    def __init__(self, parents: tuple[Node, ...], vjp) -> None:
        self.parents = parents
        self.vjp = vjp
        self.index = next(_INDEX)


class Var:
    """One tensor in .value and its graph node in .node; consumers link to
    the node, never to the Var."""
    __slots__ = ("value", "node")

    def __init__(self, value: np.ndarray, parents=(), vjp=None) -> None:
        self.value = value
        if _GRAD_ENABLED.get():
            self.node = Node(tuple([p.node for p in parents]), vjp)
        else:
            self.node = Node((), None)

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
    g's shape, so the gradient takes the operand's own shape.

    It sums one axis at a time, outermost first: the added leading axes,
    then each stretched axis. So the order of every sum is fixed by g's
    axes alone, and a clip's slice of a batched gradient, such as
    `_unbroadcast(g, (B, 1, 1, D))[b, 0]`, equals `_unbroadcast(g[b],
    (1, D))` bit for bit."""
    if g.shape == shape:
        return g
    for _ in range(g.ndim - len(shape)):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _swap(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


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


@core.typed_shapes
def matrix_linear(ut: Var, z: Var, W: Var, B: Var,
                  transposed: bool = False) -> Var:
    """ut @ z @ W + B for every stacked (N, D) matrix of z, as one op: B,
    which must broadcast to the result's shape, is added in place into
    the second product. With transposed=True the (T, N_out, D_out) result
    is held as its transpose(2, 0, 1), (D_out, T, N_out), the layout in
    which matrix attention's value heads are views: the second product's
    one gemm writes it transposed, and B is added in that layout, so the
    entries and the VJPs are the same.

    The intermediate ut @ z is not scanned: each of its entries enters
    every entry of one row of the result, multiplied by a finite weight,
    and inf or nan times a finite number is inf or nan, so a non-finite
    intermediate fails the result's check."""
    h = core.matmul(ut.value, z.value, check=False)
    if transposed:
        t, n_out, d = h.shape
        d_out = W.shape[1]
        # a contiguous bias adds in a fraction of a strided one's time
        out = core.matmul(
            h.reshape(-1, d), W.value,
            bias=np.ascontiguousarray(B.value.T)[:, None],
            out=np.empty((d_out, t, n_out)).reshape(d_out, -1).T)
    else:
        out = core.matmul(h, W.value, bias=B.value)
    first_vjp = _product_vjp(ut.value, z.value)
    second_vjp = _product_vjp(h, W.value)
    shape = B.shape

    def vjp(g):
        if transposed:
            g = g.transpose(1, 2, 0)
        gh, gw = second_vjp(g)
        return [*first_vjp(gh), gw, _unbroadcast(g, shape)]

    return Var(out, (ut, z, W, B), vjp)


@core.typed_shapes
def matrix_linear_from_t(ut: Var, zt: Var, W: Var, B: Var) -> Var:
    """matrix_linear(ut, z, W, B) of frames z held as zt =
    z.transpose(2, 0, 1), (D, T, N), as one op with the same products.
    ut @ z is formed transposed, as one gemm over all D * T rows of zt,
    and BLAS reads it back as the (T * N_out, D) rows of the second
    product's one gemm. ut @ z is not scanned, for the reason
    matrix_linear gives."""
    d, t, n = zt.shape
    d_out = W.shape[1]
    zt2 = zt.value.reshape(-1, n)
    G = core.matmul(zt2, ut.value.T, check=False)     # (D * T, N_out)
    n_out = G.shape[1]
    G = G.reshape(d, -1)                              # (D, T * N_out)
    out = core.matmul(G.T, W.value, bias=B.value,
                      out=np.empty((t, n_out, d_out)).reshape(-1, d_out))
    wv, uv, shape = W.value, ut.value, B.shape

    def vjp(g):
        g2 = g.reshape(-1, d_out)
        gG = (wv @ g2.T).reshape(-1, n_out)
        return [gG.T @ zt2, (gG @ uv).reshape(d, t, n), G @ g2,
                _unbroadcast(g, shape)]

    return Var(out, (ut, zt, W, B), vjp)


def _value_heads(vt: np.ndarray, heads_m: int, heads_n: int) -> np.ndarray:
    """The (heads_m, heads_n, D_v/heads_n, T, N_v/heads_m) view of values
    held as vt = v.transpose(2, 0, 1), (D_v, T, N_v): entry [i, j, c] is
    the (T, N_v/heads_m) stack of column c of head (i, j)'s block of
    every frame. A view of a contiguous vt for every head grid."""
    dv, t, nv = vt.shape
    return vt.reshape(heads_n, dv // heads_n, t, heads_m,
                      nv // heads_m).transpose(3, 0, 1, 2, 4)


@core.typed_shapes
def head_values(w: Var, vt: Var, heads_m: int, heads_n: int) -> Var:
    """Each head's (T, T) attention weights w[i, j] times that head's
    values, as one op on values held as vt = v.transpose(2, 0, 1),
    (D_v, T, N_v), with a result in the same layout: BLAS reads each head
    through a view of vt and writes it through the same view of a fresh
    buffer, so no head is copied in or out."""
    w5 = w.value[:, :, None]
    v5 = _value_heads(vt.value, heads_m, heads_n)
    out = core.matmul(w5, v5,
                      out=_value_heads(np.empty(vt.shape), heads_m, heads_n))

    def vjp(g):
        g5 = _value_heads(g, heads_m, heads_n)
        gvt = np.empty(g.shape)
        np.matmul(_swap(w5), g5, out=_value_heads(gvt, heads_m, heads_n))
        return [(g5 @ _swap(v5)).sum(axis=2), gvt]

    return Var(out, (w, vt), vjp)


def attention_weights(q: Var, k: Var, scale: float) -> Var:
    """softmax(scale * q k^T) along the last axis, as one op."""
    scale = float(scale)
    qv, kv = q.value, k.value
    p = core.attention_weights(qv, kv, scale)

    def vjp(g):
        ds = _softmax_vjp(p, g) * scale
        return [_unbroadcast(ds @ kv, qv.shape),
                _unbroadcast(_swap(ds) @ qv, kv.shape)]

    return Var(p, (q, k), vjp)


@core.typed_shapes
def add(x: Var, y: Var) -> Var:
    out = core.checked(x.value + y.value)
    x_shape, y_shape = x.shape, y.shape
    return Var(out, (x, y), lambda g: [_unbroadcast(g, x_shape),
                                       _unbroadcast(g, y_shape)])


@core.typed_shapes
def sub(x: Var, y: Var) -> Var:
    out = core.checked(x.value - y.value)
    x_shape, y_shape = x.shape, y.shape
    return Var(out, (x, y), lambda g: [_unbroadcast(g, x_shape),
                                       -_unbroadcast(g, y_shape)])


@core.typed_shapes
def mul(x: Var, y: Var) -> Var:
    xv, yv = x.value, y.value
    out = core.checked(xv * yv)
    return Var(out, (x, y), lambda g: [_unbroadcast(g * yv, xv.shape),
                                       _unbroadcast(g * xv, yv.shape)])


@core.typed_shapes
def transpose(x: Var, *axes: int) -> Var:
    """Permute the axes; with none given, transpose every stacked matrix."""
    if not axes:
        nd = len(x.shape)
        axes = (*range(nd - 2), nd - 1, nd - 2)
    out = core.adopt(x.value.transpose(axes))
    inverse = tuple(axes.index(i) for i in range(len(axes)))
    return Var(out, (x,), lambda g: [g.transpose(inverse)])


@core.typed_shapes
def reshape(x: Var, *shape: int) -> Var:
    out = core.adopt(x.value.reshape(shape))
    old = x.shape
    return Var(out, (x,), lambda g: [g.reshape(old)])


@core.typed_shapes
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
    return Var(p, (x,), lambda g: [_softmax_vjp(p, g)])


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The VJP, at upstream g, of the softmax p along the last axis."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def sigmoid(x: Var) -> Var:
    """1 / (1 + exp(-v)); an exp that overflows gives the exact 0."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.value))
    out = core.checked(s)
    return Var(out, (x,), lambda g: [g * s * (1.0 - s)])


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-6


_MLP_ROWS = 256  # rows per tile of mlp: its hidden tile stays in cache


def _row_tiles(rows: int) -> list[tuple[int, int]]:
    """(start, stop) of mlp's row tiles: _MLP_ROWS rows each, with a 1-row
    remainder merged into the tile before it, so that no tile is
    multiplied by gemv (other bits than gemm's) unless the input is one
    row."""
    starts = list(range(0, rows, _MLP_ROWS))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [rows]))


def _gelu_t(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU's t = tanh(c (v + a v^3)), op for op in the buffer t."""
    with np.errstate(over="ignore"):
        # a cube that overflows gives tanh exactly +-1, the formula's limit
        np.multiply(v, v, out=t)
        t *= v
        t *= _GELU_A
        t += v
        t *= _GELU_C
    return np.tanh(t, out=t)


@core.typed_shapes
def mlp(h: Var, W1: Var, b1: Var, W2: Var, b2: Var) -> Var:
    """The two-layer MLP GELU(h @ W1 + b1) @ W2 + b2, with the smooth
    (tanh form) GELU 0.5 v (1 + tanh(c (v + a v^3))), as one op over the
    stacked rows of h, in row tiles (`_row_tiles`). Per tile it forms
    v = h @ W1 + b1, scanned while in cache, GELU(v) in a tile-sized
    scratch buffer, and its product with W2, written with b2 into the
    tile's rows of the output. With a graph it keeps v, one buffer, for
    the VJP, which recomputes GELU per tile; under no_grad() v is a tile
    too. GELU's output needs no scan: |GELU(v)| <= |v|.

    GELU runs op for op in place: its order differs from the formula only
    by commuted products and sums and by halving 1 + t and 1 - t^2
    (multiples of 2^-53 in [0, 2], so exactly) instead of v, so every
    entry is bit-equal to the formula's. The tiles' products are those
    of one gemm over all rows, bit for bit; the VJP forms each weight
    gradient as one gemm over all rows, as summing it tile by tile would
    change its bits."""
    hv, W1v, W2v = h.value, W1.value, W2.value
    h2 = hv.reshape(-1, hv.shape[-1])
    hidden, width = W1v.shape[1], W2v.shape[1]
    tiles = _row_tiles(len(h2))
    size = max((stop - start for start, stop in tiles), default=0)
    keep = _GRAD_ENABLED.get()
    v = core.scratch((len(h2) if keep else size, hidden))
    gelu = core.scratch((size, hidden))
    out = np.empty(hv.shape[:-1] + (width,))
    out2 = out.reshape(-1, width)
    for start, stop in tiles:
        vt = core.matmul(h2[start:stop], W1v, bias=b1.value, block=True,
                         out=v[start:stop] if keep else v[:stop - start])
        a = _gelu_t(vt, gelu[:stop - start])
        np.add(a, 1.0, out=a)
        a *= 0.5
        a *= vt
        core.matmul(a, W2v, bias=b2.value, out=out2[start:stop], block=True)
    out = core.adopt(out)
    v_shape = out.shape[:-1] + (hidden,)
    b1_shape, b2_shape = b1.shape, b2.shape

    def vjp(g):
        g2 = g.reshape(-1, width)
        ga = g2 @ W2v.T        # reaching GELU's output, then v, in place
        a = np.empty(v.shape)  # GELU(v)
        t_tile, dinner_tile = np.empty((2, size, hidden))
        for start, stop in tiles:
            # dv = 0.5 (1 + t) + 0.5 v (1 - t^2) c (1 + 3 a v^2) with the
            # products and sums commuted and 1 - t^2 (a multiple of 2^-53
            # in [0, 1]) halved instead of v, bit-equal as in the forward.
            # v^2 is bounded: where the bound acts, t is +-1 and 1 - t^2
            # exactly 0, which an inf factor would turn into nan
            vt, n = v[start:stop], stop - start
            t = _gelu_t(vt, t_tile[:n])
            dinner = dinner_tile[:n]
            with np.errstate(over="ignore"):
                np.multiply(vt, vt, out=dinner)
            np.minimum(dinner, 1e300, out=dinner)
            dinner *= 3 * _GELU_A
            dinner += 1.0
            dinner *= _GELU_C
            half = np.add(t, 1.0, out=a[start:stop])
            half *= 0.5
            dv = np.multiply(t, t, out=t)
            np.subtract(1.0, dv, out=dv)
            dv *= 0.5
            dv *= vt
            dv *= dinner
            dv += half
            ga[start:stop] *= dv
            half *= vt
        return [(ga @ W1v.T).reshape(hv.shape), h2.T @ ga,
                _unbroadcast(ga.reshape(v_shape), b1_shape), a.T @ g2,
                _unbroadcast(g, b2_shape)]

    return Var(out, (h, W1, b1, W2, b2), vjp)


def _normalized(v: np.ndarray):
    """(y, inv, sq) for the normalization of v's last axis: y = (v - mean)
    * inv in a fresh buffer, inv = 1 / sqrt(var + _LN_EPS) per row, and sq, a
    second buffer of v's shape that held the squares for the variance and
    is free for the caller's use. A row whose variance overflows (inv
    would be 0 and y all zeros) raises NumericError."""
    n = v.shape[-1]
    with np.errstate(over="ignore"):
        # sum / n is what ndarray.mean computes, without its dispatch
        mu = v.sum(axis=-1, keepdims=True) / n
        y = v - mu
        sq = np.multiply(y, y)
        var = sq.sum(axis=-1, keepdims=True) / n
    if not np.isfinite(var).all():
        raise NumericError("non-finite row variance in a normalization")
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


@core.typed_shapes
def modulate(x: Var, m: Var, i: int) -> Var:
    """layernorm_rows(x) * (1 + m[i + 1]) + m[i] as one op (AdaLN): the
    rows m[i] (shift) and m[i + 1] (scale), read in place, broadcast to x;
    m's gradient is zero elsewhere. It takes two buffers, the normalized y,
    kept for the VJP, and the output, which first holds the squares.

    y is not scanned: its row variance is checked (an overflowing one
    raises NumericError), which leaves every entry of y finite, and an
    overflow in the product or the sum reaches the checked result."""
    y, inv, out = _normalized(x.value)
    y = core.adopt(y)
    factor = 1.0 + m.value[i + 1]
    np.multiply(y, factor, out=out)
    out += m.value[i]
    out = core.checked(out)
    m_shape = m.shape

    def vjp(g):
        # the VJPs of the add -> mul -> layernorm_rows chain, in its order
        gm = np.zeros(m_shape)
        gm[i + 1] = _unbroadcast(g * y, m_shape[1:])
        gm[i] = _unbroadcast(g, m_shape[1:])
        return [_normalized_vjp(g * factor, y, inv), gm]

    return Var(out, (x, m), vjp)


@core.typed_shapes
def residual(x: Var, a: Var, m: Var, i: int) -> Var:
    """x + a * m[i] as one op: the gate row m[i] is read in place, and m's
    gradient is zero elsewhere. The product takes one buffer of the
    broadcast shape, and x is added in place. a * gate is not scanned:
    inf or nan in it stays inf or nan when a finite x is added."""
    gate = m.value[i]
    out = np.empty(np.broadcast_shapes(x.shape, a.shape, gate.shape))
    np.multiply(a.value, gate, out=out)
    out += x.value
    out = core.checked(out)
    av, x_shape, m_shape = a.value, x.shape, m.shape

    def vjp(g):
        gm = np.zeros(m_shape)
        gm[i] = _unbroadcast(g * av, gate.shape)
        return [_unbroadcast(g, x_shape), _unbroadcast(g * gate, av.shape),
                gm]

    return Var(out, (x, a, m), vjp)


def mse(preds: list[Var], targets) -> Var:
    """Mean of (pred - target)^2 over preds and their same-shaped target
    arrays, as one (1, 1) op whose parents are the preds: bit for bit the
    chain sub -> mul -> sum per pair, summed in pair order and scaled by
    1 / size. Each d = pred - target is kept for the VJP, unscanned."""
    shapes = [p.shape for p in preds]
    if shapes != [np.shape(t) for t in targets]:
        raise DimensionError(f"mse: target shapes differ from {shapes}")
    diffs = [core.adopt(p.value - t) for p, t in zip(preds, targets)]
    size = sum(d.size for d in diffs)
    if not size:
        raise DimensionError("mse: the predictions hold no entries")
    total = 0.0
    for d in diffs:
        total += float(np.sum(d * d))
    c = 1.0 / size
    out = core.checked(np.array([[total * c]]))

    def vjp(g):
        s = float(g[0, 0] * c)
        # 2 (s d) is exactly (s d) + (s d), the sum mul(d, d)'s VJP makes
        return [2.0 * (s * d) for d in diffs]

    return Var(out, tuple(preds), vjp)


# ---------------------------------------------------------------------------
# backward

def _consumed(g):
    raise RuntimeError("graph already consumed by backward()")


def backward(out: Var, wrt, seed: np.ndarray | None = None
             ) -> list[np.ndarray]:
    """The gradients of `out` (seeded by `seed`, default ones) with
    respect to each leaf Var in wrt, in wrt's order, consuming the graph.

    A leaf is a Var whose node has no VJP: one made by param(), const()
    or under no_grad(). A leaf that `out` does not reach gets zeros of its
    shape; `out` itself, if a leaf in wrt, gets the seed. An inner Var in
    wrt raises ValueError before any VJP runs, since its gradient is never
    summed.

    The graph it walks is `out.node` and the nodes it links to, which
    hold no tensor: the forward values still alive are those the caller
    holds and those a VJP captured. Each inner node's links to its parents
    and its VJP are dropped as soon as the VJP has run, so each array that
    VJP captured dies then unless another VJP or the caller holds it, and,
    after the call, `out` holds only its own value. A second backward()
    through a node already consumed raises RuntimeError.

    Nodes run newest first, by Node.index: a node is made after its
    parents, so all its consumers have run before it. Its gradients are
    summed then, left to right in the order their consumers were made (the
    parts from one consumer in reverse parent order), so their bits depend
    only on the order in which the forward pass built the graph.
    """
    if any(v.node.vjp is not None for v in wrt):
        raise ValueError("backward() returns gradients of leaf Vars only")
    if seed is None:
        seed = np.ones(out.shape)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != out.shape:
        raise DimensionError(
            f"seed shape {seed.shape} != output shape {out.shape}")

    grads: dict[Node, list[np.ndarray]] = {out.node: [seed]}
    leaves: dict[Node, np.ndarray] = {}
    pending = [(-out.node.index, out.node)]
    while pending:
        node = heapq.heappop(pending)[1]
        g = functools.reduce(operator.add, reversed(grads.pop(node)))
        vjp = node.vjp
        if vjp is None:
            leaves[node] = g
            continue
        parents = node.parents
        node.parents = ()
        node.vjp = _consumed
        for p, pg in zip(parents, vjp(g)):
            parts = grads.get(p)
            if parts is None:
                grads[p] = [pg]
                heapq.heappush(pending, (-p.index, p))
            else:
                parts.append(pg)
    return [leaves[v.node] if v.node in leaves else np.zeros(v.shape)
            for v in wrt]


def global_norm(arrays) -> float:
    """sqrt of the sum of a ** 2 over every entry, summed array by array
    in a plain left fold (builtin sum() is compensated from Python 3.12,
    so it would change the last bit by version); arrays may be a
    generator, each of whose arrays dies before the next is made. A
    non-finite norm (a square that overflows is inf, not a warning)
    raises NumericError."""
    total = 0.0
    with np.errstate(over="ignore"):
        for a in arrays:
            total += float(np.sum(a ** 2))
        norm = float(np.sqrt(total))
    if not math.isfinite(norm):
        raise NumericError(f"non-finite global norm: {norm}")
    return norm


# ---------------------------------------------------------------------------
# gradient check

def fd_error(build, wrt, upstream, entries=None) -> float:
    """Largest relative error |a - f| / max(1, |f|) between the analytic
    gradient a of sum(build().value * upstream) and its central difference
    f (step 1e-5) over the entries of each Var in wrt; NaN if any error is
    NaN. entries(var), called once per Var in wrt's order, yields the index
    tuples to check (default: every entry). A Var the output does not
    reach has a zero gradient. build must draw no random numbers."""
    h, errors = 1e-5, [0.0]
    for var, grad in zip(wrt, backward(build(), wrt, upstream)):
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
