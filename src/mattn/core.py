"""Dense f64 tensor kernels and the sampled-clip container.

Everything downstream (attention variants, blocks, diffusion, cost model)
is built on these kernels. A tensor is a plain numpy float64 array of rank
>= 2 that `checked` has made C-contiguous, finite and read-only; its
trailing two axes form the matrices the kernels act on and its leading
axes stack them. A clip is one (T, N, D) tensor: T frames of N tokens with
D features; a dataset or batch of clips is one (B, T, N, D) tensor, and
`VideoTokens` wraps only a sampled clip. Every public operation leaves
only finite entries behind; each entry is scanned once, where it is
computed (see `adopt`). Every forward matrix product routes through one
counted kernel, so an active KernelCounter sees every forward multiply-add
and every tensor's buffer; the vector-Jacobian products of `autodiff` use
raw numpy and are not counted. `keep_heap` is the one process-wide
setting: it keeps freed heap in the process, for training loops.
"""
from __future__ import annotations

import functools
import inspect
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Shape disagreement between operands."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class NumericError(ArithmeticError):
    """Non-finite value produced where the contract forbids it."""


def typed_shapes(fn):
    """Re-raise any ValueError from `fn` (numpy's shape failure, or an
    unpack of a shape with too few axes) as a DimensionError naming `fn`,
    each operand's shape and the error's message. mattn's own errors pass
    through unchanged, so an op whose inner `matmul` fails reports that
    product: `matmul: a ..., b ... (...)`."""
    @functools.wraps(fn)
    def typed(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DimensionError, ConfigError):
            raise
        except ValueError as exc:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            shapes = ", ".join(
                f"{k} {_shape(a)}" for k, a in bound.arguments.items()
                if isinstance(a, list) or hasattr(a, "shape"))
            raise DimensionError(f"{fn.__name__}: {shapes} ({exc})") from exc
    return typed


def _shape(a):
    return [x.shape for x in a] if isinstance(a, list) else a.shape


# ---------------------------------------------------------------------------
# kernel instrumentation

@dataclass
class KernelCounter:
    """Counts matmul FLOPs (2*m*k*n per product) and live buffer bytes."""

    flops: int = 0
    live_bytes: int = 0
    peak_live_bytes: int = 0

    def on_matmul(self, m: int, k: int, n: int) -> None:
        self.flops += 2 * m * k * n

    def on_alloc(self, nbytes: int) -> None:
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes

    def on_free(self, nbytes: int) -> None:
        self.live_bytes -= nbytes


_ACTIVE_COUNTER: ContextVar[KernelCounter | None] = ContextVar(
    "active_counter", default=None)


@contextmanager
def count_kernels():
    """Enable FLOPs and live-byte accounting for tensors checked in this
    scope. The counter belongs to the current context: a thread started
    inside the scope runs in a fresh context and is not counted."""
    counter = KernelCounter()
    token = _ACTIVE_COUNTER.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTER.reset(token)


def checked(arr: np.ndarray) -> np.ndarray:
    """Adopt a freshly computed float64 array, or a view of a tensor, as a
    tensor: C-contiguous (a non-contiguous view is copied), finite or
    NumericError, read-only, and counted as live by the active counter.

    The array is adopted, not copied, so a caller passing outside data
    must pass its own copy."""
    _check_finite(arr)
    return adopt(arr)


def adopt(arr: np.ndarray) -> np.ndarray:
    """`checked` without the finiteness scan, for entries that are scanned
    elsewhere: entries of tensors moved but not computed (a reshape,
    transpose, slice or concat), or an intermediate every entry of which
    reaches a result that is checked."""
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    # a view costs nothing: its base stays counted while the view keeps it
    # alive
    if arr.base is None:
        _count(arr)
    return arr


def scratch(shape) -> np.ndarray:
    """A fresh, writable float64 buffer for an op's intermediate entries,
    counted as live by the active counter while it lives."""
    return _count(np.empty(shape))


def _count(arr: np.ndarray) -> np.ndarray:
    counter = _ACTIVE_COUNTER.get()
    if counter is not None:
        counter.on_alloc(arr.nbytes)
        weakref.finalize(arr, counter.on_free, arr.nbytes)
    return arr


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericError("non-finite entries in tensor")


# glibc's mallopt parameters, and the ceilings its dynamic thresholds move
# toward: DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, and trim = 2 x mmap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def keep_heap() -> None:
    """Keep freed heap memory in this process for reuse instead of
    returning it to the OS, so a loop whose iterations free and allocate
    the same tens of MiB does not page-fault them in again each time.

    Sets glibc's mmap threshold to 32 MiB and its trim threshold to
    64 MiB through `mallopt`. Setting either one turns glibc's dynamic
    thresholds off, so both are set. The setting is process-wide and
    lasts until the process exits. Where the C library has no `mallopt`
    (musl, macOS), or cannot be loaded by `CDLL(None)` (Windows), this
    does nothing."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


# ---------------------------------------------------------------------------
# kernels

def _product(a: np.ndarray, b: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """a @ b over the trailing two axes, leading axes broadcast, written
    into `out` if given; counted as 2*m*k*n per stacked product.

    An operand or `out` may be a strided view whose matrices BLAS reads or
    writes in place, such as a transposed matrix or a head view: numpy's
    stacked matmul hands their strides to the gemm and copies nothing. A
    C-contiguous stack times a shared 2-D weight, with no `out`, runs as
    one gemm over all stacked rows, still counted as the sum of 2*m*k*n
    over the stack. It writes into a fresh buffer, which `checked` then
    counts as live (a reshaped view of the gemm's result would have a
    base, and go uncounted)."""
    n = b.shape[-1]
    if out is None and b.ndim == 2 and a.ndim > 2 and a.flags.c_contiguous:
        k = a.shape[-1]
        product = np.empty(a.shape[:-1] + (n,))
        np.matmul(a.reshape(-1, k), b, out=product.reshape(-1, n))
    else:
        product = np.matmul(a, b, out=out)
    counter = _ACTIVE_COUNTER.get()
    if counter is not None and n:
        counter.on_matmul(product.size // n, a.shape[-1], n)
    return product


@typed_shapes
def matmul(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None,
           check: bool = True, out: np.ndarray | None = None,
           block: bool = False) -> np.ndarray:
    """Stacked matrix product over the trailing two axes, with `bias`, if
    given, added in place into the result, whose shape it must broadcast
    to. With check=False the result is adopted unscanned (see `adopt`).

    `out`, if given, is a writable view that covers a fresh C-contiguous
    buffer entry for entry, such as a transposed or head view of it: the
    product is written through the view, and the buffer is the result.
    With block=True, `out` is instead one C-contiguous block of a fresh
    buffer's rows, such as a row tile: the product is written into it and
    scanned unless check=False, and the block itself is returned, neither
    adopted nor counted, so the caller adopts the buffer once every block
    is written."""
    if block:
        result = out
    elif out is not None:
        result = out if out.base is None else out.base
        if result.size != out.size or not result.flags.c_contiguous:
            raise DimensionError(
                f"out {out.shape} does not cover a C-contiguous buffer")
    product = _product(a, b, out)
    if out is None:
        result = product
    if bias is not None:
        result += bias
    if check:
        _check_finite(result)
    return result if block else adopt(result)


@typed_shapes
def attention_weights(q: np.ndarray, k: np.ndarray,
                      scale: float) -> np.ndarray:
    """softmax(scale * q k^T) along the last axis, computed in place in the
    score buffer: the scores are never held next to the weights, so a
    stack of attention maps costs one buffer, not three."""
    w = _product(q, np.swapaxes(k, -1, -2))
    w *= float(scale)
    _check_finite(w)
    # a finite row gives a finite softmax, so the scan above is the only
    # one: after max subtraction each exp lies in [0, 1] (a difference
    # that overflows to -inf exps to 0) and the row maximum adds 1 to the
    # sum
    return adopt(softmax_in_place(w))


def softmax_in_place(w: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a writable array, max-subtracted for
    overflow safety; a difference that overflows is -inf and exps to the
    exact 0, so it prints no warning."""
    with np.errstate(over="ignore"):
        w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


# ---------------------------------------------------------------------------
# video container

class VideoTokens:
    """A sampled clip, `diffusion.sample`'s result: T >= 1 frames of N
    tokens with D features, one read-only (T, N, D) tensor."""

    __slots__ = ("_array",)

    def __init__(self, array) -> None:
        arr = np.array(array, dtype=np.float64, order="C")
        if arr.ndim != 3 or len(arr) < 1:
            raise DimensionError(
                f"VideoTokens requires a (T, N, D) array with T >= 1, "
                f"got shape {arr.shape}")
        self._array = checked(arr)

    def to_array(self) -> np.ndarray:
        """The clip itself, read-only."""
        return self._array
