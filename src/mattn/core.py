"""Dense f64 tensor kernels and the sampled-clip container.

Everything downstream (attention variants, blocks, diffusion, cost model)
is built on these kernels. A tensor is a plain numpy float64 array of rank
>= 2 that `checked` has made C-contiguous, finite and read-only; its
trailing two axes form the matrices the kernels act on and its leading
axes stack them. A clip is one (T, N, D) tensor: T frames of N tokens with
D features; a dataset or batch of clips is one (B, T, N, D) tensor, and
`VideoTokens` wraps only a sampled clip. Every public operation leaves
only finite entries behind; each entry is scanned once, where it is
computed (see `adopt`). Every matrix product routes through one counted
kernel, so an active KernelCounter sees every multiply-add and every
buffer allocation.
"""
from __future__ import annotations

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
    arr = np.ascontiguousarray(arr)
    _check_finite(arr)
    return adopt(arr)


def adopt(arr: np.ndarray) -> np.ndarray:
    """`checked` without the finiteness scan, for entries that are scanned
    elsewhere: entries of tensors moved but not computed (a reshape,
    transpose, slice or concat), or an intermediate every entry of which
    reaches a result that is checked."""
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    counter = _ACTIVE_COUNTER.get()
    # a view costs nothing: its base stays counted while the view keeps it
    # alive
    if counter is not None and arr.base is None:
        counter.on_alloc(arr.nbytes)
        weakref.finalize(arr, counter.on_free, arr.nbytes)
    return arr


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericError("non-finite entries in tensor")


# ---------------------------------------------------------------------------
# kernels

def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the trailing two axes, leading axes broadcast; counted
    as 2*m*k*n per stacked product.

    A stack times a shared 2-D weight runs as one gemm over all stacked
    rows, still counted as the sum of 2*m*k*n over the stack. It writes
    into a fresh buffer, which `checked` then counts as live (a reshaped
    view of the gemm's result would have a base, and go uncounted)."""
    n = b.shape[-1]
    try:
        if b.ndim == 2 and a.ndim > 2:
            k = a.shape[-1]
            out = np.empty(a.shape[:-1] + (n,))
            np.matmul(a.reshape(-1, k), b, out=out.reshape(-1, n))
        else:
            out = np.matmul(a, b)
    except ValueError as exc:
        raise DimensionError(
            f"matmul shape mismatch: {a.shape} x {b.shape}") from exc
    counter = _ACTIVE_COUNTER.get()
    if counter is not None and n:
        counter.on_matmul(out.size // n, a.shape[-1], n)
    return out


def matmul(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None,
           check: bool = True) -> np.ndarray:
    """Stacked matrix product over the trailing two axes, with `bias`, if
    given, added in place into the product, whose shape it must broadcast
    to. With check=False the result is adopted unscanned (see `adopt`)."""
    out = _product(a, b)
    if bias is not None:
        try:
            out += bias
        except ValueError as exc:
            raise DimensionError(
                f"bias {np.shape(bias)} does not broadcast to the product "
                f"{out.shape}") from exc
    return checked(out) if check else adopt(out)


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
    overflow safety."""
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
