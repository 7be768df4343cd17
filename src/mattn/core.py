"""Dense f64 tensor kernels and the video-token container.

Everything downstream (attention variants, blocks, diffusion, cost model)
is built on these kernels. A value is an immutable float64 array of rank
>= 2 whose trailing two axes form the matrices the kernels act on; leading
axes stack them. A clip is one (T, N, D) tensor: T frames of N tokens with
D features. Every public operation leaves only finite entries behind.
Every matrix product routes through one counted kernel, so an active
KernelCounter sees every multiply-add and every buffer allocation.
"""
from __future__ import annotations

import weakref
from contextlib import contextmanager
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


_ACTIVE_COUNTER: KernelCounter | None = None


@contextmanager
def count_kernels():
    """Enable FLOPs and live-byte accounting for Mats created in this scope."""
    global _ACTIVE_COUNTER
    prev = _ACTIVE_COUNTER
    counter = KernelCounter()
    _ACTIVE_COUNTER = counter
    try:
        yield counter
    finally:
        _ACTIVE_COUNTER = prev


# ---------------------------------------------------------------------------
# Mat

class Mat:
    """Immutable float64 tensor of rank >= 2, row-major.

    Construction validates finiteness; internal results produced by the
    kernels below skip the copy (a reshape shares its input's buffer) but
    are still checked and registered with the active counter.
    """

    __slots__ = ("a",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim < 2:
            raise DimensionError(
                f"Mat requires rank >= 2 data, got ndim={arr.ndim}")
        _check_finite(arr)
        object.__setattr__(self, "a", arr)
        arr.flags.writeable = False
        _register(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Mat":
        """Adopt a freshly computed float64 array or a contiguous view of
        another Mat's array."""
        m = object.__new__(cls)
        arr = np.ascontiguousarray(arr)
        _check_finite(arr)
        object.__setattr__(m, "a", arr)
        arr.flags.writeable = False
        _register(arr)
        return m

    @property
    def shape(self) -> tuple[int, ...]:
        return self.a.shape

    def __repr__(self) -> str:
        return f"Mat({'x'.join(map(str, self.shape))})"


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite entries in matrix")


def _register(arr: np.ndarray) -> None:
    """Count a buffer as live until its array dies; a view costs nothing,
    its base stays counted while the view keeps it alive."""
    counter = _ACTIVE_COUNTER
    if counter is not None and arr.base is None:
        counter.on_alloc(arr.nbytes)
        weakref.finalize(arr, counter.on_free, arr.nbytes)


# ---------------------------------------------------------------------------
# kernels

def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the trailing two axes, leading axes broadcast; counted
    as 2*m*k*n per stacked product."""
    try:
        stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        stack = None
    if a.shape[-1] != b.shape[-2] or stack is None:
        raise DimensionError(
            f"matmul shape mismatch: {a.shape} x {b.shape}")
    counter = _ACTIVE_COUNTER
    if counter is not None:
        m, k = a.shape[-2:]
        counter.on_matmul(int(np.prod(stack)) * m, k, b.shape[-1])
    return np.matmul(a, b)


def matmul(a: Mat, b: Mat) -> Mat:
    """Stacked matrix product over the trailing two axes."""
    return Mat._wrap(_product(a.a, b.a))


def attention_weights(q: Mat, k: Mat, scale: float) -> Mat:
    """softmax(scale * q k^T) along the last axis, computed in place in the
    score buffer: the scores are never held next to the weights, so a
    stack of attention maps costs one buffer, not three."""
    w = _product(q.a, np.ascontiguousarray(np.swapaxes(k.a, -1, -2)))
    w *= float(scale)
    _check_finite(w)
    return Mat._wrap(_softmax_in_place(w))


def transpose(a: Mat, axes) -> Mat:
    return Mat._wrap(np.transpose(a.a, axes))


def scale(a: Mat, s: float) -> Mat:
    return Mat._wrap(a.a * float(s))


def _softmax_in_place(w: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, max-subtracted for overflow safety."""
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def softmax_rows(a: Mat) -> Mat:
    """Softmax along the last axis."""
    return Mat._wrap(_softmax_in_place(np.array(a.a)))


def frobenius(a: Mat, b: Mat) -> float:
    if a.shape != b.shape:
        raise DimensionError(
            f"frobenius shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a.a * b.a))


# ---------------------------------------------------------------------------
# video container

class VideoTokens:
    """T frames of N tokens with D features each; frames share (N, D)."""

    __slots__ = ("frames",)

    def __init__(self, frames) -> None:
        frames = tuple(frames)
        if len(frames) < 1:
            raise DimensionError("VideoTokens requires T >= 1 frames")
        shape = frames[0].shape
        for f in frames:
            if f.shape != shape:
                raise DimensionError(
                    f"frame shape mismatch: {f.shape} vs {shape}")
        object.__setattr__(self, "frames", frames)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "VideoTokens":
        if arr.ndim != 3:
            raise DimensionError("expected (T, N, D) array")
        return cls([Mat(arr[t]) for t in range(arr.shape[0])])

    def to_array(self) -> np.ndarray:
        return np.stack([f.a for f in self.frames])

    @property
    def T(self) -> int:
        return len(self.frames)

    @property
    def N(self) -> int:
        return self.frames[0].shape[0]

    @property
    def D(self) -> int:
        return self.frames[0].shape[1]

    def __repr__(self) -> str:
        return f"VideoTokens(T={self.T}, N={self.N}, D={self.D})"
