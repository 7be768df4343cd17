import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mattn import core

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def matrices(rows, cols):
    return arrays(np.float64, (rows, cols), elements=finite)


@given(matrices(3, 5))
def test_softmax_rows_sum_to_one(m):
    s = core.softmax_in_place(m.copy())
    assert np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(s >= 0.0)


def test_softmax_rows_extreme_magnitudes():
    m = np.array([[1e3, -1e3, 0.0], [-1e3, -1e3, -1e3]])
    s = core.softmax_in_place(m)
    assert np.max(np.abs(s.sum(axis=1) - 1.0)) <= 1e-12


def test_attention_weights_scan_the_scores_once(monkeypatch):
    scans = []
    real = core._check_finite

    def counting(arr):
        scans.append(arr.shape)
        real(arr)

    monkeypatch.setattr(core, "_check_finite", counting)
    rng = np.random.Generator(np.random.Philox(0))
    q = rng.normal(size=(2, 3, 4))
    w = core.attention_weights(q, q, 0.5)
    assert scans == [(2, 3, 3)]
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) <= 1e-12
    assert not w.flags.writeable
    # scores that overflow to inf still raise
    with pytest.raises(core.NumericError), np.errstate(over="ignore"):
        core.attention_weights(np.full((1, 2, 2), 1e200),
                               np.full((1, 2, 2), 1e200), 1.0)


def test_matmul_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(core.matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])


@settings(max_examples=25)
@given(matrices(2, 3), matrices(3, 4), matrices(4, 2))
def test_matmul_associativity(a, b, c):
    left = core.matmul(core.matmul(a, b), c)
    right = core.matmul(a, core.matmul(b, c))
    scale = max(1.0, np.max(np.abs(left)))
    assert np.max(np.abs(left - right)) / scale <= 1e-10


def test_matmul_shape_mismatch():
    with pytest.raises(core.DimensionError):
        core.matmul(np.ones((2, 3)), np.ones((2, 3)))
    # keyword operands are named with their shapes, numpy's reason follows
    with pytest.raises(core.DimensionError,
                       match=r"^matmul: a \(2, 3\), b \(3, 4\), "
                             r"bias \(2, 5\) \(.+\)$"):
        core.matmul(np.ones((2, 3)), np.ones((3, 4)), bias=np.ones((2, 5)))
    with pytest.raises(core.DimensionError,
                       match=r"^matmul: a \(2, 3\), b \(3, 4\), "
                             r"out \(2, 5\) \(.+\)$"):
        core.matmul(np.ones((2, 3)), np.ones((3, 4)), out=np.empty((2, 5)))
    with pytest.raises(core.DimensionError,
                       match=r"^attention_weights: q \(2, 3\), k \(2, 4\)"):
        core.attention_weights(np.ones((2, 3)), np.ones((2, 4)), 1.0)


def test_typed_shapes_passes_mattn_errors_through():
    """Only a bare ValueError is converted: mattn's own errors, which
    subclass ValueError, keep their type and message."""
    for error in (core.ConfigError, core.DimensionError):
        @core.typed_shapes
        def op(x, error=error):
            raise error("own message")

        with pytest.raises(error, match="^own message$"):
            op(np.ones((2, 2)))
    with pytest.raises(core.DimensionError, match="^out .* does not cover"):
        core.matmul(np.ones((2, 3)), np.ones((3, 4)),
                    out=np.empty((2, 5))[:, :4])


def test_kernel_counter_matmul_flops():
    a = np.ones((3, 4))
    b = np.ones((4, 5))
    with core.count_kernels() as counter:
        core.matmul(a, b)
    assert counter.flops == 2 * 3 * 4 * 5


def test_matmul_stacks_leading_axes_and_counts_each_product():
    rng = np.random.Generator(np.random.Philox(0))
    a = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=(4, 5))
    with core.count_kernels() as counter:
        out = core.matmul(a, b)
    assert out.shape == (3, 2, 5)
    assert counter.flops == 3 * (2 * 2 * 4 * 5)
    for t in range(3):
        assert np.array_equal(out[t], a[t] @ b)
    with pytest.raises(core.DimensionError):
        core.matmul(a, np.ones((2, 4, 5)))

    # a rank-4 stack times a shared weight: the result owns its buffer,
    # so the counter sees it as live
    a4 = rng.normal(size=(2, 3, 6, 4))
    with core.count_kernels() as counter:
        out = core.matmul(a4, b)
        assert out.base is None
        assert counter.live_bytes == out.nbytes
    assert out.shape == (2, 3, 6, 5)
    assert counter.flops == 2 * 3 * (2 * 6 * 4 * 5)
    for i in range(2):
        for t in range(3):
            assert np.array_equal(out[i, t], a4[i, t] @ b)
    with pytest.raises(core.DimensionError):
        core.matmul(a4, np.ones((5, 4)))


def test_matmul_reads_strided_operands_and_writes_through_out_view():
    """A transposed stack times a transposed weight, written through a
    transposed view of a fresh buffer, against the same product on
    contiguous copies: equal bits, equal FLOPs, and the buffer as the
    result, C-contiguous, read-only and counted live once. The bias is
    added into the buffer, in its layout."""
    rng = np.random.Generator(np.random.Philox(2))
    a = rng.normal(size=(3, 5, 4)).swapaxes(-1, -2)     # (3, 4, 5)
    b = rng.normal(size=(6, 5)).T                       # (5, 6)
    bias = rng.normal(size=(4, 6))
    with core.count_kernels() as counter:
        want = core.matmul(np.ascontiguousarray(a), np.ascontiguousarray(b),
                           bias=bias)
    want_flops = counter.flops

    buf = np.empty((4, 3, 6))
    view = buf.transpose(1, 0, 2)                       # (3, 4, 6)
    with core.count_kernels() as counter:
        got = core.matmul(a, b, bias=bias[:, None], out=view)
        assert got is buf
        assert counter.live_bytes == buf.nbytes
    assert counter.flops == want_flops == 3 * (2 * 4 * 5 * 6)
    assert got.flags.c_contiguous and not got.flags.writeable
    assert np.array_equal(got.transpose(1, 0, 2), want)

    # a view that leaves part of its buffer unwritten is refused
    with pytest.raises(core.DimensionError):
        core.matmul(a, b, out=np.empty((3, 4, 7))[..., :6])


def test_kernel_counter_peak_bytes_tracks_frees():
    with core.count_kernels() as counter:
        for _ in range(4):
            # temporaries die each iteration, so peak stays at the two
            # inputs and the product of one iteration
            core.matmul(core.checked(np.ones((8, 8))),
                        core.checked(np.ones((8, 8))))
    assert counter.live_bytes == 0
    assert counter.peak_live_bytes == 3 * 8 * 8 * 8


def test_video_tokens_round_trip():
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    vt = core.VideoTokens(arr)
    assert np.array_equal(vt.to_array(), arr)


def test_video_tokens_rejects_wrong_shape():
    for bad in (np.ones((2, 3)), np.ones((2, 3, 4, 5)), np.ones((0, 3, 4))):
        with pytest.raises(core.DimensionError):
            core.VideoTokens(bad)
    with pytest.raises(core.NumericError):
        core.VideoTokens(np.full((2, 3, 4), np.nan))


def test_keep_heap_sets_both_thresholds(monkeypatch):
    """Setting either glibc threshold turns off the dynamic rule for
    both, so keep_heap sets the pair: mmap 32 MiB, trim 64 MiB."""
    import ctypes
    calls = []

    class Libc:
        def __init__(self, name):
            self.mallopt = lambda *args: calls.append(args)

    monkeypatch.setattr(ctypes, "CDLL", Libc)
    core.keep_heap()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_keep_heap_without_mallopt_does_nothing(monkeypatch):
    import ctypes

    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    assert core.keep_heap() is None
