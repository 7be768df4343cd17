import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mattn import core

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def mat_strategy(rows, cols):
    return arrays(np.float64, (rows, cols), elements=finite).map(core.Mat)


@given(mat_strategy(3, 5))
def test_softmax_rows_sum_to_one(m):
    s = core.softmax_rows(m)
    assert np.max(np.abs(s.a.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(s.a >= 0.0)


def test_softmax_rows_extreme_magnitudes():
    m = core.Mat([[1e3, -1e3, 0.0], [-1e3, -1e3, -1e3]])
    s = core.softmax_rows(m)
    assert np.max(np.abs(s.a.sum(axis=1) - 1.0)) <= 1e-12


def test_matmul_hand_example():
    a = core.Mat([[1.0, 2.0], [3.0, 4.0]])
    b = core.Mat([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(core.matmul(a, b).a,
                          [[19.0, 22.0], [43.0, 50.0]])


@settings(max_examples=25)
@given(mat_strategy(2, 3), mat_strategy(3, 4), mat_strategy(4, 2))
def test_matmul_associativity(a, b, c):
    left = core.matmul(core.matmul(a, b), c).a
    right = core.matmul(a, core.matmul(b, c)).a
    scale = max(1.0, np.max(np.abs(left)))
    assert np.max(np.abs(left - right)) / scale <= 1e-10


def test_matmul_shape_mismatch():
    with pytest.raises(core.DimensionError):
        core.matmul(core.Mat(np.ones((2, 3))), core.Mat(np.ones((2, 3))))


@given(mat_strategy(3, 4), mat_strategy(3, 4))
def test_frobenius_is_trace_of_product(a, b):
    expected = np.trace(a.a.T @ b.a)
    scale = max(1.0, abs(expected))
    assert abs(core.frobenius(a, b) - expected) / scale <= 1e-12


def test_frobenius_hand_example():
    a = core.Mat([[1.0, 2.0], [3.0, 4.0]])
    b = core.Mat([[5.0, 6.0], [7.0, 8.0]])
    assert core.frobenius(a, b) == 1 * 5 + 2 * 6 + 3 * 7 + 4 * 8


def test_mat_rejects_nonfinite():
    with pytest.raises(core.NumericError):
        core.Mat([[1.0, np.inf]])
    with pytest.raises(core.NumericError):
        core.Mat([[np.nan]])


def test_mat_rejects_wrong_rank():
    with pytest.raises(core.DimensionError):
        core.Mat(np.ones(3))


def test_kernel_counter_matmul_flops():
    a = core.Mat(np.ones((3, 4)))
    b = core.Mat(np.ones((4, 5)))
    with core.count_kernels() as counter:
        core.matmul(a, b)
    assert counter.flops == 2 * 3 * 4 * 5


def test_matmul_stacks_leading_axes_and_counts_each_product():
    rng = np.random.Generator(np.random.Philox(0))
    a = core.Mat(rng.normal(size=(3, 2, 4)))
    b = core.Mat(rng.normal(size=(4, 5)))
    with core.count_kernels() as counter:
        out = core.matmul(a, b)
    assert out.shape == (3, 2, 5)
    assert counter.flops == 3 * (2 * 2 * 4 * 5)
    for t in range(3):
        assert np.array_equal(out.a[t], a.a[t] @ b.a)
    with pytest.raises(core.DimensionError):
        core.matmul(a, core.Mat(np.ones((2, 4, 5))))


def test_kernel_counter_peak_bytes_tracks_frees():
    with core.count_kernels() as counter:
        for _ in range(4):
            # temporaries die each iteration, so peak stays near one buffer
            core.matmul(core.Mat(np.ones((8, 8))), core.Mat(np.ones((8, 8))))
    assert counter.peak_live_bytes < counter.live_bytes + 4 * 3 * 8 * 8 * 8


def test_video_tokens_round_trip():
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    vt = core.VideoTokens.from_array(arr)
    assert (vt.T, vt.N, vt.D) == (2, 3, 4)
    assert np.array_equal(vt.to_array(), arr)


def test_video_tokens_rejects_ragged_frames():
    with pytest.raises(core.DimensionError):
        core.VideoTokens([core.Mat(np.ones((2, 3))),
                          core.Mat(np.ones((2, 4)))])
