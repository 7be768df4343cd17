import numpy as np
import pytest

from mattn import autodiff as ad
from mattn.core import DimensionError, NumericError


def fd_check(build, params, h=1e-5, tol=1e-6):
    """Central-difference check of d(sum of output)/d(param) entries."""
    out = ad.sum_all(build())
    ad.backward(out)
    for p in params:
        base = p.value.copy()
        grad = p.grad.copy()
        for idx in np.ndindex(*base.shape):
            pert = base.copy()
            pert[idx] += h
            p.set_value(pert)
            with ad.no_grad():
                lp = float(ad.sum_all(build()).value[0, 0])
            pert[idx] -= 2 * h
            p.set_value(pert)
            with ad.no_grad():
                lm = float(ad.sum_all(build()).value[0, 0])
            p.set_value(base)
            fd = (lp - lm) / (2 * h)
            assert abs(grad[idx] - fd) / max(1.0, abs(fd)) <= tol


def rng_pair(seed, shape_x=(3, 4), shape_y=(3, 4)):
    rng = np.random.Generator(np.random.Philox(seed))
    x = ad.param(rng.normal(size=shape_x), "x")
    y = ad.param(rng.normal(size=shape_y), "y")
    return x, y


def test_matmul_gradient():
    x, y = rng_pair(0, (3, 4), (4, 2))
    fd_check(lambda: ad.matmul(x, y), [x, y])


def test_elementwise_gradients():
    x, y = rng_pair(1)
    fd_check(lambda: ad.mul(ad.add(x, y), ad.sub(x, y)), [x, y])


def test_softmax_rows_gradient():
    x, _ = rng_pair(2)
    fd_check(lambda: ad.mul(ad.softmax_rows(x), x), [x])


def test_sigmoid_gelu_gradients():
    x, _ = rng_pair(3)
    fd_check(lambda: ad.sigmoid(x), [x])
    fd_check(lambda: ad.gelu(x), [x])


def test_layernorm_rows_gradient():
    x, _ = rng_pair(4)
    fd_check(lambda: ad.mul(ad.layernorm_rows(x), x), [x], tol=1e-5)


def test_row_normalize_gradients():
    x, _ = rng_pair(5)
    fd_check(lambda: ad.mul(ad.l1_normalize_rows(x), x), [x])
    fd_check(lambda: ad.mul(ad.l2_normalize_rows(x), x), [x])


def test_concat_slice_gradients():
    x, y = rng_pair(6)
    fd_check(lambda: ad.slice_axis(ad.concat([x, y], 0), 0, 1, 5), [x, y])
    fd_check(lambda: ad.slice_axis(ad.concat([x, y], 1), 1, 2, 6), [x, y])


def test_rowvec_ops_gradient():
    rng = np.random.Generator(np.random.Philox(7))
    x = ad.param(rng.normal(size=(3, 4)))
    v = ad.param(rng.normal(size=(1, 4)))
    fd_check(lambda: ad.add(x, v), [x, v])
    fd_check(lambda: ad.mul(x, v), [x, v])


def test_scalar_mul_gradient():
    rng = np.random.Generator(np.random.Philox(8))
    x = ad.param(rng.normal(size=(3, 4)))
    s = ad.param(np.array([[0.7]]))
    fd_check(lambda: ad.mul(x, s), [x, s])


def test_stacked_broadcast_gradients():
    """Weights, biases and gates shared by every frame of a clip get the
    gradient summed over the frames."""
    rng = np.random.Generator(np.random.Philox(10))
    x = ad.param(rng.normal(size=(2, 3, 4)))
    w = ad.param(rng.normal(size=(4, 2)))
    u = ad.param(rng.normal(size=(3, 3)))
    b = ad.param(rng.normal(size=(1, 2)))
    s = ad.param(np.array([[0.7]]))
    fd_check(lambda: ad.mul(ad.add(ad.matmul(ad.matmul(u, x), w), b), s),
             [x, w, u, b, s])

    def permuted():
        r = ad.reshape(ad.transpose(x, 1, 0, 2), 3, 2, 2, 2)
        return ad.mul(ad.softmax_rows(r), r)

    fd_check(permuted, [x])


def test_broadcast_shape_mismatch_raises():
    x = ad.const(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        ad.add(x, ad.const(np.ones((3, 3))))
    with pytest.raises(DimensionError):
        ad.matmul(x, ad.const(np.ones((3, 4))))


def test_reshape_transpose_gradient():
    x, _ = rng_pair(9, (2, 6), (1, 1))
    fd_check(lambda: ad.mul(ad.reshape(ad.transpose(x), 3, 4),
                            ad.const(np.arange(12.0).reshape(3, 4))), [x])


def test_gradient_accumulates_over_reuse():
    x = ad.param(np.array([[2.0]]))
    out = ad.sum_all(ad.add(ad.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    ad.backward(out)
    assert x.grad[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_no_grad_drops_tape():
    x = ad.param(np.ones((2, 2)))
    with ad.no_grad():
        y = ad.matmul(x, x)
    assert y.parents == ()


def test_zero_grads():
    x = ad.param(np.ones((2, 2)))
    ad.backward(ad.sum_all(ad.mul(x, x)))
    assert x.grad is not None
    ad.zero_grads([x])
    assert x.grad is None


def test_l1_l2_guard_rows_pass_through():
    x = ad.param(np.array([[0.0, 0.0], [3.0, 4.0]]))
    with ad.no_grad():
        l1 = ad.l1_normalize_rows(x).value
        l2 = ad.l2_normalize_rows(x).value
    assert np.array_equal(l1[0], [0.0, 0.0])
    assert np.array_equal(l2[0], [0.0, 0.0])
    assert np.allclose(l1[1], [3 / 7, 4 / 7], atol=1e-15)
    assert np.allclose(l2[1], [0.6, 0.8], atol=1e-15)


def test_nonfinite_result_raises():
    x = ad.param(np.array([[1e308]]))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.mul(x, x)
