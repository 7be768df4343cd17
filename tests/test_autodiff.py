import dataclasses
import threading
import weakref

import numpy as np
import pytest

from mattn import autodiff as ad
from mattn import blocks as bl
from mattn import config
from mattn import core
from mattn import diffusion as df
from mattn.core import DimensionError, NumericError


def fd_check(build, params, tol=1e-6):
    """Central-difference check of d(sum of output)/d(param) entries."""
    with ad.no_grad():
        ones = np.ones(build().shape)
    assert ad.fd_error(build, params, ones) <= tol


def rng_pair(seed, shape_x=(3, 4), shape_y=(3, 4)):
    rng = np.random.Generator(np.random.Philox(seed))
    x = ad.param(rng.normal(size=shape_x))
    y = ad.param(rng.normal(size=shape_y))
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


def gelu_mlp(d):
    """ad.mlp as GELU alone on width d: identity weights and zero biases.
    x * 1 + 0 is exact, so the output is GELU(x) bit for bit, with one
    exception: x + 0 is +0 where x is -0, so no zero leaves it negative."""
    eye, zero = ad.const(np.eye(d)), ad.const(np.zeros((1, d)))
    return lambda x: ad.mlp(x, eye, zero, eye, zero)


def test_sigmoid_gelu_gradients():
    x, _ = rng_pair(3)
    fd_check(lambda: ad.sigmoid(x), [x])
    gelu = gelu_mlp(4)
    fd_check(lambda: gelu(x), [x])


def test_layernorm_rows_gradient():
    x, _ = rng_pair(4)
    fd_check(lambda: ad.mul(ad.layernorm_rows(x), x), [x], tol=1e-5)


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

    # a rank-4 stack times a shared weight: one product each way
    x4 = ad.param(rng.normal(size=(2, 2, 3, 4)))
    fd_check(lambda: ad.mul(ad.matmul(x4, w), ad.matmul(x4, w)), [x4, w])
    # the upstream gradient of the product arrives non-contiguous
    c = ad.const(rng.normal(size=(2, 2, 2, 3)))
    fd_check(lambda: ad.mul(ad.transpose(ad.matmul(x4, w)), c), [x4, w])


@pytest.mark.parametrize("shape", [(2, 4, 4, 16), (2, 16, 64, 128),
                                   (3, 5, 7, 3)])
def test_unbroadcast_sums_each_clip_in_its_own_order(shape):
    """A clip's slice of a batched (B, 1, 1, D) or (B, 1, 1, 1) gradient
    is bit-equal to the same reduction of that clip alone to (1, D) or
    (1, 1): one summation order, whatever leading axes the operand has."""
    g = np.random.Generator(np.random.Philox(12)).normal(size=shape)
    B, D = shape[0], shape[-1]
    for batched, single in (((B, 1, 1, D), (1, D)), ((B, 1, 1, 1), (1, 1))):
        whole = ad._unbroadcast(g, batched)
        assert whole.shape == batched
        for b in range(B):
            assert np.array_equal(whole[b, 0],
                                  ad._unbroadcast(g[b], single))


def test_attention_weights_gradient():
    """softmax(scale q k^T) on a stack of (L, w) rows, with q and k
    distinct and with one Var as both."""
    rng = np.random.Generator(np.random.Philox(11))
    q = ad.param(rng.normal(size=(2, 3, 4)))
    k = ad.param(rng.normal(size=(2, 3, 4)))
    c = ad.const(rng.normal(size=(2, 3, 3)))
    fd_check(lambda: ad.mul(ad.attention_weights(q, k, 0.5), c), [q, k])
    fd_check(lambda: ad.mul(ad.attention_weights(q, q, 0.5), c), [q])


def test_linear_gradient():
    """x @ W + b on a matrix and on a (T, N, D) stack, with a (1, D)
    bias."""
    rng = np.random.Generator(np.random.Philox(13))
    w = ad.param(rng.normal(size=(4, 5)))
    b = ad.param(rng.normal(size=(1, 5)))
    for shape in ((3, 4), (2, 3, 4)):
        x = ad.param(rng.normal(size=shape))
        fd_check(lambda: ad.linear(x, w, b), [x, w, b])


def test_matrix_linear_gradient():
    """ut @ z @ W + B on a (T, N, D) clip, with an (N_out, D_out) bias."""
    rng = np.random.Generator(np.random.Philox(14))
    ut = ad.param(rng.normal(size=(2, 3)))
    z = ad.param(rng.normal(size=(2, 3, 4)))
    w = ad.param(rng.normal(size=(4, 5)))
    b = ad.param(rng.normal(size=(2, 5)))
    fd_check(lambda: ad.matrix_linear(ut, z, w, b), [ut, z, w, b])


def assert_fused_matches_chain(fused, chain, leaves, upstream):
    """The fused op's value and the gradients of every leaf equal those of
    the matmul -> add chain it replaces, bit for bit."""
    results = []
    for build in (fused, chain):
        out = build()
        results.append([out.value] + ad.backward(out, leaves, upstream))
    for f, c in zip(*results):
        assert np.array_equal(f, c)


@pytest.mark.parametrize("n_out, n", [(32, 64), (256, 64), (64, 256)])
def test_matrix_linear_matches_unfused_chain_bit_exact(n_out, n):
    """On the p128 shapes of the q/k, v and output projections."""
    rng = np.random.Generator(np.random.Philox(15))
    ut = ad.param(rng.normal(size=(n_out, n)))
    z = ad.param(rng.normal(size=(16, n, 128)))
    w = ad.param(rng.normal(size=(128, 128)))
    b = ad.param(rng.normal(size=(n_out, 128)))
    assert_fused_matches_chain(
        lambda: ad.matrix_linear(ut, z, w, b),
        lambda: ad.add(ad.matmul(ad.matmul(ut, z), w), b),
        [ut, z, w, b], rng.normal(size=(16, n_out, 128)))


@pytest.mark.parametrize("n_out, n", [(256, 64), (64, 256)])
def test_transposed_value_layout_matches_matrix_linear(n_out, n):
    """On the p128 shapes of the value and output projections, against
    matrix_linear: with transposed=True its result held as
    transpose(2, 0, 1) and the same gradients, bit for bit; and
    matrix_linear_from_t on frames held so, the same result bit for bit
    and the same gradients within 1e-10 (it sums the row weights'
    gradient over all frames in one gemm)."""
    rng = np.random.Generator(np.random.Philox(16))
    ut = ad.param(rng.normal(size=(n_out, n)))
    z = ad.param(rng.normal(size=(16, n, 128)))
    zt = ad.param(z.value.transpose(2, 0, 1))
    w = ad.param(rng.normal(size=(128, 128)))
    b = ad.param(rng.normal(size=(n_out, 128)))
    ups = rng.normal(size=(16, n_out, 128))

    def run(out, seed, inputs):
        return [out.value] + ad.backward(out, inputs, seed)

    want = run(ad.matrix_linear(ut, z, w, b), ups, [ut, z, w, b])
    got = run(ad.matrix_linear(ut, z, w, b, transposed=True),
              ups.transpose(2, 0, 1), [ut, z, w, b])
    assert np.array_equal(got[0], want[0].transpose(2, 0, 1))
    for g, w_ in zip(got[1:], want[1:]):
        assert np.array_equal(g, w_)
    got = run(ad.matrix_linear_from_t(ut, zt, w, b), ups, [ut, zt, w, b])
    got[2] = got[2].transpose(1, 2, 0)
    assert np.array_equal(got[0], want[0])
    for g, w_ in zip(got[1:], want[1:]):
        assert np.max(np.abs(g - w_)) <= 1e-10 * max(1.0, np.max(np.abs(w_)))


def test_linear_matches_unfused_chain_bit_exact():
    """On the p128 shape of the MLP's first layer."""
    rng = np.random.Generator(np.random.Philox(17))
    x = ad.param(rng.normal(size=(16, 64, 128)))
    w = ad.param(rng.normal(size=(128, 512)))
    b = ad.param(rng.normal(size=(1, 512)))
    assert_fused_matches_chain(lambda: ad.linear(x, w, b),
                               lambda: ad.add(ad.matmul(x, w), b),
                               [x, w, b], rng.normal(size=(16, 64, 512)))


def test_modulate_and_residual_gradients():
    """On a (T, N, D) clip with (1, D) shift, scale and gate rows of a
    (3, 1, D) stack, and a (1, 1) gate; every entry of the stack is
    checked, so a gradient in a row the op does not read fails."""
    rng = np.random.Generator(np.random.Philox(18))
    x = ad.param(rng.normal(size=(2, 3, 4)))
    a = ad.param(rng.normal(size=(2, 3, 4)))
    m = ad.param(rng.normal(size=(3, 1, 4)))
    fd_check(lambda: ad.mul(ad.modulate(x, m, 1), x), [x, m], tol=1e-5)
    for gates, i in ((m, 2), (ad.param(np.array([[[0.7]]])), 0)):
        fd_check(lambda: ad.mul(ad.residual(x, a, gates, i), x),
                 [x, a, gates])


def test_modulate_matches_unfused_chain_bit_exact():
    """On the p128 shape of a block's clip, with shift and scale from one
    (1, 2D) row as a block's AdaLN gives them: reshaped to a (2, 1, D)
    stack for modulate, and sliced for the const ones -> add ->
    layernorm_rows -> mul -> add chain of AdaLN."""
    rng = np.random.Generator(np.random.Philox(19))
    x = ad.param(rng.normal(size=(16, 64, 128)))
    row = ad.param(rng.normal(size=(1, 256)))

    def chain():
        shift = ad.slice_axis(row, -1, 0, 128)
        scale = ad.slice_axis(row, -1, 128, 256)
        one = ad.const(np.ones((1, 128)))
        return ad.add(ad.mul(ad.layernorm_rows(x), ad.add(one, scale)),
                      shift)

    assert_fused_matches_chain(
        lambda: ad.modulate(x, ad.reshape(row, 2, 1, 128), 0), chain,
        [x, row], rng.normal(size=(16, 64, 128)))


@pytest.mark.parametrize("gate_shape", [(1, 128), (1, 1)])
def test_residual_matches_unfused_chain_bit_exact(gate_shape):
    rng = np.random.Generator(np.random.Philox(20))
    x = ad.param(rng.normal(size=(16, 64, 128)))
    a = ad.param(rng.normal(size=(16, 64, 128)))
    gate = ad.param(rng.normal(size=gate_shape))
    assert_fused_matches_chain(
        lambda: ad.residual(x, a, ad.reshape(gate, 1, *gate_shape), 0),
        lambda: ad.add(x, ad.mul(a, gate)),
        [x, a, gate], rng.normal(size=(16, 64, 128)))


def test_layernorm_rows_matches_formula_bit_exact():
    """Value and VJP equal the textbook expressions, evaluated as written."""
    rng = np.random.Generator(np.random.Philox(21))
    v = rng.normal(size=(16, 64, 128)) * 3.0 + 1.0
    g = rng.normal(size=v.shape)
    n = v.shape[-1]
    xc = v - v.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((xc ** 2).sum(axis=-1, keepdims=True) / n + 1e-6)
    y = xc * inv
    gm = g.sum(axis=-1, keepdims=True) / n
    gy = (g * y).sum(axis=-1, keepdims=True) / n
    x = ad.param(v)
    out = ad.layernorm_rows(x)
    [grad] = ad.backward(out, [x], g)
    assert np.array_equal(out.value, y)
    assert np.array_equal(grad, inv * (g - gm - y * gy))


def gelu_entries(rng):
    """p128 MLP hidden entries, the first of them special values."""
    v = rng.normal(size=(16, 64, 512)) * 2.0
    special = [0.0, -0.0, 30.0, -30.0, 1e-300, -1e-300, 1e-310, -5e-324,
               1e-17, -1e-8]
    v.flat[:len(special)] = special
    return v


def test_gelu_matches_formula_bit_exact():
    """Value and VJP equal the tanh-form expressions as written, at 0,
    +-30, tiny and subnormal entries too, with and without no_grad."""
    rng = np.random.Generator(np.random.Philox(22))
    v = gelu_entries(rng)
    g = rng.normal(size=v.shape)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (v + 0.044715 * (v * v * v)))
    want = 0.5 * v * (1.0 + t)
    dinner = c * (1.0 + 3 * 0.044715 * v ** 2)
    dv = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t ** 2) * dinner
    x = ad.param(v)
    gelu = gelu_mlp(v.shape[-1])
    out = gelu(x)
    [grad] = ad.backward(out, [x], g)
    assert np.array_equal(out.value, want)
    assert np.array_equal(grad, g * dv)
    with ad.no_grad():
        assert np.array_equal(gelu(x).value, want)
    # the zero bias turns a -0 into +0, as it does in want + 0
    assert np.array_equal(np.signbit(out.value), np.signbit(want + 0.0))


def test_gelu_counts_the_buffer_its_vjp_keeps():
    """Under a graph the VJP keeps v, one more buffer of x's size and the
    only one, alive until backward() consumes the graph; under no_grad()
    it keeps nothing: the tile scratch dies with the call."""
    x = ad.param(np.linspace(-3.0, 3.0, 24).reshape(4, 6))
    size = x.value.nbytes
    gelu = gelu_mlp(6)
    with core.count_kernels() as counter:
        out = gelu(x)
        assert counter.live_bytes == 2 * size
        ad.backward(out, [x])
        assert counter.live_bytes == size
        with ad.no_grad():
            out = gelu(x)
        assert counter.live_bytes == size


def test_fused_block_ops_reject_mismatched_shapes():
    """Rows of the conditioning stack that do not broadcast to x, and an
    a that does not match x."""
    x = ad.const(np.ones((2, 3, 4)))
    for row in ((1, 5), (2, 4), (3, 3, 4)):
        with pytest.raises(DimensionError, match="modulate"):
            ad.modulate(x, ad.const(np.ones((2, *row))), 0)
    for a, gate in (((2, 3, 5), (1, 5)), ((2, 3, 4), (1, 3))):
        with pytest.raises(DimensionError, match="residual"):
            ad.residual(x, ad.const(np.ones(a)),
                        ad.const(np.ones((1, *gate))), 0)


def test_fused_block_ops_raise_on_nonfinite_results():
    """An overflow in an unscanned product reaches the checked result:
    residual's a * gate, and modulate's y * (1 + scale), whose row has a
    finite variance (so the row-variance check passes) and a finite y
    that a huge factor 1 + scale takes past the float range."""
    big = ad.const(np.full((1, 2), 1e300))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.residual(big, big, ad.const(np.full((1, 1, 2), 1e300)), 0)
    x = ad.const([[1.0, -1.0, 0.0]])
    zero_huge = ad.const([[[0.0] * 3], [[1.7e308] * 3]])
    with np.errstate(over="ignore"), pytest.raises(NumericError) as raised:
        ad.modulate(x, zero_huge, 0)
    assert "row variance" not in str(raised.value)


def test_gelu_of_an_overflowing_cube_is_exact_and_quiet():
    """No RuntimeWarning (an error under this suite's settings) escapes,
    and the result is the formula's limit."""
    assert np.array_equal(gelu_mlp(2)(ad.const([[1e200, -1e200]])).value,
                          [[1e200, 0.0]])


def test_sigmoid_of_an_overflowing_exp_is_exact_and_quiet():
    assert np.array_equal(ad.sigmoid(ad.const([[-1e3, 1e3]])).value,
                          [[0.0, 1.0]])


def test_gelu_gradient_takes_its_limits_at_huge_inputs():
    """The formula's limits 1 and 0, not the nan of 0 * inf, and a finite
    entry's gradient keeps its bits."""
    x, small = ad.param([[1e200, -1e200, 3.0]]), ad.param([[3.0]])
    [grad] = ad.backward(gelu_mlp(3)(x), [x])
    [small_grad] = ad.backward(gelu_mlp(1)(small), [small])
    assert np.array_equal(grad, [[1.0, 0.0, small_grad[0, 0]]])


def mlp_params(rng, rows, d, hidden):
    """h, W1, b1, W2, b2 for ad.mlp on rows of width d, with GELU's input
    on both of its curved sides."""
    return [ad.param(rng.normal(size=shape) * scale) for shape, scale in (
        ((rows, d), 2.0), ((d, hidden), 1.0), ((1, hidden), 1.0),
        ((hidden, d), 1.0 / hidden), ((1, d), 1.0))]


@pytest.mark.parametrize("rows, tiles", [
    (1, [1]), (2, [2]), (255, [255]), (256, [256]), (257, [257]),
    (513, [256, 257]), (1024, [256] * 4)])
def test_mlp_tiles_match_one_tile_bit_for_bit(monkeypatch, rows, tiles):
    """Tiles of _MLP_ROWS rows, a 1-row remainder merged into the tile
    before it, give the one-tile output and all five gradients bit for
    bit."""
    assert [b - a for a, b in ad._row_tiles(rows)] == tiles
    rng = np.random.Generator(np.random.Philox([27, rows]))
    params = mlp_params(rng, rows, 8, 32)
    g = rng.normal(size=(rows, 8))

    def run():
        out = ad.mlp(*params)
        return [out.value] + ad.backward(out, params, g)

    tiled = run()
    monkeypatch.setattr(ad, "_MLP_ROWS", rows)
    assert len(ad._row_tiles(rows)) == 1
    for a, b in zip(tiled, run()):
        assert np.array_equal(a, b)


def test_mlp_gradients_across_tiles(monkeypatch):
    """Central differences of every input, over stacked rows in two
    tiles, the second with a merged remainder."""
    monkeypatch.setattr(ad, "_MLP_ROWS", 2)
    rng = np.random.Generator(np.random.Philox(28))
    params = mlp_params(rng, 5, 3, 4)
    params[0] = ad.param(params[0].value.reshape(1, 5, 3))
    upstream = rng.normal(size=(1, 5, 3))
    assert [b - a for a, b in ad._row_tiles(5)] == [2, 3]
    assert ad.fd_error(lambda: ad.mlp(*params), params, upstream) <= 1e-6


def test_mlp_raises_on_nonfinite_results():
    """An overflow in v, which is scanned tile by tile, and one in the
    output, whose GELU input is finite."""
    rng = np.random.Generator(np.random.Philox(29))
    h, W1, b1, W2, b2 = mlp_params(rng, 4, 3, 5)
    huge = ad.const(np.full((3, 5), 1e308))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.mlp(h, huge, b1, W2, b2)
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.mlp(h, W1, b1, ad.const(np.full((5, 3), 1e308)), b2)


def test_mlp_rejects_mismatched_weights():
    """A W1 or W2 that does not fit fails in the product that reads it,
    and the error names that product and both operands' shapes."""
    rng = np.random.Generator(np.random.Philox(30))
    h, W1, b1, W2, b2 = mlp_params(rng, 4, 3, 5)
    with pytest.raises(DimensionError,
                       match=r"^matmul: a \(4, 3\), b \(2, 5\)"):
        ad.mlp(h, ad.const(np.ones((2, 5))), b1, W2, b2)
    with pytest.raises(DimensionError,
                       match=r"^matmul: a \(4, 5\), b \(6, 3\)"):
        ad.mlp(h, W1, b1, ad.const(np.ones((6, 3))), b2)


@pytest.mark.parametrize("op", [
    ad.layernorm_rows,
    lambda x: ad.modulate(x, ad.const(np.zeros((2, 1, 3))), 0)],
    ids=["layernorm_rows", "modulate"])
def test_normalization_raises_on_overflowing_row_variance(op):
    """Every entry is finite but the row variance overflows to inf, which
    would make inv 0 and the row a finite all-zero one (modulate: only its
    shift): the variance check raises instead, and no RuntimeWarning
    (an error under this suite's settings) escapes before it."""
    with pytest.raises(NumericError, match="row variance"):
        op(ad.const([[1e200, -1e200, 0.0]]))


@pytest.mark.parametrize("op", [
    lambda: ad.softmax_rows(ad.const([[1e308, -1e308]])),
    lambda: ad.attention_weights(ad.const([[1.0], [1.0]]),
                                 ad.const([[1e308], [-1e308]]), 1.0)],
    ids=["softmax_rows", "attention_weights"])
def test_softmax_of_an_overflowing_spread_is_exact_and_quiet(op):
    """A difference from the row maximum that overflows is -inf and exps
    to the exact 0; no RuntimeWarning escapes."""
    p = op().value
    assert np.array_equal(p, np.broadcast_to([[1.0, 0.0]], p.shape))


def test_matrix_linear_nonfinite_intermediate_raises():
    """ut @ z overflows although ut and z are finite: the unscanned
    intermediate holds inf (and, with mixed signs, nan), and the check of
    the result catches it, even through a zero weight column."""
    z = ad.const(np.full((2, 3, 4), 1e200))
    w = ad.const(np.hstack([np.zeros((4, 1)), np.ones((4, 2))]))
    b = ad.const(np.zeros((2, 3)))
    for row in ([1e200, 1e200, 1e200], [1e200, -1e200, 1.0]):
        ut = ad.const(np.array([row, [1.0, 1.0, 1.0]]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError):
            ad.matrix_linear(ut, z, w, b)


def test_fused_ops_reject_mismatched_bias():
    x = ad.const(np.ones((2, 3, 4)))
    w = ad.const(np.ones((4, 5)))
    ut = ad.const(np.ones((2, 3)))
    for bias in ((1, 6), (2, 5), (3, 1, 5)):
        with pytest.raises(DimensionError):
            ad.linear(x, w, ad.const(np.ones(bias)))
    for bias in ((2, 6), (3, 5), (3, 2, 5)):
        with pytest.raises(DimensionError):
            ad.matrix_linear(ut, x, w, ad.const(np.ones(bias)))


def test_rearranged_tensors_stay_contiguous_read_only_and_counted():
    """reshape, transpose, slice_axis and concat adopt their results
    without a finiteness scan; a result is still C-contiguous and
    read-only, a copy is counted as live, and a view (which has no bytes
    of its own) keeps its base, already counted, alive."""
    rng = np.random.Generator(np.random.Philox(16))
    with core.count_kernels() as counter:
        x = ad.const(rng.normal(size=(2, 3, 4)))
        y = ad.const(rng.normal(size=(2, 3, 4)))
        cases = [(lambda: ad.transpose(x, 1, 0, 2), True),
                 (lambda: ad.transpose(x), True),
                 (lambda: ad.slice_axis(x, -1, 1, 3), True),
                 (lambda: ad.concat([x, y], 1), True),
                 (lambda: ad.concat([x, y], 0), True),
                 (lambda: ad.reshape(x, 6, 4), False),
                 (lambda: ad.slice_axis(x, 0, 1, 2), False)]
        for build, copies in cases:
            before = counter.live_bytes
            out = build().value
            assert out.flags.c_contiguous and not out.flags.writeable
            assert (out.base is None) == copies
            grown = out.nbytes if copies else 0
            assert counter.live_bytes == before + grown
            del out
            assert counter.live_bytes == before


def test_broadcast_shape_mismatch_raises():
    x = ad.const(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        ad.add(x, ad.const(np.ones((3, 3))))
    with pytest.raises(DimensionError):
        ad.matmul(x, ad.const(np.ones((3, 4))))


def ones(*shape):
    return ad.const(np.ones(shape))


@pytest.mark.parametrize("build, message", [
    (lambda: ad.concat([ones(2, 3), ones(2, 4)], 0),
     "concat: xs [(2, 3), (2, 4)] ("),
    (lambda: ad.transpose(ones(2, 3, 4), 1, 0), "transpose: x (2, 3, 4) ("),
    (lambda: ad.matrix_linear(ones(2, 3), ones(3, 4), ones(4, 5), ones(2, 5),
                              transposed=True),
     "matrix_linear: ut (2, 3), z (3, 4), W (4, 5), B (2, 5) ("),
    (lambda: ad.matrix_linear_from_t(ones(2, 3), ones(4, 3), ones(4, 5), ones(2, 5)),
     "matrix_linear_from_t: ut (2, 3), zt (4, 3), W (4, 5), B (2, 5) ("),
    (lambda: ad.head_values(ones(1, 2, 2, 2), ones(3, 2, 2), 1, 2),
     "head_values: w (1, 2, 2, 2), vt (3, 2, 2) ("),
    (lambda: ad.sub(ones(2, 3), ones(3, 3)), "sub: x (2, 3), y (3, 3) ("),
], ids=["concat", "transpose", "matrix_linear_transposed",
        "matrix_linear_from_t", "head_values", "sub"])
def test_shape_failures_name_the_op_and_its_operands(build, message):
    """A shape failure reaches the caller as a DimensionError that names
    the op and each operand's shape, then the failure's message: numpy's
    reason, or, for matrix_linear's transposed layout of 2-D frames, the
    unpack of a shape with too few axes."""
    with pytest.raises(DimensionError) as raised:
        build()
    assert str(raised.value).startswith(message)
    assert str(raised.value).endswith(")")


def test_reshape_transpose_gradient():
    x, _ = rng_pair(9, (2, 6), (1, 1))
    fd_check(lambda: ad.mul(ad.reshape(ad.transpose(x), 3, 4),
                            ad.const(np.arange(12.0).reshape(3, 4))), [x])
    with pytest.raises(DimensionError, match="cannot reshape"):
        ad.reshape(x, 5, 2)


def test_gradient_accumulates_over_reuse():
    x = ad.param(np.array([[2.0]]))
    out = ad.add(ad.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
    [grad] = ad.backward(out, [x])
    assert grad[0, 0] == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("order, nest, grad", [
    ((0, 1, 2), "left", 0.0), ((2, 1, 0), "right", 1.0)],
    ids=["made_a_b_c", "made_c_b_a"])
def test_backward_sums_in_the_order_consumers_were_made(order, nest, grad):
    """x reaches the output through a = x * 1, b = x * 1e16 and
    c = x * -1e16, and its gradient sums theirs left to right in the order
    they were made, whatever the graph above them: made a, b, c,
    (1 + 1e16) - 1e16 is 0; made c, b, a, (-1e16 + 1e16) + 1 is 1."""
    x = ad.param([[1.0]])
    factors = (1.0, 1e16, -1e16)
    made = {i: ad.mul(x, ad.const([[factors[i]]])) for i in order}
    a, b, c = made[0], made[1], made[2]
    out = ad.add(ad.add(a, b), c) if nest == "left" else ad.add(a, ad.add(b, c))
    assert ad.backward(out, [x])[0][0, 0] == grad


def test_mse_matches_formula_bit_for_bit():
    """mse over a 3-clip batch: the clips' sums of squares added in clip
    order and scaled by 1 / size, and the gradient (s d) + (s d) with
    s = upstream / size reaching each prediction, bit for bit."""
    rng = np.random.Generator(np.random.Philox(17))
    preds = [ad.param(rng.normal(size=(2, 3, 4))) for _ in range(3)]
    targets = rng.normal(size=(3, 2, 3, 4))
    loss = ad.mse(preds, targets)
    assert loss.node.parents == tuple(p.node for p in preds)
    grads = ad.backward(loss, preds, np.full((1, 1), 0.37))

    diffs = [p.value - t for p, t in zip(preds, targets)]
    total = 0.0
    for d in diffs:
        total += float(np.sum(d * d))
    c = 1.0 / targets.size
    assert np.array_equal(loss.value, [[total * c]])
    s = 0.37 * c
    for grad, d in zip(grads, diffs):
        assert np.array_equal(grad, (s * d) + (s * d))

    with pytest.raises(DimensionError, match="target shapes differ"):
        ad.mse(preds[:1], np.zeros((1, 1, 3, 4)))  # broadcastable, refused
    # d is not scanned, but a non-finite target reaches the scanned loss
    for bad in (np.inf, np.nan):
        with pytest.raises(NumericError):
            ad.mse(preds[:1], np.full((1, 2, 3, 4), bad))
    # no entries, no mean: a typed error, not a ZeroDivisionError
    with pytest.raises(DimensionError, match="no entries"):
        ad.mse([], np.zeros((0, 2, 2)))


def reached(out: ad.Var) -> set:
    """The nodes of out's graph: its own and every one it links to."""
    seen, stack = set(), [out.node]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.parents)
    return seen


def test_backward_frees_the_graph():
    """After backward the loss keeps only its own value: every forward
    tensor of the graph has died, and every parameter, each reached, gets
    a gradient of its shape."""
    with core.count_kernels() as counter:
        cfg = config.block_config(config.load_config(None, ["preset=toy"]))
        model = bl.Model(cfg, seed=0)
        params = model.param_vars()
        rng = np.random.Generator(np.random.Philox(12))
        clip = rng.normal(size=(1, 4, cfg.n, cfg.d))
        eps = rng.normal(size=clip.shape)
        before = counter.live_bytes
        loss = df.nm_loss_graph(model, clip, [7], eps, df.make_schedule(50))
        assert counter.live_bytes > before + loss.value.nbytes
        assert {p.node for p in params} <= reached(loss)
        grads = ad.backward(loss, params)
        assert counter.live_bytes == before + loss.value.nbytes
    assert loss.node.parents == ()
    assert [g.shape for g in grads] == [p.shape for p in params]

    x = ad.param(np.ones((2, 2)))
    c = ad.const(np.full((2, 2), 3.0))
    inner = ad.mul(x, c)
    x_grad, c_grad = ad.backward(inner, [x, c])
    assert inner.node.parents == ()
    assert np.array_equal(x_grad, c.value)
    assert np.array_equal(c_grad, x.value)


def test_backward_gives_zeros_to_a_leaf_out_does_not_reach():
    x, y = ad.param([[2.0, 3.0]]), ad.param(np.ones((2, 1)))
    x_grad, y_grad = ad.backward(ad.mul(x, x), [x, y])
    assert np.array_equal(x_grad, [[4.0, 6.0]])
    assert np.array_equal(y_grad, np.zeros((2, 1)))


def test_backward_refuses_an_inner_var_before_any_vjp_runs():
    """An inner Var's gradient is never summed, so asking for it is an
    error, raised before the graph is touched: a correct call after it
    still succeeds."""
    x = ad.param([[2.0]])
    inner = ad.mul(x, x)
    out = ad.mul(inner, x)
    with pytest.raises(ValueError, match="leaf"):
        ad.backward(out, [x, inner])
    assert out.node.parents == (inner.node, x.node)
    assert np.array_equal(ad.backward(out, [x])[0], [[12.0]])


def test_backward_gives_the_seed_to_an_out_that_is_a_leaf_in_wrt():
    x = ad.param([[1.0, 2.0]])
    seed = np.array([[0.5, -3.0]])
    [grad] = ad.backward(x, [x], seed)
    assert np.array_equal(grad, seed)


def test_a_value_no_vjp_reads_dies_before_backward():
    """In (x + c1) + c2, as Model.forward adds its positions, no VJP reads
    the inner sum: it dies with its last forward reference, before
    backward(), and the gradients are bit for bit those of the chain with
    the inner sum kept alive."""
    rng = np.random.Generator(np.random.Philox(23))
    x0, c10, c20 = (rng.normal(size=s) for s in ((2, 4, 8), (4, 8),
                                                    (2, 1, 8)))
    g = rng.normal(size=(2, 4, 8))
    grads = []
    for keep in (True, False):
        x, c1, c2 = ad.param(x0), ad.const(c10), ad.const(c20)
        inner = ad.add(x, c1)
        ref = weakref.ref(inner.value)
        out = ad.add(inner, c2)
        kept = inner if keep else None
        del inner
        assert (ref() is None) is not keep
        grads.append(ad.backward(out, [x, c1, c2], g))
        del kept
    for a, b in zip(*grads):
        assert np.array_equal(a, b)
    assert np.array_equal(grads[1][0], g)
    assert np.array_equal(grads[1][1], g.sum(axis=0))
    assert np.array_equal(grads[1][2], g.sum(axis=1, keepdims=True))


def test_backward_rejects_a_seed_of_another_shape():
    x = ad.param(np.ones((2, 2)))
    out = ad.mul(x, x)
    with pytest.raises(DimensionError, match="seed shape"):
        ad.backward(out, [x], np.ones((1, 2)))
    # the refused call left the graph unconsumed
    assert np.array_equal(ad.backward(out, [x])[0], 2.0 * x.value)


def test_second_backward_through_consumed_graph_raises():
    x = ad.param(np.ones((2, 2)))
    inner = ad.mul(x, x)
    ad.backward(inner, [x])
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(inner, [x])
    # a new graph over a consumed node fails too, not with stale gradients
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(ad.add(inner, x), [x])


def test_softmax_rows_result_is_not_rescanned(monkeypatch):
    """The softmax of a checked tensor is finite, so it is adopted
    without a finiteness scan."""
    x = ad.const(np.array([[1.0, -700.0, 2.0], [3.0, 3.0, 1e300]]))
    scans = []
    check = core._check_finite
    monkeypatch.setattr(core, "_check_finite",
                        lambda arr: scans.append(1) or check(arr))
    p = ad.softmax_rows(x)
    assert scans == []
    assert np.allclose(p.value.sum(axis=-1), 1.0)


def run_in_thread(fn):
    """fn() in a new thread, joined with a timeout."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def test_no_grad_stays_in_its_context():
    """A thread started inside no_grad() records its graph."""
    x = ad.param(np.ones((2, 2)))
    with ad.no_grad():
        y = run_in_thread(lambda: ad.mul(x, x))
        assert ad.mul(x, x).node.parents == ()
    assert y.node.parents == (x.node, x.node)


def test_count_kernels_stays_in_its_context():
    """A thread started inside count_kernels() is not counted."""
    a = np.ones((4, 4))
    with core.count_kernels() as counter:
        run_in_thread(lambda: core.matmul(a, a))
        assert counter.flops == 0 and counter.peak_live_bytes == 0
        kept = core.matmul(a, a)
    assert counter.flops == 2 * 4 * 4 * 4
    assert counter.live_bytes == kept.nbytes


def test_no_grad_drops_tape():
    x = ad.param(np.ones((2, 2)))
    with ad.no_grad():
        y = ad.matmul(x, x)
    assert y.node.parents == ()


def test_nonfinite_result_raises():
    x = ad.param(np.array([[1e308]]))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.mul(x, x)


def test_outside_values_reject_nonfinite():
    x = ad.param(np.ones((1, 2)))
    for enter in (ad.const, ad.param, x.set_value):
        for bad in ([[1.0, np.inf]], [[np.nan]]):
            with pytest.raises(NumericError):
                enter(bad)


def test_outside_values_reject_rank_one():
    x = ad.param(np.ones((1, 3)))
    for enter in (ad.const, ad.param, x.set_value):
        with pytest.raises(DimensionError):
            enter(np.ones(3))


def test_outside_values_are_copied_read_only():
    a = np.ones((2, 2))
    x = ad.param(a)
    x.set_value(a)
    a[0, 0] = 5.0
    assert x.value[0, 0] == 1.0
    assert not x.value.flags.writeable


def test_named_params_walks_fields_in_order():
    @dataclasses.dataclass
    class Inner:
        W: ad.Var
        b: ad.Var | None = None
        mode: str = "none"

    @dataclasses.dataclass
    class Outer:
        z: ad.Var
        global_: Inner
        skipped: Inner | None
        a: Inner
        count: int = 3

    z, w1, w2, b2 = (ad.param(np.ones((1, 1))) for _ in range(4))
    tree = Outer(z=z, global_=Inner(w1), skipped=None, a=Inner(w2, b2))
    got = list(ad.named_params(tree, "m."))
    assert [n for n, _ in got] == ["m.z", "m.global.W", "m.a.W", "m.a.b"]
    assert all(v is want for (_, v), want in zip(got, (z, w1, w2, b2)))
