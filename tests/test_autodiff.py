import dataclasses
import threading

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

    # a rank-4 stack times a shared weight: one product each way
    x4 = ad.param(rng.normal(size=(2, 2, 3, 4)))
    fd_check(lambda: ad.mul(ad.matmul(x4, w), ad.matmul(x4, w)), [x4, w])
    # the upstream gradient of the product arrives non-contiguous
    c = ad.const(rng.normal(size=(2, 2, 2, 3)))
    fd_check(lambda: ad.mul(ad.transpose(ad.matmul(x4, w)), c), [x4, w])


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
        ad.backward(out, upstream)
        results.append([out.value] + [leaf.grad for leaf in leaves])
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
    """On a (T, N, D) clip with (1, D) shift, scale and gate, and a (1, 1)
    gate."""
    rng = np.random.Generator(np.random.Philox(18))
    x = ad.param(rng.normal(size=(2, 3, 4)))
    a = ad.param(rng.normal(size=(2, 3, 4)))
    shift, scale, gate = (ad.param(rng.normal(size=(1, 4)))
                          for _ in range(3))
    fd_check(lambda: ad.mul(ad.modulate(x, shift, scale), x),
             [x, shift, scale], tol=1e-5)
    for g in (gate, ad.param(np.array([[0.7]]))):
        fd_check(lambda: ad.mul(ad.residual(x, a, g), x), [x, a, g])


def test_modulate_matches_unfused_chain_bit_exact():
    """On the p128 shape of a block's clip, against the const ones -> add
    -> layernorm_rows -> mul -> add chain of AdaLN."""
    rng = np.random.Generator(np.random.Philox(19))
    x = ad.param(rng.normal(size=(16, 64, 128)))
    shift = ad.param(rng.normal(size=(1, 128)))
    scale = ad.param(rng.normal(size=(1, 128)))

    def chain():
        one = ad.const(np.ones((1, 128)))
        return ad.add(ad.mul(ad.layernorm_rows(x), ad.add(one, scale)),
                      shift)

    assert_fused_matches_chain(lambda: ad.modulate(x, shift, scale), chain,
                               [x, shift, scale],
                               rng.normal(size=(16, 64, 128)))


@pytest.mark.parametrize("gate_shape", [(1, 128), (1, 1)])
def test_residual_matches_unfused_chain_bit_exact(gate_shape):
    rng = np.random.Generator(np.random.Philox(20))
    x = ad.param(rng.normal(size=(16, 64, 128)))
    a = ad.param(rng.normal(size=(16, 64, 128)))
    gate = ad.param(rng.normal(size=gate_shape))
    assert_fused_matches_chain(lambda: ad.residual(x, a, gate),
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
    ad.backward(out, g)
    assert np.array_equal(out.value, y)
    assert np.array_equal(x.grad, inv * (g - gm - y * gy))


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
    out = ad.gelu(x)
    ad.backward(out, g)
    assert np.array_equal(out.value, want)
    assert np.array_equal(x.grad, g * dv)
    with ad.no_grad():
        assert np.array_equal(ad.gelu(x).value, want)
    assert np.array_equal(np.signbit(out.value), np.signbit(want))


def test_gelu_counts_the_buffer_its_vjp_keeps():
    """Under a graph the VJP keeps t, one more buffer of x's size, alive
    until backward() consumes the graph; under no_grad() t is the output."""
    x = ad.param(np.linspace(-3.0, 3.0, 24).reshape(4, 6))
    size = x.value.nbytes
    with core.count_kernels() as counter:
        out = ad.gelu(x)
        assert counter.live_bytes == 2 * size
        ad.backward(out)
        assert counter.live_bytes == size
        with ad.no_grad():
            out = ad.gelu(x)
        assert counter.live_bytes == size


def test_fused_block_ops_reject_mismatched_shapes():
    x = ad.const(np.ones((2, 3, 4)))
    for shift, scale in (((1, 5), (1, 4)), ((1, 4), (2, 4)),
                         ((3, 3, 4), (1, 4))):
        with pytest.raises(DimensionError):
            ad.modulate(x, ad.const(np.ones(shift)), ad.const(np.ones(scale)))
    for a, gate in (((2, 3, 5), (1, 5)), ((2, 3, 4), (1, 3))):
        with pytest.raises(DimensionError):
            ad.residual(x, ad.const(np.ones(a)), ad.const(np.ones(gate)))


def test_fused_block_ops_raise_on_nonfinite_results():
    """The unscanned a * gate of residual and y of modulate reach the
    checked result: an overflowing product, and a row whose mean
    overflows, times a zero factor 1 + scale."""
    big = ad.const(np.full((1, 2), 1e300))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.residual(big, big, big)
    zero, minus_one = ad.const(np.zeros((1, 2))), ad.const(-np.ones((1, 2)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError):
        ad.modulate(ad.const(np.full((1, 2), 1e308)), zero, minus_one)


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


def test_reshape_transpose_gradient():
    x, _ = rng_pair(9, (2, 6), (1, 1))
    fd_check(lambda: ad.mul(ad.reshape(ad.transpose(x), 3, 4),
                            ad.const(np.arange(12.0).reshape(3, 4))), [x])


def test_gradient_accumulates_over_reuse():
    x = ad.param(np.array([[2.0]]))
    out = ad.sum_all(ad.add(ad.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    ad.backward(out)
    assert x.grad[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_backward_frees_the_graph():
    """After backward only the leaves keep gradients and the loss keeps
    only its own value: every forward tensor of the graph has died."""
    with core.count_kernels() as counter:
        cfg = config.block_config(config.load_config(None, ["preset=toy"]))
        model = bl.Model(cfg, seed=0)
        rng = np.random.Generator(np.random.Philox(12))
        clip = rng.normal(size=(1, 4, cfg.n, cfg.d))
        eps = rng.normal(size=clip.shape)
        before = counter.live_bytes
        loss = df.nm_loss_graph(model, clip, [7], eps, df.make_schedule(50))
        assert counter.live_bytes > before + loss.value.nbytes
        ad.backward(loss)
        assert counter.live_bytes == before + loss.value.nbytes
    assert loss.grad is None and loss.parents == ()
    assert all(p.grad is not None for p in model.param_vars())

    x = ad.param(np.ones((2, 2)))
    c = ad.const(np.full((2, 2), 3.0))
    inner = ad.mul(x, c)
    ad.backward(ad.sum_all(inner))
    assert inner.grad is None and inner.parents == ()
    assert np.array_equal(x.grad, c.value)
    assert np.array_equal(c.grad, x.value)


def test_second_backward_through_consumed_graph_raises():
    x = ad.param(np.ones((2, 2)))
    inner = ad.mul(x, x)
    out = ad.sum_all(inner)
    ad.backward(out)
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(out)
    # a new graph over a consumed node fails too, not with stale gradients
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(ad.sum_all(ad.add(inner, x)))


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
        assert ad.mul(x, x).parents == ()
    assert y.parents == (x, x)


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
