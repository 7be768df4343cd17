import numpy as np
import pytest

from mattn import attention as at
from mattn import autodiff as ad
from mattn import core


def make_frames(rng, t, n, d):
    return ad.const(rng.normal(size=(t, n, d)))


def np_softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def np_normalize_row_weights(x, mode):
    """Mixing weights normalized along the token (N) axis per column."""
    if mode == "none":
        return x
    e = np.exp(x - x.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def np_matrix_attention(frames, p):
    """Index-loop reference for single-head matrix attention."""
    def proj(z, lin):
        u = np_normalize_row_weights(lin.U.value, p.u_norm)
        return u.T @ z @ lin.W.value + lin.B.value

    zs = list(frames.value)
    q = [proj(z, p.q) for z in zs]
    k = [proj(z, p.k) for z in zs]
    v = [proj(z, p.v) for z in zs]
    t_len = len(zs)
    s = np.empty((t_len, t_len))
    for a in range(t_len):
        for b in range(t_len):
            acc = 0.0
            for i in range(q[a].shape[0]):
                for j in range(q[a].shape[1]):
                    acc += q[a][i, j] * k[b][i, j]
            s[a, b] = acc / np.sqrt(q[a].shape[0] * q[a].shape[1])
    w = np_softmax_rows(s)
    out = []
    for a in range(t_len):
        u = sum(w[a, b] * v[b] for b in range(t_len))
        out.append(proj(u, p.o))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("u_norm", ["none", "softmax"])
def test_matrix_attention_matches_index_loops(seed, u_norm):
    rng = np.random.Generator(np.random.Philox(seed))
    p = at.make_matrix_attn_params(rng, n=3, d=4, n_qk=2, n_v=3,
                                   u_norm=u_norm)
    frames = make_frames(rng, 4, 3, 4)
    with ad.no_grad():
        got = at.matrix_attention(frames, p)
    want = np_matrix_attention(frames, p)
    for g, w in zip(got.value, want):
        assert np.max(np.abs(g - w)) <= 1e-12


def np_multihead_attention(frames, p):
    """Per-head index-loop reference: slice the projected frames into the
    head grid."""
    hm, hn = p.heads_m, p.heads_n

    def proj(z, lin):
        return lin.U.value.T @ z @ lin.W.value + lin.B.value

    zs = list(frames.value)
    t = len(zs)
    q = [proj(z, p.q) for z in zs]
    k = [proj(z, p.k) for z in zs]
    v = [proj(z, p.v) for z in zs]
    nqk_h, dqk_h = p.n_qk // hm, p.d_qk // hn
    nv_h, dv_h = p.n_v // hm, p.d_v // hn
    out = []
    for a in range(t):
        u_t = np.zeros((p.n_v, p.d_v))
        for i in range(hm):
            for j in range(hn):
                qh = [f[i * nqk_h:(i + 1) * nqk_h,
                        j * dqk_h:(j + 1) * dqk_h] for f in q]
                kh = [f[i * nqk_h:(i + 1) * nqk_h,
                        j * dqk_h:(j + 1) * dqk_h] for f in k]
                vh = [f[i * nv_h:(i + 1) * nv_h,
                        j * dv_h:(j + 1) * dv_h] for f in v]
                s = np.array([[np.sum(qh[c] * kh[b]) for b in range(t)]
                              for c in range(t)]) / np.sqrt(nqk_h * dqk_h)
                w = np_softmax_rows(s)
                u_t[i * nv_h:(i + 1) * nv_h, j * dv_h:(j + 1) * dv_h] = sum(
                    w[a, b] * vh[b] for b in range(t))
        out.append(proj(u_t, p.o))
    return out


def assert_multihead_matches_index_loops(t, n_v, heads_m, heads_n):
    rng = np.random.Generator(np.random.Philox(5))
    p = at.make_matrix_attn_params(rng, n=4, d=6, n_qk=4, n_v=n_v,
                                   heads_m=heads_m, heads_n=heads_n)
    frames = make_frames(rng, t, 4, 6)
    with ad.no_grad():
        got = at.matrix_attention(frames, p)
    for g, w in zip(got.value, np_multihead_attention(frames, p)):
        assert np.max(np.abs(g - w)) <= 1e-12


def test_matrix_attention_multihead_matches_index_loops():
    assert_multihead_matches_index_loops(3, 4, 2, 3)


def test_matrix_attn_params_validated():
    """Head counts must divide the projected shapes, and u_norm must name
    a mode; N_qk = N_v = 4 and D = 6 here."""
    rng = np.random.Generator(np.random.Philox(6))
    for kw, message in (({"heads_m": 3}, "heads_m=3 must divide"),
                        ({"heads_n": 4}, "heads_n=4 must divide"),
                        ({"u_norm": "bogus"}, "unknown u_norm mode"),
                        ({"u_norm": "l1"}, "unknown u_norm mode: 'l1'"),
                        ({"u_norm": "l2"}, "unknown u_norm mode: 'l2'")):
        with pytest.raises(core.ConfigError, match=message):
            at.make_matrix_attn_params(rng, n=4, d=6, n_qk=4, n_v=4, **kw)


@pytest.mark.parametrize("t, n_v", [(3, 4), (1, 1)], ids=["3x4", "unit"])
def test_matrix_attention_column_heads_match_index_loops(t, n_v):
    """Column heads only, the presets' layout; and a single frame with a
    single value row, where numpy multiplies by gemv instead of gemm and
    transposed products may round differently."""
    assert_multihead_matches_index_loops(t, n_v, 1, 3)


def test_multihead_1x1_is_single_head_bit_exact():
    rng = np.random.Generator(np.random.Philox(11))
    p = at.make_matrix_attn_params(rng, n=3, d=4, n_qk=2, n_v=3)
    frames = make_frames(rng, 4, 3, 4)
    with ad.no_grad():
        got = at.matrix_attention(frames, p)

    # independent single-head pipeline mirroring the exact operation order
    def proj(z, lin):
        return (lin.U.value.T @ z) @ lin.W.value + lin.B.value

    q = [proj(f, p.q) for f in frames.value]
    k = [proj(f, p.k) for f in frames.value]
    v = [proj(f, p.v) for f in frames.value]
    qf = np.stack([f.reshape(-1) for f in q])
    kf = np.stack([f.reshape(-1) for f in k])
    vf = np.stack([f.reshape(-1) for f in v])
    s = (qf @ kf.T) * (1.0 / np.sqrt(q[0].size))
    u = np_softmax_rows(s) @ vf
    for t in range(4):
        want = proj(u[t].reshape(p.n_v, p.d_v), p.o)
        assert np.array_equal(got.value[t], want)


def np_dot_attention(x, p):
    q, k, v = x @ p.W_q.value, x @ p.W_k.value, x @ p.W_v.value
    s = (q @ k.T) / np.sqrt(p.d_h)
    return (np_softmax_rows(s) @ v) @ p.W_o.value


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_token_variants_match_index_loops(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    p = at.make_token_attn_params(rng, d=4, d_h=3)
    frames = make_frames(rng, 3, 2, 4)
    xs = list(frames.value)
    with ad.no_grad():
        spatial = at.spatial_attention(frames, p)
        local = at.local_temporal_attention(frames, p)
        full = at.full3d_attention(frames, p)
    for t in range(3):
        assert np.max(np.abs(spatial.value[t]
                             - np_dot_attention(xs[t], p))) <= 1e-12
    for pos in range(2):
        col = np.stack([x[pos] for x in xs])
        want = np_dot_attention(col, p)
        for t in range(3):
            assert np.max(np.abs(local.value[t][pos] - want[t])) <= 1e-12
    flat = np.concatenate(xs)
    want = np_dot_attention(flat, p)
    for t in range(3):
        assert np.max(np.abs(full.value[t] - want[2 * t:2 * t + 2])) <= 1e-12


def test_full3d_collapses_bit_exact():
    rng = np.random.Generator(np.random.Philox(3))
    p = at.make_token_attn_params(rng, d=4, d_h=4)
    one_frame = make_frames(rng, 1, 5, 4)
    with ad.no_grad():
        a = at.full3d_attention(one_frame, p)
        b = at.spatial_attention(one_frame, p)
    assert np.array_equal(a.value, b.value)

    thin = make_frames(rng, 5, 1, 4)
    with ad.no_grad():
        c = at.full3d_attention(thin, p)
        d = at.local_temporal_attention(thin, p)
    assert np.array_equal(c.value, d.value)


def test_shapes_preserved_by_all_variants():
    rng = np.random.Generator(np.random.Philox(4))
    frames = make_frames(rng, 3, 4, 6)
    mp = at.make_matrix_attn_params(rng, n=4, d=6, n_qk=2, n_v=5)
    tp = at.make_token_attn_params(rng, d=6, d_h=2)
    with ad.no_grad():
        for out in (at.matrix_attention(frames, mp),
                    at.spatial_attention(frames, tp),
                    at.local_temporal_attention(frames, tp),
                    at.full3d_attention(frames, tp)):
            assert out.shape == (3, 4, 6)


def test_wrong_frame_shapes_raise_dimension_error():
    """Frames whose N or D does not fit a projection, and tokens whose
    width does not fit W_q, fail in the first product that reads them,
    and the error names that product's operands."""
    rng = np.random.Generator(np.random.Philox(4))
    mp = at.make_matrix_attn_params(rng, n=4, d=6, n_qk=2, n_v=5)
    tp = at.make_token_attn_params(rng, d=6, d_h=2)
    product = r"^matmul: a \(.+\), b \(.+\)\)$"
    for n, d in ((5, 6), (4, 7)):
        frames = make_frames(rng, 3, n, d)
        for transposed in (False, True):
            with pytest.raises(core.DimensionError, match=product):
                at.project(frames, mp.q, mp.u_norm, transposed)
        with pytest.raises(core.DimensionError, match=product):
            at.matrix_attention(frames, mp)
    for attend in (at.spatial_attention, at.local_temporal_attention,
                   at.full3d_attention):
        with pytest.raises(core.DimensionError, match=product):
            attend(make_frames(rng, 3, 4, 7), tp)


def test_parameter_containers_reject_inconsistent_shapes():
    def ones(*shape):
        return ad.param(np.ones(shape))

    with pytest.raises(core.ConfigError, match="bias shape"):
        at.MatrixLinear(U=ones(4, 2), W=ones(6, 3), B=ones(2, 4))
    q = at.MatrixLinear(U=ones(4, 2), W=ones(6, 6), B=ones(2, 6))
    k = at.MatrixLinear(U=ones(4, 3), W=ones(6, 6), B=ones(3, 6))
    o = at.MatrixLinear(U=ones(2, 4), W=ones(6, 6), B=ones(4, 6))
    with pytest.raises(core.ConfigError, match="q/k projection output"):
        at.MatrixAttnParams(q=q, k=k, v=q, o=o)
    for w_k, w_o, message in (((6, 3), (2, 6), "q/k/v projections"),
                              ((6, 2), (6, 2), "output projection")):
        with pytest.raises(core.ConfigError, match=message):
            at.TokenAttnParams(W_q=ones(6, 2), W_k=ones(*w_k),
                               W_v=ones(6, 2), W_o=ones(*w_o))


def test_similarity_rows_softmax_to_stochastic():
    rng = np.random.Generator(np.random.Philox(6))
    q = ad.const(rng.normal(size=(2, 5, 12)) * 50)
    with ad.no_grad():
        w = ad.attention_weights(q, q, 1.0 / np.sqrt(12)).value
    assert (w >= 0.0).all()
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) <= 1e-12


def test_single_row_queries_still_work():
    rng = np.random.Generator(np.random.Philox(8))
    p = at.make_matrix_attn_params(rng, n=3, d=4, n_qk=1, n_v=1)
    frames = make_frames(rng, 2, 3, 4)
    with ad.no_grad():
        out = at.matrix_attention(frames, p)
    assert np.isfinite(out.value).all()


def normalized(values, mode):
    with ad.no_grad():
        return at.normalized_ut(ad.const(values), mode).value.T


def test_normalize_row_weights_examples():
    u = np.array([[3.0], [-1.0]])
    sm = normalized(u, "softmax")
    assert sm.sum() == pytest.approx(1.0, abs=1e-12)
    assert sm[0, 0] > sm[1, 0]
    same = normalized(u, "none")
    assert np.array_equal(same, u)


@pytest.mark.parametrize("seed, d, heads", [(0, 2, (1, 1)), (1, 2, (1, 1)),
                                           (2, 2, (1, 1)), (3, 4, (2, 2)),
                                           (4, 4, (1, 2)), (5, 4, (2, 1))],
                         ids=["0", "1", "2", "heads_2x2", "heads_1x2",
                              "heads_2x1"])
def test_matrix_attention_gradients_finite_difference(seed, d, heads):
    """heads_2x2 splits each 4 x 4 projected frame into four 2 x 2 heads,
    heads_1x2 into two column heads (the presets' layout) and heads_2x1
    into two row heads, so the VJP runs through the q/k head split and
    through each head's view of the frame-transposed values."""
    rng = np.random.Generator(np.random.Philox(seed))
    p = at.make_matrix_attn_params(rng, n=3, d=d, n_qk=d, n_v=d,
                                   heads_m=heads[0], heads_n=heads[1],
                                   u_norm="softmax")
    frames = make_frames(rng, 3, 3, d)
    ups = rng.normal(size=(3, 3, d))
    wrt = [v for _, v in ad.named_params(p)]
    assert ad.fd_error(lambda: at.matrix_attention(frames, p), wrt,
                       ups) <= 1e-4
