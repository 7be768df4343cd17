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
    if mode == "softmax":
        e = np.exp(x - x.max(axis=0, keepdims=True))
        return e / e.sum(axis=0, keepdims=True)
    if mode == "l1":
        s = np.abs(x).sum(axis=0, keepdims=True)
    else:
        s = np.sqrt((x ** 2).sum(axis=0, keepdims=True))
    live = s >= 1e-12
    return np.where(live, x / np.where(live, s, 1.0), x)


def np_matrix_attention(frames, p):
    """Index-loop reference for single-head matrix attention."""
    def proj(z, lin):
        u = np_normalize_row_weights(lin.U.value, lin.u_norm)
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
@pytest.mark.parametrize("u_norm", ["none", "softmax", "l1", "l2"])
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


def test_matrix_attention_multihead_matches_index_loops():
    rng = np.random.Generator(np.random.Philox(5))
    p = at.make_matrix_attn_params(rng, n=4, d=6, n_qk=4, n_v=4,
                                   heads_m=2, heads_n=3)
    frames = make_frames(rng, 3, 4, 6)
    with ad.no_grad():
        got = at.matrix_attention(frames, p)

    # per-head reference: slice the projected frames into the head grid
    def proj(z, lin):
        return lin.U.value.T @ z @ lin.W.value + lin.B.value

    zs = list(frames.value)
    q = [proj(z, p.q) for z in zs]
    k = [proj(z, p.k) for z in zs]
    v = [proj(z, p.v) for z in zs]
    nqk_h, dqk_h = p.n_qk // 2, p.d_qk // 3
    nv_h, dv_h = p.n_v // 2, p.d_v // 3
    for t in range(3):
        u_t = np.zeros((p.n_v, p.d_v))
        for i in range(2):
            for j in range(3):
                qh = [f[i * nqk_h:(i + 1) * nqk_h,
                        j * dqk_h:(j + 1) * dqk_h] for f in q]
                kh = [f[i * nqk_h:(i + 1) * nqk_h,
                        j * dqk_h:(j + 1) * dqk_h] for f in k]
                vh = [f[i * nv_h:(i + 1) * nv_h,
                        j * dv_h:(j + 1) * dv_h] for f in v]
                s = np.array([[np.sum(qh[a] * kh[b]) for b in range(3)]
                              for a in range(3)]) / np.sqrt(nqk_h * dqk_h)
                w = np_softmax_rows(s)
                u_t[i * nv_h:(i + 1) * nv_h, j * dv_h:(j + 1) * dv_h] = sum(
                    w[t, b] * vh[b] for b in range(3))
        want = proj(u_t, p.o)
        assert np.max(np.abs(got.value[t] - want)) <= 1e-12


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
    assert np.allclose(normalized(u, "l1"),
                       [[0.75], [-0.25]], atol=1e-15)
    assert np.allclose(normalized(u, "l2"),
                       [[3.0], [-1.0]] / np.sqrt(10.0), atol=1e-15)
    sm = normalized(u, "softmax")
    assert sm.sum() == pytest.approx(1.0, abs=1e-12)
    assert sm[0, 0] > sm[1, 0]
    same = normalized(u, "none")
    assert np.array_equal(same, u)


def test_normalize_row_weights_zero_column_guard():
    u = np.array([[0.0, 2.0], [0.0, 2.0]])
    for mode in ("l1", "l2"):
        out = normalized(u, mode)
        assert np.array_equal(out[:, 0], [0.0, 0.0])
        assert out[:, 1] > 0.0 if mode == "softmax" else True
    with pytest.raises(core.ConfigError):
        normalized(u, "bogus")


@pytest.mark.parametrize("seed, d, heads", [(0, 2, 1), (1, 2, 1), (2, 2, 1),
                                           (3, 4, 2)],
                         ids=["0", "1", "2", "heads_2x2"])
def test_matrix_attention_gradients_finite_difference(seed, d, heads):
    """heads_2x2 splits each 4 x 4 projected frame into four 2 x 2 heads,
    so the VJP runs through the head split and merge."""
    rng = np.random.Generator(np.random.Philox(seed))
    p = at.make_matrix_attn_params(rng, n=3, d=d, n_qk=d, n_v=d,
                                   heads_m=heads, heads_n=heads,
                                   u_norm="softmax")
    frames = make_frames(rng, 3, 3, d)
    ups = rng.normal(size=(3, 3, d))
    wrt = [v for _, v in ad.named_params(p)]
    assert ad.fd_error(lambda: at.matrix_attention(frames, p), wrt,
                       ups) <= 1e-4
