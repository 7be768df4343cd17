"""Dense attention-map oracle: linearized composition identities.

This module re-derives factorized and matrix attention as explicit
(T*N) x (T*N) maps over the flattened token sequence (temporal-major,
(t, n) -> t*N + n), with softmax, scaling, and biases omitted. Every map
is a plain (T*N, T*N) numpy array. The oracle shares no code with the
modular attention path, which is the point: agreement between the two
routes verifies both.

Identities covered:
* spatial maps are frame-block-diagonal; per-position temporal maps are
  zero across positions;
* factorized attention composes as temporal-after-spatial, and every
  token interaction routes through a single intermediate token;
* matrix attention lifts the per-frame row-weights to block-diagonal
  operators, producing an unconstrained temporal map that mixes all
  spatial tokens, and reduces to the shared-gram temporal map when the
  row-weights are identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DimensionError

TOL = 1e-12     # float64 deviation within which a map identity holds
INSTANCES = 20  # random instances per algebra check of the suite


@dataclass
class CheckResult:
    name: str
    max_dev: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol  # false for NaN


# ---------------------------------------------------------------------------
# map builders

def build_spatial_blockdiag(spatial_maps: list[np.ndarray]) -> np.ndarray:
    """Block-diagonal stack of per-frame N x N spatial maps."""
    mats = [np.asarray(s, dtype=np.float64) for s in spatial_maps]
    n = mats[0].shape[0]
    for s in mats:
        if s.shape != (n, n):
            raise DimensionError(
                f"spatial map shape {s.shape}, expected ({n}, {n})")
    t = len(mats)
    out = np.zeros((t * n, t * n))
    for i, s in enumerate(mats):
        out[i * n:(i + 1) * n, i * n:(i + 1) * n] = s
    return out


def build_local_temporal_map(temporal_maps: list[np.ndarray]) -> np.ndarray:
    """H[(t,n),(t',n')] = H_n[t,t'] when n == n', zero otherwise."""
    mats = [np.asarray(h, dtype=np.float64) for h in temporal_maps]
    t = mats[0].shape[0]
    for h in mats:
        if h.shape != (t, t):
            raise DimensionError(
                f"temporal map shape {h.shape}, expected ({t}, {t})")
    n = len(mats)
    out = np.zeros((t * n, t * n))
    for pos, h in enumerate(mats):
        for a in range(t):
            for b in range(t):
                out[a * n + pos, b * n + pos] = h[a, b]
    return out


def lift_blockdiag(u: np.ndarray, t: int) -> np.ndarray:
    """Per-frame operator repeated as T diagonal blocks on flattened tokens."""
    u = np.asarray(u, dtype=np.float64)
    rows, cols = u.shape
    out = np.zeros((t * rows, t * cols))
    for i in range(t):
        out[i * rows:(i + 1) * rows, i * cols:(i + 1) * cols] = u
    return out


# ---------------------------------------------------------------------------
# identity checks

def _routed(h: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """H[(t,n),(t',n)] S[(t',n),(t',n')] for every (t,n), (t',n'): the
    product routed through the query's own spatial position at frame t'."""
    i = np.arange(len(h))[:, None]
    j = np.arange(len(h))[None, :]
    mid = j // n * n + i % n
    return h[i, mid] * s[mid, j]


def bottleneck_identity_check(h: np.ndarray, s: np.ndarray,
                              t: int, n: int) -> float:
    """Max |(H S)[(t,n),(t',n')] - H[(t,n),(t',n)] S[(t',n),(t',n')]|."""
    if h.shape != (t * n, t * n) or s.shape != (t * n, t * n):
        raise DimensionError("maps must be (T*N) x (T*N)")
    return np.abs(h @ s - _routed(h, s, n)).max(initial=0.0)


def matrix_map_expansion_check(u_q: np.ndarray, u_k: np.ndarray,
                               u_v: np.ndarray, gram: np.ndarray,
                               S: np.ndarray, t: int,
                               n: int) -> float:
    """A_mat = H' S with H' = lift(U_q)^T G lift(U_k) lift(U_v)^T: max
    deviation of its elements from the explicit sum over the frame-t'
    spatial tokens."""
    n_qk = u_q.shape[1]
    n_v = u_v.shape[1]
    if u_k.shape[1] != n_qk:
        raise ConfigError(
            f"U_q/U_k output widths differ: {n_qk} vs {u_k.shape[1]}")
    if n_qk != n_v:
        raise ConfigError(
            f"lifted contraction needs N_qk == N_v, got {n_qk} vs {n_v}")
    lq = lift_blockdiag(u_q, t)
    lk = lift_blockdiag(u_k, t)
    lv = lift_blockdiag(u_v, t)
    h_prime = lq.T @ gram @ lk @ lv.T
    a_mat = h_prime @ S
    max_dev = 0.0
    rows = h_prime.shape[0]
    for r in range(rows):
        for tj in range(t):
            for nj in range(n):
                summed = sum(h_prime[r, tj * n + j] * S[tj * n + j,
                                                        tj * n + nj]
                             for j in range(n))
                max_dev = np.maximum(max_dev,
                                     abs(a_mat[r, tj * n + nj] - summed))
    return max_dev


# ---------------------------------------------------------------------------
# linearized modular pipeline (frame-wise computations)

@dataclass
class LinearizedParams:
    """Bias-free weights for the softmax-free dual-route comparison."""

    w_q_s: np.ndarray   # spatial query, D x D_h
    w_k_s: np.ndarray   # spatial key, D x D_h
    w_v1: np.ndarray    # spatial value, D x D
    u_q: np.ndarray     # N x N_r (N_r = N_qk = N_v)
    u_k: np.ndarray
    u_v: np.ndarray
    w_q_t: np.ndarray   # temporal query, D x D_h
    w_k_t: np.ndarray   # temporal key, D x D_h
    w_v2: np.ndarray    # temporal value, D x D


def make_linearized_params(rng: np.random.Generator, n: int, d: int,
                           d_h: int, n_r: int,
                           identity_u: bool = False) -> LinearizedParams:
    def mk(a, b):
        return rng.normal(0.0, 1.0 / np.sqrt(a), (a, b))

    if identity_u:
        if n_r != n:
            raise ConfigError("identity row-weights require N_r == N")
        u_q = u_k = u_v = np.eye(n)
    else:
        u_q, u_k, u_v = mk(n, n_r), mk(n, n_r), mk(n, n_r)
    return LinearizedParams(
        w_q_s=mk(d, d_h), w_k_s=mk(d, d_h), w_v1=mk(d, d),
        u_q=u_q, u_k=u_k, u_v=u_v,
        w_q_t=mk(d, d_h), w_k_t=mk(d, d_h), w_v2=mk(d, d))


def linear_spatial(z: np.ndarray, p: LinearizedParams) -> np.ndarray:
    """Per-frame linear attention: x_t = (z_t Wq)(z_t Wk)^T z_t Wv1."""
    out = np.empty((z.shape[0], z.shape[1], p.w_v1.shape[1]))
    for t in range(z.shape[0]):
        scores = (z[t] @ p.w_q_s) @ (z[t] @ p.w_k_s).T
        out[t] = scores @ (z[t] @ p.w_v1)
    return out


def linear_matrix_temporal(x: np.ndarray, p: LinearizedParams) -> np.ndarray:
    """Block-lifted linearized matrix attention, frame-wise assembly."""
    t_len = x.shape[0]
    q = [p.u_q.T @ x[t] @ p.w_q_t for t in range(t_len)]
    k = [p.u_k.T @ x[t] @ p.w_k_t for t in range(t_len)]
    v = [p.u_v.T @ x[t] @ p.w_v2 for t in range(t_len)]
    out = np.zeros((t_len, q[0].shape[0], v[0].shape[1]))
    for t in range(t_len):
        for tp in range(t_len):
            out[t] += (q[t] @ k[tp].T) @ v[tp]
    return out


def linear_temporal_sharedgram(x: np.ndarray,
                               p: LinearizedParams) -> np.ndarray:
    """Shared-gram temporal attention: the identity-row-weight special case."""
    t_len = x.shape[0]
    q = [x[t] @ p.w_q_t for t in range(t_len)]
    k = [x[t] @ p.w_k_t for t in range(t_len)]
    v = [x[t] @ p.w_v2 for t in range(t_len)]
    out = np.zeros((t_len, x.shape[1], v[0].shape[1]))
    for t in range(t_len):
        for tp in range(t_len):
            out[t] += (q[t] @ k[tp].T) @ v[tp]
    return out


def dual_path_equivalence(z: np.ndarray, p: LinearizedParams) -> float:
    """Max deviation between the frame-wise pipeline and the dense-map path."""
    t_len, n, d = z.shape
    # (a) modular path
    x = linear_spatial(z, p)
    y_mod = linear_matrix_temporal(x, p)

    # (b) dense-map path on flattened tokens
    s_blocks = [(z[t] @ p.w_q_s) @ (z[t] @ p.w_k_s).T for t in range(t_len)]
    S = build_spatial_blockdiag(s_blocks)
    z_flat = z.reshape(t_len * n, d)
    x_flat = S @ z_flat @ p.w_v1
    gram = (x_flat @ p.w_q_t) @ (x_flat @ p.w_k_t).T
    lq = lift_blockdiag(p.u_q, t_len)
    lk = lift_blockdiag(p.u_k, t_len)
    lv = lift_blockdiag(p.u_v, t_len)
    a_mat = (lq.T @ gram @ lk @ lv.T) @ S
    y_dense = a_mat @ z_flat @ p.w_v1 @ p.w_v2
    n_r = p.u_q.shape[1]
    y_dense = y_dense.reshape(t_len, n_r, -1)
    return float(np.abs(y_mod - y_dense).max())


# ---------------------------------------------------------------------------
# suite

def run_oracle_suite(seed: int = 0, fault: bool = False) -> list[CheckResult]:
    """All dense-map algebra checks; `fault` injects a deliberate failure."""
    rng = np.random.Generator(np.random.Philox(seed))
    results: list[CheckResult] = []

    # structural zeros
    max_dev = 0.0
    for _ in range(INSTANCES):
        t = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        S = build_spatial_blockdiag([rng.normal(size=(n, n))
                                     for _ in range(t)])
        H = build_local_temporal_map([rng.normal(size=(t, t))
                                      for _ in range(n)])
        s = S.reshape(t, n, t, n)
        h = H.reshape(t, n, t, n)
        for ti in range(t):
            for tj in range(t):
                if ti != tj:
                    max_dev = np.maximum(max_dev,
                                         np.abs(s[ti, :, tj, :]).max())
        for ni in range(n):
            for nj in range(n):
                if ni != nj:
                    max_dev = np.maximum(max_dev,
                                         np.abs(h[:, ni, :, nj]).max())
    results.append(CheckResult("structural_zeros", max_dev, 0.0))

    # bottleneck identity + swapped-order negative control
    max_dev = 0.0
    swap_breaks = True
    for _ in range(INSTANCES):
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        S = build_spatial_blockdiag([rng.normal(size=(n, n))
                                     for _ in range(t)])
        H = build_local_temporal_map([rng.normal(size=(t, t))
                                      for _ in range(n)])
        max_dev = np.maximum(max_dev, bottleneck_identity_check(H, S, t, n))
        # composing spatial-after-temporal must violate the identity; NaN
        # shows no break
        if not np.abs(S @ H - _routed(H, S, n)).max() >= 1e-9:
            swap_breaks = False
    results.append(CheckResult("bottleneck_identity", max_dev, TOL))
    results.append(CheckResult("composition_order_control",
                               0.0 if swap_breaks else 1.0, 0.0))

    # matrix-map expansion
    max_dev = 0.0
    for _ in range(INSTANCES):
        t = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        n_r = int(rng.integers(1, n + 1))
        S = build_spatial_blockdiag([rng.normal(size=(n, n))
                                     for _ in range(t)])
        gram = rng.normal(size=(t * n, t * n))
        max_dev = np.maximum(max_dev, matrix_map_expansion_check(
            rng.normal(size=(n, n_r)), rng.normal(size=(n, n_r)),
            rng.normal(size=(n, n_r)), gram, S, t, n))
    results.append(CheckResult("matrix_map_expansion", max_dev, TOL))

    # dual-path equivalence on 3 seeds
    max_dev = 0.0
    for s in range(3):
        srng = np.random.Generator(np.random.Philox(seed + 101 + s))
        t = int(srng.integers(2, 5))
        n = int(srng.integers(2, 5))
        d, d_h = 3, 2
        p = make_linearized_params(srng, n, d, d_h, n_r=n)
        z = srng.normal(size=(t, n, d))
        max_dev = np.maximum(max_dev, dual_path_equivalence(z, p))
    if fault:
        max_dev += 1.0
    results.append(CheckResult("dual_path_equivalence", max_dev, 1e-10))

    # U = I reduction, bit-exact in the linearized setting
    srng = np.random.Generator(np.random.Philox(seed + 7))
    t, n, d, d_h = 3, 3, 3, 2
    p = make_linearized_params(srng, n, d, d_h, n_r=n, identity_u=True)
    z = srng.normal(size=(t, n, d))
    x = linear_spatial(z, p)
    y_mat = linear_matrix_temporal(x, p)
    y_shared = linear_temporal_sharedgram(x, p)
    dev = float(np.abs(y_mat - y_shared).max())
    results.append(CheckResult("identity_u_reduction", dev, 0.0))

    return results
