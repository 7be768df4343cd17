"""Attention variants over video tokens.

A clip is one (T, N, D) Var: T frames of N tokens with D features. Four
mechanisms share one substrate:

* matrix attention — each frame acts as a matrix; queries/keys/values are
  produced by row-weight (U) and column-weight (W) maps plus bias, and
  frames attend to each other through scaled Frobenius similarities;
* spatial attention — scaled dot-product attention inside each frame;
* local temporal attention — dot-product attention across frames at each
  fixed spatial index, parameters shared over positions;
* full 3D attention — dot-product attention over all T*N tokens jointly.

The three token variants run the same kernel, `_dot_attention`, on a view
of the clip: the (T, N, D) tensor itself, its (N, T, D) transpose, and its
(1, T*N, D) reshape. Matrix attention projects every frame at once and
splits its heads by reshape and transpose, so each head is one slice of a
stacked (heads_m, heads_n, T, .) product. No Python loop runs over frames,
positions or heads.

Everything is written over autodiff Vars, so analytic gradients for every
parameter and input come from the same graph the forward pass builds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import ConfigError, DimensionError

U_NORM_MODES = ("none", "softmax", "l1", "l2")


# ---------------------------------------------------------------------------
# row-weight normalization

def normalized_u(U: ad.Var, mode: str) -> ad.Var:
    """Normalize mixing weights along the token (N) axis per output column;
    gradients flow through it."""
    if mode == "none":
        return U
    ut = ad.transpose(U)
    if mode == "softmax":
        ut = ad.softmax_rows(ut)
    elif mode == "l1":
        ut = ad.l1_normalize_rows(ut)
    elif mode == "l2":
        ut = ad.l2_normalize_rows(ut)
    else:
        raise ConfigError(f"unknown u_norm mode: {mode!r}")
    return ad.transpose(ut)


# ---------------------------------------------------------------------------
# parameter containers

@dataclass
class MatrixLinear:
    """One (U, W, B) triple mapping an N x D frame to N_out x D_out."""

    U: ad.Var
    W: ad.Var
    B: ad.Var
    u_norm: str = "none"

    def __post_init__(self):
        if self.u_norm not in U_NORM_MODES:
            raise ConfigError(f"unknown u_norm mode: {self.u_norm!r}")
        if self.B.shape != (self.U.shape[1], self.W.shape[1]):
            raise ConfigError(
                f"bias shape {self.B.shape} inconsistent with "
                f"U {self.U.shape} / W {self.W.shape}")

    @property
    def out_shape(self) -> tuple[int, int]:
        return (self.U.shape[1], self.W.shape[1])

    def params(self) -> list[tuple[str, ad.Var]]:
        return [("U", self.U), ("W", self.W), ("B", self.B)]


@dataclass
class MatrixAttnParams:
    proj_q: MatrixLinear
    proj_k: MatrixLinear
    proj_v: MatrixLinear
    proj_o: MatrixLinear
    heads_m: int = 1
    heads_n: int = 1

    def __post_init__(self):
        nqk, dqk = self.proj_q.out_shape
        if self.proj_k.out_shape != (nqk, dqk):
            raise ConfigError(
                f"proj_q/proj_k output shapes differ: "
                f"{self.proj_q.out_shape} vs {self.proj_k.out_shape}")
        nv, dv = self.proj_v.out_shape
        if self.heads_m < 1 or nqk % self.heads_m or nv % self.heads_m:
            raise ConfigError(
                f"heads_m={self.heads_m} must divide N_qk={nqk} and N_v={nv}")
        if self.heads_n < 1 or dqk % self.heads_n or dv % self.heads_n:
            raise ConfigError(
                f"heads_n={self.heads_n} must divide D_qk={dqk} and D_v={dv}")

    @property
    def n_qk(self) -> int:
        return self.proj_q.out_shape[0]

    @property
    def d_qk(self) -> int:
        return self.proj_q.out_shape[1]

    @property
    def n_v(self) -> int:
        return self.proj_v.out_shape[0]

    @property
    def d_v(self) -> int:
        return self.proj_v.out_shape[1]

    def params(self) -> list[tuple[str, ad.Var]]:
        out = []
        for tag, proj in (("q", self.proj_q), ("k", self.proj_k),
                          ("v", self.proj_v), ("o", self.proj_o)):
            out.extend((f"{tag}.{n}", v) for n, v in proj.params())
        return out


@dataclass
class TokenAttnParams:
    """Shared q/k/v/out projections for token-level dot-product attention.

    Used verbatim by spatial, local temporal, and full 3D attention; the
    collapse identities between those variants hold because all three run
    through the same kernel with the same parameter layout.
    """

    W_q: ad.Var
    W_k: ad.Var
    W_v: ad.Var
    W_o: ad.Var

    def __post_init__(self):
        d, dh = self.W_q.shape
        if self.W_k.shape != (d, dh) or self.W_v.shape != (d, dh):
            raise ConfigError("q/k/v projections must share (D, D_h) shape")
        if self.W_o.shape != (dh, d):
            raise ConfigError(
                f"output projection must be (D_h, D), got {self.W_o.shape}")

    @property
    def d_h(self) -> int:
        return self.W_q.shape[1]

    def params(self) -> list[tuple[str, ad.Var]]:
        return [("W_q", self.W_q), ("W_k", self.W_k),
                ("W_v", self.W_v), ("W_o", self.W_o)]


# ---------------------------------------------------------------------------
# initializers

def make_matrix_linear(rng: np.random.Generator, n: int, d: int,
                       n_out: int, d_out: int,
                       u_norm: str = "none") -> MatrixLinear:
    return MatrixLinear(
        U=ad.param(rng.normal(0.0, 1.0 / np.sqrt(n), (n, n_out)), "U"),
        W=ad.param(rng.normal(0.0, 1.0 / np.sqrt(d), (d, d_out)), "W"),
        B=ad.param(np.zeros((n_out, d_out)), "B"),
        u_norm=u_norm,
    )


def make_matrix_attn_params(rng: np.random.Generator, n: int, d: int,
                            n_qk: int, n_v: int,
                            d_qk: int | None = None, d_v: int | None = None,
                            heads_m: int = 1, heads_n: int = 1,
                            u_norm: str = "none") -> MatrixAttnParams:
    d_qk = d if d_qk is None else d_qk
    d_v = d if d_v is None else d_v
    return MatrixAttnParams(
        proj_q=make_matrix_linear(rng, n, d, n_qk, d_qk, u_norm),
        proj_k=make_matrix_linear(rng, n, d, n_qk, d_qk, u_norm),
        proj_v=make_matrix_linear(rng, n, d, n_v, d_v, u_norm),
        proj_o=make_matrix_linear(rng, n_v, d_v, n, d, u_norm),
        heads_m=heads_m,
        heads_n=heads_n,
    )


def make_token_attn_params(rng: np.random.Generator, d: int,
                           d_h: int) -> TokenAttnParams:
    s_in = 1.0 / np.sqrt(d)
    s_out = 1.0 / np.sqrt(d_h)
    return TokenAttnParams(
        W_q=ad.param(rng.normal(0.0, s_in, (d, d_h)), "W_q"),
        W_k=ad.param(rng.normal(0.0, s_in, (d, d_h)), "W_k"),
        W_v=ad.param(rng.normal(0.0, s_in, (d, d_h)), "W_v"),
        W_o=ad.param(rng.normal(0.0, s_out, (d_h, d)), "W_o"),
    )


# ---------------------------------------------------------------------------
# forward passes

def project(z: ad.Var, p: MatrixLinear) -> ad.Var:
    """U_hat^T z W + B for every (N, D) frame of z, with the projection's
    own row-weight normalization."""
    if z.shape[-2:] != (p.U.shape[0], p.W.shape[0]):
        raise DimensionError(
            f"frames {z.shape} do not match projection "
            f"U {p.U.shape} / W {p.W.shape}")
    u_hat = normalized_u(p.U, p.u_norm)
    out = ad.matmul(ad.matmul(ad.transpose(u_hat), z), p.W)
    return ad.add(out, p.B)


def _flatten_frames(x: ad.Var) -> ad.Var:
    """(..., T, R, C) -> (..., T, R*C): each frame becomes one row."""
    *lead, r, c = x.shape
    return ad.reshape(x, *lead, r * c)


def frame_similarity_scores(q: ad.Var, k: ad.Var) -> ad.Var:
    """(..., T, T) scaled Frobenius similarities between the (R, C) frames
    of q and k, (..., T, R, C) each, as one matmul (counted FLOPs)."""
    if q.shape[-2:] != k.shape[-2:]:
        raise DimensionError(
            f"similarity frame shape mismatch: {q.shape} vs {k.shape}")
    scale = 1.0 / np.sqrt(q.shape[-2] * q.shape[-1])
    return ad.smul(ad.matmul(_flatten_frames(q),
                             ad.transpose(_flatten_frames(k))), scale)


def _split_heads(x: ad.Var, m: int, n: int) -> ad.Var:
    """(T, R, C) -> (m, n, T, R/m, C/n): head (i, j) holds row block i and
    column block j of every frame."""
    t, r, c = x.shape
    return ad.transpose(ad.reshape(x, t, m, r // m, n, c // n), 1, 3, 0, 2, 4)


def matrix_attention(x: ad.Var, p: MatrixAttnParams) -> ad.Var:
    """Multi-head matrix attention on a (T, N, D) clip; the output keeps
    the input's shape."""
    m, n = p.heads_m, p.heads_n
    q = _split_heads(project(x, p.proj_q), m, n)
    k = _split_heads(project(x, p.proj_k), m, n)
    v = _split_heads(project(x, p.proj_v), m, n)
    weights = ad.softmax_rows(frame_similarity_scores(q, k))
    u = ad.matmul(weights, _flatten_frames(v))      # (m, n, T, R/m * C/n)
    t_len = x.shape[0]
    u = ad.reshape(u, m, n, t_len, p.n_v // m, p.d_v // n)
    u = ad.reshape(ad.transpose(u, 2, 0, 3, 1, 4), t_len, p.n_v, p.d_v)
    return project(u, p.proj_o)


def _dot_attention(x: ad.Var, p: TokenAttnParams) -> ad.Var:
    """Scaled dot-product attention over the rows of each stacked (L, D)
    matrix of x."""
    if x.shape[-1] != p.W_q.shape[0]:
        raise DimensionError(
            f"token width {x.shape[-1]} != projection input {p.W_q.shape[0]}")
    q = ad.matmul(x, p.W_q)
    k = ad.matmul(x, p.W_k)
    v = ad.matmul(x, p.W_v)
    weights = ad.attention_weights(q, k, 1.0 / np.sqrt(p.d_h))
    return ad.matmul(ad.matmul(weights, v), p.W_o)


def spatial_attention(x: ad.Var, p: TokenAttnParams) -> ad.Var:
    """Dot-product attention inside each frame of a (T, N, D) clip."""
    return _dot_attention(x, p)


def local_temporal_attention(x: ad.Var, p: TokenAttnParams) -> ad.Var:
    """Attention across frames at each spatial index, parameters shared:
    the kernel runs on the (N, T, D) transpose."""
    return ad.transpose(_dot_attention(ad.transpose(x, 1, 0, 2), p), 1, 0, 2)


def full3d_attention(x: ad.Var, p: TokenAttnParams) -> ad.Var:
    """Joint attention over the flattened T*N token sequence."""
    t, n, d = x.shape
    return ad.reshape(_dot_attention(ad.reshape(x, 1, t * n, d), p), t, n, d)


# ---------------------------------------------------------------------------
# gradients

def backward(out: ad.Var, upstream: np.ndarray,
             wrt: list[ad.Var]) -> list[np.ndarray | None]:
    """Reverse-mode gradients of <out, upstream>: the vector-Jacobian
    products of every requested Var for the supplied upstream gradient."""
    ad.backward(out, upstream)
    return [w.grad for w in wrt]
