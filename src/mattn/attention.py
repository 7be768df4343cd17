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

All four run one kernel, `_attend`: softmax(q k^T / sqrt(w)) v over stacked
(L, w) rows. The token variants apply it to the clip, its (N, T, D)
transpose and its (1, T*N, D) reshape. Matrix attention splits q and k into
(heads_m, heads_n, T, w) rows, one flattened frame-head each, whose dot
products are Frobenius similarities. Its values are held as their
transpose(2, 0, 1), (D_v, T, N_v), where every head's values are a view:
the value projection writes them so, the head value product writes each
head's result through the same view of a buffer in that layout, and the
output projection reads it as it is. No value head is copied in or out,
and no Python loop runs over frames, positions or heads.

Everything is written over autodiff Vars, so analytic gradients for every
parameter and input come from the same graph the forward pass builds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import ConfigError

# ---------------------------------------------------------------------------
# row-weight normalization

_ROW_NORMS = {"none": lambda ut: ut, "softmax": ad.softmax_rows}
U_NORM_MODES = tuple(_ROW_NORMS)


def normalized_ut(U: ad.Var, mode: str) -> ad.Var:
    """The transpose of the mixing weights U, each row (one output column
    of U) normalized along the token (N) axis; gradients flow through
    it."""
    return _ROW_NORMS[mode](ad.transpose(U))


# ---------------------------------------------------------------------------
# parameter containers

@dataclass
class MatrixLinear:
    """One (U, W, B) triple mapping an N x D frame to N_out x D_out."""

    U: ad.Var
    W: ad.Var
    B: ad.Var

    def __post_init__(self):
        if self.B.shape != (self.U.shape[1], self.W.shape[1]):
            raise ConfigError(
                f"bias shape {self.B.shape} inconsistent with "
                f"U {self.U.shape} / W {self.W.shape}")

    @property
    def out_shape(self) -> tuple[int, int]:
        return (self.U.shape[1], self.W.shape[1])


@dataclass
class MatrixAttnParams:
    """q/k/v/o projections, head grid and the u_norm all four apply."""

    q: MatrixLinear
    k: MatrixLinear
    v: MatrixLinear
    o: MatrixLinear
    heads_m: int = 1
    heads_n: int = 1
    u_norm: str = "none"

    def __post_init__(self):
        if self.u_norm not in U_NORM_MODES:
            raise ConfigError(f"unknown u_norm mode: {self.u_norm!r}")
        nqk, dqk = self.q.out_shape
        if self.k.out_shape != (nqk, dqk):
            raise ConfigError(
                f"q/k projection output shapes differ: "
                f"{self.q.out_shape} vs {self.k.out_shape}")
        nv, dv = self.v.out_shape
        if self.heads_m < 1 or nqk % self.heads_m or nv % self.heads_m:
            raise ConfigError(
                f"heads_m={self.heads_m} must divide N_qk={nqk} and N_v={nv}")
        if self.heads_n < 1 or dqk % self.heads_n or dv % self.heads_n:
            raise ConfigError(
                f"heads_n={self.heads_n} must divide D_qk={dqk} and D_v={dv}")

    @property
    def n_qk(self) -> int:
        return self.q.out_shape[0]

    @property
    def d_qk(self) -> int:
        return self.q.out_shape[1]

    @property
    def n_v(self) -> int:
        return self.v.out_shape[0]

    @property
    def d_v(self) -> int:
        return self.v.out_shape[1]


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


# ---------------------------------------------------------------------------
# initializers

def fan_in_normal(rng: np.random.Generator, fan_in: int,
                  fan_out: int) -> ad.Var:
    """A (fan_in, fan_out) N(0, 1/fan_in) weight: every normal init."""
    return ad.param(rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out)))


def make_matrix_linear(rng: np.random.Generator, n: int, d: int,
                       n_out: int, d_out: int) -> MatrixLinear:
    return MatrixLinear(U=fan_in_normal(rng, n, n_out),
                        W=fan_in_normal(rng, d, d_out),
                        B=ad.param(np.zeros((n_out, d_out))))


def make_matrix_attn_params(rng: np.random.Generator, n: int, d: int,
                            n_qk: int, n_v: int,
                            d_qk: int | None = None, d_v: int | None = None,
                            heads_m: int = 1, heads_n: int = 1,
                            u_norm: str = "none") -> MatrixAttnParams:
    d_qk = d if d_qk is None else d_qk
    d_v = d if d_v is None else d_v
    return MatrixAttnParams(
        q=make_matrix_linear(rng, n, d, n_qk, d_qk),
        k=make_matrix_linear(rng, n, d, n_qk, d_qk),
        v=make_matrix_linear(rng, n, d, n_v, d_v),
        o=make_matrix_linear(rng, n_v, d_v, n, d),
        heads_m=heads_m,
        heads_n=heads_n,
        u_norm=u_norm,
    )


def make_token_attn_params(rng: np.random.Generator, d: int,
                           d_h: int) -> TokenAttnParams:
    return TokenAttnParams(W_q=fan_in_normal(rng, d, d_h),
                           W_k=fan_in_normal(rng, d, d_h),
                           W_v=fan_in_normal(rng, d, d_h),
                           W_o=fan_in_normal(rng, d_h, d))


# ---------------------------------------------------------------------------
# forward passes

def project(z: ad.Var, p: MatrixLinear, u_norm: str,
            transposed: bool = False) -> ad.Var:
    """U_hat^T z W + B for every (N, D) frame of z, U normalized by the
    attention's u_norm; with transposed=True, held as its transpose(2, 0,
    1) (see `ad.matrix_linear`)."""
    return ad.matrix_linear(normalized_ut(p.U, u_norm), z, p.W, p.B,
                            transposed)


def _split_heads(x: ad.Var, m: int, n: int) -> ad.Var:
    """(T, R, C) -> (m, n, T, R/m * C/n): head (i, j) holds row block i and
    column block j of every frame, flattened to one row per frame."""
    t, r, c = x.shape
    heads = ad.transpose(ad.reshape(x, t, m, r // m, n, c // n), 1, 3, 0, 2, 4)
    return ad.reshape(heads, m, n, t, (r // m) * (c // n))


def _attend(q: ad.Var, k: ad.Var, v: ad.Var, values=ad.matmul) -> ad.Var:
    """values(softmax(q k^T / sqrt(w)), v) over stacked (L, w) rows: every
    variant. The token variants multiply by v; matrix attention passes
    its head value product."""
    return values(ad.attention_weights(q, k, 1.0 / np.sqrt(q.shape[-1])),
                  v)


def matrix_attention(x: ad.Var, p: MatrixAttnParams) -> ad.Var:
    """Multi-head matrix attention on a (T, N, D) clip; the output keeps
    the input's shape. The values are held as their transpose(2, 0, 1)
    from their projection to the output projection."""
    m, n = p.heads_m, p.heads_n
    q = _split_heads(project(x, p.q, p.u_norm), m, n)
    k = _split_heads(project(x, p.k, p.u_norm), m, n)
    vt = project(x, p.v, p.u_norm, transposed=True)  # (D_v, T, N_v)
    ut = _attend(q, k, vt, lambda w, v: ad.head_values(w, v, m, n))
    del q, k, vt  # under no_grad() this frees them before the projection
    return ad.matrix_linear_from_t(normalized_ut(p.o.U, p.u_norm), ut,
                                   p.o.W, p.o.B)


def _dot_attention(x: ad.Var, p: TokenAttnParams) -> ad.Var:
    """Scaled dot-product attention over the rows of each stacked (L, D)
    matrix of x."""
    # q, k and v are temporaries, freed under no_grad() before the output
    # product
    return ad.matmul(_attend(ad.matmul(x, p.W_q), ad.matmul(x, p.W_k),
                             ad.matmul(x, p.W_v)), p.W_o)


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
