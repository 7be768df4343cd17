"""Analytic FLOPs model and measured scaling benchmark.

FLOPs are multiply-adds times two, matmuls only (softmax, normalization,
and activations are excluded; they are dominated and the asymptotic claims
ignore them). The closed forms enumerate the exact matmul sequence of each
variant's forward pass, and an instrumented run with a counting hook on
the matmul kernel must reproduce them exactly. Every variant runs the one
attention kernel, so one formula, `_attend_flops`, counts all their scores.

Projection order is fixed: (U^T z) first, then (. W). Wall time is the
median of 5 timed runs after one warm-up, which is the counted pass that
gives the FLOPs and peak memory; peak memory comes from the library's own
live-buffer byte accounting, not process RSS.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, replace

import numpy as np

from . import attention as at
from . import autodiff as ad
from . import blocks as bl
from .core import ConfigError, count_kernels

VARIANTS = bl.TEMPORAL_VARIANTS
BENCH_REPEATS = 5  # timed runs per record, after the counted warm-up


@dataclass
class CostDims:
    T: int
    N: int
    D: int
    D_h: int
    N_qk: int
    D_qk: int
    N_v: int
    D_v: int
    heads_m: int = 1
    heads_n: int = 1

    def __post_init__(self):
        for name in ("T", "N", "D", "D_h", "N_qk", "D_qk", "N_v", "D_v"):
            if getattr(self, name) < 1:
                raise ConfigError(f"dimension {name} must be positive")
        if self.N_qk % self.heads_m or self.N_v % self.heads_m:
            raise ConfigError("heads_m must divide N_qk and N_v")
        if self.D_qk % self.heads_n or self.D_v % self.heads_n:
            raise ConfigError("heads_n must divide D_qk and D_v")


@dataclass
class FlopsReport:
    variant: str
    dims: CostDims
    flops_spatial: int
    flops_temporal: int
    flops_proj: int

    @property
    def flops_total(self) -> int:
        return self.flops_spatial + self.flops_temporal + self.flops_proj


@dataclass
class BenchRecord:
    variant: str
    wall_ms: float
    peak_live_bytes: int
    flops_total: int
    seed: int
    dims: CostDims


# ---------------------------------------------------------------------------
# closed forms

def _token_attn_proj(l: int, d: int, d_h: int) -> int:
    return 6 * l * d * d_h + 2 * l * d_h * d


def _attend_flops(stacks: int, rows: int, width_qk: int, width_v: int) -> int:
    """q k^T plus weights v of `attention._attend` on `stacks` stacked
    matrices of `rows` rows, q and k `width_qk` wide and v `width_v`."""
    return 2 * stacks * rows * rows * (width_qk + width_v)


def _matrix_proj(dm: CostDims) -> int:
    per_frame = (
        2 * dm.N_qk * dm.N * dm.D + 2 * dm.N_qk * dm.D * dm.D_qk  # q
        + 2 * dm.N_qk * dm.N * dm.D + 2 * dm.N_qk * dm.D * dm.D_qk  # k
        + 2 * dm.N_v * dm.N * dm.D + 2 * dm.N_v * dm.D * dm.D_v  # v
        + 2 * dm.N * dm.N_v * dm.D_v + 2 * dm.N * dm.D_v * dm.D  # o
    )
    return dm.T * per_frame


def flops_closed_form(variant: str, dims: CostDims) -> FlopsReport:
    """Matmul FLOPs of one block's attention layers on one clip: spatial
    attention, then the temporal wiring (hybrid with its concat+linear
    fusion)."""
    dm = dims
    spatial_proj = dm.T * _token_attn_proj(dm.N, dm.D, dm.D_h)
    spatial_scores = _attend_flops(dm.T, dm.N, dm.D_h, dm.D_h)
    # local and full 3D attention both project every one of the T*N tokens
    token_proj = _token_attn_proj(dm.T * dm.N, dm.D, dm.D_h)
    local_scores = _attend_flops(dm.N, dm.T, dm.D_h, dm.D_h)
    full3d_scores = _attend_flops(1, dm.T * dm.N, dm.D_h, dm.D_h)
    heads = dm.heads_m * dm.heads_n
    matrix_scores = _attend_flops(heads, dm.T, dm.N_qk * dm.D_qk // heads,
                                  dm.N_v * dm.D_v // heads)
    fusion = 2 * dm.T * dm.N * (2 * dm.D) * dm.D

    if variant == "local":
        return FlopsReport(variant, dm, spatial_scores, local_scores,
                           spatial_proj + token_proj)
    if variant == "full3d":
        return FlopsReport(variant, dm, spatial_scores, full3d_scores,
                           spatial_proj + token_proj)
    if variant == "global":
        return FlopsReport(variant, dm, spatial_scores, matrix_scores,
                           spatial_proj + _matrix_proj(dm))
    if variant == "hybrid":
        return FlopsReport(
            variant, dm, spatial_scores,
            local_scores + matrix_scores,
            spatial_proj + token_proj + _matrix_proj(dm) + fusion)
    raise ConfigError(f"unknown variant: {variant!r}")


# ---------------------------------------------------------------------------
# instrumented forward

def _block(variant: str, dims: CostDims, seed: int) -> bl.Block:
    """The model's own block for these dimensions, with the concat+linear
    fusion that the closed form counts."""
    cfg = bl.BlockConfig(d=dims.D, n=dims.N, variant=variant, n_qk=dims.N_qk,
                         n_v=dims.N_v, d_qk=dims.D_qk, d_v=dims.D_v,
                         heads_m=dims.heads_m, heads_n=dims.heads_n,
                         d_h=dims.D_h, fusion="concat_mlp")
    return bl.Block.create(np.random.Generator(np.random.Philox(seed)), cfg)


def _attend(block: bl.Block, x: ad.Var) -> ad.Var:
    """The block's attention layers without its AdaLN, MLP and residuals:
    spatial attention, then the block's temporal wiring."""
    x = at.spatial_attention(x, block.spatial)
    return block._temporal(x)


def _counted_pass(variant: str, dims: CostDims, seed: int):
    """(block, clip, flops, peak_live_bytes): a new block and clip, and the
    counts of their first forward pass, run with counting hooks."""
    block = _block(variant, dims, seed)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    clip = rng.normal(size=(dims.T, dims.N, dims.D))
    with ad.no_grad(), count_kernels() as counter:
        _attend(block, ad.const(clip))
    return block, clip, counter.flops, counter.peak_live_bytes


def flops_instrumented(variant: str, dims: CostDims,
                       seed: int = 0) -> tuple[int, int]:
    """(flops, peak_live_bytes) of a real forward pass with counting hooks."""
    return _counted_pass(variant, dims, seed)[2:]


# ---------------------------------------------------------------------------
# benchmark harness

def run_bench(variants: list[str], t_list: list[int], dims: CostDims,
              seed: int = 0) -> list[BenchRecord]:
    records = []
    for variant in variants:
        for t in t_list:
            dm = replace(dims, T=t)
            # the counted pass is also the discarded warm-up
            block, clip, flops, peak = _counted_pass(variant, dm, seed)
            times = []
            for _ in range(BENCH_REPEATS):
                t0 = time.perf_counter()
                with ad.no_grad():
                    _attend(block, ad.const(clip))
                times.append((time.perf_counter() - t0) * 1e3)
            records.append(BenchRecord(
                variant=variant, wall_ms=float(np.median(times)),
                peak_live_bytes=peak, flops_total=flops,
                seed=seed, dims=dm))
    return records


def _csv(header: str, rows) -> str:
    """The rows under the comma-separated `header`, LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue()


def bench_csv(records: list[BenchRecord]) -> str:
    """CSV with the fixed schema, LF line endings, '.' decimal separator."""
    return _csv("variant,T,N,D,N_qk,N_v,heads_m,heads_n,"
                "flops_total,wall_ms,peak_live_bytes,seed",
                ([r.variant, r.dims.T, r.dims.N, r.dims.D, r.dims.N_qk,
                  r.dims.N_v, r.dims.heads_m, r.dims.heads_n, r.flops_total,
                  f"{r.wall_ms:.6f}", r.peak_live_bytes, r.seed]
                 for r in records))


def flops_csv(reports: list[FlopsReport]) -> str:
    return _csv("variant,T,N,D,N_qk,N_v,flops_spatial,flops_temporal,"
                "flops_proj,flops_total",
                ([r.variant, r.dims.T, r.dims.N, r.dims.D, r.dims.N_qk,
                  r.dims.N_v, r.flops_spatial, r.flops_temporal,
                  r.flops_proj, r.flops_total] for r in reports))
