"""Analytic FLOPs model and measured scaling benchmark.

FLOPs are multiply-adds times two, matmuls only (softmax, normalization,
and activations are excluded; they are dominated and the asymptotic claims
ignore them). The closed forms enumerate the exact matmul sequence of each
variant's forward pass, and an instrumented run with a counting hook on
the matmul kernel must reproduce them exactly.

Projection order is fixed: (U^T z) first, then (. W). Wall time is the
median over >= 5 repeats after one discarded warmup; peak memory comes
from the library's own live-buffer byte accounting, not process RSS.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from . import attention as at
from . import autodiff as ad
from . import blocks as bl
from .core import ConfigError, count_kernels

VARIANTS = ("local", "global", "hybrid", "full3d")

CSV_HEADER = ("variant,T,N,D,N_qk,N_v,heads_m,heads_n,"
              "flops_total,wall_ms,peak_live_bytes,seed")


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
    T: int
    wall_ms: float
    peak_live_bytes: int
    flops_total: int
    seed: int
    dims: CostDims


# ---------------------------------------------------------------------------
# closed forms

def _token_attn_proj(l: int, d: int, d_h: int) -> int:
    return 6 * l * d * d_h + 2 * l * d_h * d


def _token_attn_scores(l: int, d_h: int) -> int:
    return 4 * l * l * d_h  # q k^T plus weights v


def _matrix_proj(dm: CostDims) -> int:
    per_frame = (
        2 * dm.N_qk * dm.N * dm.D + 2 * dm.N_qk * dm.D * dm.D_qk  # q
        + 2 * dm.N_qk * dm.N * dm.D + 2 * dm.N_qk * dm.D * dm.D_qk  # k
        + 2 * dm.N_v * dm.N * dm.D + 2 * dm.N_v * dm.D * dm.D_v  # v
        + 2 * dm.N * dm.N_v * dm.D_v + 2 * dm.N * dm.D_v * dm.D  # o
    )
    return dm.T * per_frame


def _matrix_scores(dm: CostDims) -> int:
    return (2 * dm.T * dm.T * dm.N_qk * dm.D_qk
            + 2 * dm.T * dm.T * dm.N_v * dm.D_v)


def flops_closed_form(variant: str, dims: CostDims) -> FlopsReport:
    dm = dims
    if variant == "full3d":
        tokens = dm.T * dm.N
        return FlopsReport(
            variant, dm,
            flops_spatial=0,
            flops_temporal=_token_attn_scores(tokens, dm.D_h),
            flops_proj=_token_attn_proj(tokens, dm.D, dm.D_h))

    spatial_proj = dm.T * _token_attn_proj(dm.N, dm.D, dm.D_h)
    spatial_scores = dm.T * _token_attn_scores(dm.N, dm.D_h)
    local_proj = _token_attn_proj(dm.T * dm.N, dm.D, dm.D_h)
    local_scores = dm.N * _token_attn_scores(dm.T, dm.D_h)
    fusion = 2 * dm.T * dm.N * (2 * dm.D) * dm.D

    if variant == "local":
        return FlopsReport(variant, dm, spatial_scores, local_scores,
                           spatial_proj + local_proj)
    if variant == "global":
        return FlopsReport(variant, dm, spatial_scores, _matrix_scores(dm),
                           spatial_proj + _matrix_proj(dm))
    if variant == "hybrid":
        return FlopsReport(
            variant, dm, spatial_scores,
            local_scores + _matrix_scores(dm),
            spatial_proj + local_proj + _matrix_proj(dm) + fusion)
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
    spatial attention, then the block's temporal wiring (full 3D replaces
    both, as in the closed form)."""
    if block.cfg.variant != "full3d":
        x = at.spatial_attention(x, block.spatial)
    return block._temporal(x)


def flops_instrumented(variant: str, dims: CostDims,
                       seed: int = 0) -> tuple[int, int]:
    """(flops, peak_live_bytes) of a real forward pass with counting hooks."""
    block = _block(variant, dims, seed)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    clip = rng.normal(size=(dims.T, dims.N, dims.D))
    with ad.no_grad():
        with count_kernels() as counter:
            out = _attend(block, ad.const(clip))
            del out
        return counter.flops, counter.peak_live_bytes


# ---------------------------------------------------------------------------
# benchmark harness

def run_bench(variants: list[str], t_list: list[int], dims: CostDims,
              repeats: int = 5, seed: int = 0) -> list[BenchRecord]:
    if repeats < 5:
        raise ConfigError("benchmark requires >= 5 repeats")
    from dataclasses import replace

    records = []
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant: {variant!r}")
        for t in t_list:
            dm = replace(dims, T=t)
            block = _block(variant, dm, seed)
            rng = np.random.Generator(np.random.Philox(seed + 1))
            clip = rng.normal(size=(t, dm.N, dm.D))

            def once():
                with ad.no_grad():
                    _attend(block, ad.const(clip))

            once()  # warmup, discarded
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                once()
                times.append((time.perf_counter() - t0) * 1e3)
            flops, peak = flops_instrumented(variant, dm, seed)
            records.append(BenchRecord(
                variant=variant, T=t,
                wall_ms=float(np.median(times)),
                peak_live_bytes=peak, flops_total=flops,
                seed=seed, dims=dm))
    return records


def bench_csv(records: list[BenchRecord]) -> str:
    """CSV with the fixed schema, LF line endings, '.' decimal separator."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        dm = r.dims
        buf.write(
            f"{r.variant},{r.T},{dm.N},{dm.D},{dm.N_qk},{dm.N_v},"
            f"{dm.heads_m},{dm.heads_n},{r.flops_total},"
            f"{r.wall_ms:.6f},{r.peak_live_bytes},{r.seed}\n")
    return buf.getvalue()


def flops_csv(reports: list[FlopsReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variant", "T", "N", "D", "N_qk", "N_v",
                     "flops_spatial", "flops_temporal", "flops_proj",
                     "flops_total"])
    for r in reports:
        dm = r.dims
        writer.writerow([r.variant, dm.T, dm.N, dm.D, dm.N_qk, dm.N_v,
                         r.flops_spatial, r.flops_temporal, r.flops_proj,
                         r.flops_total])
    return buf.getvalue()
