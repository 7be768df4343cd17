from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mattn import costmodel as cm
from mattn.core import ConfigError

P128 = cm.CostDims(T=128, N=64, D=128, D_h=128, N_qk=32, D_qk=128,
                   N_v=256, D_v=128, heads_m=1, heads_n=32)


def small_dims(t, n, heads_n=1):
    return cm.CostDims(T=t, N=n, D=8, D_h=8, N_qk=4, D_qk=8, N_v=8, D_v=8,
                       heads_m=1, heads_n=heads_n)


@pytest.mark.parametrize("variant", cm.VARIANTS)
@pytest.mark.parametrize("t", [1, 2, 4, 8])
@pytest.mark.parametrize("n", [1, 4, 16])
def test_instrumented_equals_closed_form(variant, t, n):
    dims = small_dims(t, n)
    closed = cm.flops_closed_form(variant, dims).flops_total
    measured, _ = cm.flops_instrumented(variant, dims)
    assert measured == closed


@pytest.mark.parametrize("variant", ["global", "hybrid"])
def test_instrumented_exact_with_column_heads(variant):
    dims = small_dims(4, 4, heads_n=2)
    closed = cm.flops_closed_form(variant, dims).flops_total
    measured, _ = cm.flops_instrumented(variant, dims)
    assert measured == closed


def test_full3d_temporal_score_quadratic_in_t():
    r128 = cm.flops_closed_form("full3d", P128).flops_temporal
    r16 = cm.flops_closed_form("full3d", replace(P128, T=16)).flops_temporal
    assert r128 == 64 * r16


@pytest.mark.parametrize("dims", [P128, small_dims(4, 16)])
def test_full3d_counts_the_spatial_layer_it_runs(dims):
    full3d = cm.flops_closed_form("full3d", dims)
    local = cm.flops_closed_form("local", dims)
    assert full3d.flops_spatial == local.flops_spatial > 0
    assert full3d.flops_proj == local.flops_proj


def test_hybrid_to_local_ratio_pinned_at_p128():
    h = cm.flops_closed_form("hybrid", P128).flops_total
    l = cm.flops_closed_form("local", P128).flops_total
    assert Fraction(h, l) == Fraction(28, 11)


def test_matrix_temporal_scores_linear_in_n():
    """The matrix score term depends on N_qk/N_v, not on token count N."""
    a = cm.flops_closed_form("global", small_dims(8, 4)).flops_temporal
    b = cm.flops_closed_form("global", small_dims(8, 16)).flops_temporal
    assert a == b
    # whereas full3d's joint scores grow with N^2
    c = cm.flops_closed_form("full3d", small_dims(8, 4)).flops_temporal
    d = cm.flops_closed_form("full3d", small_dims(8, 16)).flops_temporal
    assert d == 16 * c


def test_peak_bytes_scaling_full3d_superlinear():
    peaks = {}
    for variant in ("full3d", "hybrid", "local"):
        peaks[variant] = [
            cm.flops_instrumented(variant, small_dims(t, 16))[1]
            for t in (16, 32)]
    assert peaks["full3d"][1] / peaks["full3d"][0] >= 3.0
    assert peaks["hybrid"][1] / peaks["hybrid"][0] <= 2.5
    assert peaks["local"][1] / peaks["local"][0] <= 2.5


def test_cost_dims_validation():
    with pytest.raises(ConfigError):
        cm.CostDims(T=0, N=1, D=1, D_h=1, N_qk=1, D_qk=1, N_v=1, D_v=1)
    with pytest.raises(ConfigError):
        small_dims(2, 2, heads_n=3)  # 3 does not divide D_qk=8
    with pytest.raises(ConfigError):
        cm.flops_closed_form("nope", small_dims(1, 1))


def test_bench_records_and_csv_schema():
    recs = cm.run_bench(["local", "full3d"], [1, 2], small_dims(1, 4),
                        seed=3)
    text = cm.bench_csv(recs)
    lines = text.splitlines()
    assert lines[0] == ("variant,T,N,D,N_qk,N_v,heads_m,heads_n,"
                        "flops_total,wall_ms,peak_live_bytes,seed")
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "local" and first[1] == "1"
    assert int(first[8]) == cm.flops_closed_form(
        "local", small_dims(1, 4)).flops_total
    assert float(first[9]) > 0.0
    assert "\r" not in text


def test_bench_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        cm.run_bench(["bogus"], [1], small_dims(1, 4))


def test_bench_flops_column_deterministic():
    a = cm.run_bench(["hybrid"], [2], small_dims(1, 4), seed=0)
    b = cm.run_bench(["hybrid"], [2], small_dims(1, 4), seed=0)
    assert a[0].flops_total == b[0].flops_total
    assert a[0].peak_live_bytes == b[0].peak_live_bytes


def test_flops_csv_totals_add_up():
    reports = [cm.flops_closed_form(v, small_dims(2, 4))
               for v in cm.VARIANTS]
    text = cm.flops_csv(reports)
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        assert int(parts[-1]) == sum(int(x) for x in parts[-4:-1])
