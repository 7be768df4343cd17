import numpy as np
import pytest

from mattn import oracle as orc
from mattn.core import ConfigError


def test_spatial_blockdiag_layout():
    blocks = [np.full((2, 2), 1.0), np.full((2, 2), 2.0)]
    m = orc.build_spatial_blockdiag(blocks)
    assert m.shape == (4, 4)
    assert np.array_equal(m[:2, :2], blocks[0])
    assert np.array_equal(m[2:, 2:], blocks[1])
    assert np.all(m[:2, 2:] == 0.0) and np.all(m[2:, :2] == 0.0)


def test_local_temporal_map_layout():
    # temporal map for spatial index n couples rows t*N+n only
    t_maps = [np.arange(4.0).reshape(2, 2), 10 + np.arange(4.0).reshape(2, 2)]
    m = orc.build_local_temporal_map(t_maps)
    n = 2
    for ti in range(2):
        for tj in range(2):
            for ni in range(n):
                assert m[ti * n + ni, tj * n + ni] == t_maps[ni][ti, tj]
            assert m[ti * n + 0, tj * n + 1] == 0.0


def test_lift_blockdiag():
    u = np.arange(6.0).reshape(3, 2)
    lifted = orc.lift_blockdiag(u, 2)
    assert lifted.shape == (6, 4)
    assert np.array_equal(lifted[:3, :2], u)
    assert np.array_equal(lifted[3:, 2:], u)
    assert np.all(lifted[:3, 2:] == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bottleneck_identity_random_instances(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    t, n = 3, 4
    S = orc.build_spatial_blockdiag([rng.normal(size=(n, n))
                                     for _ in range(t)])
    H = orc.build_local_temporal_map([rng.normal(size=(t, t))
                                      for _ in range(n)])
    assert orc.bottleneck_identity_check(H, S, t, n) <= 1e-12


def test_bottleneck_identity_breaks_for_swapped_composition():
    rng = np.random.Generator(np.random.Philox(3))
    t, n = 3, 3
    S = orc.build_spatial_blockdiag([rng.normal(size=(n, n))
                                     for _ in range(t)])
    H = orc.build_local_temporal_map([rng.normal(size=(t, t))
                                      for _ in range(n)])
    assert orc.bottleneck_identity_check(S @ H, S, t, n) > orc.TOL


def test_matrix_map_expansion_requires_equal_widths():
    rng = np.random.Generator(np.random.Philox(4))
    t, n = 2, 3
    S = orc.build_spatial_blockdiag([rng.normal(size=(n, n))
                                     for _ in range(t)])
    gram = rng.normal(size=(t * n, t * n))
    with pytest.raises(ConfigError):
        orc.matrix_map_expansion_check(
            rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
            rng.normal(size=(n, 3)), gram, S, t, n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_path_equivalence_small(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    t, n, d = 3, 4, 3
    p = orc.make_linearized_params(rng, n, d, d_h=2, n_r=2)
    z = rng.normal(size=(t, n, d))
    assert orc.dual_path_equivalence(z, p) <= 1e-10


def test_identity_u_reduction_bit_exact():
    rng = np.random.Generator(np.random.Philox(5))
    t, n, d = 3, 3, 4
    p = orc.make_linearized_params(rng, n, d, d_h=2, n_r=n, identity_u=True)
    x = rng.normal(size=(t, n, d))
    a = orc.linear_matrix_temporal(x, p)
    b = orc.linear_temporal_sharedgram(x, p)
    assert np.array_equal(a, b)


def test_identity_u_requires_square():
    rng = np.random.Generator(np.random.Philox(6))
    with pytest.raises(ConfigError):
        orc.make_linearized_params(rng, 3, 4, d_h=2, n_r=2, identity_u=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suite_passes(seed):
    results = orc.run_oracle_suite(seed=seed)
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert "dual_path_equivalence" in names
    assert "composition_order_control" in names


def test_suite_fault_injection_fails():
    results = orc.run_oracle_suite(seed=0, fault=True)
    by_name = {r.name: r for r in results}
    assert not by_name["dual_path_equivalence"].passed


def test_check_result_verdict_is_derived_from_tolerance():
    assert orc.CheckResult("x", 1e-12, 1e-12).passed
    assert not orc.CheckResult("x", 2e-12, 1e-12).passed
    assert orc.CheckResult("x", 0.0, 0.0).passed
    assert not orc.CheckResult("x", float("nan"), 1.0).passed


def test_checks_report_nan_for_a_nan_entry():
    t, n = 2, 3
    nan_map, ones = np.ones((t * n, t * n)), np.ones((t * n, t * n))
    nan_map[0, 0] = np.nan
    u = np.ones((n, 2))
    assert np.isnan(orc.bottleneck_identity_check(nan_map, ones, t, n))
    assert np.isnan(orc.matrix_map_expansion_check(u, u, u, nan_map, ones,
                                                   t, n))


def test_suite_fails_for_a_nan_in_a_map(monkeypatch):
    build = orc.build_local_temporal_map

    def with_nan(maps):
        out = build(maps)
        out[0, -1] = np.nan
        return out

    monkeypatch.setattr(orc, "build_local_temporal_map", with_nan)
    by_name = {r.name: r for r in orc.run_oracle_suite(seed=0)}
    for name in ("structural_zeros", "bottleneck_identity"):
        assert np.isnan(by_name[name].max_dev)
        assert not by_name[name].passed
    # a NaN deviation does not show that the swapped order breaks
    assert not by_name["composition_order_control"].passed
