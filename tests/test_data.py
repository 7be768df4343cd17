import numpy as np
import pytest

from mattn import data as da
from mattn.core import ConfigError


def test_clip_deterministic_and_binary():
    cfg = da.SynthConfig(kind="moving_square", frames=5, side=8, square=3,
                         vx=1.0, vy=1.0, seed=4)
    a = da.generate_clip(cfg)
    b = da.generate_clip(cfg)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {0.0, 1.0}
    assert a.shape == (5, 8, 8)


def test_square_mass_is_conserved():
    cfg = da.SynthConfig(kind="moving_square", frames=6, side=10, square=3,
                         vx=1.0, vy=0.0, seed=0)
    clip = da.generate_clip(cfg)
    assert np.all(clip.sum(axis=(1, 2)) == 9.0)


def test_integer_velocity_is_pure_shift():
    cfg = da.SynthConfig(kind="moving_square", frames=2, side=12, square=3,
                         vx=2.0, vy=0.0, seed=1)
    clip = da.generate_clip(cfg)
    ys, xs = np.nonzero(clip[0])
    ys2, xs2 = np.nonzero(clip[1])
    if xs.max() + 2 <= 11:  # no bounce between the two frames
        assert np.array_equal(xs2, xs + 2)
        assert np.array_equal(ys2, ys)


def test_centroid_speed_matches_velocity():
    cfg = da.SynthConfig(kind="bouncing_dot", frames=8, side=9, vx=1.0,
                         vy=2.0, seed=2)
    clip = da.generate_clip(cfg)
    for t in range(7):
        c0 = np.array(np.nonzero(clip[t])).ravel()
        c1 = np.array(np.nonzero(clip[t + 1])).ravel()
        # reflections can flip a component; Manhattan speed is preserved
        assert np.abs(c1 - c0).sum() <= abs(cfg.vx) + abs(cfg.vy)


def test_static_clip_never_moves():
    cfg = da.SynthConfig(kind="static", frames=4, side=8, square=2,
                         vx=3.0, vy=3.0, seed=3)
    clip = da.generate_clip(cfg)
    for t in range(1, 4):
        assert np.array_equal(clip[t], clip[0])


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        da.SynthConfig(kind="unknown")
    with pytest.raises(ConfigError):
        da.SynthConfig(side=4, square=4)
    with pytest.raises(ConfigError):
        da.SynthConfig(side=8, vx=9.0)


def test_patchify_layout():
    frame = np.arange(16.0).reshape(4, 4)
    patches = da.patchify(frame, 2)
    assert patches.shape == (4, 4)
    assert np.array_equal(patches[0], [0, 1, 4, 5])   # top-left block
    assert np.array_equal(patches[1], [2, 3, 6, 7])   # top-right block
    with pytest.raises(ConfigError):
        da.patchify(frame, 3)


def test_token_count_is_grid_squared():
    cfg = da.SynthConfig(frames=3, side=8, square=2, seed=0)
    tokens = da.make_dataset(cfg, da.TokenizerConfig(patch=4, d=6),
                             count=1)[0]
    assert (tokens.T, tokens.N, tokens.D) == (3, 4, 6)


def test_tokenize_normalization():
    cfg = da.SynthConfig(frames=3, side=8, square=3, seed=5)
    tokens = da.make_dataset(cfg, da.TokenizerConfig(patch=4, d=6),
                             count=1)[0].to_array()
    assert abs(tokens.mean()) <= 1e-12
    assert tokens.std() == pytest.approx(1.0, abs=1e-12)


def test_dataset_shared_stats_and_determinism():
    base = da.SynthConfig(frames=3, side=8, square=2, vx=1.0, vy=1.0)
    tcfg = da.TokenizerConfig(patch=4, d=6)
    a = da.make_dataset(base, tcfg, count=6, seed=1)
    b = da.make_dataset(base, tcfg, count=6, seed=1)
    for x, y in zip(a, b):
        assert np.array_equal(x.to_array(), y.to_array())
    pooled = np.concatenate([v.to_array().ravel() for v in a])
    assert abs(pooled.mean()) <= 1e-10
    assert pooled.std() == pytest.approx(1.0, abs=1e-10)


def test_projection_matrix_shape_and_seed():
    t1 = da.projection_matrix(da.TokenizerConfig(patch=3, d=5, seed=1))
    t2 = da.projection_matrix(da.TokenizerConfig(patch=3, d=5, seed=1))
    t3 = da.projection_matrix(da.TokenizerConfig(patch=3, d=5, seed=2))
    assert t1.shape == (9, 5)
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)
