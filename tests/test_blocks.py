import itertools

import numpy as np
import pytest

from mattn import autodiff as ad
from mattn import blocks as bl
from mattn.core import ConfigError, VideoTokens


def toy_cfg(**kw):
    base = dict(depth=1, d=8, n=4, variant="hybrid", n_qk=2, n_v=4)
    base.update(kw)
    return bl.BlockConfig(**base)


def make_frames(rng, t, n, d):
    return ad.const(rng.normal(size=(t, n, d)))


@pytest.mark.parametrize("variant", bl.TEMPORAL_VARIANTS)
def test_block_is_identity_at_init(variant):
    rng = np.random.Generator(np.random.Philox(0))
    block = bl.Block.create(rng, toy_cfg(variant=variant))
    frames = make_frames(rng, 3, 4, 8)
    cond = ad.const(rng.normal(size=(1, 8)))
    with ad.no_grad():
        out = block.forward(frames, cond)
    assert np.array_equal(frames.value, out.value)


def test_block_not_identity_once_gates_open():
    rng = np.random.Generator(np.random.Philox(1))
    block = bl.Block.create(rng, toy_cfg())
    block.adaln_b.set_value(rng.normal(0.0, 0.5, (1, 9 * 8)))
    frames = make_frames(rng, 3, 4, 8)
    cond = ad.const(rng.normal(size=(1, 8)))
    with ad.no_grad():
        out = block.forward(frames, cond)
    assert not np.array_equal(frames.value[0], out.value[0])


def test_model_predicts_zero_noise_at_init():
    model = bl.Model(toy_cfg(), seed=0)
    rng = np.random.Generator(np.random.Philox(2))
    video = VideoTokens.from_array(rng.normal(size=(3, 4, 8)))
    out = model.predict(video, k=17)
    assert np.array_equal(out.to_array(), np.zeros((3, 4, 8)))


def test_sigmoid_gate_init_is_even_split():
    rng = np.random.Generator(np.random.Philox(3))
    mode = bl.make_fusion(rng, 8, "sigmoid_gate")
    assert mode.weights() == (0.5, 0.5)


def test_softmax_gate_init_weights():
    rng = np.random.Generator(np.random.Philox(4))
    mode = bl.make_fusion(rng, 8, "softmax_gate")
    wl, wg = mode.weights()
    assert wl == pytest.approx(0.97, abs=1e-12)
    assert wg == pytest.approx(0.03, abs=1e-12)
    assert wl + wg == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("variant", ["sigmoid_gate", "softmax_gate"])
def test_gate_fusion_is_convex_combination(variant):
    rng = np.random.Generator(np.random.Philox(5))
    mode = bl.make_fusion(rng, 8, variant)
    a = make_frames(rng, 2, 4, 8)
    b = make_frames(rng, 2, 4, 8)
    with ad.no_grad():
        fused = bl.fuse(a, b, mode)
    wl, wg = mode.weights()
    want = wl * a.value + wg * b.value
    assert np.max(np.abs(fused.value - want)) <= 1e-12


def test_forced_weights_local_returns_branch_bit_exact():
    rng = np.random.Generator(np.random.Philox(6))
    mode = bl.FusionMode("softmax_gate", forced_weights=(1.0, 0.0))
    a = make_frames(rng, 3, 4, 8)
    b = make_frames(rng, 3, 4, 8)
    with ad.no_grad():
        fused = bl.fuse(a, b, mode)
    assert fused.value is a.value or np.array_equal(fused.value, a.value)


def test_concat_fusion_selector_matrix_recovers_branch():
    d = 8
    mode = bl.FusionMode(
        "concat_mlp",
        W=ad.param(np.concatenate([np.eye(d), np.zeros((d, d))])),
        b=ad.param(np.zeros((1, d))))
    rng = np.random.Generator(np.random.Philox(7))
    a = make_frames(rng, 2, 4, d)
    b = make_frames(rng, 2, 4, d)
    with ad.no_grad():
        fused = bl.fuse(a, b, mode)
    assert np.array_equal(fused.value, a.value)


def test_fusion_shape_mismatch_rejected():
    rng = np.random.Generator(np.random.Philox(8))
    mode = bl.make_fusion(rng, 8, "sigmoid_gate")
    a = make_frames(rng, 2, 4, 8)
    b = make_frames(rng, 2, 3, 8)
    with pytest.raises(Exception):
        bl.fuse(a, b, mode)


def test_hybrid_forced_local_matches_local_block_bit_exact():
    """With the fusion pinned to (1, 0) and shared sub-layer parameters the
    hybrid block must reproduce the local block's output exactly."""
    rng = np.random.Generator(np.random.Philox(10))
    hybrid = bl.Block.create(np.random.Generator(np.random.Philox(42)),
                             toy_cfg(variant="hybrid"))
    local = bl.Block.create(np.random.Generator(np.random.Philox(42)),
                            toy_cfg(variant="local"))
    hybrid.fusion.forced_weights = (1.0, 0.0)
    # open the gates identically so the comparison is not trivially 0 == 0
    warm = rng.normal(0.0, 0.5, (1, 9 * 8))
    hybrid.adaln_b.set_value(warm)
    local.adaln_b.set_value(warm)

    frames = make_frames(rng, 3, 4, 8)
    cond = ad.const(rng.normal(size=(1, 8)))
    with ad.no_grad():
        a = hybrid.forward(frames, cond)
        b = local.forward(frames, cond)
    assert np.array_equal(a.value, b.value)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fusion", bl.FUSION_VARIANTS)
def test_depth1_hybrid_model_gradients(seed, fusion):
    """Spot-check model gradients against central differences."""
    cfg = toy_cfg(d=4, n=2, n_qk=1, n_v=2, fusion=fusion)
    model = bl.Model(cfg, seed=seed)
    rng = np.random.Generator(np.random.Philox(seed + 100))
    # open gates and head so gradients reach every sub-layer
    model.head_W.set_value(rng.normal(0.0, 0.5, (4, 4)))
    model.blocks[0].adaln_b.set_value(rng.normal(0.0, 0.5, (1, 36)))

    frames = make_frames(rng, 2, 2, 4)
    ups = rng.normal(size=(2, 2, 4))

    def loss_value():
        with ad.no_grad():
            out = model.forward(frames, k=3)
        return float(np.sum(out.value * ups))

    out = model.forward(frames, k=3)
    total = ad.sum_all(ad.mul(out, ad.const(ups)))
    params = model.param_vars()
    ad.zero_grads(params)
    ad.backward(total)

    h = 1e-5
    for p in params:
        base = p.value.copy()
        grad = p.grad if p.grad is not None else np.zeros(p.shape)
        idx = tuple(rng.integers(0, s) for s in base.shape)
        pert = base.copy()
        pert[idx] += h
        p.set_value(pert)
        lp = loss_value()
        pert[idx] -= 2 * h
        p.set_value(pert)
        lm = loss_value()
        p.set_value(base)
        fd = (lp - lm) / (2 * h)
        assert abs(grad[idx] - fd) / max(1.0, abs(fd)) <= 1e-4


def test_gate_gradient_ratio_is_small():
    cfg = toy_cfg(d=8, n=4)
    rng = np.random.Generator(np.random.Philox(11))
    batch = [VideoTokens.from_array(rng.normal(size=(3, 4, 8)))
             for _ in range(2)]
    ratio = bl.gate_gradient_ratio(batch, cfg, seed=0)
    assert 0.0 < ratio < 0.2


def test_gate_gradient_ratio_requires_hybrid():
    with pytest.raises(ConfigError):
        bl.gate_gradient_ratio([], toy_cfg(variant="local"))


def test_model_state_round_trip():
    cfg = toy_cfg()
    a = bl.Model(cfg, seed=0)
    b = bl.Model(cfg, seed=1)
    rng = np.random.Generator(np.random.Philox(12))
    a.blocks[0].adaln_b.set_value(rng.normal(size=(1, 72)))
    b.load_state(a.state())
    video = VideoTokens.from_array(rng.normal(size=(2, 4, 8)))
    a.head_W.set_value(rng.normal(size=(8, 8)))
    b.load_state(a.state())
    assert np.array_equal(a.predict(video, 5).to_array(),
                          b.predict(video, 5).to_array())


def test_model_load_state_rejects_wrong_shapes():
    model = bl.Model(toy_cfg(d=16), seed=0)
    state = model.state()
    state["head_W"] = np.zeros((3, 3))
    with pytest.raises(ConfigError, match="head_W"):
        model.load_state(state)
    # a rejected state leaves the parameters untouched
    assert model.head_W.shape == (16, 16)


@pytest.mark.parametrize("variant", bl.TEMPORAL_VARIANTS)
def test_graph_size_independent_of_frames_and_heads(variant, monkeypatch):
    """One Model.forward builds the same number of Vars for any T, N and
    head count: no Python loop over frames, positions or heads."""
    built = []
    init = ad.Var.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    counts = set()
    for t, n, heads_n in itertools.product((2, 8), (4, 9), (1, 4)):
        model = bl.Model(toy_cfg(variant=variant, n=n, heads_n=heads_n),
                         seed=0)
        clip = ad.const(np.ones((t, n, 8)))
        monkeypatch.setattr(ad.Var, "__init__", counting_init)
        built.clear()
        model.forward(clip, k=5)
        monkeypatch.setattr(ad.Var, "__init__", init)
        counts.add(len(built))
    assert len(counts) == 1


def test_block_config_validation():
    with pytest.raises(ConfigError):
        toy_cfg(variant="nope")
    with pytest.raises(ConfigError):
        toy_cfg(fusion="nope")
    with pytest.raises(ConfigError):
        toy_cfg(d=0)
