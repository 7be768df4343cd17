import builtins
import ctypes
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from mattn import autodiff as ad
from mattn import blocks as bl
from mattn import diffusion as df
from mattn.core import ConfigError, NumericError


@pytest.mark.parametrize("K", [1, 10, 250, 1000])
def test_variance_preserving_identity(K):
    sched = df.make_schedule(K)
    assert np.max(np.abs(sched.a ** 2 + sched.sigma ** 2 - 1.0)) <= 1e-12
    assert sched.a[0] == 1.0 and sched.sigma[0] == 0.0


def test_single_step_schedule_value():
    sched = df.make_schedule(1)
    assert sched.a[1] == pytest.approx(np.sqrt(1.0 - 1e-4), abs=1e-15)


def test_snr_strictly_decreasing():
    sched = df.make_schedule(1000)
    snr = (sched.a[1:] / sched.sigma[1:]) ** 2
    assert np.all(np.diff(snr) < 0.0)


def test_forward_diffuse_marginal_moments():
    sched = df.make_schedule(100)
    rng = np.random.Generator(np.random.Philox(0))
    x0 = np.ones(100_000)
    eps = rng.normal(size=x0.shape)
    k = 60
    xk = df.forward_diffuse(x0, k, eps, sched)
    assert xk.mean() == pytest.approx(sched.a[k], abs=0.02)
    assert xk.std() == pytest.approx(sched.sigma[k], abs=0.02)


def test_schedule_and_sampler_settings_validated():
    for make in (lambda: df.make_schedule(0),
                 lambda: df.SamplerConfig(eta=2.0),
                 lambda: df.SamplerConfig(steps=0)):
        with pytest.raises(ConfigError):
            make()


def test_sample_rejects_bad_model_output():
    sched = df.make_schedule(10)
    cfg = df.SamplerConfig(steps=3)
    with pytest.raises(ConfigError, match="model output"):
        df.sample(lambda x, k: np.zeros((1, 2, 2)), (2, 2, 2), cfg, sched)
    with pytest.raises(NumericError, match="non-finite reverse mean"):
        df.sample(lambda x, k: np.full(x.shape, np.inf), (2, 2, 2), cfg,
                  sched)


def test_forward_diffuse_validates():
    sched = df.make_schedule(10)
    with pytest.raises(ConfigError):
        df.forward_diffuse(np.ones(3), 11, np.ones(3), sched)
    with pytest.raises(ConfigError):
        df.forward_diffuse(np.ones(3), 5, np.ones(4), sched)
    with pytest.raises(ConfigError):
        df.forward_diffuse(np.ones((2, 3)), [5, 11], np.ones((2, 3)), sched)


def test_forward_diffuse_takes_one_step_per_clip():
    sched = df.make_schedule(10)
    rng = np.random.Generator(np.random.Philox(3))
    x, eps = rng.normal(size=(2, 3, 4, 5, 6))
    ks = np.array([2, 9, 5])
    got = df.forward_diffuse(x, ks, eps, sched)
    for i, k in enumerate(ks):
        assert np.array_equal(got[i],
                              df.forward_diffuse(x[i], k, eps[i], sched))


def test_reverse_variance_edge_cases():
    sched = df.make_schedule(50)
    assert df.reverse_variance(5, 4, 0.0, sched) == 0.0
    assert df.reverse_variance(5, 0, 1.0, sched) == 0.0
    assert df.reverse_variance(5, 4, 1.0, sched) > 0.0


def test_reverse_variance_matches_posterior_at_eta_one():
    sched = df.make_schedule(100)
    for k in range(2, 101, 7):
        beta_k = 1.0 - (sched.a[k] / sched.a[k - 1]) ** 2
        post = (sched.sigma[k - 1] ** 2 / sched.sigma[k] ** 2) * beta_k
        got = df.reverse_variance(k, k - 1, 1.0, sched)
        assert abs(got - post) <= 1e-12


def test_stride_steps_contract():
    ks = df.stride_steps(1000, 50)
    assert ks[0] == 1000 and ks[-1] == 1
    assert len(ks) == 50
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert df.stride_steps(10, 10) == list(range(10, 0, -1))
    assert df.stride_steps(5, 1) == [5]


def test_sampler_deterministic_for_fixed_seed():
    sched = df.make_schedule(40)
    cfg = df.SamplerConfig(eta=0.7, steps=10, seed=3)

    def model_fn(x, k):
        return 0.1 * x

    a = df.sample(model_fn, (2, 3, 4), cfg, sched).to_array()
    b = df.sample(model_fn, (2, 3, 4), cfg, sched).to_array()
    assert np.array_equal(a, b)


def test_zero_model_eta0_closed_form():
    # with eps_hat = 0 and eta = 0 each jump is x -> (a_to / a_from) x,
    # so the composition collapses to x_K / a_K
    sched = df.make_schedule(2)
    cfg = df.SamplerConfig(eta=0.0, steps=2, seed=9)
    got = df.sample(lambda x, k: np.zeros_like(x), (1, 2, 2),
                    cfg, sched).to_array()
    rng = np.random.Generator(np.random.Philox(9))
    x_k = rng.normal(size=(1, 2, 2))
    assert np.max(np.abs(got - x_k / sched.a[2])) <= 1e-12


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_scalar_oracle_sampler_moments(eta):
    """With the exact posterior score for scalar Gaussian data the sampler
    must reproduce the data distribution's first two moments."""
    m, s = 1.0, 0.5
    # K large enough that the terminal marginal is essentially N(0, 1),
    # otherwise the deterministic (eta=0) path keeps the init mismatch
    sched = df.make_schedule(1000)

    def model_fn(x, k):
        return sched.sigma[k] * (x - sched.a[k] * m) / (
            sched.a[k] ** 2 * s ** 2 + sched.sigma[k] ** 2)

    cfg = df.SamplerConfig(eta=eta, steps=250, seed=11)
    out = df.sample(model_fn, (1, 4096, 1), cfg, sched).to_array()
    assert abs(out.mean() - m) / m <= 0.05
    assert abs(out.std() - s) / s <= 0.05


def warm_toy_model():
    """A toy hybrid model whose gates and head are open, so that its
    predicted noise depends on the clip and the step."""
    cfg = bl.BlockConfig(depth=1, d=8, n=4, variant="hybrid", n_qk=2, n_v=4)
    model = bl.Model(cfg, seed=0)
    rng = np.random.Generator(np.random.Philox(13))
    model.blocks[0].adaln_b.set_value(rng.normal(0.0, 0.5, (1, 72)))
    model.head_W.set_value(rng.normal(0.0, 0.35, (8, 8)))
    return model


def reference_sample(model_fn, shape, cfg, sched):
    """The reverse chain written out with a noise draw on every step,
    used or not."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x = rng.normal(size=shape)
    a, s = sched.a, sched.sigma
    ks = df.stride_steps(sched.K, min(cfg.steps, sched.K))
    for i, k_from in enumerate(ks):
        k_to = ks[i + 1] if i + 1 < len(ks) else 0
        eps_hat = model_fn(x, k_from)
        noise = rng.normal(size=shape)
        omega_sq = df.reverse_variance(k_from, k_to, cfg.eta, sched)
        coef = np.sqrt(max(s[k_to] ** 2 - omega_sq, 0.0)) \
            - s[k_from] * a[k_to] / a[k_from]
        x = (a[k_to] / a[k_from]) * x + coef * eps_hat
        if omega_sq > 0.0:
            x = x + np.sqrt(omega_sq) * noise
    return x


@pytest.mark.parametrize("eta", [0.0, 0.7, 1.0])
def test_sampler_matches_a_noise_draw_per_step_bit_for_bit(eta):
    model = warm_toy_model()
    fn = df.model_sampler(model)
    sched = df.make_schedule(1000)
    cfg = df.SamplerConfig(eta=eta, steps=12, seed=5)
    got = df.sample(fn, (3, 4, 8), cfg, sched).to_array()
    want = reference_sample(fn, (3, 4, 8), cfg, sched)
    assert np.array_equal(got, want)


def count_normal_draws(monkeypatch):
    """Route every Generator built from here on through a wrapper that
    records the size of each normal draw."""
    draws = []
    real = np.random.Generator

    class Counting:
        def __init__(self, bit_generator):
            self._rng = real(bit_generator)

        def normal(self, *args, **kwargs):
            draws.append(kwargs.get("size"))
            return self._rng.normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    return draws


@pytest.mark.parametrize("eta, draws", [(0.0, 1), (0.5, 5)])
def test_sampler_draws_noise_only_for_stochastic_steps(monkeypatch, eta,
                                                        draws):
    # five steps: the initial state, then one draw per step that adds
    # noise, which is every step but the last one when eta > 0
    sched = df.make_schedule(40)
    sizes = count_normal_draws(monkeypatch)
    df.sample(lambda x, k: 0.1 * x, (2, 3, 4),
              df.SamplerConfig(eta=eta, steps=5, seed=1), sched)
    assert sizes == [(2, 3, 4)] * draws


def test_model_sampler_is_the_read_only_forward_value():
    model = warm_toy_model()
    x = np.random.Generator(np.random.Philox(4)).normal(size=(3, 4, 8))
    out = df.model_sampler(model)(x, 9)
    with ad.no_grad():
        want = model.forward(ad.const(x), 9).value
    assert np.array_equal(out, want) and np.any(out != 0.0)
    assert isinstance(out, np.ndarray) and not out.flags.writeable


def test_nm_loss_is_unit_for_zero_model():
    cfg = bl.BlockConfig(depth=1, d=4, n=2, variant="local", n_qk=1, n_v=2)
    model = bl.Model(cfg, seed=0)  # predicts exactly zero at init
    sched = df.make_schedule(100)
    rng = np.random.Generator(np.random.Philox(1))
    batch = rng.normal(size=(8, 2, 2, 4))
    ks = rng.integers(1, 101, size=8)
    epss = rng.normal(size=(8, 2, 2, 4))
    loss = df.nm_loss(model, batch, ks, epss, sched)
    expected = np.mean([np.mean(e ** 2) for e in epss])
    assert loss == pytest.approx(expected, abs=1e-12)


def test_clip_by_global_norm_contract():
    g = [np.full((2, 2), 3.0), np.full((3,), 4.0).reshape(3, 1)]
    clipped, norm = df.clip_by_global_norm(g, 1.0)
    assert norm == pytest.approx(np.sqrt(4 * 9 + 3 * 16), abs=1e-12)
    assert df.global_norm(clipped) == pytest.approx(1.0, abs=1e-12)
    same, norm2 = df.clip_by_global_norm(g, norm + 1.0)
    assert all(np.array_equal(a, b) for a, b in zip(same, g))


def test_global_norm_is_a_left_fold(monkeypatch):
    """The squared sums add left to right in float64 on every Python, even
    where builtin sum() is compensated (3.12 and later): 2**53 + 1 rounds
    back to 2**53 each time, where a compensated sum keeps the ones."""
    arrays = [np.full((1, 2), 2.0 ** 26)] + [np.ones((1, 1))] * 8
    compensated = np.sqrt(math.fsum([2.0 ** 53] + [1.0] * 8))
    assert compensated != np.sqrt(2.0 ** 53)
    monkeypatch.setattr(builtins, "sum",
                        lambda xs, start=0: math.fsum(xs) + start)
    assert df.global_norm(arrays) == np.sqrt(2.0 ** 53)


def test_adamw_moves_against_gradient():
    import mattn.autodiff as ad
    p = ad.param(np.zeros((2, 2)))
    opt = df.AdamW([p], lr=0.1)
    opt.step([np.ones((2, 2))])
    assert np.all(p.value < 0.0)


def test_adamw_matches_reference_adam():
    """Three steps on two parameters against Adam written out in numpy:
    betas (0.9, 0.999), eps 1e-8, bias correction, no weight decay."""
    rng = np.random.Generator(np.random.Philox(4))
    init = [rng.normal(size=(2, 3)), rng.normal(size=(1, 4))]
    grads = [[rng.normal(size=x.shape) for x in init] for _ in range(3)]
    params = [ad.param(x) for x in init]
    opt = df.AdamW(params, lr=0.05)

    want = [x.copy() for x in init]
    m = [np.zeros_like(x) for x in init]
    v = [np.zeros_like(x) for x in init]
    for t, step_grads in enumerate(grads, 1):
        opt.step(step_grads)
        for i, g in enumerate(step_grads):
            m[i] = 0.9 * m[i] + 0.1 * g
            v[i] = 0.999 * v[i] + 0.001 * g * g
            m_hat = m[i] / (1.0 - 0.9 ** t)
            v_hat = v[i] / (1.0 - 0.999 ** t)
            want[i] = want[i] - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for p, w in zip(params, want):
            assert np.max(np.abs(p.value - w)) <= 1e-12


@pytest.mark.parametrize("field", ["lr", "grad_clip_norm"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ConfigError, match="must be finite"):
        df.TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value,rule", [
    ("lr", -1.0, "lr must be finite and >= 0"),
    ("batch", 0, "batch must be >= 1"),
    ("steps", -1, "steps must be >= 0"),
    ("clip_start_step", -1, "clip_start_step must be >= 0"),
    ("ema_decay", 1.0, "ema_decay must be in [0, 1)"),
    ("grad_clip_norm", -1.0, "grad_clip_norm must be finite and >= 0"),
])
def test_train_config_names_field_and_rule(field, value, rule):
    with pytest.raises(ConfigError, match=f"^{re.escape(rule)}, got "):
        df.TrainConfig(**{field: value})


def test_zero_grad_clip_leaves_gradients_unclipped():
    g = [np.full((2, 2), 3.0)]
    same, norm = df.clip_by_global_norm(g, 0.0)
    assert norm == pytest.approx(6.0, abs=1e-12)
    assert np.array_equal(same[0], g[0])
    df.TrainConfig(grad_clip_norm=0.0)  # 0 is valid: no clipping


def _toy_training_setup(steps, lr):
    cfg = bl.BlockConfig(depth=1, d=4, n=2, variant="local", n_qk=1, n_v=2)
    model = bl.Model(cfg, seed=0)
    rng = np.random.Generator(np.random.Philox(2))
    dataset = rng.normal(size=(4, 2, 2, 4))
    sched = df.make_schedule(20)
    tcfg = df.TrainConfig(lr=lr, batch=2, steps=steps, seed=0)
    return model, dataset, tcfg, sched


def test_train_zero_lr_is_noop():
    model, dataset, tcfg, sched = _toy_training_setup(3, 0.0)
    before = {n: v.copy() for n, v in model.state().items()}
    result = df.train(model, dataset, tcfg, sched)
    for n, v in model.state().items():
        assert np.array_equal(v, before[n])
    assert len(result.trace) == 3


def test_train_records_trace_and_reduces_loss_direction():
    model, dataset, tcfg, sched = _toy_training_setup(30, 1e-2)
    result = df.train(model, dataset, tcfg, sched)
    assert len(result.trace) == 30
    assert all(np.isfinite(r.loss) for r in result.trace)
    assert set(result.state) == set(result.ema_state)
    # EMA lags the raw weights but tracks them
    assert result.trace[-1].ema_delta > 0.0


def test_train_holds_no_gradients_into_the_next_graph(monkeypatch):
    """No gradient that backward() returns, and none that
    clip_by_global_norm returns, is alive when the next step builds its
    graph: each would add a model's worth of gradients to the memory that
    step's forward and backward hold."""
    model, dataset, _, sched = _toy_training_setup(3, 1e-2)
    tcfg = df.TrainConfig(lr=1e-2, batch=2, steps=3, grad_clip_norm=1e-3,
                          seed=0)
    params = model.param_vars()
    refs, alive = [], []
    backward, clip = ad.backward, df.clip_by_global_norm
    loss_graph = df.nm_loss_graph

    def recording_backward(out, wrt, seed=None):
        grads = backward(out, wrt, seed)
        assert len(grads) == len(params)
        refs.extend(weakref.ref(g) for g in grads)
        return grads

    def recording_clip(grads, max_norm):
        clipped, norm = clip(grads, max_norm)
        assert norm > max_norm > 0  # the step clips
        refs.extend(weakref.ref(g) for g in clipped)
        return clipped, norm

    def checking_loss_graph(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return loss_graph(*args)

    monkeypatch.setattr(ad, "backward", recording_backward)
    monkeypatch.setattr(df, "clip_by_global_norm", recording_clip)
    monkeypatch.setattr(df, "nm_loss_graph", checking_loss_graph)
    df.train(model, dataset, tcfg, sched)
    assert len(refs) > 3 * len(params) and alive == [0, 0, 0]


def test_train_deterministic():
    a = df.train(*_toy_training_setup(5, 1e-3)[:2],
                 df.TrainConfig(lr=1e-3, batch=2, steps=5, seed=0),
                 df.make_schedule(20))
    b = df.train(*_toy_training_setup(5, 1e-3)[:2],
                 df.TrainConfig(lr=1e-3, batch=2, steps=5, seed=0),
                 df.make_schedule(20))
    for n in a.state:
        assert np.array_equal(a.state[n], b.state[n])
    assert [r.loss for r in a.trace] == [r.loss for r in b.trace]


# Minor page faults of each of 8 training steps of a one-block p128 model,
# read at each loss graph, in a fresh process so the heap history is its own
FAULT_PROBE = """
import resource
import numpy as np
from mattn import config, diffusion as df
from mattn.blocks import Model

cfg = config.resolve([("preset", "p128"), ("T", "8"), ("depth", "1")])
model = Model(config.block_config(cfg), seed=0)
rng = np.random.Generator(np.random.Philox(1))
dataset = rng.normal(size=(2, cfg["T"], cfg["N"], cfg["D"]))
faults, loss_graph = [], df.nm_loss_graph

def counting_loss_graph(*args):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return loss_graph(*args)

df.nm_loss_graph = counting_loss_graph
df.train(model, dataset, df.TrainConfig(batch=1, steps=8, seed=0),
         df.make_schedule(1000))
print(*np.diff(faults))
"""


def test_train_steps_fault_no_pages():
    """After warm-up a training step reuses the heap its previous step
    freed: glibc does not hand it back to the OS between steps, so the
    step does not page-fault it in again (about 5,000 faults per step
    when it did)."""
    pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):
        pytest.skip("the C library has no mallopt")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    per_step = [int(f) for f in run.stdout.split()]
    assert len(per_step) == 7
    assert np.median(per_step[-5:]) < 500, per_step
