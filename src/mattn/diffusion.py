"""Variance-preserving DDPM engine.

Forward corruption x_k = a_k x + sigma_k eps on a linear-beta schedule,
noise-matching training with AdamW, global-norm gradient clipping and EMA,
and the generalized reverse sampler whose eta knob interpolates between
deterministic and full-stochastic ancestral steps.

All randomness comes from numpy's Philox generator: a counter-based,
documented PRNG whose streams are identical across platforms for a fixed
seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .blocks import Model, mean_squared_error
from .core import ConfigError, NumericError, VideoTokens


# ---------------------------------------------------------------------------
# schedule

@dataclass(frozen=True)
class NoiseSchedule:
    """Arrays a_0..a_K and sigma_0..sigma_K with a_k^2 + sigma_k^2 = 1."""

    K: int
    beta: np.ndarray   # per-step rates, length K (step 1..K)
    a: np.ndarray      # length K+1, a[0] = 1
    sigma: np.ndarray  # length K+1, sigma[0] = 0


def make_schedule(K: int, beta_start: float = 1e-4,
                  beta_end: float = 2e-2) -> NoiseSchedule:
    if K < 1:
        raise ConfigError(f"schedule needs K >= 1, got {K}")
    beta = np.linspace(beta_start, beta_end, K)
    abar = np.cumprod(1.0 - beta)
    a = np.concatenate([[1.0], np.sqrt(abar)])
    sigma = np.sqrt(1.0 - a ** 2)
    return NoiseSchedule(K=K, beta=beta, a=a, sigma=sigma)


# ---------------------------------------------------------------------------
# forward process

def forward_diffuse(x: np.ndarray, k: int, eps: np.ndarray,
                    sched: NoiseSchedule) -> np.ndarray:
    if not 0 <= k <= sched.K:
        raise ConfigError(f"step k={k} outside [0, {sched.K}]")
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x.shape != eps.shape:
        raise ConfigError(f"shape mismatch: x {x.shape} vs eps {eps.shape}")
    return sched.a[k] * x + sched.sigma[k] * eps


# ---------------------------------------------------------------------------
# reverse process

@dataclass
class SamplerConfig:
    eta: float = 0.0
    steps: int = 250
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must be in [0, 1], got {self.eta}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")


def reverse_variance(k_from: int, k_to: int, eta: float,
                     sched: NoiseSchedule) -> float:
    """omega^2 for a jump k_from -> k_to; 0 when landing on clean data."""
    if k_to == 0 or eta == 0.0:
        return 0.0
    a, s = sched.a, sched.sigma
    ratio = (s[k_to] ** 2 / s[k_from] ** 2) * (a[k_from] ** 2 / a[k_to] ** 2)
    return eta ** 2 * s[k_to] ** 2 * (1.0 - ratio)


def _reverse_jump(x_k: np.ndarray, k_from: int, k_to: int,
                  eps_hat: np.ndarray, eta: float, sched: NoiseSchedule,
                  noise: np.ndarray | None) -> np.ndarray:
    a, s = sched.a, sched.sigma
    omega_sq = reverse_variance(k_from, k_to, eta, sched)
    coef = np.sqrt(max(s[k_to] ** 2 - omega_sq, 0.0)) \
        - s[k_from] * a[k_to] / a[k_from]
    mu = (a[k_to] / a[k_from]) * x_k + coef * eps_hat
    if not np.all(np.isfinite(mu)):
        raise NumericError(f"non-finite reverse mean at step k={k_from}")
    if omega_sq > 0.0:
        if noise is None:
            raise ConfigError("stochastic step requires a noise draw")
        mu = mu + np.sqrt(omega_sq) * noise
    return mu


def reverse_step(x_k: np.ndarray, k: int, eps_hat: np.ndarray,
                 cfg: SamplerConfig, sched: NoiseSchedule,
                 noise: np.ndarray | None = None) -> np.ndarray:
    if not 1 <= k <= sched.K:
        raise ConfigError(f"reverse step k={k} outside [1, {sched.K}]")
    return _reverse_jump(np.asarray(x_k, dtype=np.float64), k, k - 1,
                         np.asarray(eps_hat, dtype=np.float64),
                         cfg.eta, sched, noise)


def stride_steps(K: int, steps: int) -> list[int]:
    """Evenly spaced descending step indices including K and 1."""
    if steps >= K:
        return list(range(K, 0, -1))
    ks = np.round(np.linspace(K, 1, steps)).astype(int)
    seen: list[int] = []
    for k in ks:
        if not seen or k != seen[-1]:
            seen.append(int(k))
    return seen


def sample(model_fn, shape: tuple[int, int, int], cfg: SamplerConfig,
           sched: NoiseSchedule) -> VideoTokens:
    """Iterate the reverse chain from unit Gaussian x_K down to x_0.

    model_fn(x_array, k) must return the predicted noise with x's shape.
    Deterministic for a fixed (cfg.seed, model_fn).
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x = rng.normal(size=shape)
    ks = stride_steps(sched.K, min(cfg.steps, sched.K))
    for i, k_from in enumerate(ks):
        k_to = ks[i + 1] if i + 1 < len(ks) else 0
        eps_hat = np.asarray(model_fn(x, k_from), dtype=np.float64)
        if eps_hat.shape != x.shape:
            raise ConfigError(
                f"model output {eps_hat.shape} != state {x.shape}")
        noise = rng.normal(size=shape)
        x = _reverse_jump(x, k_from, k_to, eps_hat, cfg.eta, sched, noise)
    return VideoTokens.from_array(x)


def model_sampler(model: Model):
    """Adapter turning a Model into a sample()-compatible callable."""

    def fn(x: np.ndarray, k: int) -> np.ndarray:
        return model.predict(VideoTokens.from_array(x), k).to_array()

    return fn


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch: int = 4
    steps: int = 2000
    ema_decay: float = 0.999
    grad_clip_norm: float = 1.0
    clip_start_step: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0 or self.batch < 1 or self.steps < 0:
            raise ConfigError("lr/batch/steps must be non-negative")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ConfigError("ema_decay must be in [0, 1)")


@dataclass
class TraceRow:
    step: int
    loss: float
    grad_norm: float
    ema_delta: float


@dataclass
class TrainResult:
    state: dict[str, np.ndarray]
    ema_state: dict[str, np.ndarray]
    trace: list[TraceRow] = field(default_factory=list)


def nm_loss_graph(model: Model, batch: list[VideoTokens], ks: list[int],
                  epss: list[np.ndarray], sched: NoiseSchedule) -> ad.Var:
    """Mean squared noise-matching error over a batch, as a (1, 1) Var."""
    noisy = [forward_diffuse(video.to_array(), k, eps, sched)
             for video, k, eps in zip(batch, ks, epss)]
    return mean_squared_error(model, noisy, ks, epss)


def nm_loss(model: Model, batch: list[VideoTokens], ks: list[int],
            epss: list[np.ndarray], sched: NoiseSchedule,
            with_grads: bool = False) -> float:
    """Scalar noise-matching loss; optionally leaves grads on model params."""
    if with_grads:
        loss = nm_loss_graph(model, batch, ks, epss, sched)
        ad.backward(loss)
        return float(loss.value[0, 0])
    with ad.no_grad():
        loss = nm_loss_graph(model, batch, ks, epss, sched)
    return float(loss.value[0, 0])


class AdamW:
    """Decoupled-weight-decay Adam; decay defaults to 0 for toy runs."""

    def __init__(self, params: list[ad.Var], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.wd = weight_decay
        self.t = 0
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g ** 2
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            new = p.value * (1.0 - self.lr * self.wd) - self.lr * update
            p.set_value(new)


def global_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g ** 2)) for g in grads)))


def clip_by_global_norm(grads: list[np.ndarray],
                        max_norm: float) -> tuple[list[np.ndarray], float]:
    norm = global_norm(grads)
    if norm > max_norm > 0:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return grads, norm


def train(model: Model, dataset: list[VideoTokens], cfg: TrainConfig,
          sched: NoiseSchedule) -> TrainResult:
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    params = model.param_vars()
    trainable = [p for p in params if p.trainable]
    opt = AdamW(trainable, lr=cfg.lr)
    ema = {n: v.value.copy() for n, v in model.params()}
    trace: list[TraceRow] = []
    shape = (dataset[0].T, dataset[0].N, dataset[0].D)

    for step in range(cfg.steps):
        idx = rng.integers(0, len(dataset), size=cfg.batch)
        batch = [dataset[i] for i in idx]
        ks = [int(rng.integers(1, sched.K + 1)) for _ in range(cfg.batch)]
        epss = [rng.normal(size=shape) for _ in range(cfg.batch)]

        ad.zero_grads(params)
        loss_var = nm_loss_graph(model, batch, ks, epss, sched)
        loss = float(loss_var.value[0, 0])
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at training step {step}")
        ad.backward(loss_var)
        grads = [p.grad if p.grad is not None else np.zeros(p.shape)
                 for p in trainable]

        if step >= cfg.clip_start_step and cfg.grad_clip_norm > 0:
            clipped, norm = clip_by_global_norm(grads, cfg.grad_clip_norm)
        else:
            clipped, norm = grads, global_norm(grads)
        opt.step(clipped)

        d = cfg.ema_decay
        delta_sq = 0.0
        for n, v in model.params():
            ema[n] = d * ema[n] + (1.0 - d) * v.value
            delta_sq += float(np.sum((ema[n] - v.value) ** 2))
        trace.append(TraceRow(step=step, loss=loss, grad_norm=norm,
                              ema_delta=float(np.sqrt(delta_sq))))

    return TrainResult(state=model.state(),
                       ema_state={n: v.copy() for n, v in ema.items()},
                       trace=trace)
