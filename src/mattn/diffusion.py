"""Variance-preserving DDPM engine.

Forward corruption x_k = a_k x + sigma_k eps on a linear-beta schedule,
noise-matching training with AdamW, global-norm gradient clipping and EMA,
and the generalized reverse sampler whose eta knob interpolates between
deterministic and full-stochastic ancestral steps. Training draws each
batch from a (count, T, N, D) dataset as one (B, T, N, D) array. The
sampler works on plain (T, N, D) arrays and draws noise only for a step
that adds it, so an eta=0 chain draws its initial state and nothing else;
`VideoTokens` is only its result.

All randomness comes from numpy's Philox generator: a counter-based,
documented PRNG whose streams are identical across platforms for a fixed
seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .blocks import Model, mean_squared_error
from .core import ConfigError, NumericError, VideoTokens, checked

# Ho et al.'s (2020) linear beta range; Adam without weight decay, as in DiT
BETA_START, BETA_END = 1e-4, 2e-2
ADAM_B1, ADAM_B2 = 0.9, 0.999
ADAM_EPS = 1e-8


# ---------------------------------------------------------------------------
# schedule

@dataclass(frozen=True)
class NoiseSchedule:
    """Arrays a_0..a_K and sigma_0..sigma_K with a_k^2 + sigma_k^2 = 1."""

    K: int
    beta: np.ndarray   # per-step rates, length K (step 1..K)
    a: np.ndarray      # length K+1, a[0] = 1
    sigma: np.ndarray  # length K+1, sigma[0] = 0


def make_schedule(K: int) -> NoiseSchedule:
    if K < 1:
        raise ConfigError(f"schedule needs K >= 1, got {K}")
    beta = np.linspace(BETA_START, BETA_END, K)
    abar = np.cumprod(1.0 - beta)
    a = np.concatenate([[1.0], np.sqrt(abar)])
    sigma = np.sqrt(1.0 - a ** 2)
    return NoiseSchedule(K=K, beta=beta, a=a, sigma=sigma)


# ---------------------------------------------------------------------------
# forward process

def forward_diffuse(x: np.ndarray, k, eps: np.ndarray,
                    sched: NoiseSchedule) -> np.ndarray:
    """a_k x + sigma_k eps; k is one step, or a (B,) array of one per clip."""
    k = np.asarray(k)
    if np.any(k < 0) or np.any(k > sched.K):
        raise ConfigError(f"step k={k} outside [0, {sched.K}]")
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x.shape != eps.shape:
        raise ConfigError(f"shape mismatch: x {x.shape} vs eps {eps.shape}")
    per_entry = k.shape + (1,) * (x.ndim - k.ndim)
    return (sched.a[k].reshape(per_entry) * x
            + sched.sigma[k].reshape(per_entry) * eps)


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
                  rng: np.random.Generator) -> np.ndarray:
    """x_{k_to} from x_{k_from}; draws noise from rng only for a stochastic
    step (omega^2 > 0)."""
    a, s = sched.a, sched.sigma
    omega_sq = reverse_variance(k_from, k_to, eta, sched)
    coef = np.sqrt(max(s[k_to] ** 2 - omega_sq, 0.0)) \
        - s[k_from] * a[k_to] / a[k_from]
    mu = (a[k_to] / a[k_from]) * x_k + coef * eps_hat
    if not np.all(np.isfinite(mu)):
        raise NumericError(f"non-finite reverse mean at step k={k_from}")
    if omega_sq > 0.0:
        mu = mu + np.sqrt(omega_sq) * rng.normal(size=x_k.shape)
    return mu


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
        x = _reverse_jump(x, k_from, k_to, eps_hat, cfg.eta, sched, rng)
    return VideoTokens(x)


def model_sampler(model: Model):
    """The sample()-compatible callable of a Model: its `predict`."""
    return model.predict


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch: int = 4
    steps: int = 2000
    ema_decay: float = 0.999
    grad_clip_norm: float = 1.0  # 0 turns clipping off
    clip_start_step: int = 0
    seed: int = 0

    def __post_init__(self):
        for name, ok, rule in (
                ("lr", 0.0 <= self.lr < np.inf, "finite and >= 0"),
                ("batch", self.batch >= 1, ">= 1"),
                ("steps", self.steps >= 0, ">= 0"),
                ("ema_decay", 0.0 <= self.ema_decay < 1.0, "in [0, 1)"),
                ("grad_clip_norm", 0.0 <= self.grad_clip_norm < np.inf,
                 "finite and >= 0")):
            if not ok:
                raise ConfigError(
                    f"{name} must be {rule}, got {getattr(self, name)}")


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


def nm_loss_graph(model: Model, batch: np.ndarray, ks: np.ndarray,
                  epss: np.ndarray, sched: NoiseSchedule) -> ad.Var:
    """Mean squared noise-matching error over a (B, T, N, D) batch with
    (B,) steps and (B, T, N, D) noise, as a (1, 1) Var."""
    noisy = forward_diffuse(batch, ks, epss, sched)
    return mean_squared_error(model, noisy, ks, epss)


def nm_loss(model: Model, batch: np.ndarray, ks: np.ndarray,
            epss: np.ndarray, sched: NoiseSchedule) -> float:
    """Scalar noise-matching loss, without a gradient graph."""
    with ad.no_grad():
        loss = nm_loss_graph(model, batch, ks, epss, sched)
    return float(loss.value[0, 0])


class AdamW:
    """Adam with bias correction at ADAM_B1, ADAM_B2, ADAM_EPS; no decay."""

    def __init__(self, params: list[ad.Var], lr: float) -> None:
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_B1 ** self.t
        bc2 = 1.0 - ADAM_B2 ** self.t
        # m <- b1 m + (1 - b1) g, v <- b2 v + (1 - b2) g^2 and
        # p <- p - lr (m / bc1) / (sqrt(v / bc2) + eps), op for op in
        # place: two buffers per parameter, `update` and the scratch `s`,
        # which ends up holding the new value and is adopted, not copied
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            s = np.multiply(g, 1.0 - ADAM_B1)
            m *= ADAM_B1
            m += s
            np.multiply(g, g, out=s)
            s *= 1.0 - ADAM_B2
            v *= ADAM_B2
            v += s
            update = np.divide(m, bc1)
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            update /= s
            update *= self.lr
            np.subtract(p.value, update, out=s)
            p.value = checked(s)


def global_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g ** 2)) for g in grads)))


def clip_by_global_norm(grads: list[np.ndarray],
                        max_norm: float) -> tuple[list[np.ndarray], float]:
    """Clip to global norm max_norm (0: no clipping); also return the norm."""
    norm = global_norm(grads)
    if norm > max_norm > 0:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return grads, norm


def train(model: Model, dataset: np.ndarray, cfg: TrainConfig,
          sched: NoiseSchedule) -> TrainResult:
    """Train on a (count, T, N, D) dataset, drawing B clips, B steps k and
    (B, T, N, D) noise per step."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    named = model.params()
    params = [v for _, v in named]
    opt = AdamW(params, lr=cfg.lr)
    ema = {n: v.value.copy() for n, v in named}
    trace: list[TraceRow] = []

    for step in range(cfg.steps):
        batch = dataset[rng.integers(0, len(dataset), size=cfg.batch)]
        ks = rng.integers(1, sched.K + 1, size=cfg.batch)
        epss = rng.normal(size=batch.shape)

        ad.zero_grads(params)
        loss_var = nm_loss_graph(model, batch, ks, epss, sched)
        loss = float(loss_var.value[0, 0])
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at training step {step}")
        ad.backward(loss_var)
        grads = [p.grad if p.grad is not None else np.zeros(p.shape)
                 for p in params]

        max_norm = cfg.grad_clip_norm if step >= cfg.clip_start_step else 0.0
        clipped, norm = clip_by_global_norm(grads, max_norm)
        opt.step(clipped)

        d = cfg.ema_decay
        delta_sq = 0.0
        for n, v in named:
            e = ema[n]
            e *= d
            e += (1.0 - d) * v.value
            delta_sq += float(np.sum((e - v.value) ** 2))
        trace.append(TraceRow(step=step, loss=loss, grad_norm=norm,
                              ema_delta=float(np.sqrt(delta_sq))))

    return TrainResult(state=model.state(), ema_state=ema, trace=trace)
