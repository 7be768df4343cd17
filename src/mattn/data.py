"""Deterministic synthetic clips and the patch tokenizer.

Moving-square / bouncing-dot videos on a P x P canvas with reflecting
boundaries give training and benchmark inputs whose motion magnitude is a
controllable knob. The tokenizer cuts non-overlapping patches and projects
them with a fixed seeded random matrix, so dataset generation never
depends on model parameters. A dataset is one read-only (count, T, N, D)
tensor, tokenized frame by frame with normalization shared by all clips.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, checked

KINDS = ("moving_square", "bouncing_dot", "static")


@dataclass
class SynthConfig:
    kind: str = "moving_square"
    frames: int = 4
    side: int = 8           # canvas side P, pixels
    square: int = 3         # foreground side s
    vx: float = 1.0
    vy: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown clip kind: {self.kind!r}")
        if self.frames < 1 or self.side < 1:
            raise ConfigError("frames and side must be >= 1")
        fg = self.foreground_side
        if fg >= self.side:
            raise ConfigError(
                f"foreground side {fg} must be < canvas side {self.side}")
        if abs(self.vx) >= self.side or abs(self.vy) >= self.side:
            raise ConfigError("|velocity| must be < canvas side")

    @property
    def foreground_side(self) -> int:
        return 1 if self.kind == "bouncing_dot" else self.square


def generate_clip(cfg: SynthConfig) -> np.ndarray:
    """(T, P, P) float64 video, background 0 and foreground 1."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    p, fg = cfg.side, cfg.foreground_side
    hi = p - fg
    x = float(rng.integers(0, hi + 1))
    y = float(rng.integers(0, hi + 1))
    vx, vy = (0.0, 0.0) if cfg.kind == "static" else (cfg.vx, cfg.vy)

    clip = np.zeros((cfg.frames, p, p))
    for t in range(cfg.frames):
        xi, yi = int(round(x)), int(round(y))
        clip[t, yi:yi + fg, xi:xi + fg] = 1.0
        x, vx = _reflect(x + vx, vx, hi)
        y, vy = _reflect(y + vy, vy, hi)
    return clip


def _reflect(pos: float, vel: float, hi: float) -> tuple[float, float]:
    while pos < 0.0 or pos > hi:
        if pos < 0.0:
            pos = -pos
            vel = -vel
        else:
            pos = 2.0 * hi - pos
            vel = -vel
    return pos, vel


@dataclass
class TokenizerConfig:
    patch: int = 4
    d: int = 16
    seed: int = 7


def projection_matrix(tcfg: TokenizerConfig) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(tcfg.seed))
    p2 = tcfg.patch * tcfg.patch
    return rng.normal(0.0, 1.0 / tcfg.patch, (p2, tcfg.d))


def patchify(frames: np.ndarray, patch: int) -> np.ndarray:
    """(..., side, side) frames to (..., (side / patch)^2, patch^2) rows:
    non-overlapping (patch x patch) blocks, row-major, flattened."""
    side = frames.shape[-1]
    if side % patch:
        raise ConfigError(f"patch {patch} must divide canvas side {side}")
    g = side // patch
    lead = frames.shape[:-2]
    blocks = np.swapaxes(frames.reshape(*lead, g, patch, g, patch), -3, -2)
    return blocks.reshape(*lead, g * g, patch * patch)


def make_dataset(base: SynthConfig, tcfg: TokenizerConfig,
                 count: int, seed: int = 0) -> np.ndarray:
    """`count` clips varying in seed and velocity sign, as one read-only
    (count, T, N, D) tensor with shared normalization."""
    from dataclasses import replace

    rng = np.random.Generator(np.random.Philox(seed))
    pixels = np.empty((count, base.frames, base.side, base.side))
    for i in range(count):
        sx = 1.0 if rng.random() < 0.5 else -1.0
        sy = 1.0 if rng.random() < 0.5 else -1.0
        cfg = replace(base, seed=int(rng.integers(0, 2 ** 31)),
                      vx=base.vx * sx, vy=base.vy * sy)
        pixels[i] = generate_clip(cfg)

    patches = patchify(pixels, tcfg.patch)
    proj = projection_matrix(tcfg)
    tokens = (patches.reshape(-1, proj.shape[0]) @ proj).reshape(
        *patches.shape[:-1], tcfg.d)
    mean, std = float(tokens.mean()), float(tokens.std())
    tokens -= mean
    tokens /= std if std > 1e-12 else 1.0
    return checked(tokens)
