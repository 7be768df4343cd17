"""Plain key=value run configuration with named presets.

Unknown keys are rejected; missing keys take the documented defaults.
Preset expansion happens before explicit overrides, and every command
writes its fully-resolved configuration next to its outputs so a run can
be reproduced bit-for-bit from that file.
"""
from __future__ import annotations

import math
from pathlib import Path

from .blocks import BlockConfig
from .core import ConfigError

# each default's type is its key's type; D_qk / D_v of 0 mean "same as D"
DEFAULTS: dict[str, object] = {
    "variant": "hybrid",
    "preset": "",
    "depth": 1,
    "D": 16,
    "T": 4,
    "N": 4,
    "N_qk": 2,
    "N_v": 4,
    "D_qk": 0,
    "D_v": 0,
    "heads_m": 1,
    "heads_n": 1,
    "u_norm": "softmax",
    "fusion": "concat_mlp",
    "eta": 0.0,
    "steps": 250,
    "K": 1000,
    "lr": 1e-4,
    "batch": 4,
    "train_steps": 2000,
    "ema_decay": 0.999,
    "grad_clip": 1.0,
    "clip_start": 0,
    "seed": 0,
    "out_dir": "out",
}

# p128 / p256 carry the published (N, N_qk, N_v, column-head) settings for
# the 128^2 and 256^2 configurations; width is the smallest power of two
# the head counts divide. toy scales everything down for CPU training.
PRESETS: dict[str, dict[str, object]] = {
    "p128": {"N": 64, "N_qk": 32, "N_v": 256, "heads_m": 1, "heads_n": 32,
             "D": 128, "T": 16, "depth": 2},
    "p256": {"N": 256, "N_qk": 128, "N_v": 512, "heads_m": 1,
             "heads_n": 128, "D": 256, "T": 16, "depth": 2},
    "toy": {"N": 4, "N_qk": 2, "N_v": 4, "heads_m": 1, "heads_n": 1,
            "D": 16, "T": 4, "depth": 1, "lr": 2e-3, "batch": 4,
            "train_steps": 2000, "clip_start": 0, "steps": 50},
}


def parse_kv_text(text: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, "
                              f"got {stripped!r}")
        key, value = stripped.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _coerce(key: str, value: str):
    """The value as the type of the key's default."""
    try:
        return type(DEFAULTS[key])(value)
    except ValueError as exc:
        raise ConfigError(f"key {key}: bad value {value!r}") from exc


def resolve(pairs: list[tuple[str, str]]) -> dict[str, object]:
    """Defaults -> preset expansion -> explicit overrides, in that order."""
    for key, _ in pairs:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown configuration key: {key!r}")
    cfg = dict(DEFAULTS)
    preset = ""
    for key, value in pairs:
        if key == "preset":
            preset = value
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset: {preset!r}")
        cfg.update(PRESETS[preset])
        cfg["preset"] = preset
    for key, value in pairs:
        if key != "preset":
            cfg[key] = _coerce(key, value)
    _validate(cfg)
    return cfg


# D_qk / D_v may be 0 ("same as D"); a model may have no blocks
_MINIMA = {"K": 1, "T": 1, "D": 1, "N": 1, "depth": 0, "N_qk": 1, "N_v": 1,
           "D_qk": 0, "D_v": 0, "heads_m": 1, "heads_n": 1, "steps": 1,
           "batch": 1, "train_steps": 0, "lr": 0, "grad_clip": 0}


def _validate(cfg: dict[str, object]) -> None:
    for key, default in DEFAULTS.items():
        if isinstance(default, float) and not math.isfinite(cfg[key]):
            raise ConfigError(f"key {key}: must be finite, got {cfg[key]}")
    if not 0.0 <= cfg["eta"] <= 1.0:
        raise ConfigError(f"key eta: must be in [0, 1], got {cfg['eta']}")
    if not 0.0 <= cfg["ema_decay"] < 1.0:
        raise ConfigError(
            f"key ema_decay: must be in [0, 1), got {cfg['ema_decay']}")
    # range checks by the names the user typed, before the typed
    # constructor's own checks and the divisibility tests below, which
    # divide by the head counts
    for key, low in _MINIMA.items():
        if cfg[key] < low:
            raise ConfigError(f"key {key}: must be >= {low}, got {cfg[key]}")
    if cfg["steps"] > cfg["K"]:
        raise ConfigError("key steps: must be in [1, K]")
    block_config(cfg)
    d_qk = cfg["D_qk"] or cfg["D"]
    d_v = cfg["D_v"] or cfg["D"]
    if cfg["N_qk"] % cfg["heads_m"] or cfg["N_v"] % cfg["heads_m"]:
        raise ConfigError("key heads_m: must divide N_qk and N_v")
    if d_qk % cfg["heads_n"] or d_v % cfg["heads_n"]:
        raise ConfigError("key heads_n: must divide D_qk and D_v")


def load_config(path: str | None, sets: list[str]) -> dict[str, object]:
    pairs: list[tuple[str, str]] = []
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        pairs.extend(parse_kv_text(text))
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return resolve(pairs)


def serialize(cfg: dict[str, object]) -> str:
    lines = [f"{key}={cfg[key]}" for key in sorted(cfg)]
    return "\n".join(lines) + "\n"


def block_config(cfg: dict[str, object]) -> BlockConfig:
    return BlockConfig(
        depth=cfg["depth"],
        d=cfg["D"],
        n=cfg["N"],
        variant=cfg["variant"],
        n_qk=cfg["N_qk"],
        n_v=cfg["N_v"],
        d_qk=(cfg["D_qk"] or None),
        d_v=(cfg["D_v"] or None),
        heads_m=cfg["heads_m"],
        heads_n=cfg["heads_n"],
        u_norm=cfg["u_norm"],
        fusion=cfg["fusion"],
    )
