"""Command line entry point.

    mattn <verify|train|sample|bench|flops> --config PATH [--set key=value ...]

Exit codes: 0 all checks passed / command succeeded, 1 a verification
check failed, 2 configuration error, 3 numeric abort (non-finite values).
MATTN_OUT overrides the configured output directory. MATTN_FAULT=1 injects
a deliberate error into the verification suite as a negative control.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import attention as at
from . import autodiff as ad
from . import config as cf
from . import costmodel as cm
from . import data as da
from . import diffusion as df
from . import io as fio
from . import oracle as orc
from .blocks import Model
from .core import ConfigError, DimensionError, NumericError

PATCH = 4  # tokenizer patch side; canvas side is patch * sqrt(N)
CLIPS = 32  # training clips in the dataset of `mattn train`


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mattn")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "train", "sample", "bench", "flops"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE")
    args = parser.parse_args(argv)

    try:
        cfg = cf.load_config(args.config, getattr(args, "set"))
        if os.environ.get("MATTN_OUT"):
            cfg["out_dir"] = os.environ["MATTN_OUT"]
        handler = {"verify": cmd_verify, "train": cmd_train,
                   "sample": cmd_sample, "bench": cmd_bench,
                   "flops": cmd_flops}[args.command]
        return handler(cfg)
    except (ConfigError, DimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# verify

def _fd_gradient_check(seed: int, u_norm: str) -> float:
    """Max relative error of one analytic gradient vs central differences."""
    rng = np.random.Generator(np.random.Philox(seed))
    params = at.make_matrix_attn_params(rng, n=3, d=2, n_qk=2, n_v=2,
                                        u_norm=u_norm)
    clip = ad.const(rng.normal(size=(3, 3, 2)))
    ups = rng.normal(size=(3, 3, 2))

    def one_entry(var):
        flat = int(rng.integers(0, var.value.size))
        return [np.unravel_index(flat, var.shape)]

    return ad.fd_error(lambda: at.matrix_attention(clip, params),
                       [v for _, v in ad.named_params(params)], ups,
                       one_entry)


def _verify_checks(cfg: dict) -> list[orc.CheckResult]:
    fault = os.environ.get("MATTN_FAULT") == "1"
    checks = list(orc.run_oracle_suite(seed=cfg["seed"], fault=fault))

    worst = float(np.max([_fd_gradient_check(cfg["seed"] + s, cfg["u_norm"])
                          for s in range(3)]))
    checks.append(orc.CheckResult("gradient_finite_difference", worst, 1e-4))

    sched = df.make_schedule(cfg["K"])
    vp = float(np.max(np.abs(sched.a ** 2 + sched.sigma ** 2 - 1.0)))
    checks.append(orc.CheckResult("variance_preserving_identity", vp, 1e-12))

    rng = np.random.Generator(np.random.Philox(cfg["seed"]))
    tok = at.make_token_attn_params(rng, d=4, d_h=4)
    clip = ad.const(rng.normal(size=(1, 3, 4)))
    with ad.no_grad():
        a = at.spatial_attention(clip, tok).value
        b = at.full3d_attention(clip, tok).value
    dev = float(np.max(np.abs(a - b)))
    checks.append(orc.CheckResult("single_frame_collapse", dev, 0.0))
    return checks


def cmd_verify(cfg: dict) -> int:
    ok = True
    for c in _verify_checks(cfg):
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name},{c.max_dev:.3e},{status}")
        ok = ok and c.passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# train / sample

def _canvas_side(cfg: dict) -> int:
    grid = int(round(np.sqrt(cfg["N"])))
    if grid * grid != cfg["N"]:
        raise ConfigError(f"N={cfg['N']} must be a square for pixel clips")
    return grid * PATCH


def _build_dataset(cfg: dict):
    side = _canvas_side(cfg)
    synth = da.SynthConfig(kind="moving_square", frames=cfg["T"], side=side,
                           square=max(2, side // 4), vx=1.0, vy=1.0,
                           seed=cfg["seed"])
    tcfg = da.TokenizerConfig(patch=PATCH, d=cfg["D"])
    return da.make_dataset(synth, tcfg, CLIPS, seed=cfg["seed"])


def _write_resolved(cfg: dict, out) -> None:
    with fio.open_output(out / "config.resolved") as f:
        f.write(cf.serialize(cfg))


def cmd_train(cfg: dict) -> int:
    out = fio.ensure_dir(cfg["out_dir"])
    dataset = _build_dataset(cfg)
    model = Model(cf.block_config(cfg), seed=cfg["seed"])
    sched = df.make_schedule(cfg["K"])
    tcfg = df.TrainConfig(lr=cfg["lr"], batch=cfg["batch"],
                          steps=cfg["train_steps"],
                          ema_decay=cfg["ema_decay"],
                          grad_clip_norm=cfg["grad_clip"],
                          clip_start_step=cfg["clip_start"],
                          seed=cfg["seed"])
    result = df.train(model, dataset, tcfg, sched)

    entries = dict(result.state)
    entries.update({f"ema/{n}": v for n, v in result.ema_state.items()})
    fio.write_checkpoint(out / "model.fdtc", entries)
    fio.write_loss_trace(out / "loss.csv", result.trace)
    _write_resolved(cfg, out)
    final = result.trace[-1].loss if result.trace else float("nan")
    print(f"trained {cfg['train_steps']} steps, final loss {final:.6f}")
    print(f"checkpoint: {out / 'model.fdtc'}")
    return 0


def cmd_sample(cfg: dict) -> int:
    out = fio.ensure_dir(cfg["out_dir"])
    ckpt_path = out / "model.fdtc"
    if not ckpt_path.exists():
        raise ConfigError(f"no checkpoint at {ckpt_path}; run train first")
    entries = fio.read_checkpoint(ckpt_path)
    model = Model(cf.block_config(cfg), seed=cfg["seed"])
    ema = {n[len("ema/"):]: v for n, v in entries.items()
           if n.startswith("ema/")}
    model.load_state(ema if ema else entries)

    scfg = df.SamplerConfig(eta=cfg["eta"], steps=cfg["steps"],
                            seed=cfg["seed"])
    sched = df.make_schedule(cfg["K"])
    shape = (cfg["T"], cfg["N"], cfg["D"])
    tokens = df.sample(df.model_sampler(model), shape, scfg, sched)

    arr = tokens.to_array()
    fio.write_checkpoint(out / "sample.fdtc", {"tokens": arr})
    fio.write_pgm(out / "sample.pgm", fio.frame_strip(arr))
    _write_resolved(cfg, out)
    print(f"sample: {out / 'sample.fdtc'} (strip: {out / 'sample.pgm'})")
    return 0


# ---------------------------------------------------------------------------
# bench / flops

def _cost_dims(cfg: dict) -> cm.CostDims:
    d_qk = cfg["D_qk"] or cfg["D"]
    d_v = cfg["D_v"] or cfg["D"]
    return cm.CostDims(T=cfg["T"], N=cfg["N"], D=cfg["D"], D_h=cfg["D"],
                       N_qk=cfg["N_qk"], D_qk=d_qk, N_v=cfg["N_v"],
                       D_v=d_v, heads_m=cfg["heads_m"],
                       heads_n=cfg["heads_n"])


def _t_sweep(t: int) -> list[int]:
    return sorted({max(1, t // 4), max(1, t // 2), t})


def _emit_csv(cfg: dict, path, text: str) -> int:
    with fio.open_output(path) as f:
        f.write(text)
    _write_resolved(cfg, path.parent)
    print(text, end="")
    return 0


def cmd_bench(cfg: dict) -> int:
    out = fio.ensure_dir(cfg["out_dir"])
    records = cm.run_bench(list(cm.VARIANTS), _t_sweep(cfg["T"]),
                           _cost_dims(cfg), seed=cfg["seed"])
    return _emit_csv(cfg, out / "bench.csv", cm.bench_csv(records))


def cmd_flops(cfg: dict) -> int:
    out = fio.ensure_dir(cfg["out_dir"])
    reports = [cm.flops_closed_form(v, replace(_cost_dims(cfg), T=t))
               for v in cm.VARIANTS for t in _t_sweep(cfg["T"])]
    return _emit_csv(cfg, out / "flops.csv", cm.flops_csv(reports))


if __name__ == "__main__":
    sys.exit(main())
