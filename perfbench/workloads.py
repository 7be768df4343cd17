"""The benchmark's workloads, driven through mattn's public API the way
`mattn train` and `mattn sample` drive it.

Every workload is a closed loop in one process: the next training step or
sampler call starts only when the previous one has returned. Inputs (model
weights, dataset, noise) all derive from the run's seed.

Importing this module imports numpy and mattn; the caller times that as
part of set-up.
"""
from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from mattn import attention, blocks, config, core, costmodel, data, diffusion
from mattn import autodiff as ad
from mattn import io as mio

import spans

PATCH = 4          # tokenizer patch side that `mattn train` uses
CLIPS = 32         # dataset size that `mattn train` builds
REF_SEED = 0       # seed of the reference run whose digest is recorded
REL_TOL = 1e-6     # digest tolerance: admits reordered float sums, not bugs
MAX_STEPS = 10 ** 9  # train() is stopped by the deadline, never by this
SAMPLE_STEPS = 4   # reverse steps per diffusion.sample call

# Philox draws for the zero-initialized AdaLN and head tensors of the p128
# checkpoint, so that every branch of every block reaches the output.
LIVE_SCALES = {"adaln_W": 0.02, "adaln_b": 0.5, "head_W": None,
               "head_b": 0.02}


@dataclass(frozen=True)
class Spec:
    name: str
    preset: str
    kind: str                 # "train" or "sample"
    batch: int = 4
    repeat_steps: int = 0     # training steps re-run to check bit-identity
    ref_steps: int = 0        # steps of the reference-seed digest run
    live_branches: bool = False


SPECS = {
    "toy-train": Spec("toy-train", "toy", "train", batch=4,
                      repeat_steps=20, ref_steps=20),
    "p128-sample": Spec("p128-sample", "p128", "sample", live_branches=True),
    "p128-train": Spec("p128-train", "p128", "train", batch=1, ref_steps=2,
                       live_branches=True),
}

# span name per patched library function (owner, attribute)
TRACE_TARGETS = [
    (core, "matmul", "core.matmul"),
    (ad, "backward", "autodiff.backward"),
    (attention, "spatial_attention", "attention.spatial"),
    (attention, "local_temporal_attention", "attention.local"),
    (attention, "matrix_attention", "attention.global"),
    (blocks, "fuse", "blocks.fuse"),
    (blocks.Block, "forward", "blocks.block"),
    (blocks.Model, "forward", "blocks.model"),
    (diffusion, "train", "diffusion.train"),
    (diffusion, "nm_loss_graph", "diffusion.loss_graph"),
    (diffusion.AdamW, "step", "diffusion.optimizer"),
    (diffusion, "sample", "diffusion.sampler"),
    (data, "make_dataset", "data.make_dataset"),
    (mio, "read_checkpoint", "io.read_checkpoint"),
]
COUNTED = [(ad.Var, "__init__", "autodiff.graph_nodes")]
# the spans whose FLOPs the closed form of one block covers
FLOPS_CHECKED = ("attention.spatial", "attention.local", "attention.global",
                 "blocks.fuse")


class _Deadline(Exception):
    """Raised at a step boundary once the loop's time is up."""


# ---------------------------------------------------------------------------
# inputs

def resolve_config(spec: Spec, seed: int) -> dict:
    pairs = [("preset", spec.preset), ("seed", str(seed)),
             ("batch", str(spec.batch)), ("steps", str(SAMPLE_STEPS))]
    return config.resolve(pairs)


def build_dataset(cfg: dict) -> list:
    """The moving-square clips `mattn train` builds for this config."""
    side = int(round(math.sqrt(cfg["N"]))) * PATCH
    synth = data.SynthConfig(kind="moving_square", frames=cfg["T"],
                             side=side, square=max(2, side // 4),
                             vx=1.0, vy=1.0, seed=cfg["seed"])
    tok = data.TokenizerConfig(patch=PATCH, d=cfg["D"])
    return data.make_dataset(synth, tok, CLIPS, seed=cfg["seed"])


def initial_state(spec: Spec, cfg: dict, seed: int) -> dict:
    """The seeded model's weights, with live AdaLN and head if asked."""
    state = blocks.Model(config.block_config(cfg), seed=seed).state()
    if spec.live_branches:
        rng = np.random.Generator(np.random.Philox([seed, 1]))
        for name in sorted(state):
            leaf = name.rsplit(".", 1)[-1]
            if leaf in LIVE_SCALES:
                scale = LIVE_SCALES[leaf] or 1.0 / math.sqrt(cfg["D"])
                state[name] = rng.normal(0.0, scale, state[name].shape)
    return state


def write_checkpoint(spec: Spec, seed: int, path) -> None:
    cfg = resolve_config(spec, seed)
    mio.write_checkpoint(path, initial_state(spec, cfg, seed))


def train_config(cfg: dict, steps: int) -> diffusion.TrainConfig:
    return diffusion.TrainConfig(
        lr=cfg["lr"], batch=cfg["batch"], steps=steps,
        ema_decay=cfg["ema_decay"], grad_clip_norm=cfg["grad_clip"],
        clip_start_step=cfg["clip_start"], seed=cfg["seed"])


def sampler_config(cfg: dict, steps: int | None = None):
    return diffusion.SamplerConfig(eta=cfg["eta"],
                                   steps=steps or cfg["steps"],
                                   seed=cfg["seed"])


def video_shape(cfg: dict) -> tuple[int, int, int]:
    return (cfg["T"], cfg["N"], cfg["D"])


# ---------------------------------------------------------------------------
# set-up

@dataclass
class Bench:
    """A workload's inputs, set up and warmed up, ready for timed loops."""

    spec: Spec
    cfg: dict
    dataset: list
    sched: diffusion.NoiseSchedule
    model: blocks.Model
    state: dict
    warm: float | np.ndarray | None = None   # output of the warm-up step


def setup(spec: Spec, seed: int, path) -> Bench:
    """Build the model, schedule and dataset, read the checkpoint, and run
    one discarded warm-up step."""
    cfg = resolve_config(spec, seed)
    dataset = build_dataset(cfg)
    sched = diffusion.make_schedule(cfg["K"])
    model = blocks.Model(config.block_config(cfg), seed=seed)
    state = mio.read_checkpoint(path)
    model.load_state(state)
    s = Bench(spec, cfg, dataset, sched, model, state)
    if spec.kind == "train":
        result = diffusion.train(model, dataset, train_config(cfg, 1), sched)
        s.warm = result.trace[0].loss
    else:
        with ad.no_grad():
            s.warm = diffusion.sample(
                diffusion.model_sampler(model), video_shape(cfg),
                sampler_config(cfg, steps=1), sched).to_array()
    return s


# ---------------------------------------------------------------------------
# timed loops

@dataclass
class Loop:
    """What one closed loop measured and produced."""

    step_s: list[float] = field(default_factory=list)
    clip_s: list[float] = field(default_factory=list)  # per sample() call
    clips: int = 0
    bad: set[int] = field(default_factory=set)  # steps failing a check
    error: str = ""
    window: tuple[float, float] = (0.0, 0.0)
    losses: list[float] = field(default_factory=list)
    sample: np.ndarray | None = None
    mismatched: int = 0      # sample() outputs differing from the first

    @property
    def attempted(self) -> int:
        return len(self.step_s) + (1 if self.error else 0)

    @property
    def failed(self) -> int:
        return len(self.bad)


def run_loop(s: Bench, seconds: float, tracer=None) -> Loop:
    if s.spec.kind == "train":
        return train_loop(s, seconds)
    return sample_loop(s, seconds, tracer)


def train_loop(s: Bench, seconds: float) -> Loop:
    """diffusion.train from the checkpoint weights until the time is up.

    Step boundaries are taken where train() calls nm_loss_graph, once per
    step; the step that begins after the deadline is abandoned.
    """
    s.model.load_state(s.state)
    loop = Loop()
    starts: list[float] = []
    deadline = time.perf_counter() + seconds

    def clocked(nm_loss_graph):
        def step(*args, **kwargs):
            now = time.perf_counter()
            starts.append(now)
            if now >= deadline:
                raise _Deadline
            loss = nm_loss_graph(*args, **kwargs)
            value = loss.value
            ok = value.shape == (1, 1) and bool(np.isfinite(value[0, 0]))
            loop.losses.append(float(value[0, 0]) if ok else math.nan)
            if not ok:
                loop.bad.add(len(starts) - 1)
            return loss
        return step

    with spans.patched(diffusion, "nm_loss_graph", clocked):
        try:
            diffusion.train(s.model, s.dataset,
                            train_config(s.cfg, MAX_STEPS), s.sched)
        except _Deadline:
            pass
        except Exception as exc:  # a failed step ends the loop
            loop.error = f"{type(exc).__name__}: {exc}"
            loop.bad.add(len(starts) - 1)
    loop.step_s = [b - a for a, b in zip(starts, starts[1:])]
    loop.clips = s.cfg["batch"] * len(loop.step_s)
    if len(starts) > 1:
        loop.window = (starts[0], starts[-1])
    return loop


def sample_loop(s: Bench, seconds: float, tracer=None) -> Loop:
    """Repeated diffusion.sample calls on one seed until the time is up.

    Every call draws the same initial noise, so every output must be
    bit-identical to the first.
    """
    loop = Loop()
    denoise = diffusion.model_sampler(s.model)
    if tracer is not None:
        denoise = tracer.span("diffusion.denoiser", denoise)
    calls: list[float] = []

    def model_fn(x, k):
        calls.append(time.perf_counter())
        eps = denoise(x, k)
        if eps.shape != x.shape or not np.all(np.isfinite(eps)):
            loop.bad.add(len(calls) - 1)
        return eps

    shape, scfg = video_shape(s.cfg), sampler_config(s.cfg)
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    while end < deadline:
        begin, first_call = time.perf_counter(), len(calls)
        try:
            with ad.no_grad():
                out = diffusion.sample(model_fn, shape, scfg,
                                       s.sched).to_array()
        except Exception as exc:  # a failed step ends the loop
            loop.error = f"{type(exc).__name__}: {exc}"
            loop.bad.add(len(loop.step_s))
            break
        end = time.perf_counter()
        bounds = calls[first_call:] + [end]
        loop.step_s += [b - a for a, b in zip(bounds, bounds[1:])]
        loop.clip_s.append(end - begin)
        if loop.sample is None:
            loop.sample = out
        elif not np.array_equal(out, loop.sample):
            loop.mismatched += 1
            loop.bad.update(range(first_call, len(calls)))
    loop.clips = len(loop.clip_s)
    loop.window = (start, end)
    return loop


# ---------------------------------------------------------------------------
# counting pass

def count_step(s: Bench):
    """One loop step under count_kernels, with FLOPs recorded per span.

    Returns (tracer, counter). Timing is not taken here: count_kernels
    puts a weakref finalizer on every Mat.
    """
    s.model.load_state(s.state)
    with core.count_kernels() as counter:
        with spans.Tracer(TRACE_TARGETS, COUNTED, counter=counter) as tr:
            if s.spec.kind == "train":
                diffusion.train(s.model, s.dataset, train_config(s.cfg, 1),
                                s.sched)
            else:
                with ad.no_grad():
                    diffusion.sample(diffusion.model_sampler(s.model),
                                     video_shape(s.cfg),
                                     sampler_config(s.cfg, steps=1), s.sched)
    return tr, counter


def closed_form_block_flops(cfg: dict) -> int:
    dims = costmodel.CostDims(
        T=cfg["T"], N=cfg["N"], D=cfg["D"], D_h=cfg["D"],
        N_qk=cfg["N_qk"], D_qk=cfg["D_qk"] or cfg["D"], N_v=cfg["N_v"],
        D_v=cfg["D_v"] or cfg["D"], heads_m=cfg["heads_m"],
        heads_n=cfg["heads_n"])
    return costmodel.flops_closed_form(cfg["variant"], dims).flops_total


# ---------------------------------------------------------------------------
# output digests

def sample_digest(arr: np.ndarray) -> dict:
    return {"mean": float(arr.mean()),
            "rms": float(np.sqrt(np.mean(arr ** 2))),
            "max_abs": float(np.max(np.abs(arr))),
            "sha256": hashlib.sha256(arr.tobytes()).hexdigest()}


def reference_digest(spec: Spec) -> dict:
    """Digest of the reference seed's output, for comparison with the
    value recorded in reference.json."""
    cfg = resolve_config(spec, REF_SEED)
    model = blocks.Model(config.block_config(cfg), seed=REF_SEED)
    model.load_state(initial_state(spec, cfg, REF_SEED))
    sched = diffusion.make_schedule(cfg["K"])
    if spec.kind == "train":
        result = diffusion.train(model, build_dataset(cfg),
                                 train_config(cfg, spec.ref_steps), sched)
        return {"steps": spec.ref_steps,
                "final_loss": result.trace[-1].loss}
    with ad.no_grad():
        out = diffusion.sample(diffusion.model_sampler(model),
                               video_shape(cfg), sampler_config(cfg),
                               sched).to_array()
    digest = sample_digest(out)
    digest["steps"] = SAMPLE_STEPS
    return digest


def digest_matches(got: dict, want: dict) -> bool:
    """Every numeric entry of `want` agrees with `got` within REL_TOL."""
    for key, value in want.items():
        if isinstance(value, str):
            continue
        if key not in got or not math.isclose(got[key], value,
                                              rel_tol=REL_TOL,
                                              abs_tol=REL_TOL * 1e-3):
            return False
    return True


def gemm_ceiling_gflops(n: int = 1024, repeats: int = 5) -> float:
    """GFLOP/s of one n x n float64 gemm through numpy's BLAS, median of
    `repeats` after one discarded call."""
    rng = np.random.Generator(np.random.Philox(0))
    a, b = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    a @ b
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t)
    return 2.0 * n ** 3 / statistics.median(times) / 1e9


def repeat_losses(s: Bench, steps: int) -> list[float]:
    """Loss trace of a fresh training run of the same seed."""
    s.model.load_state(s.state)
    result = diffusion.train(s.model, s.dataset, train_config(s.cfg, steps),
                             s.sched)
    return [row.loss for row in result.trace]
