"""Bit-identity report of mattn's deterministic outputs.

    python tools/identity.py [--toy] > report.txt

Prints one deterministic text report: float-hex loss, gradient-norm and
EMA-distance traces of the benchmark's toy-train and p128-train runs,
digests of trained and initial weights, of toy predictions and gradients
(and one over all parameter gradients for every variant, fusion and
u_norm, so every graph shape backward() sees is covered), of the p128
sample, autodiff nodes and counted peak live bytes per benchmark step,
autodiff nodes per toy forward pass of every variant, fusion and u_norm,
and the stdout of `mattn verify`, `mattn flops` and `mattn bench`
(without `wall_ms`). Run it in two checkouts and `diff` the reports: a
change that claims bit-identity shows no difference but in the node and
peak counts it changes. `--toy` prints only the toy sections.

Exact bits depend on the numpy and BLAS build, so compare reports made
on the same machine. The training and sampling inputs are the
benchmark's (`perfbench/workloads.py`), so the report covers what its
reference digests check.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402
from mattn import autodiff as ad  # noqa: E402
from mattn import attention, blocks, cli, config, diffusion  # noqa: E402

INIT_SEED = 3
TRAIN_SEEDS = (0, 1)
TRAIN_STEPS = {"toy-train": 20, "p128-train": 2}
GRAD_CLIPS = 3


def section(title: str) -> None:
    print(f"## {title}")


def sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def state_sha(state: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name])
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def report_step(name: str, seed: int) -> None:
    """The benchmark's `autodiff.graph_nodes`, the Vars made in one step,
    and the counted peak live bytes of that step: unlike peak RSS, which
    follows the heap's layout, the count shows a change in what the step
    holds."""
    spec = wl.SPECS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.fdtc"
        wl.write_checkpoint(spec, seed, path)
        tracer, counter = wl.count_step(wl.setup(spec, seed, path))
    print(f"graph nodes per step {tracer.counts['autodiff.graph_nodes']}")
    print(f"peak live bytes per step {counter.peak_live_bytes}")


def seeded_model(spec: wl.Spec, cfg: dict, seed: int) -> blocks.Model:
    model = blocks.Model(config.block_config(cfg), seed=seed)
    model.load_state(wl.initial_state(spec, cfg, seed))
    return model


def report_train(name: str) -> None:
    spec, steps = wl.SPECS[name], TRAIN_STEPS[name]
    for seed in TRAIN_SEEDS:
        section(f"train {name} seed={seed} steps={steps}")
        cfg = wl.resolve_config(spec, seed)
        model = seeded_model(spec, cfg, seed)
        result = diffusion.train(model, wl.build_dataset(cfg),
                                 wl.train_config(cfg, steps),
                                 diffusion.make_schedule(cfg["K"]))
        for row in result.trace:
            print(f"step {row.step} loss {row.loss.hex()} grad_norm "
                  f"{row.grad_norm.hex()} ema_delta {row.ema_delta.hex()}")
        print(f"state sha256 {state_sha(result.state)}")
        print(f"ema sha256 {state_sha(result.ema_state)}")
        report_step(name, seed)


def configs():
    """Every (variant, fusion, u_norm) a model can be built with."""
    return itertools.product(blocks.TEMPORAL_VARIANTS,
                             blocks.FUSION_VARIANTS, attention.U_NORM_MODES)


def forward_nodes(model: blocks.Model, clip: np.ndarray) -> int:
    """Vars one model.forward builds: the clip's const is the last Var
    made before the call and the output the last made in it."""
    x = ad.const(clip)
    with ad.no_grad():
        return model.forward(x, 1).node.index - x.node.index


def report_init(preset: str, predict: bool) -> None:
    section(f"init {preset} seed={INIT_SEED}"
            + (" with predict" if predict else ""))
    live = wl.Spec("identity", preset, "sample", live_branches=True)
    shape = wl.video_shape(config.resolve([("preset", preset)]))
    clip = np.random.Generator(np.random.Philox(INIT_SEED)).normal(size=shape)
    for variant, fusion, u_norm in configs():
        cfg = config.resolve([("preset", preset), ("variant", variant),
                              ("fusion", fusion), ("u_norm", u_norm),
                              ("seed", str(INIT_SEED))])
        model = blocks.Model(config.block_config(cfg), seed=INIT_SEED)
        line = f"{variant} {fusion} {u_norm} state {state_sha(model.state())}"
        if predict:
            model.load_state(wl.initial_state(live, cfg, INIT_SEED))
            line += (f" predict {sha(model.predict(clip, cfg['K'] // 2))}"
                     f" nodes {forward_nodes(model, clip)}")
        print(line)


def toy_grads(overrides: list[tuple[str, str]]):
    """(loss, {parameter name: gradient}) of a depth-2 toy model whose
    AdaLN and head are live, on GRAD_CLIPS clips."""
    live = wl.Spec("identity", "toy", "train", live_branches=True)
    cfg = config.resolve([("preset", "toy"), ("depth", "2"),
                          ("seed", str(INIT_SEED)), *overrides])
    model = seeded_model(live, cfg, INIT_SEED)
    rng = np.random.Generator(np.random.Philox([INIT_SEED, 2]))
    shape = (GRAD_CLIPS, *wl.video_shape(cfg))
    ks = rng.integers(1, cfg["K"] + 1, GRAD_CLIPS)
    loss = blocks.mean_squared_error(model, rng.normal(size=shape), ks,
                                     rng.normal(size=shape))
    names, params = zip(*model.params())
    return loss, dict(zip(names, ad.backward(loss, params)))


def report_grads() -> None:
    """Every parameter gradient of the default toy_grads model, then one
    digest over all of them for every configuration."""
    section(f"grads toy depth=2 clips={GRAD_CLIPS}")
    loss, grads = toy_grads([])
    print(f"loss {float(loss.value[0, 0]).hex()}")
    for name, grad in grads.items():
        print(f"{name} {sha(grad)}")
    for variant, fusion, u_norm in configs():
        _, grads = toy_grads([("variant", variant), ("fusion", fusion),
                              ("u_norm", u_norm)])
        print(f"{variant} {fusion} {u_norm} grads {state_sha(grads)}")


def report_sample() -> None:
    spec = wl.SPECS["p128-sample"]
    section(f"sample p128-sample seed={wl.REF_SEED}")
    digest = wl.reference_digest(spec)
    for key in sorted(digest):
        value = digest[key]
        print(f"{key} {value.hex() if isinstance(value, float) else value}")
    report_step(spec.name, wl.REF_SEED)


def without_column(text: str, column: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or column not in rows[0]:
        return text
    drop = rows[0].index(column)
    return "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows)


def report_cli(argv: list[str], drop: str | None = None) -> None:
    section("mattn " + " ".join(argv))
    out, saved = io.StringIO(), os.environ.get("MATTN_OUT")
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out):
        os.environ["MATTN_OUT"] = tmp
        try:
            code = cli.main(argv)
        finally:
            if saved is None:
                del os.environ["MATTN_OUT"]
            else:
                os.environ["MATTN_OUT"] = saved
    text = out.getvalue()
    print(without_column(text, drop) if drop else text, end="")
    print(f"exit {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--toy", action="store_true",
                        help="print only the toy sections")
    args = parser.parse_args(argv)

    report_train("toy-train")
    report_init("toy", predict=True)
    report_grads()
    report_cli(["bench", "--set", "preset=toy", "--set", "T=4"],
               drop="wall_ms")
    if not args.toy:
        report_train("p128-train")
        report_init("p128", predict=False)
        report_sample()
        report_cli(["verify"])
        report_cli(["flops", "--set", "preset=p128"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
