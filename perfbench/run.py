"""Benchmark of mattn's training and sampling, end to end and per layer.

  python3 perfbench/run.py --workload toy-train --seed 1 --seconds 10 --trace 0

Workloads: toy-train, p128-sample, p128-train (see README.md). mattn is
imported from the src/ directory next to this one; nothing is installed.
The report goes to standard output, and its last line is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, measured with tracing off and scaled to
the reference speed of speed.py; with --trace 1 they are the per-layer
ones from a traced run. Each run also writes its full results (and,
traced, its spans) under .perfbench-work/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
BLAS_THREADS = 1   # fixed so that runs on one machine compare
# An untraced run sets up at least MIN_SETUPS times, more while a tenth of
# --seconds lasts (up to MAX_SETUPS); setup_s is the median.
MIN_SETUPS, MAX_SETUPS, SETUP_SHARE = 3, 15, 0.1

# name -> unit; BENCHMARK.json lists the same names. setup_s and
# clips_per_ref_s are scaled to the reference speed (speed.py), because on
# a shared host the CPU's speed switches between levels during and between
# runs. Wall-clock throughput and step percentiles are printed, not gated.
END_TO_END = {
    "setup_s": "s",
    "clips_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.matmul.calls": "count",
    "core.matmul.flops": "flop",
    "core.matmul.self_ms": "ms",
    "core.matmul.gflops_per_s": "GFLOP/s",
    "core.gemm_ceiling_gflops": "GFLOP/s",
    "core.peak_live_mb": "MB",
    "autodiff.graph_nodes": "count",
    "attention.spatial.ms": "ms",
    "attention.spatial.gflops_per_s": "GFLOP/s",
    "attention.local.ms": "ms",
    "attention.local.gflops_per_s": "GFLOP/s",
    "attention.global.ms": "ms",
    "attention.global.gflops_per_s": "GFLOP/s",
    "blocks.fuse.ms": "ms",
    "blocks.block.self_ms": "ms",
    "blocks.model.self_ms": "ms",
    "diffusion.model_fn.ms": "ms",
    "diffusion.loop.self_ms": "ms",
    "data.make_dataset.ms": "ms",
    "io.read_checkpoint.ms": "ms",
    "io.checkpoint_mb": "MB",
    "trace.overhead_pct": "%",
}
# per-layer figures printed for train workloads only: sampling has neither
TRAIN_ONLY = ("autodiff.backward.ms", "diffusion.optimizer.ms")


class Report:
    """Metric rows, output checks and facts of one run."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, str, str]] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.facts: dict[str, object] = {}

    def add(self, name: str, value, unit: str, note: str = "") -> None:
        self.rows.append((name, value, unit, note))

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def metrics(self, names) -> dict:
        return {n: {"value": v, "unit": u} for n, v, u, _ in self.rows
                if n in names}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="CHECKPOINT",
                   help=argparse.SUPPRESS)  # time one set-up, print it
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mattn" / "__init__.py").is_file():
        print(f"perfbench: no mattn sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    probe = speed.Probe()
    with probe:
        t0 = time.perf_counter()
        import workloads as wl  # imports numpy and mattn: part of set-up
        imported = (t0, time.perf_counter())

    spec = wl.SPECS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.SPECS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(wl, spec, args.seed,
                                                 args.setup_probe, probe,
                                                 imported)[1]}))
        return 0

    WORK.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    ckpt = WORK / f"{stem}-{os.getpid()}.fdtc"
    wl.write_checkpoint(spec, args.seed, ckpt)
    rep = Report()
    try:
        if args.trace:
            loops = traced_run(wl, spec, args, ckpt, rep, stem)
        else:
            loops = untraced_run(wl, spec, args, ckpt, rep, probe, imported)
    finally:
        ckpt.unlink(missing_ok=True)

    rep.facts.update(machine_facts())
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    correct = failed == 0 and all(ok for _, ok, _ in rep.checks)
    if not all(ok for _, ok, _ in rep.checks):
        failed = attempted  # a run whose outputs do not check fails whole
    rep.add("failed_frac", failed / max(attempted, 1), "1",
            f"{failed} of {attempted} steps")
    names = PER_LAYER if args.trace else END_TO_END
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": rep.metrics(names)}
    missing = sorted(set(names) - set(result["metrics"]))
    if missing:
        rep.check("every metric measured", False, ", ".join(missing))
        result["correct"] = False
    print_report(spec, args, rep)
    (WORK / f"{stem}.json").write_text(json.dumps(
        {"workload": spec.name, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "facts": rep.facts,
         "rows": rep.rows, "checks": rep.checks, "result": result},
        indent=1, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# runs

def timed_setup(wl, spec, seed: int, ckpt, probe, imported):
    """wl.setup under the probe; returns the Bench and the set-up time,
    import included, at the reference speed."""
    with probe:
        t = time.perf_counter()
        s = wl.setup(spec, seed, ckpt)
        done = time.perf_counter()
    return s, probe.scaled(*imported) + probe.scaled(t, done)


def untraced_run(wl, spec, args, ckpt, rep: Report, probe, imported):
    t = time.perf_counter()
    s, first = timed_setup(wl, spec, args.seed, ckpt, probe, imported)
    setups = [first]
    while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS
            and time.perf_counter() - t < SETUP_SHARE * args.seconds):
        setups.append(probe_setup(args, ckpt))
    rep.facts["gemm_ceiling_gflops"] = wl.gemm_ceiling_gflops()

    with probe:
        loop = wl.run_loop(s, args.seconds)
    check_outputs(wl, s, [loop], rep)

    unit = "train steps" if spec.kind == "train" else "sampler steps"
    n = len(loop.step_s)
    rep.add("setup_s", statistics.median(setups), "s",
            f"n={len(setups)} set-ups")
    if n:
        step_ms = [x * 1e3 for x in loop.step_s]
        rep.add("step_ms.p50", statistics.median(step_ms), "ms",
                f"n={n} {unit} ({spec.kind}.step_ms.p50)")
        p90 = spans.percentile(step_ms, 90)
        rep.add("step_ms.p90", p90 if p90 is not None else "n/a", "ms",
                f"n={n} {unit}" + ("" if p90 is not None else
                                   ", under 10 beyond p90"))
        ref_s = probe.scaled(*loop.window)
        wall_s = loop.window[1] - loop.window[0] - probe.probe_s(*loop.window)
        rep.add("clips_per_ref_s", loop.clips / ref_s, "1/s",
                f"{loop.clips} clips in {ref_s:.3f} s at reference speed")
        rep.add("clips_per_s", loop.clips / wall_s, "1/s",
                f"{loop.clips} clips in {wall_s:.3f} s of wall clock")
    if loop.clip_s:
        rep.add("sample.clip_s", statistics.median(loop.clip_s), "s",
                f"n={len(loop.clip_s)} diffusion.sample calls of "
                f"{wl.SAMPLE_STEPS} steps")
    rep.add("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss, this process")
    return [loop]


def traced_run(wl, spec, args, ckpt, rep: Report, stem: str):
    with spans.Tracer(wl.TRACE_TARGETS) as setup_trace:
        s = wl.setup(spec, args.seed, ckpt)
    ceiling = wl.gemm_ceiling_gflops()
    rep.facts["gemm_ceiling_gflops"] = ceiling
    counted, counter = wl.count_step(s)
    plain, traced = [], []
    tracer = spans.Tracer(wl.TRACE_TARGETS)
    for _ in range(2):  # alternate, so that a slow spell hits both kinds
        plain.append(wl.run_loop(s, args.seconds / 4))
        with tracer:
            traced.append(wl.run_loop(s, args.seconds / 4, tracer))
    loops = plain + traced
    check_outputs(wl, s, loops, rep)

    # FLOPs of one block's attention and fusion against the closed form
    want = wl.closed_form_block_flops(s.cfg)
    got = spans.children_flops(counted.spans, "blocks.block",
                               wl.FLOPS_CHECKED)
    rep.check("flops per block == costmodel.flops_closed_form",
              bool(got) and all(g == want for g in got),
              f"{len(got)} blocks, counted {sorted(set(got))}, "
              f"closed form {want}")

    flops = spans.flops_by_name(counted.spans)
    traced_s = [x for loop in traced for x in loop.step_s]
    plain_s = [x for loop in plain for x in loop.step_s]
    steps = len(traced_s)
    if not steps or not plain_s:
        return loops
    windows = [loop.window for loop in traced]
    inc = _over_windows(spans.inclusive_times, tracer.spans, windows)
    own = _over_windows(spans.self_times, tracer.spans, windows)
    setup_inc = spans.inclusive_times(setup_trace.spans,
                                      (-float("inf"), float("inf")))

    def per_step_ms(seconds: float) -> float:
        return seconds / steps * 1e3

    def gflops(name: str, seconds: float) -> float:
        return flops.get(name, 0) * steps / seconds / 1e9 if seconds else 0.0

    note = f"per step, {steps} traced steps"
    rep.add("core.matmul.calls",
            sum(1 for x in counted.spans if x.name == "core.matmul"),
            "count", "per step, counting pass")
    rep.add("core.matmul.flops", counter.flops, "flop",
            "per step, counting pass")
    rep.add("core.matmul.self_ms", per_step_ms(own["core.matmul"]), "ms", note)
    rep.add("core.matmul.gflops_per_s",
            gflops("core.matmul", own["core.matmul"]), "GFLOP/s", note)
    rep.add("core.gemm_ceiling_gflops", ceiling, "GFLOP/s",
            f"1024^2 gemm, {BLAS_THREADS} BLAS thread")
    rep.add("core.peak_live_mb", counter.peak_live_bytes / 2 ** 20, "MB",
            "count_kernels, counting pass")
    rep.add("autodiff.graph_nodes", counted.counts["autodiff.graph_nodes"],
            "count", "Vars built per step, counting pass")
    for part in ("spatial", "local", "global"):
        name = f"attention.{part}"
        rep.add(f"{name}.ms", per_step_ms(inc[name]), "ms", note)
        rep.add(f"{name}.gflops_per_s", gflops(name, inc[name]), "GFLOP/s",
                note)
    rep.add("blocks.fuse.ms", per_step_ms(inc["blocks.fuse"]), "ms", note)
    rep.add("blocks.block.self_ms", per_step_ms(own["blocks.block"]), "ms",
            note + ": AdaLN, MLP, residuals")
    rep.add("blocks.model.self_ms", per_step_ms(own["blocks.model"]), "ms",
            note)
    if spec.kind == "train":
        model_fn, loop_fn = "diffusion.loss_graph", "diffusion.train"
        for name in TRAIN_ONLY:
            span = name.rsplit(".", 1)[0]
            rep.add(name, per_step_ms(inc[span]), "ms", note)
    else:
        model_fn, loop_fn = "diffusion.denoiser", "diffusion.sampler"
    rep.add("diffusion.model_fn.ms", per_step_ms(inc[model_fn]), "ms",
            f"{note}: {model_fn}")
    rep.add("diffusion.loop.self_ms", per_step_ms(own[loop_fn]), "ms",
            f"{note}: {loop_fn} self time")
    rep.add("data.make_dataset.ms", setup_inc["data.make_dataset"] * 1e3,
            "ms", "one call, in set-up")
    rep.add("io.read_checkpoint.ms", setup_inc["io.read_checkpoint"] * 1e3,
            "ms", "one call, in set-up")
    rep.add("io.checkpoint_mb", ckpt.stat().st_size / 2 ** 20, "MB",
            "checkpoint file")
    rep.add("trace.overhead_pct",
            (sum(traced_s) / steps / (sum(plain_s) / len(plain_s)) - 1.0)
            * 100.0, "%", f"mean step traced vs untraced, {steps} vs "
            f"{len(plain_s)} steps")

    rep.facts["self_ms_per_step"] = {
        name: round(per_step_ms(t), 4) for name, t in
        sorted(own.items(), key=lambda kv: -kv[1])}
    write_spans(WORK / f"{stem}-spans.json", tracer.spans, windows)
    return loops


def _over_windows(times, recorded, windows) -> dict[str, float]:
    out: dict[str, float] = {}
    for window in windows:
        for name, t in times(recorded, window).items():
            out[name] = out.get(name, 0.0) + t
    return out


def check_outputs(wl, s, loops, rep: Report) -> None:
    """Run-level output checks; per-step checks live in the loops."""
    import numpy as np

    spec = s.spec
    for loop in loops:
        if loop.error:
            rep.check("no step raised", False, loop.error)
    if spec.kind == "train":
        runs = [loop.losses for loop in loops]
        if spec.repeat_steps:
            n = min(spec.repeat_steps, max(len(r) for r in runs))
            runs.append(wl.repeat_losses(s, n))
        rep.check("warm-up loss == first loss of every loop",
                  all(r and r[0] == s.warm for r in runs[:len(loops)]))
        if len(runs) > 1:
            rep.check("loss traces of one seed are bit-identical",
                      all(_same_prefix(runs[0], r) for r in runs[1:]),
                      f"{len(runs)} runs, lengths {[len(r) for r in runs]}")
        got = {"final_loss": runs[0][-1]} if runs[0] else {}
    else:
        outs = [loop.sample for loop in loops]
        rep.check("samples of one seed are bit-identical",
                  all(o is not None and np.array_equal(o, outs[0])
                      for o in outs)
                  and not any(loop.mismatched for loop in loops),
                  f"{sum(loop.clips for loop in loops)} diffusion.sample "
                  "calls")
        rep.check("sample shape", outs[0] is not None
                  and outs[0].shape == wl.video_shape(s.cfg))
        got = wl.sample_digest(outs[0]) if outs[0] is not None else {}
    rep.facts["digest"] = got
    ref = wl.reference_digest(spec)
    want = json.loads((HERE / "reference.json").read_text()).get(spec.name)
    rep.facts["reference_digest"] = ref
    rep.check(f"reference digest within {wl.REL_TOL:g}",
              want is not None and wl.digest_matches(ref, want),
              f"seed {wl.REF_SEED}: got {ref}, recorded {want}")


def _same_prefix(a: list[float], b: list[float]) -> bool:
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def probe_setup(args, ckpt: Path) -> float:
    """Set-up time of a fresh process, import included."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe", str(ckpt)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                         check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# facts and output

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "python": platform.python_version()}


def print_report(spec, args, rep: Report) -> None:
    print(f"workload {spec.name}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    facts = rep.facts
    print("machine  " + "  ".join(
        f"{k}={facts[k]}" for k in ("nproc", "usable_cpus", "blas",
                                    "blas_threads", "numpy", "python")
        if k in facts)
        + f"  gemm_ceiling={facts['gemm_ceiling_gflops']:.2f} GFLOP/s")
    for name, value, unit, note in rep.rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<32} {shown:>14} {unit:<8} {note}")
    for name, t in facts.get("self_ms_per_step", {}).items():
        print(f"  self {name:<27} {t:>14.4f} ms       per step")
    print(f"  digest  {facts.get('digest')}")
    for name, ok, detail in rep.checks:
        print(f"  check {'PASS' if ok else 'FAIL'}  {name}"
              + (f"  ({detail})" if detail else ""))


def write_spans(path: Path, recorded, windows) -> None:
    names = sorted({s.name for s in recorded})
    index = {n: i for i, n in enumerate(names)}
    path.write_text(json.dumps({
        "names": names, "windows": [list(w) for w in windows],
        "spans": [[index[s.name], round(s.start, 7), round(s.end, 7),
                   s.parent] for s in recorded]}))


if __name__ == "__main__":
    sys.exit(main())
