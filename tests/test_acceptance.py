"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single `ACCEPTANCE <name>: PASS|FAIL` line directly to
the terminal (bypassing capture) so a `pytest -v` run shows the verdict
per criterion alongside the test outcome.
"""
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mattn import attention as at
from mattn import autodiff as ad
from mattn import blocks as bl
from mattn import cli
from mattn import costmodel as cm
from mattn import data as da
from mattn import diffusion as df
from mattn import oracle as orc


def report(capfd, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    with capfd.disabled():
        print(f"ACCEPTANCE {name}: {status}{tail}", flush=True)
    assert passed, f"{name}: {detail}"


def test_acceptance_dense_map_oracle_suite(capfd):
    t0 = time.perf_counter()
    results = [r for seed in (0, 1, 2) for r in orc.run_oracle_suite(seed)]
    ok = all(r.passed for r in results)
    worst = np.max([r.max_dev for r in results])
    elapsed = time.perf_counter() - t0
    report(capfd, "dense_map_oracle_suite", ok and elapsed < 10.0,
           f"max_dev={worst:.3e}, {elapsed:.2f}s")


def _fd_outputs(build, params, rng, samples=6):
    """Max relative FD error over randomly sampled parameter entries."""
    with ad.no_grad():
        ups = rng.normal(size=build().shape)

    def sampled(p):
        flat = rng.choice(p.value.size, size=min(samples, p.value.size),
                          replace=False)
        return [np.unravel_index(int(f), p.shape) for f in flat]

    return ad.fd_error(build, params, ups, sampled)


def test_acceptance_gradient_suite(capfd):
    t0 = time.perf_counter()
    errors = []
    for seed in (0, 1, 2):
        rng = np.random.Generator(np.random.Philox(seed))
        frames = ad.const(rng.normal(size=(3, 3, 4)))

        mp = at.make_matrix_attn_params(rng, n=3, d=4, n_qk=2, n_v=2,
                                        u_norm="softmax")
        tp = at.make_token_attn_params(rng, d=4, d_h=3)
        variants = {
            "matrix": (lambda: at.matrix_attention(frames, mp),
                       [v for _, v in ad.named_params(mp)]),
            "spatial": (lambda: at.spatial_attention(frames, tp),
                        [v for _, v in ad.named_params(tp)]),
            "local": (lambda: at.local_temporal_attention(frames, tp),
                      [v for _, v in ad.named_params(tp)]),
            "full3d": (lambda: at.full3d_attention(frames, tp),
                       [v for _, v in ad.named_params(tp)]),
        }
        for build, params in variants.values():
            errors.append(_fd_outputs(build, params, rng))

        for fusion in bl.FUSION_VARIANTS:
            cfg = bl.BlockConfig(depth=1, d=4, n=3, variant="hybrid",
                                 n_qk=2, n_v=2, fusion=fusion)
            model = bl.Model(cfg, seed=seed)
            model.head_W.set_value(rng.normal(0.0, 0.5, (4, 4)))
            model.blocks[0].adaln_b.set_value(
                rng.normal(0.0, 0.5, (1, 36)))
            errors.append(_fd_outputs(
                lambda: model.forward(frames, k=2), model.param_vars(),
                rng, samples=2))
    worst = float(np.max(errors))
    elapsed = time.perf_counter() - t0
    report(capfd, "gradient_suite", worst <= 1e-4 and elapsed < 120.0,
           f"max_rel_err={worst:.3e}, {elapsed:.1f}s")


def test_acceptance_diffusion_suite(capfd):
    t0 = time.perf_counter()
    vp = max(float(np.max(np.abs(df.make_schedule(k).a ** 2
                                 + df.make_schedule(k).sigma ** 2 - 1.0)))
             for k in (1, 10, 250, 1000))

    sched = df.make_schedule(1000)
    snr = (sched.a[1:] / sched.sigma[1:]) ** 2
    monotone = bool(np.all(np.diff(snr) < 0.0))

    cfg = df.SamplerConfig(eta=0.0, steps=25, seed=5)
    s40 = df.make_schedule(40)
    a = df.sample(lambda x, k: 0.05 * x, (2, 3, 4), cfg, s40).to_array()
    b = df.sample(lambda x, k: 0.05 * x, (2, 3, 4), cfg, s40).to_array()
    deterministic = np.array_equal(a, b)

    m, s = 1.0, 0.5

    def oracle_fn(x, k):
        return sched.sigma[k] * (x - sched.a[k] * m) / (
            sched.a[k] ** 2 * s ** 2 + sched.sigma[k] ** 2)

    out = df.sample(oracle_fn, (1, 4096, 1),
                    df.SamplerConfig(eta=1.0, steps=250, seed=11),
                    sched).to_array()
    mean_err = abs(out.mean() - m) / m
    std_err = abs(out.std() - s) / s
    elapsed = time.perf_counter() - t0
    report(capfd, "diffusion_suite",
           vp <= 1e-12 and monotone and deterministic
           and mean_err <= 0.05 and std_err <= 0.05 and elapsed < 60.0,
           f"vp={vp:.2e}, mean_err={mean_err:.3f}, std_err={std_err:.3f}, "
           f"{elapsed:.1f}s")


def test_acceptance_collapse_identities(capfd):
    rng = np.random.Generator(np.random.Philox(7))
    ok = True

    # multi-head (1,1) equals an independent single-head computation
    p = at.make_matrix_attn_params(rng, n=3, d=4, n_qk=2, n_v=3)
    frames = ad.const(rng.normal(size=(4, 3, 4)))
    with ad.no_grad():
        got = at.matrix_attention(frames, p)

    def proj(z, lin):
        return (lin.U.value.T @ z) @ lin.W.value + lin.B.value

    q = [proj(f, p.q) for f in frames.value]
    k = [proj(f, p.k) for f in frames.value]
    v = [proj(f, p.v) for f in frames.value]
    qf = np.stack([f.reshape(-1) for f in q])
    kf = np.stack([f.reshape(-1) for f in k])
    vf = np.stack([f.reshape(-1) for f in v])
    sc = (qf @ kf.T) * (1.0 / np.sqrt(q[0].size))
    e = np.exp(sc - sc.max(axis=1, keepdims=True))
    u = (e / e.sum(axis=1, keepdims=True)) @ vf
    for t in range(4):
        want = proj(u[t].reshape(p.n_v, p.d_v), p.o)
        ok = ok and np.array_equal(got.value[t], want)

    # full3d at T=1 is spatial attention; at N=1 it is local temporal
    tp = at.make_token_attn_params(rng, d=4, d_h=4)
    one = ad.const(rng.normal(size=(1, 5, 4)))
    with ad.no_grad():
        ok = ok and np.array_equal(
            at.full3d_attention(one, tp).value,
            at.spatial_attention(one, tp).value)
    thin = ad.const(rng.normal(size=(5, 1, 4)))
    with ad.no_grad():
        ok = ok and np.array_equal(
            at.full3d_attention(thin, tp).value,
            at.local_temporal_attention(thin, tp).value)

    # hybrid block whose concat fusion selects the local branch (W = [I; 0],
    # b = 0) equals the local block
    mk = dict(depth=1, d=8, n=4, n_qk=2, n_v=4)
    hybrid = bl.Block.create(np.random.Generator(np.random.Philox(42)),
                             bl.BlockConfig(variant="hybrid", **mk))
    local = bl.Block.create(np.random.Generator(np.random.Philox(42)),
                            bl.BlockConfig(variant="local", **mk))
    hybrid.fusion.W.set_value(np.concatenate([np.eye(8), np.zeros((8, 8))]))
    hybrid.fusion.b.set_value(np.zeros((1, 8)))
    warm = rng.normal(0.0, 0.5, (1, 72))
    hybrid.adaln_b.set_value(warm)
    local.adaln_b.set_value(warm)
    bframes = ad.const(rng.normal(size=(3, 4, 8)))
    cond = ad.const(rng.normal(size=(1, 8)))
    with ad.no_grad():
        ok = ok and np.array_equal(hybrid.forward(bframes, cond).value,
                                   local.forward(bframes, cond).value)

    report(capfd, "collapse_identities", ok, "all comparisons bit-exact")


def test_acceptance_cost_model(capfd):
    t0 = time.perf_counter()
    exact = True
    for variant in cm.VARIANTS:
        for t in (1, 2, 4, 8):
            for n in (1, 4, 16):
                dims = cm.CostDims(T=t, N=n, D=8, D_h=8, N_qk=4, D_qk=8,
                                   N_v=8, D_v=8)
                closed = cm.flops_closed_form(variant, dims).flops_total
                measured, _ = cm.flops_instrumented(variant, dims)
                exact = exact and measured == closed

    p128 = cm.CostDims(T=128, N=64, D=128, D_h=128, N_qk=32, D_qk=128,
                       N_v=256, D_v=128, heads_m=1, heads_n=32)
    r128 = cm.flops_closed_form("full3d", p128).flops_temporal
    r16 = cm.flops_closed_form("full3d", replace(p128, T=16)).flops_temporal
    quad = r128 == 64 * r16

    h = cm.flops_closed_form("hybrid", p128).flops_total
    l = cm.flops_closed_form("local", p128).flops_total
    pinned = Fraction(h, l) == Fraction(28, 11)

    def peaks(variant):
        return [cm.flops_instrumented(
            variant, cm.CostDims(T=t, N=16, D=8, D_h=8, N_qk=4, D_qk=8,
                                 N_v=8, D_v=8))[1] for t in (16, 32)]

    pf, ph = peaks("full3d"), peaks("hybrid")
    memory = pf[1] / pf[0] >= 3.0 and ph[1] / ph[0] <= 2.5
    elapsed = time.perf_counter() - t0
    report(capfd, "cost_model",
           exact and quad and pinned and memory and elapsed < 120.0,
           f"closed=instrumented exact, hybrid/local=28/11, {elapsed:.1f}s")


def test_acceptance_toy_training(capfd):
    t0 = time.perf_counter()
    synth = da.SynthConfig(kind="moving_square", frames=4, side=8, square=2,
                           vx=1.0, vy=1.0, seed=0)
    dataset = da.make_dataset(synth, da.TokenizerConfig(patch=4, d=16),
                              count=32, seed=0)
    sched = df.make_schedule(1000)
    tcfg = df.TrainConfig(lr=2e-3, batch=4, steps=2000, seed=0)

    results = {}
    counts = {}
    # d_h=30 for the local run equalizes the parameter budgets exactly
    for variant, d_h in (("hybrid", None), ("local", 30)):
        cfg = bl.BlockConfig(depth=1, d=16, n=4, variant=variant,
                             n_qk=2, n_v=4, d_h=d_h)
        model = bl.Model(cfg, seed=0)
        counts[variant] = model.num_params()
        trace = df.train(model, dataset, tcfg, sched).trace
        losses = np.array([r.loss for r in trace])
        results[variant] = (losses[:100].mean(), losses[-100:].mean())

    budget = abs(counts["hybrid"] - counts["local"]) / counts["hybrid"]
    first, last = results["hybrid"]
    halved = last <= 0.5 * first
    beats_local = last <= results["local"][1]
    elapsed = time.perf_counter() - t0
    report(capfd, "toy_training",
           budget <= 0.05 and halved and beats_local and elapsed < 600.0,
           f"hybrid {first:.3f}->{last:.3f}, local last="
           f"{results['local'][1]:.3f}, budget_gap={budget:.3%}, "
           f"{elapsed:.0f}s")


def test_acceptance_gate_pathology(capfd):
    cfg = bl.BlockConfig(depth=1, d=8, n=4, variant="hybrid", n_qk=2, n_v=4)
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.Generator(np.random.Philox(seed + 300))
        batch = rng.normal(size=(2, 3, 4, 8))
        worst = max(worst, bl.gate_gradient_ratio(batch, cfg, seed=seed))
    report(capfd, "gate_pathology", worst < 0.2, f"max_ratio={worst:.3f}")


def test_acceptance_determinism(capfd, tmp_path, monkeypatch):
    monkeypatch.delenv("MATTN_FAULT", raising=False)
    tiny = ["--set", "preset=toy", "--set", "train_steps=5",
            "--set", "K=20", "--set", "steps=10"]
    ok = True
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        monkeypatch.setenv("MATTN_OUT", str(out))
        assert cli.main(["train"] + tiny) == 0
        assert cli.main(["sample"] + tiny) == 0
        assert cli.main(["bench", "--set", "preset=toy",
                         "--set", "T=2"]) == 0
        outs.append(out)
    a, b = outs
    for name in ("model.fdtc", "loss.csv", "sample.fdtc"):
        ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
    # resolved configs agree except for the output location itself
    strip = lambda p: [ln for ln in (p / "config.resolved").read_text()
                       .splitlines() if not ln.startswith("out_dir=")]
    ok = ok and strip(a) == strip(b)

    def strip_wall(path):
        rows = (path / "bench.csv").read_text().splitlines()
        return [",".join(r.split(",")[:9] + r.split(",")[10:]) for r in rows]

    ok = ok and strip_wall(a) == strip_wall(b)

    checks_a = cli._verify_checks(cli.__dict__["cf"].resolve([]))
    checks_b = cli._verify_checks(cli.__dict__["cf"].resolve([]))
    ok = ok and [(c.name, c.max_dev, c.passed) for c in checks_a] == \
        [(c.name, c.max_dev, c.passed) for c in checks_b]
    report(capfd, "determinism", ok, "re-runs bit-identical (wall_ms excluded)")
