import struct
import warnings

import numpy as np
import pytest

from mattn import attention as at
from mattn import autodiff as ad
from mattn import cli
from mattn import costmodel as cm
from mattn import diffusion as df
from mattn import io as fio
from mattn.core import DimensionError

TINY = ["--set", "preset=toy", "--set", "train_steps=5",
        "--set", "K=20", "--set", "steps=10"]


def run(args, monkeypatch, out_dir=None, fault=False):
    if out_dir is not None:
        monkeypatch.setenv("MATTN_OUT", str(out_dir))
    else:
        monkeypatch.delenv("MATTN_OUT", raising=False)
    if fault:
        monkeypatch.setenv("MATTN_FAULT", "1")
    else:
        monkeypatch.delenv("MATTN_FAULT", raising=False)
    return cli.main(args)


def test_verify_passes_and_prints_per_check_lines(monkeypatch, capsys):
    assert run(["verify"], monkeypatch) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6
    for line in lines:
        name, dev, status = line.split(",")
        float(dev)
        assert status == "PASS"


def test_verify_fault_injection_fails(monkeypatch, capsys):
    assert run(["verify"], monkeypatch, fault=True) == 1
    out = capsys.readouterr().out
    assert ",FAIL" in out


def test_verify_gradient_check_runs_configured_u_norm(monkeypatch, capsys):
    lines = set()
    for u_norm in at.U_NORM_MODES:
        assert run(["verify", "--set", f"u_norm={u_norm}"], monkeypatch) == 0
        out = capsys.readouterr().out.splitlines()
        lines.update(x for x in out if x.startswith("gradient_finite"))
    assert len(lines) == len(at.U_NORM_MODES)


def test_verify_fails_on_nan_gradients(monkeypatch, capsys):
    backward = ad.backward

    def nan_seed(out, wrt, seed):
        return backward(out, wrt, np.full(out.shape, np.nan))

    monkeypatch.setattr(ad, "backward", nan_seed)
    assert run(["verify"], monkeypatch) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "gradient_finite_difference,nan,FAIL" in lines


def test_unknown_key_is_config_error(monkeypatch):
    assert run(["train", "--set", "bogus=1"], monkeypatch) == 2


@pytest.mark.parametrize("setting", ["grad_clip=nan", "lr=inf"])
def test_non_finite_float_is_config_error(setting, tmp_path, monkeypatch,
                                          capsys):
    assert run(["train"] + TINY + ["--set", setting], monkeypatch,
               out_dir=tmp_path) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("setting,message", [
    ("train_steps=-1", "key train_steps: must be >= 0, got -1"),
    ("batch=0", "key batch: must be >= 1, got 0"),
    ("lr=-1", "key lr: must be >= 0, got -1.0"),
    ("grad_clip=-1", "key grad_clip: must be >= 0, got -1.0"),
])
def test_bad_training_value_names_its_key(setting, message, tmp_path,
                                          monkeypatch, capsys):
    assert run(["train"] + TINY + ["--set", setting], monkeypatch,
               out_dir=tmp_path) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_attention_dimension_below_one_is_config_error(monkeypatch, capsys):
    assert run(["train", "--set", "preset=toy", "--set", "heads_m=0"],
               monkeypatch) == 2
    assert "config error:" in capsys.readouterr().err


def test_dimension_error_is_config_error(tmp_path, monkeypatch, capsys):
    # no configuration that passes validation is known to reach one, so a
    # library call is made to raise it, as a shape check deep inside would
    def mismatch(*args, **kwargs):
        raise DimensionError("matmul shape mismatch: (2, 3) x (4, 5)")

    monkeypatch.setattr(cm, "flops_closed_form", mismatch)
    assert run(["flops", "--set", "preset=toy"], monkeypatch,
               out_dir=tmp_path) == 2
    assert ("config error: matmul shape mismatch"
            in capsys.readouterr().err)


def test_memory_error_is_config_error(tmp_path, monkeypatch, capsys):
    # what `--set batch=100000000000000` meets, raised without allocating
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    monkeypatch.setattr(df, "train", too_large)
    assert run(["train"] + TINY, monkeypatch, out_dir=tmp_path) == 2
    err = capsys.readouterr().err
    assert err == ("config error: out of memory (Unable to allocate 728. "
                   "TiB for an array)\n")


@pytest.mark.parametrize("args, message", [
    (["verify", "--set", "K=100000000000000000000"],
     "Maximum allowed size exceeded"),
    (["bench", "--set", "T=100000000000000000000"],
     "Maximum allowed dimension exceeded"),
    (["bench", "--set", "preset=toy", "--set", "D=100000000000"],
     "array is too big")], ids=["size", "dimension", "too_big"])
def test_unrepresentable_array_size_is_config_error(args, message, tmp_path,
                                                    monkeypatch, capsys):
    """numpy raises a plain ValueError, not MemoryError, for a size it
    cannot represent, before allocating anything."""
    assert run(args, monkeypatch, out_dir=tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: array too large (") and message in err


def test_other_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def fails(*args, **kwargs):
        raise ValueError("a defect, not a bad input")

    monkeypatch.setattr(df, "train", fails)
    with pytest.raises(ValueError, match="a defect"):
        run(["train"] + TINY, monkeypatch, out_dir=tmp_path)


def test_non_finite_norm_is_numeric_abort(tmp_path, monkeypatch, capsys):
    """At lr=1e308 the EMA's distance from the weights overflows: the run
    aborts with exit 3, writes no loss.csv and lets no warning out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--set", "preset=toy", "--set", "lr=1e308",
                    "--set", "train_steps=1"], monkeypatch,
                   out_dir=tmp_path) == 3
    assert ("numeric abort: non-finite global norm"
            in capsys.readouterr().err)
    assert not (tmp_path / "loss.csv").exists()


def test_missing_config_file_is_config_error(monkeypatch):
    assert run(["verify", "--config", "/no/such/file"], monkeypatch) == 2


@pytest.mark.parametrize("case", ["config_not_utf8", "out_dir_is_file",
                                  "checkpoint_is_dir", "flops.csv",
                                  "model.fdtc", "sample.pgm"])
def test_unreadable_file_input_is_config_error(case, tmp_path, monkeypatch,
                                               capsys):
    """A file the run cannot read or write ends in a config error, not a
    traceback. (Permission denied is the same OSError, but root reads
    every file.)"""
    out = tmp_path / "out"
    args = ["sample"] + TINY
    if case == "config_not_utf8":
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"preset=toy\nseed=\xff\n")
        args = ["verify", "--config", str(cfgfile)]
    elif case == "out_dir_is_file":
        out.write_text("")
    elif case == "checkpoint_is_dir":
        (out / "model.fdtc").mkdir(parents=True)
    else:  # an output file of one command is a directory
        command = {"flops.csv": "flops", "model.fdtc": "train",
                   "sample.pgm": "sample"}[case]
        if command == "sample":
            assert run(["train"] + TINY, monkeypatch, out_dir=out) == 0
        (out / case).mkdir(parents=True)
        args = [command] + TINY
    assert run(args, monkeypatch, out_dir=out) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_train_then_sample_outputs(tmp_path, monkeypatch, capsys):
    assert run(["train"] + TINY, monkeypatch, out_dir=tmp_path) == 0
    assert (tmp_path / "model.fdtc").exists()
    assert (tmp_path / "loss.csv").exists()
    resolved = tmp_path / "config.resolved"
    assert resolved.exists()
    assert "train_steps=5" in resolved.read_text()

    assert run(["sample"] + TINY, monkeypatch, out_dir=tmp_path) == 0
    assert (tmp_path / "sample.fdtc").exists()
    assert (tmp_path / "sample.pgm").exists()
    tokens = fio.read_checkpoint(tmp_path / "sample.fdtc")["tokens"]
    assert tokens.shape == (4, 4, 16)

    lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss,grad_norm,ema_delta"
    assert len(lines) == 6


def test_sample_without_checkpoint_is_config_error(tmp_path, monkeypatch):
    assert run(["sample"] + TINY, monkeypatch, out_dir=tmp_path) == 2


def test_sample_with_other_width_is_config_error(tmp_path, monkeypatch,
                                                 capsys):
    assert run(["train"] + TINY, monkeypatch, out_dir=tmp_path) == 0
    assert run(["sample"] + TINY + ["--set", "D=8"], monkeypatch,
               out_dir=tmp_path) == 2
    err = capsys.readouterr().err
    assert "timestep.W1" in err
    assert f"(checkpoint {tmp_path / 'model.fdtc'})" in err
    # a clip of no frames is refused by name, before the model runs
    assert run(["sample"] + TINY + ["--set", "T=0"], monkeypatch,
               out_dir=tmp_path) == 2
    assert "config error: key T:" in capsys.readouterr().err


def test_sample_with_fewer_parameters_is_config_error(tmp_path, monkeypatch,
                                                     capsys):
    """A checkpoint holding parameters the sampled model lacks is refused,
    not sampled from a model without them."""
    assert run(["train"] + TINY, monkeypatch, out_dir=tmp_path) == 0
    for override in ("variant=local", "depth=0"):
        assert run(["sample"] + TINY + ["--set", override], monkeypatch,
                   out_dir=tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unexpected parameters")


def test_sample_with_corrupt_checkpoint_is_config_error(tmp_path,
                                                       monkeypatch, capsys):
    assert run(["train"] + TINY, monkeypatch, out_dir=tmp_path) == 0
    ckpt = tmp_path / "model.fdtc"
    good = ckpt.read_bytes()
    bad = bytearray(good)
    bad[14] = 0xFF  # the first byte of the first entry's name
    ckpt.write_bytes(bytes(bad))
    assert run(["sample"] + TINY, monkeypatch, out_dir=tmp_path) == 2
    assert "not UTF-8" in capsys.readouterr().err
    ckpt.write_bytes(good + b"\x00" * 8)
    assert run(["sample"] + TINY, monkeypatch, out_dir=tmp_path) == 2
    assert "trailing bytes" in capsys.readouterr().err
    # a well-formed checkpoint holding a NaN weight is refused by name
    ckpt.write_bytes(good)
    entries = fio.read_checkpoint(ckpt)
    entries["ema/timestep.W1"][0, 0] = np.nan
    fio.write_checkpoint(ckpt, entries)
    assert run(["sample"] + TINY, monkeypatch, out_dir=tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: parameter 'timestep.W1'")
    assert "non-finite" in err
    # an entry of a rank numpy cannot hold is refused by path and name
    ckpt.write_bytes(b"FDTC" + struct.pack("<IIH", 1, 1, 1) + b"x"
                     + struct.pack("<B", 70) + struct.pack("<I", 1) * 70
                     + struct.pack("<d", 1.0))
    assert run(["sample"] + TINY, monkeypatch, out_dir=tmp_path) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {ckpt}: entry 'x'")


def test_rerun_from_resolved_config_bit_identical(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["train"] + TINY, monkeypatch, out_dir=a) == 0
    # reproduce purely from the resolved config written by the first run
    assert run(["train", "--config", str(a / "config.resolved")],
               monkeypatch, out_dir=b) == 0
    assert (a / "model.fdtc").read_bytes() == (b / "model.fdtc").read_bytes()
    assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()

    assert run(["sample"] + TINY, monkeypatch, out_dir=a) == 0
    assert run(["sample", "--config", str(a / "config.resolved")],
               monkeypatch, out_dir=b) == 0
    assert (a / "sample.fdtc").read_bytes() == (b / "sample.fdtc").read_bytes()


def test_bench_csv_written(tmp_path, monkeypatch, capsys):
    assert run(["bench", "--set", "preset=toy", "--set", "T=2"],
               monkeypatch, out_dir=tmp_path) == 0
    text = (tmp_path / "bench.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("variant,T,N,D,")
    assert len(lines) > 1
    assert capsys.readouterr().out.splitlines()[0] == lines[0]


def test_bench_deterministic_modulo_wall_time(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["bench", "--set", "preset=toy", "--set", "T=2"],
                   monkeypatch, out_dir=d) == 0

    def strip_wall(path):
        rows = (path / "bench.csv").read_text().splitlines()
        return [",".join(r.split(",")[:9] + r.split(",")[10:]) for r in rows]

    assert strip_wall(a) == strip_wall(b)


def test_bench_runs_configured_u_norm(tmp_path, monkeypatch):
    """Every matrix attention the bench builds normalizes its row weights
    with the configured u_norm."""
    normalized_ut = at.normalized_ut
    for u_norm in at.U_NORM_MODES:
        modes = []

        def spy(U, mode):
            modes.append(mode)
            return normalized_ut(U, mode)

        monkeypatch.setattr(at, "normalized_ut", spy)
        assert run(["bench", "--set", "preset=toy", "--set", "T=2",
                    "--set", f"u_norm={u_norm}"], monkeypatch,
                   out_dir=tmp_path) == 0
        assert modes and set(modes) == {u_norm}


@pytest.mark.parametrize("mode", ["bogus", "l1", "l2"])
def test_flops_with_unknown_u_norm_is_config_error(tmp_path, monkeypatch,
                                                  capsys, mode):
    """A setting only matrix attention reads is still checked by every
    command, before anything is written; l1 and l2 are not modes."""
    assert run(["flops", "--set", f"u_norm={mode}"], monkeypatch,
               out_dir=tmp_path) == 2
    assert f"unknown u_norm mode: {mode!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_flops_csv_written(tmp_path, monkeypatch):
    assert run(["flops", "--set", "preset=toy"], monkeypatch,
               out_dir=tmp_path) == 0
    text = (tmp_path / "flops.csv").read_text()
    assert text.splitlines()[0] == ("variant,T,N,D,N_qk,N_v,flops_spatial,"
                                    "flops_temporal,flops_proj,flops_total")


def test_config_file_plus_set_override(tmp_path, monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("preset=toy\nseed=1\n")
    out = tmp_path / "out"
    assert run(["flops", "--config", str(cfgfile), "--set", "seed=2"],
               monkeypatch, out_dir=out) == 0
    assert "seed=2" in (out / "config.resolved").read_text()


def test_non_square_token_count_rejected_for_training(tmp_path, monkeypatch):
    assert run(["train", "--set", "preset=toy", "--set", "N=3",
                "--set", "N_v=3", "--set", "N_qk=1"],
               monkeypatch, out_dir=tmp_path) == 2
