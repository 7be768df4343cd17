import re

import pytest

from mattn import config as cf
from mattn.core import ConfigError


def test_defaults_resolve():
    cfg = cf.resolve([])
    assert cfg["variant"] == "hybrid"
    assert cfg["K"] == 1000
    assert cfg["u_norm"] == "softmax"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        cf.resolve([("bogus", "1")])


def test_bad_value_rejected():
    for key, value in (("depth", "three"), ("lr", "fast")):
        with pytest.raises(ConfigError, match=f"key {key}:"):
            cf.resolve([(key, value)])


def test_parse_kv_text_comments_and_blanks():
    pairs = cf.parse_kv_text("# a comment\n\nseed = 5\n  T=3  \n")
    assert pairs == [("seed", "5"), ("T", "3")]
    with pytest.raises(ConfigError):
        cf.parse_kv_text("not a pair")


def test_preset_then_override_order():
    cfg = cf.resolve([("preset", "toy"), ("T", "8")])
    assert cfg["N"] == 4          # from preset
    assert cfg["T"] == 8          # explicit override wins
    assert cfg["preset"] == "toy"


def test_preset_p128_dimensions():
    cfg = cf.resolve([("preset", "p128")])
    assert (cfg["N"], cfg["N_qk"], cfg["N_v"]) == (64, 32, 256)
    assert (cfg["heads_m"], cfg["heads_n"]) == (1, 32)
    assert cfg["D"] % cfg["heads_n"] == 0


def test_preset_p256_dimensions():
    cfg = cf.resolve([("preset", "p256")])
    assert (cfg["N"], cfg["N_qk"], cfg["N_v"]) == (256, 128, 512)
    assert cfg["heads_n"] == 128


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        cf.resolve([("preset", "p512")])


def test_validation_rules():
    with pytest.raises(ConfigError):
        cf.resolve([("eta", "1.5")])
    with pytest.raises(ConfigError):
        cf.resolve([("steps", "2000")])  # steps > K
    with pytest.raises(ConfigError):
        cf.resolve([("heads_n", "3")])   # does not divide D
    with pytest.raises(ConfigError, match="key heads_m:"):
        cf.resolve([("heads_m", "3")])   # does not divide N_qk
    for key, value in (("heads_m", "0"), ("heads_n", "0"), ("N_qk", "0"),
                       ("N_v", "0"), ("N_v", "-2"), ("D_qk", "-4"),
                       ("D_v", "-1"), ("T", "0"), ("D", "0"), ("N", "0"),
                       ("depth", "-1"), ("seed", "-1"), ("clip_start", "-5")):
        # the message names the key as typed, not the block's field
        with pytest.raises(ConfigError, match=f"key {key}:"):
            cf.resolve([("preset", "toy"), (key, value)])
    for key in ("variant", "fusion", "u_norm"):
        # choices are checked by the block configuration, for every command
        with pytest.raises(ConfigError, match="unknown .*'bogus'"):
            cf.resolve([("preset", "toy"), (key, "bogus")])


@pytest.mark.parametrize("key,value,message", [
    ("train_steps", "-1", "key train_steps: must be >= 0, got -1"),
    ("batch", "0", "key batch: must be >= 1, got 0"),
    ("lr", "-1", "key lr: must be >= 0, got -1.0"),
    ("grad_clip", "-1", "key grad_clip: must be >= 0, got -1.0"),
    ("ema_decay", "1", "key ema_decay: must be in [0, 1), got 1.0"),
    ("ema_decay", "-0.5", "key ema_decay: must be in [0, 1), got -0.5"),
])
def test_training_key_checked_by_its_name(key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cf.resolve([("preset", "toy"), (key, value)])


def test_zero_training_values_accepted():
    cfg = cf.resolve([("train_steps", "0"), ("lr", "0"), ("grad_clip", "0"),
                      ("ema_decay", "0")])
    assert cfg["grad_clip"] == 0.0  # no clipping


@pytest.mark.parametrize("key", ["eta", "lr", "ema_decay", "grad_clip"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(key, value):
    with pytest.raises(ConfigError, match=f"key {key}: must be finite"):
        cf.resolve([(key, value)])


def test_serialize_round_trip_is_identity():
    cfg = cf.resolve([("preset", "toy"), ("seed", "9"), ("eta", "0.5")])
    text = cf.serialize(cfg)
    again = cf.resolve(cf.parse_kv_text(text))
    assert again == cfg
    assert cf.serialize(again) == text


def test_serialize_is_sorted():
    lines = cf.serialize(cf.resolve([])).splitlines()
    keys = [line.split("=")[0] for line in lines]
    assert keys == sorted(keys)


def test_load_config_with_sets(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("preset=toy\nseed=3\n")
    cfg = cf.load_config(str(path), ["seed=4", "eta=0.25"])
    assert cfg["seed"] == 4
    assert cfg["eta"] == 0.25
    with pytest.raises(ConfigError):
        cf.load_config(str(path), ["seed"])
    with pytest.raises(ConfigError):
        cf.load_config(str(tmp_path / "missing.cfg"), [])


def test_block_config_bridge():
    bc = cf.block_config(cf.resolve([("preset", "toy")]))
    assert bc.d == 16 and bc.n == 4
    assert bc.d_qk is None  # 0 sentinel means "same as D"
