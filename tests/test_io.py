import struct

import numpy as np
import pytest

from mattn import io as fio


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "m.fdtc"
    entries = {
        "weights": np.arange(12.0).reshape(3, 4),
        "bias": np.zeros((1, 4)),
        "scalar": np.array(3.5),
        "cube": np.ones((2, 2, 2)),
    }
    fio.write_checkpoint(path, entries)
    back = fio.read_checkpoint(path)
    assert set(back) == set(entries)
    for name in entries:
        assert back[name].shape == np.asarray(entries[name]).shape
        assert np.array_equal(back[name], entries[name])


def test_checkpoint_header_layout(tmp_path):
    path = tmp_path / "m.fdtc"
    fio.write_checkpoint(path, {"x": np.array([[1.0]])})
    raw = path.read_bytes()
    assert raw[:4] == b"FDTC"
    assert struct.unpack("<I", raw[4:8])[0] == 1    # version
    assert struct.unpack("<I", raw[8:12])[0] == 1   # entry count
    assert struct.unpack("<H", raw[12:14])[0] == 1  # name length
    assert raw[14:15] == b"x"


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fdtc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(fio.CheckpointError):
        fio.read_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.fdtc"
    path.write_bytes(b"FDTC" + struct.pack("<I", 9) + struct.pack("<I", 0))
    with pytest.raises(fio.CheckpointError):
        fio.read_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "m.fdtc"
    fio.write_checkpoint(path, {"x": np.ones((4, 4))})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(fio.CheckpointError):
        fio.read_checkpoint(path)


def test_checkpoint_cut_at_any_offset_is_checkpoint_error(tmp_path):
    path = tmp_path / "m.fdtc"
    fio.write_checkpoint(path, {"x": np.ones((4, 4))})
    raw = path.read_bytes()
    assert len(raw) == 152
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(fio.CheckpointError):
            fio.read_checkpoint(path)


def test_checkpoint_corrupt_header_byte_is_checkpoint_error(tmp_path):
    """Every byte before the payload of a one-entry file, inverted, gives
    a CheckpointError: bad magic or version, an entry count or name length
    past the end, a name that is not UTF-8, or dimensions that disagree
    with the payload's length (a high dimension byte asks for ~137 GB)."""
    path = tmp_path / "m.fdtc"
    fio.write_checkpoint(path, {"x": np.ones((4, 4))})
    raw = path.read_bytes()
    for offset in range(len(raw) - 8 * 16):
        bad = bytearray(raw)
        bad[offset] ^= 0xFF
        path.write_bytes(bytes(bad))
        with pytest.raises(fio.CheckpointError):
            fio.read_checkpoint(path)


def test_checkpoint_trailing_bytes_are_checkpoint_error(tmp_path):
    path = tmp_path / "m.fdtc"
    fio.write_checkpoint(path, {"x": np.ones((4, 4))})
    raw = path.read_bytes()
    for extra in (b"\x00", raw[12:]):
        path.write_bytes(raw + extra)
        with pytest.raises(fio.CheckpointError, match="trailing"):
            fio.read_checkpoint(path)


def test_checkpoint_repeated_entry_name_is_checkpoint_error(tmp_path):
    path = tmp_path / "m.fdtc"
    fio.write_checkpoint(path, {"a": np.zeros((1, 2)), "b": np.ones((1, 2))})
    raw = path.read_bytes()
    # header, first entry (name length, name, ndim, two dims, payload),
    # then the second entry's name length
    at = 12 + (2 + 1 + 1 + 2 * 4 + 2 * 8) + 2
    assert raw[at:at + 1] == b"b"
    path.write_bytes(raw[:at] + b"a" + raw[at + 1:])
    with pytest.raises(fio.CheckpointError, match="repeated entry name 'a'"):
        fio.read_checkpoint(path)


def one_entry_checkpoint(ndim: int) -> bytes:
    """An FDTC file of one entry "x" of rank ndim, every dimension 1."""
    return (b"FDTC" + struct.pack("<IIH", 1, 1, 1) + b"x"
            + struct.pack("<B", ndim) + struct.pack("<I", 1) * ndim
            + struct.pack("<d", 1.0))


@pytest.mark.parametrize("ndim", [70, 255])
def test_checkpoint_rank_past_numpy_limit_is_checkpoint_error(tmp_path,
                                                              ndim):
    path = tmp_path / "m.fdtc"
    path.write_bytes(one_entry_checkpoint(ndim))
    with pytest.raises(fio.CheckpointError, match=f"{path}: entry 'x'"):
        fio.read_checkpoint(path)
    path.write_bytes(one_entry_checkpoint(3))
    assert fio.read_checkpoint(path)["x"].shape == (1, 1, 1)


def test_checkpoint_bytes_deterministic(tmp_path):
    entries = {"a": np.linspace(0, 1, 7).reshape(1, 7)}
    p1, p2 = tmp_path / "a.fdtc", tmp_path / "b.fdtc"
    fio.write_checkpoint(p1, entries)
    fio.write_checkpoint(p2, entries)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_header_and_rescale(tmp_path):
    path = tmp_path / "img.pgm"
    fio.write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pixels = raw[len(b"P5\n2 2\n255\n"):]
    assert pixels[0] == 0 and pixels[2] == 255


def test_pgm_constant_image_does_not_divide_by_zero(tmp_path):
    path = tmp_path / "flat.pgm"
    fio.write_pgm(path, np.full((2, 3), 7.0))
    assert path.exists()


def test_frame_strip_layout():
    video = np.stack([np.full((2, 3), float(t)) for t in range(3)])
    strip = fio.frame_strip(video)
    assert strip.shape == (2, 3 * 4 - 1)
    assert np.all(strip[:, 0:3] == 0.0)
    assert np.all(strip[:, 4:7] == 1.0)
    assert np.all(strip[:, 3] == video.min())  # padding column


def test_loss_trace_format(tmp_path):
    from mattn.diffusion import TraceRow
    path = tmp_path / "loss.csv"
    fio.write_loss_trace(path, [TraceRow(0, 1.5, 0.25, 0.125)])
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,grad_norm,ema_delta"
    assert lines[1] == "0,1.5,0.25,0.125"
