"""Binary checkpoint format, PGM rasters, and loss traces.

Checkpoint layout ("FDTC"): magic bytes, u32 LE version, u32 LE entry
count; per entry a u16 LE name length, UTF-8 name, u8 ndim, u32 LE dims,
then the float64 LE payload in row-major order. Readers reject unknown
magic or version, files cut short or with trailing bytes, names that
are not UTF-8 and paths they cannot open, with CheckpointError; a payload
is not checksummed. Every writer turns an OSError into a ConfigError
naming its path.
"""
from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import ConfigError

MAGIC = b"FDTC"
VERSION = 1
STRIP_PAD = 1  # pixels between neighbouring frames of a frame strip


class CheckpointError(ConfigError):
    """Malformed or incompatible checkpoint file."""


@contextmanager
def open_output(path, mode: str = "w"):
    """path opened for writing in mode ("w" text with "\\n" line ends, or
    "wb"); an OSError while it is open becomes a ConfigError."""
    try:
        with open(path, mode, newline=None if "b" in mode else "\n") as f:
            yield f
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_checkpoint(path, entries: dict[str, np.ndarray]) -> None:
    with open_output(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries.items():
            arr = np.asarray(arr, dtype=np.float64)
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.astype("<f8").tobytes(order="C"))


def _read(f, size: int, path) -> bytes:
    raw = f.read(size)
    if len(raw) != size:
        raise CheckpointError(f"{path}: truncated checkpoint")
    return raw


def _unpack(f, fmt: str, path) -> int:
    return struct.unpack(fmt, _read(f, struct.calcsize(fmt), path))[0]


def read_checkpoint(path) -> dict[str, np.ndarray]:
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    with f:
        if f.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        version = _unpack(f, "<I", path)
        if version != VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version}")
        end = os.fstat(f.fileno()).st_size
        entries: dict[str, np.ndarray] = {}
        for _ in range(_unpack(f, "<I", path)):
            raw = _read(f, _unpack(f, "<H", path), path)
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(
                    f"{path}: entry name is not UTF-8") from exc
            shape = tuple(_unpack(f, "<I", path)
                          for _ in range(_unpack(f, "<B", path)))
            size = 8 * math.prod(shape)
            # a corrupt dimension must not make read() allocate its size
            if size > end - f.tell():
                raise CheckpointError(f"{path}: truncated checkpoint")
            payload = _read(f, size, path)
            entries[name] = np.frombuffer(
                payload, dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last entry")
        return entries


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5), input rescaled to the full gray range."""
    img = np.asarray(image, dtype=np.float64)
    lo, hi = img.min(), img.max()
    span = hi - lo if hi > lo else 1.0
    gray = np.round((img - lo) / span * 255.0).astype(np.uint8)
    h, w = gray.shape
    with open_output(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def frame_strip(video: np.ndarray) -> np.ndarray:
    """Lay the frames of a (T, H, W) video side by side for eyeballing."""
    t, h, w = video.shape
    strip = np.full((h, t, w + STRIP_PAD), video.min())
    strip[:, :, :w] = video.transpose(1, 0, 2)
    return strip.reshape(h, -1)[:, :t * (w + STRIP_PAD) - STRIP_PAD]


def write_loss_trace(path, trace) -> None:
    with open_output(path) as f:
        f.write("step,loss,grad_norm,ema_delta\n")
        for row in trace:
            f.write(f"{row.step},{row.loss:.12g},{row.grad_norm:.12g},"
                    f"{row.ema_delta:.12g}\n")


def ensure_dir(path) -> Path:
    p = Path(path)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {p}: {exc}")
    return p
