"""Self-describing binary checkpoints.

Layout (all integers little-endian):

  magic 'ENCP', u32 version,
  u32 config length + UTF-8 config text (the full INI used to build the run),
  u32 meta length + UTF-8 'key=value' lines (epoch, eval error, ...),
  u32 entry count, then per entry:
    u16 name length + name, u8 kind (0 param / 1 buffer / 2 extra),
    u8 dtype code (1 f64 / 2 i64), u8 ndim, u32 dims...
  then every array's raw little-endian bytes in manifest order.

The embedded config makes a checkpoint sufficient to rebuild and evaluate
the model with no other inputs. Saves are atomic: the bytes go to a temporary
file in the destination's directory, which is fsynced and then renamed over
the destination.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError
from .layers import Layer

MAGIC = b"ENCP"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f8"), 2: np.dtype("<i8")}


def _code_for(arr: np.ndarray) -> int:
    kind = np.dtype(arr.dtype)
    if kind == np.float64:
        return 1
    if kind == np.int64:
        return 2
    raise DataFormatError(f"cannot serialize dtype {arr.dtype}")


@dataclass
class CheckpointData:
    config_text: str = ""
    meta: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    buffers: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def save_checkpoint(path: str, model: Layer, config_text: str = "",
                    meta: dict | None = None, extra: dict | None = None) -> None:
    entries = []
    for name, p in model.named_params():
        entries.append((name, 0, np.ascontiguousarray(p.data)))
    for name, b in model.named_buffers():
        entries.append((name, 1, np.ascontiguousarray(b)))
    for name, a in (extra or {}).items():
        entries.append((name, 2, np.ascontiguousarray(a)))

    meta_text = "\n".join(f"{k}={v}" for k, v in (meta or {}).items())
    # write beside the destination and rename over it, so a crash mid-save
    # leaves the previous file intact
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            _write(f, config_text.encode("utf-8"), meta_text.encode("utf-8"), entries)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write(f, cfg_bytes: bytes, meta_bytes: bytes, entries) -> None:
    """Serialize one checkpoint into the open file f; layout above."""
    f.write(MAGIC)
    f.write(struct.pack("<I", VERSION))
    f.write(struct.pack("<I", len(cfg_bytes)))
    f.write(cfg_bytes)
    f.write(struct.pack("<I", len(meta_bytes)))
    f.write(meta_bytes)
    f.write(struct.pack("<I", len(entries)))
    for name, kind, arr in entries:
        nb = name.encode("utf-8")
        f.write(struct.pack("<H", len(nb)))
        f.write(nb)
        f.write(struct.pack("<BBB", kind, _code_for(arr), arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<I", d))
    for _, _, arr in entries:
        code = _code_for(arr)
        f.write(arr.astype(_DTYPE_CODES[code], copy=False).tobytes())


def load_checkpoint(path: str) -> CheckpointData:
    with open(path, "rb") as f:
        raw = f.read()
    view = memoryview(raw)
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise DataFormatError(f"{path}: truncated checkpoint")
        chunk = view[off:off + n]
        off += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint (bad magic)")
    version = struct.unpack("<I", take(4))[0]
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    cfg_len = struct.unpack("<I", take(4))[0]
    config_text = bytes(take(cfg_len)).decode("utf-8")
    meta_len = struct.unpack("<I", take(4))[0]
    meta_text = bytes(take(meta_len)).decode("utf-8")
    meta = {}
    for line in meta_text.splitlines():
        if line.strip():
            k, _, v = line.partition("=")
            meta[k] = v
    count = struct.unpack("<I", take(4))[0]
    manifest = []
    for _ in range(count):
        name_len = struct.unpack("<H", take(2))[0]
        name = bytes(take(name_len)).decode("utf-8")
        kind, code, ndim = struct.unpack("<BBB", take(3))
        if kind > 2:
            raise DataFormatError(f"{path}: entry {name!r} has unknown kind {kind}")
        if code not in _DTYPE_CODES:
            raise DataFormatError(f"{path}: unknown dtype code {code}")
        dims = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        manifest.append((name, kind, code, dims))
    out = CheckpointData(config_text=config_text, meta=meta)
    for name, kind, code, dims in manifest:
        dt = _DTYPE_CODES[code]
        nbytes = dt.itemsize * int(np.prod(dims, dtype=np.int64)) if dims else dt.itemsize
        arr = np.frombuffer(take(nbytes), dtype=dt).reshape(dims).copy()
        target = (out.params, out.buffers, out.extra)[kind]
        target[name] = arr
    if off != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - off} trailing bytes")
    return out


def restore_model(model: Layer, ckpt: CheckpointData) -> None:
    params = dict(model.named_params())
    if set(params) != set(ckpt.params):
        missing = set(params) ^ set(ckpt.params)
        raise DataFormatError(f"parameter set mismatch: {sorted(missing)[:4]}...")
    buffers = dict(model.named_buffers())
    if set(buffers) != set(ckpt.buffers):
        missing = set(buffers) ^ set(ckpt.buffers)
        raise DataFormatError(f"buffer set mismatch: {sorted(missing)[:4]}...")
    for name, p in params.items():
        arr = ckpt.params[name]
        if arr.shape != p.data.shape:
            raise DataFormatError(
                f"{name}: checkpoint shape {arr.shape} != model {p.data.shape}")
    for name, arr in ckpt.buffers.items():
        if arr.shape != buffers[name].shape:
            raise DataFormatError(
                f"{name}: checkpoint shape {arr.shape} != model {buffers[name].shape}")
    # everything validated; a failure above leaves the model untouched
    for name, p in params.items():
        p.data = ckpt.params[name].astype(p.data.dtype, copy=True)
    for name, arr in ckpt.buffers.items():
        buffers[name][...] = arr
