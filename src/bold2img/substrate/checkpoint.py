"""Binary tensor container and the checkpoint directory format.

One tensor per file: a little-endian header (magic, version, dtype code,
rank, dims) followed by the raw payload. A checkpoint is a directory with a
JSON manifest (names, shapes, dtypes, and the caller's `extra` such as the
step counter) plus one blob per parameter. Which entries train is not stored:
each training phase decides it. The same container carries dataset runs,
rendered stimuli, and cached epochs.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .params import ParamStore

MAGIC = b"B2IT"
VERSION = 1

_DTYPES = {0: "<f4", 1: "<f8", 2: "<i4"}
_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1, np.dtype("int32"): 2}


def write_tensor(path, arr: np.ndarray):
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODES:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, _CODES[arr.dtype]))
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        size, head = os.fstat(f.fileno()).st_size, f.read(16)
        if head[:4] != MAGIC:
            raise ValueError(f"{path}: not a tensor container")
        if len(head) < 16:
            raise ValueError(f"{path}: truncated header")
        version, code, ndim = struct.unpack_from("<III", head, 4)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")
        if code not in _DTYPES:
            raise ValueError(f"{path}: unknown dtype code {code}")
        start = 16 + 4 * ndim
        if size < start:
            raise ValueError(f"{path}: truncated header")
        shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
        dtype = np.dtype(_DTYPES[code])
        expected = math.prod(shape)
        if size - start != expected * dtype.itemsize:
            raise ValueError(f"{path}: payload has {size - start} bytes, header says {expected} {dtype.name} values")
        try:
            arr = np.fromfile(f, dtype, count=expected).reshape(shape)
        except ValueError as e:  # a zero dim passes the size check; numpy still bounds the others
            raise ValueError(f"{path}: shape {shape} is not readable: {e}") from None
    return arr.astype(dtype.newbyteorder("="), copy=False)


def _blob_name(param_name: str) -> str:
    return param_name.replace("/", "__") + ".bin"


def save_checkpoint(cdir, params: ParamStore, extra: dict | None = None):
    cdir = Path(cdir)
    cdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for name in params.names():
        t = params[name]
        write_tensor(cdir / _blob_name(name), t.data)
        entries.append(
            {
                "name": name,
                "file": _blob_name(name),
                "shape": list(t.data.shape),
                "dtype": str(t.data.dtype),
            }
        )
    manifest = {"schema_version": 1, "tensors": entries, "extra": extra or {}}
    (cdir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def read_json_object(path) -> dict:
    """The JSON object in `path`; a file that holds anything else raises a
    ValueError naming it."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: holds a JSON {type(doc).__name__}, not an object")
    return doc


def load_checkpoint(cdir) -> tuple[ParamStore, dict]:
    cdir = Path(cdir)
    manifest = read_json_object(cdir / "manifest.json")
    if manifest.get("schema_version") != 1:
        raise ValueError(f"{cdir}: unsupported checkpoint schema")
    params = ParamStore()
    try:
        for e in manifest["tensors"]:
            arr = read_tensor(cdir / e["file"])
            if list(arr.shape) != e["shape"]:
                raise ValueError(f"{cdir / e['file']}: {e['name']} has shape {arr.shape}, manifest says {e['shape']}")
            params.add(e["name"], arr)
        return params, manifest["extra"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"{cdir / 'manifest.json'}: malformed ({type(e).__name__}: {e})") from None
