"""Flat binary checkpoint format shared by backbone and adapter state.

Layout (all integers little-endian):

    offset  size  content
    0       8     magic  b"CHANCORR"
    8       4     format version, uint32 (currently 1)
    12      4     header length H, uint32
    16      H     UTF-8 JSON header:
                    {"config": {...},
                     "arrays": [{"name": str, "shape": [...], "dtype": str}, ...]}
    16+H    --    array payloads, C-order, little-endian, in manifest order

Only 64-bit payload dtypes are stored ("float64", "int64").  Writes go to a
temporary file in the same directory and are renamed into place, so a crash
mid-write never leaves a truncated checkpoint behind.
"""

import json
import math
import os
import struct

import numpy as np

__all__ = ["SerializationError", "save_arrays", "load_arrays", "header_ints",
           "MAGIC", "VERSION"]

MAGIC = b"CHANCORR"
VERSION = 1
_DTYPES = {"float64": np.dtype("<f8"), "int64": np.dtype("<i8")}


class SerializationError(ValueError):
    """Corrupt, truncated, or unsupported checkpoint file."""


def save_arrays(path, config: dict, arrays: dict) -> None:
    """Write ``arrays`` (name -> ndarray) plus a JSON-able ``config``."""
    manifest = []
    payloads = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype.kind == "f":
            dtype = "float64"
        elif arr.dtype.kind in "iu":
            dtype = "int64"
        else:
            raise SerializationError(f"array {name!r} has unsupported dtype {arr.dtype}")
        payloads.append(np.ascontiguousarray(arr, dtype=_DTYPES[dtype]))
        manifest.append({"name": str(name), "shape": list(arr.shape), "dtype": dtype})
    header = json.dumps({"config": config, "arrays": manifest}).encode("utf-8")

    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header)))
        fh.write(header)
        for block in payloads:
            fh.write(block.tobytes())
    os.replace(tmp, path)


def load_arrays(path):
    """Read a checkpoint back; returns (config, {name: ndarray})."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 16 or blob[:8] != MAGIC:
        raise SerializationError(f"{path}: not a chancorr checkpoint (bad magic)")
    version, header_len = struct.unpack("<II", blob[8:16])
    if version != VERSION:
        raise SerializationError(f"{path}: format version {version}, expected {VERSION}")
    if len(blob) < 16 + header_len:
        raise SerializationError(f"{path}: truncated header")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
        config = header["config"]
        manifest = header["arrays"]
    except (ValueError, KeyError, TypeError) as exc:
        raise SerializationError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(config, dict) or not isinstance(manifest, list):
        raise SerializationError(f"{path}: header config must be an object "
                                 "and arrays a list")

    arrays = {}
    cursor = 16 + header_len
    for entry in manifest:
        try:
            name, shape, dtype = entry["name"], tuple(entry["shape"]), entry["dtype"]
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"{path}: malformed manifest entry") from exc
        if dtype not in _DTYPES:
            raise SerializationError(f"{path}: array {name!r} has dtype {dtype!r}")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise SerializationError(f"{path}: array {name!r} has shape {shape}")
        nbytes = math.prod(shape) * 8
        if cursor + nbytes > len(blob):
            raise SerializationError(f"{path}: truncated payload for {name!r}")
        flat = np.frombuffer(blob[cursor:cursor + nbytes], dtype=_DTYPES[dtype])
        arrays[name] = flat.reshape(shape).copy()
        cursor += nbytes
    if cursor != len(blob):
        raise SerializationError(f"{path}: {len(blob) - cursor} trailing bytes")
    return config, arrays


def header_ints(path, config: dict, *keys: str) -> list[int]:
    """Integer fields of a checkpoint header, in the order of ``keys``; a
    missing or non-integer field is a `SerializationError`."""
    bad = [key for key in keys if type(config.get(key)) is not int]
    if bad:
        raise SerializationError(f"{path}: header fields {bad} are not integers")
    return [config[key] for key in keys]
