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

Only 64-bit payload dtypes are stored ("float64", "int64").  Writes go
through `atomic_open`, so a crash mid-write never leaves a truncated
checkpoint behind.
"""

import contextlib
import json
import math
import os
import struct

import numpy as np

__all__ = ["SerializationError", "atomic_open", "save_arrays", "load_arrays",
           "load_checkpoint", "check_arrays", "MAGIC", "VERSION"]

MAGIC = b"CHANCORR"
VERSION = 1
_DTYPES = {"float64": np.dtype("<f8"), "int64": np.dtype("<i8")}


class SerializationError(ValueError):
    """Corrupt, truncated, or unsupported checkpoint file."""


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write ``path`` all at once or not at all.

    Yields the sibling file ``<path>.tmp.<pid>`` opened in ``mode`` (text
    modes as UTF-8, newlines untranslated).  On success it is renamed over
    ``path``; if the body raises, it is removed and ``path`` is untouched.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


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

    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header)))
        fh.write(header)
        for block in payloads:
            fh.write(block.tobytes())


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
        if type(name) is not str or name in arrays:
            raise SerializationError(f"{path}: bad or repeated array name {name!r}")
        if type(dtype) is not str or dtype not in _DTYPES:
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


def load_checkpoint(path, kind: str, *int_keys: str):
    """`load_arrays` plus the header checks every typed checkpoint shares:
    its ``kind`` must match, and each of ``int_keys`` must hold an integer
    >= 0.
    Returns ``(config, arrays, [the int_keys values])``."""
    config, arrays = load_arrays(path)
    if config.get("kind") != kind:
        raise SerializationError(f"{path}: checkpoint kind "
                                 f"{config.get('kind')!r}, expected {kind!r}")
    bad = [key for key in int_keys
           if type(config.get(key)) is not int or config[key] < 0]
    if bad:
        raise SerializationError(f"{path}: header fields {bad} must be integers >= 0")
    return config, arrays, [config[key] for key in int_keys]


def check_arrays(path, arrays: dict, shapes: dict) -> None:
    """A checkpoint must hold exactly the arrays named in ``shapes``
    (name -> expected shape tuple); anything else is a `SerializationError`."""
    bad = sorted(name for name in shapes.keys() | arrays.keys()
                 if name not in arrays or arrays[name].shape != shapes.get(name))
    if bad:
        raise SerializationError(
            f"{path}: arrays {bad} are missing, unexpected or misshapen")
