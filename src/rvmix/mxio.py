"""Matrix container format and plain-text configuration parsing.

The binary container is deliberately trivial: a 5-byte magic "MXIO1",
row and column counts as 64-bit little-endian unsigned integers, then the
payload as row-major IEEE-754 doubles (little endian).  CSV files are
accepted on input and auto-detected by the missing magic.
"""

import struct

import numpy as np

from .errors import ConfigError, ContainerError, DomainError

MAGIC = b"MXIO1"
_HEADER = struct.Struct("<5sQQ")


def write_matrix(path, arr):
    """Write a 2-D float64 matrix in the binary container format."""
    a = np.ascontiguousarray(np.atleast_2d(np.asarray(arr, dtype="<f8")))
    if a.ndim != 2:
        raise DomainError("only 2-D matrices are supported")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, a.shape[0], a.shape[1]))
        fh.write(a.tobytes(order="C"))


def read_matrix(path):
    """Read a matrix container or, failing the magic check, a CSV file.

    Raises ContainerError for a truncated or corrupt container and for a
    file that is neither format."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:5] == MAGIC:
            if len(head) < _HEADER.size:
                raise ContainerError(f"{path}: truncated header")
            _, rows, cols = _HEADER.unpack(head)
            payload = fh.read()
            want = rows * cols * 8
            if len(payload) != want:
                raise ContainerError(
                    f"{path}: payload holds {len(payload)} bytes, expected {want}"
                )
            return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    try:
        out = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise ContainerError(
            f"{path}: neither a matrix container nor parseable CSV ({exc})"
        ) from exc
    return out


def parse_config_text(text, source="<config>"):
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped.

    Returns an ordered dict of string values.  Malformed lines raise
    ConfigError naming the offending line.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value in {raw!r}")
        out[key] = value
    return out


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def coerce(value, kind):
    """Convert a config string to bool/int/float, with clear errors."""
    try:
        if kind is bool:
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if kind is float and value.lower() in ("inf", "+inf", "infinity"):
            return float("inf")
        return kind(value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
