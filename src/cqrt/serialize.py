"""On-disk formats: tables as CSV or .npy, run directories, atomic writes.

write_table and read_table are one table codec that picks its encoding by the
file's suffix.  Every CSV file is a header row, then one row per record.
Integer columns are written as %d and all others as %.17g, which round-trips
IEEE doubles exactly, so identical runs give byte-identical files; numpy
formats each block of _BLOCK_ROWS rows to the bytes that % gives, with a
buffer that does not grow with the row count.  A .npy table is a 1-D
structured array, one int64 or float64 field per column, read with
allow_pickle=False, so no object array is unpickled (not .npz: its zip
headers carry the write time).  A 2-D column's rows follow one another, so
points.csv is written from the record rows (a 20,000-path full record traces
40 MB, 32 MB of it x and y).  Readers check the header.  A pool's final.csv
and points.csv share one points format, traj_id,t,x,y.  A field file's header
row is y\\x and the x centres; each later row is a y centre and that row of
the field.  A run directory (write_run) holds the outputs and a manifest.json
with their digests.  Every file is written to a temporary name in the same
directory, given the mode open() would give it, and renamed into place.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import time
import warnings
from itertools import chain

import numpy as np

from .stats import EmpiricalDensity

CROSSINGS_HEADER = ["traj_id", "t", "x"]
POINTS_HEADER = ["traj_id", "t", "x", "y"]
DENSITY_HEADER = ["bin_center", "density", "stderr"]

# rows per block of a table write; bounds the write's buffer at any row count
_BLOCK_ROWS = 4096


def atomic_write_text(path: str, text, mode: str = "w") -> None:
    """Write a str, or an iterable of str (or, for mode "wb", bytes) pieces,
    to path through a temporary file, with the mode open() would give it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    # 0o666 less the umask, as open() creates a file; mkstemp's 0600 would
    # survive the rename
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(path: str, header, columns) -> None:
    """Write equal-shape columns with a one-line header, in blocks of rows, as
    CSV or, to a .npy path, as fields named by the header.  A column is 1-D,
    one value per row, or 2-D, its rows one after another (row-major)."""
    columns = [np.asarray(c) for c in columns]
    shapes = {c.shape for c in columns}
    if len(shapes) > 1:
        raise ValueError(f"{path}: columns differ in length: {sorted(shapes)}")
    rows = max((c.size for c in columns), default=0)
    integer = [np.issubdtype(c.dtype, np.integer) for c in columns]
    if os.fspath(path).endswith(".npy"):
        dtype = np.dtype([(name, "<i8" if i else "<f8")
                          for name, i in zip(header, integer, strict=True)])
        head = io.BytesIO()
        np.lib.format.write_array_header_1_0(head, {"descr": np.lib.format.dtype_to_descr(dtype),
                                                    "fortran_order": False, "shape": (rows,)})
        atomic_write_text(path, chain([head.getvalue()], (
            np.rec.fromarrays([c.flat[start:start + _BLOCK_ROWS] for c in columns], dtype=dtype)
            .tobytes() for start in range(0, rows, _BLOCK_ROWS))), "wb")
        return

    def pieces():
        yield (",".join(header) + "\n").encode()
        for start in range(0, rows, _BLOCK_ROWS):
            block = [_column_text(c.flat[start:start + _BLOCK_ROWS], i)
                     for c, i in zip(columns, integer)]
            comma = np.full((block[0].shape[0], 1), ord(","), np.uint8)
            text = np.hstack([part for field in block for part in (field, comma)])
            text[:, -1] = ord("\n")  # and translate drops the NULs padding each field
            yield text.tobytes().translate(None, b"\0")
    atomic_write_text(path, pieces(), "wb")


# 10**e for e in -4..20, correctly rounded: exact for e >= 0, just above 10**e for e < 0
_POW10 = np.array([float(f"1e{e}") for e in range(-4, 21)])


@functools.cache
def _digit_words():
    """The ASCII digits of 0000 to 9999, a 4-byte word each; built on first use."""
    return (np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _digits(v, groups: int):
    """The 4 * groups ASCII digits, zero-filled, of int64 v in [0, 10**(4 * groups))."""
    parts = np.empty((groups, v.size), np.int64)
    for g in range(groups - 1, -1, -1):
        parts[g], v = v - v // 10000 * 10000, v // 10000
    return np.ascontiguousarray(_digit_words()[parts.T]).view(np.uint8)


def _float_text(x):
    """%.17g of the float64 values x with 1e-4 <= |x| < 1e16, a NUL-padded row
    each, and the mask of the other values: the 17 digits of D = round(|x| *
    10**(16 - k)), 10**k <= |x|, a point after digit k ("0." and -k-1 zeros
    first if k < 0), the fraction's trailing zeros and bare point dropped."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    k = np.searchsorted(_POW10[:20], a, side="right") - 5  # 10**k <= a < 10**(k + 1)
    # D exactly, half to even: Dekker's product (Veltkamp splits by 2**27 + 1) is p + err,
    # p >= 2**53 even; D < 10**17, no double here being 5e-18 relative below 10**(k + 1)
    b = _POW10[20 - k]
    p, sa, sb = a * b, a * 134217729.0, b * 134217729.0
    ah, bh = sa - (sa - a), sb - (sb - b)
    err = ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # sig digits precede D's trailing zeros; those in the fraction become NULs
    digits, sig = _digits(d, 5)[:, 3:], np.full(x.size, 17)
    z = np.flatnonzero((digits[:, -1] == ord("0")) & fast)
    sig[z] = 17 - np.argmax(digits[z, ::-1] != ord("0"), axis=1)
    digits[z] *= np.arange(17) < np.maximum(sig[z], k[z] + 1)[:, None]
    # "-0.000" cut by sign and k, then the digits, a point slot after each of the first m
    m = 1 + int(np.max(k, where=fast, initial=-1))
    text = np.empty((x.size, 23 + m), np.uint8)
    for c, shown in enumerate((np.signbit(x), k < 0, k < 0, k < -1, k < -2, k < -3)):
        text[:, c] = shown * b"-0.000"[c]
    body = text[:, 6:]
    body[:, :2 * m:2], body[:, 2 * m:] = digits[:, :m], digits[:, m:]
    for c in range(m):
        body[:, 2 * c + 1] = ((k == c) & (sig > c + 1)) * ord(".")
    return text, ~fast


def _column_text(values, integer: bool):
    """Each value's text, %d (integer) or %.17g, a NUL-padded row each: b"%d" % v or
    b"%.17g" % v outside [0, 10**16) or _float_text's range, or in a column of another kind."""
    if values.dtype.kind not in "biuf":
        text, rest = np.empty((values.size, 0), np.uint8), np.ones(values.size, bool)
    elif integer:
        rest = (values < 0) | (values >= 10**16)
        v = np.where(rest, 0, values).astype(np.int64)
        text = _digits(v, -(-len(str(v.max(initial=0))) // 4))
        for j in range(1, text.shape[1]):  # the leading zeros dropped
            text[:, -1 - j] *= v >= 10**j
    else:
        text, rest = _float_text(values.astype(float))
    if not rest.any():
        return text
    slow = np.array([(b"%d" if integer else b"%.17g") % v for v in values[rest].tolist()])
    out = np.pad(text, ((0, 0), (0, max(0, slow.itemsize - text.shape[1]))))
    out[rest] = slow.astype(f"S{out.shape[1]}").view(np.uint8).reshape(-1, out.shape[1])
    return out


def read_table(path: str, header=None):
    """Read a CSV or .npy table; returns (header list, list of column arrays), float64 from
    a CSV, a .npy table's fields as stored (views).  A given header must equal the file's."""
    if os.fspath(path).endswith(".npy"):
        with open(path, "rb") as handle:
            try:
                rows = np.load(handle, allow_pickle=False)
            except (EOFError, ValueError):  # empty, truncated, pickled: refused below
                rows = None
        names = rows.dtype.names if isinstance(rows, np.ndarray) and rows.ndim == 1 else None
        if not names or any(rows.dtype[name].kind not in "iuf" for name in names):
            raise ValueError(f"{path}: not a .npy 1-D structured array of int and float fields")
        found = list(names)
        columns = [rows[name] for name in found]
    else:
        with open(path) as handle, warnings.catch_warnings():
            found = handle.readline().strip().split(",")
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on no rows
            # a file with another header is refused below, unparsed
            rows = np.loadtxt(handle, delimiter=",", ndmin=2) if header in (None, found) else []
        columns = ([np.ascontiguousarray(col) for col in rows.T] if np.size(rows)
                   else [np.empty(0) for _ in found])
    if header is not None and found != header:
        raise ValueError(f"{path}: expected header {','.join(header)}, got {found}")
    return found, columns


def write_crossings(path: str, traj_ids, times, xs) -> None:
    write_table(path, CROSSINGS_HEADER, [np.asarray(traj_ids, dtype=int), times, xs])


def read_crossings(path: str):
    """Returns (traj_ids, times, xs)."""
    ids, times, xs = read_table(path, CROSSINGS_HEADER)[1]
    return ids.astype(int, copy=False), times, xs


def write_points(path: str, traj_ids, t, xs, ys) -> None:
    """Path points, a row per value of xs and ys; 2-D xs and ys take an id per
    column, and t broadcasts against xs (one time, or one per row as (k, 1))."""
    ids = np.asarray(traj_ids, dtype=int)
    ids = np.broadcast_to(ids, np.shape(xs)) if np.ndim(xs) == 2 else ids
    write_table(path, POINTS_HEADER, [ids, np.broadcast_to(t, np.shape(xs)), xs, ys])


def read_points(path: str):
    """Returns (traj_ids, times, xs, ys)."""
    ids, times, xs, ys = read_table(path, POINTS_HEADER)[1]
    return ids.astype(int), times, xs, ys


def write_density(path: str, density: EmpiricalDensity) -> None:
    write_table(path, DENSITY_HEADER,
                [density.bin_centers, density.densities, density.stderr])


def read_density(path: str):
    """Returns (centers, densities, stderr): 2 or more bins, centers increasing,
    every value finite."""
    columns = read_table(path, DENSITY_HEADER)[1]
    if columns[0].size < 2 or not np.all(np.diff(columns[0]) > 0):
        raise ValueError(f"{path}: a density needs 2 or more bins at strictly increasing centers")
    if not all(np.isfinite(column).all() for column in columns):
        raise ValueError(f"{path}: every value of a density must be finite")
    return tuple(columns)


def write_field(path: str, x_centers, y_centers, rho) -> None:
    """2D field rho[j, i] at (x_centers[i], y_centers[j]), one row per y."""
    write_table(path, ["y\\x", *("%.17g" % x for x in x_centers)],
                [y_centers, *rho.T])


def read_field(path: str):
    """Returns (x_centers, y_centers, rho)."""
    (label, *x_centers), (y_centers, *rho_columns) = read_table(path)
    if label != "y\\x":
        raise ValueError(f"{path}: not a field file")
    return np.array(x_centers, dtype=float), y_centers, np.column_stack(rho_columns)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# keys that do not change the produced data and are excluded from the run id
NON_IDENTITY_KEYS = ("out", "threads", "config", "pool")


def config_run_id(config_dict: dict) -> str:
    """Deterministic 12-hex run id from the run-defining configuration."""
    identity = {k: v for k, v in config_dict.items() if k not in NON_IDENTITY_KEYS}
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def write_run(out_dir: str, outputs: dict, config_dict: dict, version: str, started: float,
              diagnostics: dict) -> None:
    """Make out_dir, write each output with its writer(path), then manifest.json.

    `outputs` maps file names in out_dir to their writers.  The manifest holds
    the run id of config_dict, the config, the seconds from `started` (a
    time.monotonic() reading) to the last write, the diagnostics and each
    output's SHA-256 digest, making every output attributable and the run
    replayable from the recorded config.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in outputs}
    for name, write in outputs.items():
        write(paths[name])
    duration_s = time.monotonic() - started
    manifest = {
        "run_id": config_run_id(config_dict),
        "tool_version": version,
        "config": config_dict,
        "duration_s": duration_s,
        "diagnostics": diagnostics,
        "files": {name: sha256_file(path) for name, path in paths.items()},
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)
