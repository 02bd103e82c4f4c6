"""On-disk formats: tables as CSV or .npy, run directories, atomic writes.

write_table and read_table are one table codec that picks its encoding by the
file's suffix.  Every CSV file is a header row, then one row per record.
Integer columns are written as integers and all others with %.17g, which
round-trips IEEE doubles exactly, so identical runs give byte-identical files.
A .npy table is a 1-D structured array, one int64 or float64 field per column,
read with allow_pickle=False, so no object array is unpickled (not .npz: its
zip headers carry the write time).  Tables are written in blocks of
_BLOCK_ROWS rows, with a buffer that does not grow with the row count.  A 2-D
column's rows follow one another, so points.csv is written from the record
rows (a 20,000-path full record traces 71 MB, 32 MB of it x and y).  Readers
check the header.  A pool's final.csv and points.csv share one points format,
traj_id,t,x,y.  A field file's header row is y\\x and the x centres; each
later row is a y centre and that row of the field.  A run directory
(write_run) holds the outputs and a manifest.json with their digests.  Every
file is written to a temporary name in the same directory, given the mode
open() would give it, and renamed into place.
"""

from __future__ import annotations

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
    row = ",".join("%d" if i else "%.17g" for i in integer) + "\n"

    def pieces():
        yield ",".join(header) + "\n"
        for start in range(0, rows, _BLOCK_ROWS):
            block = [c.flat[start:start + _BLOCK_ROWS].tolist() for c in columns]
            yield row * len(block[0]) % tuple(chain.from_iterable(zip(*block)))
    atomic_write_text(path, pieces())


def read_table(path: str, header=None):
    """Read a CSV or .npy table; returns (header list, list of float column
    arrays).  If header is given, the file's header (field names) must equal it."""
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
        columns = [np.ascontiguousarray(rows[name], dtype=float) for name in found]
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
    return ids.astype(int), times, xs


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
