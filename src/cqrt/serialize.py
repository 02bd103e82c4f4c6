"""On-disk formats: CSV tables, run manifests, atomic writes.

Every CSV file is a header row, then one row per record.  Integer columns are
written as integers and all others with %.17g, which round-trips IEEE doubles
exactly, so identical runs give byte-identical files.  Readers check the
header.  A pool's final.csv and points.csv share one points format,
traj_id,t,x,y.  A field file's header row is y\\x and the x centres; each later
row is a y centre and that row of the field.  Every file is written to a
temporary name in the same directory and renamed into place.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings

import numpy as np

from .stats import EmpiricalDensity

CROSSINGS_HEADER = ["traj_id", "t", "x"]
POINTS_HEADER = ["traj_id", "t", "x", "y"]
DENSITY_HEADER = ["bin_center", "density", "stderr"]


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(path: str, header, columns) -> None:
    """Write aligned columns as CSV with a one-line header."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns)
    lines = [row % values for values in zip(*(c.tolist() for c in columns))]
    atomic_write_text(path, "\n".join([",".join(header), *lines]) + "\n")


def read_table(path: str, header=None):
    """Read a CSV table; returns (header list, list of float column arrays).

    If header is given, the file's header row must equal it."""
    with open(path) as handle, warnings.catch_warnings():
        found = handle.readline().strip().split(",")
        if header is not None and found != header:
            raise ValueError(f"{path}: expected header {','.join(header)}, got {found}")
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on no rows
        rows = np.loadtxt(handle, delimiter=",", ndmin=2)
    if rows.size == 0:
        return found, [np.empty(0) for _ in found]
    return found, [np.ascontiguousarray(col) for col in rows.T]


def write_crossings(path: str, traj_ids, times, xs) -> None:
    write_table(path, CROSSINGS_HEADER, [np.asarray(traj_ids, dtype=int), times, xs])


def read_crossings(path: str):
    """Returns (traj_ids, times, xs)."""
    ids, times, xs = read_table(path, CROSSINGS_HEADER)[1]
    return ids.astype(int), times, xs


def write_points(path: str, traj_ids, t, xs, ys) -> None:
    """Path points; t is one time for every row or one time per row."""
    write_table(path, POINTS_HEADER,
                [np.asarray(traj_ids, dtype=int), np.broadcast_to(t, np.shape(xs)), xs, ys])


def read_points(path: str):
    """Returns (traj_ids, times, xs, ys)."""
    ids, times, xs, ys = read_table(path, POINTS_HEADER)[1]
    return ids.astype(int), times, xs, ys


def write_density(path: str, density: EmpiricalDensity) -> None:
    write_table(path, DENSITY_HEADER,
                [density.bin_centers, density.densities, density.stderr])


def read_density(path: str):
    """Returns (centers, densities, stderr): 2 or more bins, centers increasing."""
    columns = read_table(path, DENSITY_HEADER)[1]
    if columns[0].size < 2 or not np.all(np.diff(columns[0]) > 0):
        raise ValueError(f"{path}: a density needs 2 or more bins at strictly increasing centers")
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
NON_IDENTITY_KEYS = ("out", "threads", "config")


def config_run_id(config_dict: dict) -> str:
    """Deterministic 12-hex run id from the run-defining configuration."""
    identity = {k: v for k, v in config_dict.items() if k not in NON_IDENTITY_KEYS}
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def write_manifest(path: str, config_dict: dict, version: str, duration_s: float,
                   diagnostics: dict, files: dict) -> str:
    """Write the run manifest; returns the run id.

    `files` maps file names (relative to the manifest) to their paths; the
    manifest stores their SHA-256 digests under the run id, making every
    output attributable and the run replayable from the recorded config.
    """
    run_id = config_run_id(config_dict)
    manifest = {
        "run_id": run_id,
        "tool_version": version,
        "config": config_dict,
        "duration_s": duration_s,
        "diagnostics": diagnostics,
        "files": {name: sha256_file(p) for name, p in files.items()},
    }
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return run_id


def read_manifest(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)
