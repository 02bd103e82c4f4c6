"""On-disk formats: CSV pools and densities, run manifests, atomic writes.

All floating-point values are serialized with 17 significant digits, which
round-trips IEEE doubles exactly, so identical runs produce byte-identical
files.  Every file is written to a temporary name in the same directory and
renamed into place.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import asdict, is_dataclass

import numpy as np

from .stats import EmpiricalDensity


def fmt(value: float) -> str:
    return f"{value:.17g}"


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
    lines = [",".join(header)]
    formatted = [
        [str(int(v)) for v in col] if np.issubdtype(col.dtype, np.integer)
        else [fmt(float(v)) for v in col]
        for col in columns
    ]
    for row in zip(*formatted):
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_table(path: str):
    """Read a CSV table; returns (header list, list of float column arrays)."""
    with open(path) as handle, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on no rows
        header = handle.readline().strip().split(",")
        rows = np.loadtxt(handle, delimiter=",", ndmin=2)
    if rows.size == 0:
        return header, [np.empty(0) for _ in header]
    return header, [np.ascontiguousarray(col) for col in rows.T]


def write_crossings(path: str, traj_ids, times, xs) -> None:
    write_table(path, ["traj_id", "t", "x"], [np.asarray(traj_ids, dtype=int), times, xs])


def read_crossings(path: str):
    header, cols = read_table(path)
    if header != ["traj_id", "t", "x"]:
        raise ValueError(f"{path}: not a crossings file (header {header})")
    return cols[0].astype(int), cols[1], cols[2]


def write_snapshot(path: str, traj_ids, t: float, xs, ys) -> None:
    n = len(xs)
    write_table(path, ["traj_id", "t", "x", "y"],
                [np.asarray(traj_ids, dtype=int), np.full(n, t), xs, ys])


def read_snapshot(path: str):
    header, cols = read_table(path)
    if header != ["traj_id", "t", "x", "y"]:
        raise ValueError(f"{path}: not a snapshot file (header {header})")
    return cols[0].astype(int), cols[1], cols[2], cols[3]


def write_density(path: str, density: EmpiricalDensity) -> None:
    write_table(path, ["bin_center", "density", "stderr"],
                [density.bin_centers, density.densities, density.stderr])


def read_density(path: str):
    """Returns (centers, densities, stderr)."""
    header, cols = read_table(path)
    if header != ["bin_center", "density", "stderr"]:
        raise ValueError(f"{path}: not a density file (header {header})")
    return cols[0], cols[1], cols[2]


def write_field(path: str, x_centers, y_centers, rho) -> None:
    r"""2D field as CSV: header row 'y\x,<x centers>', then one row per y."""
    lines = ["y\\x," + ",".join(fmt(v) for v in x_centers)]
    for j, y in enumerate(y_centers):
        lines.append(fmt(y) + "," + ",".join(fmt(v) for v in rho[j]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_field(path: str):
    """Returns (x_centers, y_centers, rho)."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        if header[0] != "y\\x":
            raise ValueError(f"{path}: not a field file")
        x_centers = np.array([float(v) for v in header[1:]])
        y_centers = []
        rows = []
        for line in handle:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            y_centers.append(float(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    return x_centers, np.array(y_centers), np.array(rows)


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


def jsonable(value):
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    return value


def write_manifest(path: str, config_dict: dict, version: str, duration_s: float,
                   diagnostics: dict, files: dict) -> str:
    """Write the run manifest; returns the run id.

    `files` maps file names (relative to the manifest) to their paths; the
    manifest stores their SHA-256 digests under the run id, making every
    output attributable and the run replayable from the recorded config.
    """
    run_id = config_run_id(jsonable(config_dict))
    manifest = {
        "run_id": run_id,
        "tool_version": version,
        "config": jsonable(config_dict),
        "duration_s": duration_s,
        "diagnostics": jsonable(diagnostics),
        "files": {name: sha256_file(p) for name, p in files.items()},
    }
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return run_id


def read_manifest(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)
