"""On-disk dataset layout: one directory per dataset.

A dataset directory holds ``manifest.json`` plus one CSV file per observation.
The manifest records the matrix shape, both group sizes, and the ordered file
lists; each CSV has exactly ``p`` rows of ``q`` comma-separated floats with no
header.  Floats are written with 17 significant digits so a write/read cycle
is lossless.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DatasetFormatError
from .teststats import TwoSampleDataset

MANIFEST_NAME = "manifest.json"
SCHEMA_VERSION = 1
FLOAT_FMT = "%.17g"


def write_dataset(directory: str | os.PathLike, ds: TwoSampleDataset) -> str:
    """Write a dataset directory; returns the manifest path."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    width = max(3, len(str(max(ds.n, ds.m))))
    treatment_files = [f"treatment_{i:0{width}d}.csv" for i in range(ds.n)]
    control_files = [f"control_{i:0{width}d}.csv" for i in range(ds.m)]
    for name, mat in zip(treatment_files, ds.treatment):
        _write_matrix(os.path.join(directory, name), mat)
    for name, mat in zip(control_files, ds.control):
        _write_matrix(os.path.join(directory, name), mat)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "p": ds.p,
        "q": ds.q,
        "n": ds.n,
        "m": ds.m,
        "treatment": treatment_files,
        "control": control_files,
    }
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_matrix(path: str, mat: np.ndarray) -> None:
    np.savetxt(path, mat, fmt=FLOAT_FMT, delimiter=",", newline="\n")


def read_dataset(directory: str | os.PathLike) -> TwoSampleDataset:
    """Read a dataset directory back into memory.

    Member files are parsed in manifest order.  Once the first one has
    confirmed ``(p, q)``, both group stacks are allocated and each parsed
    matrix is copied into its slot, so the read holds the dataset once, plus
    one member file's parse temporaries.

    Raises
    ------
    DatasetFormatError
        On a missing or malformed manifest (including a non-integer
        dimension or a member file name that is not a plain name inside
        ``directory``), a group-size mismatch, the first member file (in
        manifest order) that fails to parse to a finite ``p x q`` matrix, or
        stacks too large to allocate.  The exception's ``path`` names the
        offending file.
    """
    directory = os.fspath(directory)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DatasetFormatError(
            f"cannot read manifest: {exc}", path=manifest_path
        ) from exc
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(
            f"manifest is not valid JSON: {exc}", path=manifest_path
        ) from exc
    if not isinstance(manifest, dict):
        raise DatasetFormatError("manifest must be a JSON object", path=manifest_path)

    for key in ("p", "q", "n", "m", "treatment", "control"):
        if key not in manifest:
            raise DatasetFormatError(
                f"manifest is missing key {key!r}", path=manifest_path
            )
    p, q, n, m = (manifest[k] for k in ("p", "q", "n", "m"))
    for key, value in zip("pqnm", (p, q, n, m)):
        # bool is an int subclass; a float would be truncated silently.
        if not isinstance(value, int) or isinstance(value, bool):
            raise DatasetFormatError(
                f"manifest dimension {key!r} must be an integer, got {value!r}",
                path=manifest_path,
            )
    treatment_files, control_files = manifest["treatment"], manifest["control"]
    for key, names in (("treatment", treatment_files), ("control", control_files)):
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise DatasetFormatError(
                f"manifest {key!r} must be a list of file names", path=manifest_path
            )
        for name in names:
            # A member file must live in the dataset directory itself.
            if name in ("", ".", "..") or os.path.isabs(name) or os.path.basename(name) != name:
                raise DatasetFormatError(
                    f"manifest {key!r} entry {name!r} is not a file name in the "
                    "dataset directory",
                    path=manifest_path,
                )
    if len(treatment_files) != n or len(control_files) != m:
        raise DatasetFormatError(
            f"manifest group sizes (n={n}, m={m}) do not match file lists "
            f"({len(treatment_files)}, {len(control_files)})",
            path=manifest_path,
        )

    # The manifest's numbers size nothing until a member file has parsed to
    # (p, q).
    treatment = control = None
    for i, name in enumerate(treatment_files + control_files):
        mat = _read_matrix(os.path.join(directory, name), p, q)
        if treatment is None:
            try:
                treatment, control = np.empty((n, p, q)), np.empty((m, p, q))
            except MemoryError as exc:
                raise DatasetFormatError(
                    f"cannot allocate {n} + {m} matrices of shape ({p}, {q}): {exc}",
                    path=manifest_path,
                ) from exc
        if i < n:
            treatment[i] = mat
        else:
            control[i - n] = mat
    if treatment is None:
        raise DatasetFormatError("manifest lists no member files", path=manifest_path)
    try:
        return TwoSampleDataset(treatment=treatment, control=control)
    except ValueError as exc:
        raise DatasetFormatError(str(exc), path=manifest_path) from exc


def _read_matrix(path: str, p: int, q: int) -> np.ndarray:
    try:
        mat = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}", path=path) from exc
    except ValueError as exc:
        raise DatasetFormatError(f"cannot parse {path}: {exc}", path=path) from exc
    if mat.shape != (p, q):
        raise DatasetFormatError(
            f"{path} has shape {mat.shape}, expected ({p}, {q})", path=path
        )
    if not np.all(np.isfinite(mat)):
        raise DatasetFormatError(f"{path} contains non-finite entries", path=path)
    return mat
