"""On-disk dataset layout: one directory per dataset.

A dataset directory holds ``manifest.json`` plus one CSV file per observation.
The manifest records the matrix shape, both group sizes, and the ordered file
lists; each CSV has exactly ``p`` rows of ``q`` comma-separated floats with no
header.  Floats are written with 17 significant digits so a write/read cycle
is lossless.

Parsing 17-digit floats is most of a read, and ``np.loadtxt`` holds the
interpreter lock, so ``read_dataset`` parses the member files on every usable
core (the CPU affinity of the calling process): the reader and forked parser
processes each take a fixed share of the files and write each matrix straight
into one stack in a shared anonymous mapping.  Nothing comes back from a
parser but a per-file done flag; the reader then parses whatever the parsers
left, in manifest order, so a bad file fails the read with its own message,
and a parser that dies or a fork that is refused costs only time.  A member
file must be a regular file, so no parse waits forever on a FIFO; a parser
whose reader is gone stops before its next file.
"""

from __future__ import annotations

import json
import mmap
import os
import stat
import warnings

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

    The first member file is parsed here.  Once it has confirmed ``(p, q)``,
    one ``(n + m, p, q)`` stack is allocated in a shared mapping, with
    ``treatment`` and ``control`` as views of it, and the other files are
    parsed into their slots on every usable core (see ``_parse_rest``).
    The read holds the dataset once, plus one member file's parse
    temporaries in each process.

    Raises
    ------
    DatasetFormatError
        On a missing or malformed manifest (including a foreign
        or non-integer ``schema_version``, a non-integer dimension, a member
        file name that is not a plain name inside ``directory`` or that is
        listed twice), a group-size mismatch, the
        first member file (in manifest order) that is not a regular file or
        fails to parse to a finite ``p x q`` matrix, or stacks too large to
        allocate.  The exception's ``path`` names the offending file.
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
    # type() rather than isinstance: bool is an int subclass, and 1.0 == 1.
    version = manifest.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise DatasetFormatError(
            f"manifest schema_version {version!r} is not {SCHEMA_VERSION}", path=manifest_path
        )

    for key in ("p", "q", "n", "m", "treatment", "control"):
        if key not in manifest:
            raise DatasetFormatError(
                f"manifest is missing key {key!r}", path=manifest_path
            )
    p, q, n, m = (manifest[k] for k in ("p", "q", "n", "m"))
    for key, value in zip("pqnm", (p, q, n, m)):
        # A float would be truncated silently.
        if type(value) is not int:
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
    names = treatment_files + control_files
    if len(set(names)) != len(names):
        twice = next(name for i, name in enumerate(names) if name in names[:i])
        raise DatasetFormatError(
            f"manifest lists member file {twice!r} more than once", path=manifest_path
        )
    if len(treatment_files) != n or len(control_files) != m:
        raise DatasetFormatError(
            f"manifest group sizes (n={n}, m={m}) do not match file lists "
            f"({len(treatment_files)}, {len(control_files)})",
            path=manifest_path,
        )

    # The manifest's numbers size nothing until a member file has parsed to
    # (p, q).
    paths = [os.path.join(directory, name) for name in names]
    if not paths:
        raise DatasetFormatError("manifest lists no member files", path=manifest_path)
    first = _read_matrix(paths[0], p, q)
    count = len(paths) * p * q
    try:
        # Anonymous, so forked parsers share it; a zero-length map is invalid.
        buffer = mmap.mmap(-1, max(8 * count, 1))
    except (MemoryError, OSError, OverflowError) as exc:
        raise DatasetFormatError(
            f"cannot allocate {n} + {m} matrices of shape ({p}, {q}): {exc}",
            path=manifest_path,
        ) from exc
    stack = np.frombuffer(buffer, dtype=np.float64, count=count).reshape(len(paths), p, q)
    stack[0] = first
    del first
    _parse_rest(stack, paths, p, q)
    try:
        return TwoSampleDataset(treatment=stack[:n], control=stack[n:])
    except ValueError as exc:
        raise DatasetFormatError(str(exc), path=manifest_path) from exc


def _parse_rest(stack: np.ndarray, paths: list[str], p: int, q: int) -> None:
    """Parse ``paths[1:]`` into ``stack[1:]`` on every usable core.

    With ``k`` usable cores, share ``w`` is slots ``1 + w, 1 + w + k, ...``.
    Up to ``k - 1`` forked parsers take shares ``1, 2, ...`` and the reader
    share 0; each flags a slot once it holds its matrix, and stops quietly at
    its first exception.  A parser also stops before its next file once its
    reader is gone.  The reader then parses every unflagged slot in manifest
    order, so a bad file raises with its own message, and a share that no
    parser took or finished (one usable core, no ``fork`` start method, a
    refused fork, a dead parser) costs only time.
    """
    import multiprocessing  # Here: it would slow every `import matfdp`.

    k = max(1, min(_usable_cores(), len(paths) - 1))
    done = np.frombuffer(mmap.mmap(-1, len(paths)), dtype=np.bool_)  # Shared like the stack.
    reader = os.getpid()

    def parse(share):
        try:
            for slot in range(1 + share, len(paths), k):
                if share and os.getppid() != reader:
                    return  # Nothing reads this stack any more.
                stack[slot] = _read_matrix(paths[slot], p, q)
                done[slot] = True
        except Exception:
            pass  # The last loop parses this file again and raises its error.

    parsers = []
    if "fork" in multiprocessing.get_all_start_methods():
        fork = multiprocessing.get_context("fork")
        for share in range(1, k):
            process = fork.Process(target=parse, args=(share,))
            try:
                process.start()
            except OSError:
                break  # A process limit, say: the last loop parses the rest.
            parsers.append(process)
    parse(0)
    for process in parsers:
        process.join()
    for slot in range(1, len(paths)):
        if not done[slot]:
            stack[slot] = _read_matrix(paths[slot], p, q)


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_matrix(path: str, p: int, q: int) -> np.ndarray:
    try:
        # A FIFO or a device could block the parse forever.
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise DatasetFormatError(f"{path} is not a regular file", path=path)
        with warnings.catch_warnings():
            # A file with no data rows warns; the shape check below reports it.
            warnings.simplefilter("ignore", UserWarning)
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
