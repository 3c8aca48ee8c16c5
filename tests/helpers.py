"""Shared test fixtures: random matrices, the one reference per formula, small adapters.

Tests draw matrix-normal data only through ``simlab.gen_round``
(:func:`matrix_normal_dataset`), and compare against the one residual stack
(:func:`residual_stack`) and the one plug-in sum (:func:`plugin_sum`) here.
Dataset directories come from :func:`write_small_dataset`, and
:data:`DATASET_FAULTS` spoils them in every way ``read_dataset`` refuses.

A plain module, not a test file: pytest does not collect it, and the test
modules import it by name because pytest puts ``tests/`` on ``sys.path``.
"""

import errno
import functools
import json
import mmap
import pathlib
import tempfile
from unittest import mock

import numpy as np
from hypothesis import settings
from scipy.special import ndtr, ndtri

from matfdp import pfa
from matfdp.covfactor import NORM_SQ_CEIL
from matfdp.datafiles import write_dataset
from matfdp.noodle import fdp_noodle, fit_noodle
from matfdp.sandwich import fit_sandwich
from matfdp.simlab import ModelSpec, gen_round
from matfdp.teststats import TestMatrix, TwoSampleDataset, p_values, rejection_count

# Settings of the property tests: derandomized, so a failure reproduces, and
# few examples, to keep the suite fast.  A derandomized run is seeded from the
# test's code, so each test also pins its examples with its own ``@seed``; a
# rewrite of its body then keeps them.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def random_spd(rng, dim, spread=1.0):
    """``a a' + spread * I`` for a standard normal ``dim x dim`` matrix ``a``."""
    a = rng.standard_normal((dim, dim))
    return a @ a.T + spread * np.eye(dim)


def random_corr(rng, dim):
    """``random_spd(rng, dim, spread=dim)`` rescaled to unit diagonal."""
    c = random_spd(rng, dim, spread=dim)
    d = 1.0 / np.sqrt(np.diag(c))
    out = c * np.outer(d, d)
    np.fill_diagonal(out, 1.0)
    return out


def matrix_normal_dataset(u, v, n, m, rng, rows=0, cols=0, amplitude=0.0):
    """``n`` treatment and ``m`` control matrix-normal draws, by ``gen_round``.

    Plain arrays ``u`` (``p x p``) and ``v`` (``q x q``) take its dense path:
    draw ``s`` is ``mu + sqrt(u) @ g_s @ sqrt(v)``, so ``vec`` of each draw
    has covariance ``v kron u``.  The treatment mean ``mu`` is ``amplitude``
    on its top-left ``rows x cols`` block and zero elsewhere; the control
    mean is zero.
    """
    spec = ModelSpec(
        model=1, p=len(u), q=len(v), n=n, m=m,
        signal_rows=rows, signal_cols=cols, signal_amplitude=amplitude,
    )
    return gen_round(spec, u, v, rng)[0]


def failing(exc):
    """A function that raises ``exc`` whatever it is called with."""

    def fail(*args, **kwargs):
        raise exc

    return fail


def stat_matrix(x):
    """Statistic matrix ``x`` with unit standard errors."""
    return TestMatrix(x=np.asarray(x, dtype=np.float64), sigma_hat=np.ones_like(x), scale=1.0)


def check_planted_trimmed_recovery(loadings, w_true, rng):
    """The trimmed fit recovers ``w_true`` within 0.2 through both fit entry points.

    The statistic is the planted common part on ``loadings``' pairs plus
    noise of sd 0.05 drawn from ``rng``.
    """
    v1, g1 = loadings.vector_factors()
    noise = 0.05 * rng.standard_normal((loadings.p, loadings.q))
    x = stat_matrix((v1 * (np.sqrt(loadings.values) * w_true)) @ g1.T + noise)
    for fit_fn in (fit_noodle, fit_sandwich):
        fit = fit_fn(x, loadings, estimator="trimmed_l1")
        assert not fit.trim.used_fallback and fit.trim.iterations >= 1
        np.testing.assert_array_equal(fit.factors, fit.trim.w)
        assert np.max(np.abs(fit.factors - w_true)) < 0.2
        assert 0.0 <= fdp_noodle(fit, 4, 0.01) <= x.x.size / 4


def residual_stack(ds, sigma_hat):
    """Observations (treatment first) centred at their group means, over ``sigma_hat``."""
    return np.concatenate([g - g.mean(axis=0) for g in (ds.treatment, ds.control)]) / sigma_hat


def plugin_sum(row_norms_sq, common, threshold):
    """``sum Phi(a (z + common)) + Phi(a (z - common))`` over the cells.

    ``z = Phi^-1(threshold / 2)`` and ``a = (1 - row_norms_sq)^-1/2``.
    """
    z = ndtri(threshold / 2.0)
    a = 1.0 / np.sqrt(1.0 - row_norms_sq)
    return (ndtr(a * (z + common)) + ndtr(a * (z - common))).sum()


def dense_vec_covariance(ds, sigma_hat):
    """Pooled covariance of ``vec`` of the residuals over ``sigma_hat``, ``(p*q, p*q)``."""
    resid = residual_stack(ds, sigma_hat)
    flat = resid.transpose(0, 2, 1).reshape(resid.shape[0], -1)  # row s is vec(resid[s])
    return flat.T @ flat / (ds.n + ds.m - 2)


def pfa_at_count(ds, x, threshold, count):
    """``fdp_pfa`` with ``count`` factors in place of the ratio rule's choice.

    ``count`` must not exceed the rank ``n + m - 2``: beyond it the Gram
    eigenvalues are numerical nulls.
    """
    with mock.patch.object(pfa, "eigenvalue_ratio", lambda values, max_factors: count):
        return pfa.fdp_pfa(ds, x, threshold)


def dense_pfa(ds, x, threshold, count):
    """pfa's plug-in FDP from a dense eigendecomposition of the vec-covariance.

    The leading ``count`` eigenpairs ``(values, rho)`` give each cell the
    squared norm ``(rho * rho) @ values`` and the least-squares common part
    ``rho rho' vec(x)``; the estimate is their :func:`plugin_sum` over ``R``,
    clamped to ``pq / R``.
    """
    rejections = rejection_count(p_values(x), threshold)
    if rejections == 0:
        return 0.0
    values, vectors = np.linalg.eigh(dense_vec_covariance(ds, x.sigma_hat))
    values, rho = values[::-1][:count], vectors[:, ::-1][:, :count]
    norms = np.minimum((rho * rho) @ values, NORM_SQ_CEIL)
    common = rho @ (rho.T @ np.ravel(x.x, order="F"))
    total = float(plugin_sum(norms, common, threshold))
    return min(total / rejections, x.x.size / rejections)


def write_small_dataset(directory, n=6, m=6, p=8, q=25):
    """Write ``n`` treatment and ``m`` control standard normal ``p x q`` matrices.

    The files are ``write_dataset``'s: ``manifest.json``, ``treatment_000.csv``,
    ..., ``control_000.csv``, ...  Returns the ``pathlib.Path`` ``directory``.
    """
    directory.mkdir(parents=True)
    for name, content in _small_dataset_files(n, m, p, q).items():
        (directory / name).write_bytes(content)
    return directory


@functools.lru_cache
def _small_dataset_files(n, m, p, q):
    """File name -> bytes: formatting 17-digit floats is most of a write."""
    stack = np.random.default_rng(1).standard_normal((n + m, p, q))
    with tempfile.TemporaryDirectory() as directory:
        write_dataset(directory, TwoSampleDataset(treatment=stack[:n], control=stack[n:]))
        return {path.name: path.read_bytes() for path in pathlib.Path(directory).iterdir()}


def _write(text, *names):
    def edit(data, patch):
        for name in names:
            (data / name).write_text(text)

    return edit


def _keys(**values):
    return _manifest_edit(lambda manifest, data: {**manifest, **values})


def _manifest_edit(change):
    """An edit that rewrites the manifest as ``change(manifest, data)``."""

    def edit(data, patch):
        path = data / "manifest.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()), data)))

    return edit


def manifest_without(key):
    return _manifest_edit(lambda manifest, data: {k: v for k, v in manifest.items() if k != key})


def _directory_member(data, patch):
    (data / "control_002.csv").unlink()
    (data / "control_002.csv").mkdir()


def _nan_member(data, patch):
    mat = np.loadtxt(data / "treatment_001.csv", delimiter=",")
    mat[3, 7] = np.nan
    np.savetxt(data / "treatment_001.csv", mat, delimiter=",")


def _refuse_anonymous_maps(data, patch):
    mapping = mmap.mmap

    def refuse(fileno, *args, **kwargs):
        if fileno == -1:
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        return mapping(fileno, *args, **kwargs)

    patch.setattr(mmap, "mmap", refuse)


# Member files of the default dataset, in manifest order.
TREATMENT = [f"treatment_{i:03d}.csv" for i in range(6)]
CONTROL = [f"control_{i:03d}.csv" for i in range(6)]
M, T0, C0, C2 = "manifest.json", TREATMENT[0], CONTROL[0], CONTROL[2]
NOT_A_NAME = "manifest {!r} entry {!r} is not a file name in the dataset directory"
NO_SUCH_FILE = "[Errno 2] No such file or directory: '{path}'"

#: Every way to spoil the :func:`write_small_dataset` directory that
#: ``read_dataset`` refuses, by name: ``edit(data, monkeypatch)`` spoils the
#: directory ``data``, and ``read_dataset`` must then blame ``data / blamed``
#: with exactly ``message``, where ``{data}`` and ``{path}`` stand for the
#: directory and the blamed path.  The first member file must confirm
#: ``(p, q)`` before anything is sized, so a ``p`` or ``q`` of 0, -1 or 10**12
#: blames it.  An empty member file, or one with no data rows, makes
#: ``np.loadtxt`` warn; the read still refuses it.
DATASET_FAULTS = {
    "missing-manifest": (lambda data, patch: (data / M).unlink(), M,
                         "cannot read manifest: " + NO_SUCH_FILE),
    "not-json": (_write("{not json", M), M, "manifest is not valid JSON: Expecting property "
                 "name enclosed in double quotes: line 1 column 2 (char 1)"),
    "number": (_manifest_edit(lambda m, data: 5), M, "manifest must be a JSON object"),
    "null": (_manifest_edit(lambda m, data: None), M, "manifest must be a JSON object"),
    "foreign-schema": (_keys(schema_version=2), M, "manifest schema_version 2 is not 1"),
    # Both compare equal to 1.
    "schema-true": (_keys(schema_version=True), M, "manifest schema_version True is not 1"),
    "schema-float": (_keys(schema_version=1.0), M, "manifest schema_version 1.0 is not 1"),
    "missing-key": (manifest_without("control"), M, "manifest is missing key 'control'"),
    "float-dim": (_keys(p=8.9), M, "manifest dimension 'p' must be an integer, got 8.9"),
    "bool-dim": (_keys(q=True), M, "manifest dimension 'q' must be an integer, got True"),
    "string-dim": (_keys(n="6"), M, "manifest dimension 'n' must be an integer, got '6'"),
    "treatment-number": (_keys(treatment=7), M,
                         "manifest 'treatment' must be a list of file names"),
    # Right length, so only the element type is wrong.
    "treatment-int-list": (_keys(treatment=[3, *TREATMENT[1:]]), M,
                           "manifest 'treatment' must be a list of file names"),
    # Each name below names a readable, well-formed member file (the dataset
    # directory is named data).
    "absolute-name": (
        _manifest_edit(lambda m, data: {**m, "treatment": [str(data / C0), *TREATMENT[1:]]}),
        M, NOT_A_NAME.format("treatment", "{data}/" + C0),
    ),
    "parent-name": (_keys(treatment=["../data/" + C0, *TREATMENT[1:]]), M,
                    NOT_A_NAME.format("treatment", "../data/" + C0)),
    "dotdot": (_keys(control=["..", *CONTROL[1:]]), M, NOT_A_NAME.format("control", "..")),
    "empty-name": (_keys(control=["", *CONTROL[1:]]), M, NOT_A_NAME.format("control", "")),
    # Well-formed, but the same observation twice: in one list, or across both.
    "duplicate-member": (_keys(control=[C0, *CONTROL[:-1]]), M,
                         f"manifest lists member file {C0!r} more than once"),
    "twice-across-groups": (_keys(treatment=[C0, *TREATMENT[1:]]), M,
                            f"manifest lists member file {C0!r} more than once"),
    "size-mismatch": (_keys(n=7), M,
                      "manifest group sizes (n=7, m=6) do not match file lists (6, 6)"),
    "no-member": (_keys(n=0, m=0, treatment=[], control=[]), M, "manifest lists no member files"),
    # No file is left after the first, so no share is dealt out.
    "single-member": (_keys(n=1, m=0, treatment=[T0], control=[]), M,
                      "each group needs at least 2 observations, got n=1, m=0"),
    **{f"p-{p}": (_keys(p=p), T0, f"{{path}} has shape (8, 25), expected ({p}, 25)")
       for p in (0, -1, 10**12)},
    **{f"q-{q}": (_keys(q=q), T0, f"{{path}} has shape (8, 25), expected (8, {q})")
       for q in (0, -1, 10**12)},
    "unallocatable": (_refuse_anonymous_maps, M, "cannot allocate 6 + 6 matrices of shape "
                      "(8, 25): [Errno 12] Cannot allocate memory"),
    "not-a-number": (_write("not,a,number\n", C2), C2, "cannot parse {path}: could not "
                     "convert string 'not' to float64 at row 0, column 1."),
    "empty-file": (_write("", C2), C2, "{path} has shape (0, 1), expected (8, 25)"),
    "blank-lines": (_write("\n\n", C2), C2, "{path} has shape (0, 1), expected (8, 25)"),
    "comment-only": (_write("# comment only\n", C2), C2,
                     "{path} has shape (0, 1), expected (8, 25)"),
    "directory-member": (_directory_member, C2, "{path} is not a regular file"),
    "missing-member": (lambda data, patch: (data / C2).unlink(), C2,
                       "cannot read {path}: " + NO_SUCH_FILE),
    "nan-member": (_nan_member, "treatment_001.csv", "{path} contains non-finite entries"),
    # Two bad files: the first in manifest order is blamed.
    "first-bad-file": (_write("1,x\n", "treatment_003.csv", "control_001.csv"),
                       "treatment_003.csv", "cannot parse {path}: could not convert string "
                       "'x' to float64 at row 0, column 2."),
}
