import numpy as np
import pytest

from matfdp.errors import InvalidMatrix, NotPsd
from matfdp.linalg import (
    SIGN_EPS,
    _fix_signs,
    kron_eigenpairs,
    sym_eigen,
    symmetric_sqrt,
)
from matfdp.rng import derive_rng

from helpers import random_spd


def test_sym_eigen_diagonal():
    es = sym_eigen(np.diag([1.0, 3.0, 2.0]))
    assert np.allclose(es.values, [3.0, 2.0, 1.0])
    # Columns are signed unit vectors picking out the sorted diagonal slots.
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    assert np.allclose(es.vectors, expected)


def test_sym_eigen_identity():
    es = sym_eigen(np.eye(4))
    assert np.allclose(es.values, 1.0)
    assert np.allclose(es.vectors @ es.vectors.T, np.eye(4), atol=1e-12)


def test_sym_eigen_hand_2x2():
    es = sym_eigen([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(es.values, [1.5, 0.5], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(es.vectors[:, 0], [r, r], atol=1e-12)
    assert np.allclose(es.vectors[:, 1], [r, -r], atol=1e-12)


def test_sym_eigen_reconstruction_and_conventions():
    rng = np.random.default_rng(4)
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        m = random_spd(rng, dim)
        es = sym_eigen(m)
        recon = (es.vectors * es.values) @ es.vectors.T
        assert np.linalg.norm(recon - m) <= 1e-8 * np.linalg.norm(m)
        assert np.all(np.diff(es.values) <= 1e-12)
        assert np.allclose(es.vectors.T @ es.vectors, np.eye(dim), atol=1e-10)
        for k in range(dim):
            col = es.vectors[:, k]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0.0


def test_sym_eigen_determinism():
    rng = np.random.default_rng(5)
    m = random_spd(rng, 6)
    a = sym_eigen(m)
    b = sym_eigen(m.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def _fix_signs_by_column(vectors):
    # The per-column loop that _fix_signs vectorises, kept as the reference.
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        nz = np.flatnonzero(np.abs(col) > SIGN_EPS)
        if nz.size and col[nz[0]] < 0.0:
            vectors[:, k] = -col


def _sign_cases():
    rng = np.random.default_rng(71)
    yield rng.standard_normal((7, 5))
    yield rng.standard_normal((40, 100))
    # eigh of a block-diagonal matrix: the second block's eigenvectors have
    # exact zeros before their lead, in either sign.
    block = np.zeros((5, 5))
    block[:2, :2] = random_spd(rng, 2)
    block[2:, 2:] = random_spd(rng, 3)
    yield np.linalg.eigh(block)[1]
    yield -np.linalg.eigh(block)[1]
    # Leads just below SIGN_EPS are skipped, and a column with no entry
    # above it, the zero column among them, stays as it is.
    below = np.nextafter(SIGN_EPS, 0.0)
    yield np.array(
        [
            [-below, below, -SIGN_EPS, 0.0, -below],
            [below, -below, -0.5, 0.0, 0.0],
            [-0.3, 0.3, 0.5, 0.0, -below],
        ]
    )
    yield np.zeros((4, 0))


def test_fix_signs_matches_the_column_loop():
    for vectors in _sign_cases():
        expected = vectors.copy()
        _fix_signs_by_column(expected)
        got = vectors.copy()
        _fix_signs(got)
        assert got.tobytes() == expected.tobytes()


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        sym_eigen(np.ones((2, 3)))
    with pytest.raises(InvalidMatrix, match="2-D"):
        sym_eigen(np.ones(3))


def test_kron_eigenpairs_hand_case():
    e1 = sym_eigen(np.diag([3.0, 1.0]))
    e2 = sym_eigen(np.diag([2.0, 1.0]))
    kron = kron_eigenpairs(e1, e2)
    assert np.allclose(kron.values, [6.0, 3.0, 2.0, 1.0])
    assert list(zip(kron.idx1, kron.idx2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_kron_eigenpairs_tie_break():
    e1 = sym_eigen(np.eye(2))
    e2 = sym_eigen(np.eye(2))
    kron = kron_eigenpairs(e1, e2)
    assert list(zip(kron.idx1, kron.idx2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_kron_eigenpairs_match_dense():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = int(rng.integers(2, 7))
        q = int(rng.integers(2, 7))
        s1 = random_spd(rng, p)
        s2 = random_spd(rng, q)
        e1, e2 = sym_eigen(s1), sym_eigen(s2)
        kron = kron_eigenpairs(e1, e2)
        dense = np.sort(np.linalg.eigvalsh(np.kron(s2, s1)))[::-1]
        assert np.allclose(kron.values, dense, atol=1e-10)
        # Every pair appears exactly once.
        pairs = set(zip(kron.idx1.tolist(), kron.idx2.tolist()))
        assert len(pairs) == p * q
        # Separable eigenvector identity on a few entries.
        big = np.kron(s2, s1)
        for k in (0, p * q // 2, p * q - 1):
            v = np.kron(e2.vectors[:, kron.idx2[k]], e1.vectors[:, kron.idx1[k]])
            assert np.allclose(big @ v, kron.values[k] * v, atol=1e-8)


def test_symmetric_sqrt_roundtrip():
    rng = np.random.default_rng(21)
    m = random_spd(rng, 5)
    half = symmetric_sqrt(m)
    assert np.allclose(half @ half, m, atol=1e-10)
    assert np.allclose(half, half.T, atol=1e-12)


def test_symmetric_sqrt_clamps_tiny_negatives():
    # Rank-deficient with an eigenvalue at exactly 0 up to round-off.
    v = np.array([1.0, 2.0, 3.0])
    m = np.outer(v, v)
    half = symmetric_sqrt(m)
    assert np.allclose(half @ half, m, atol=1e-10)


def test_symmetric_sqrt_rejects_indefinite():
    with pytest.raises(NotPsd):
        symmetric_sqrt(np.diag([1.0, -1.0]))


def test_derive_rng_slots_are_independent():
    a = derive_rng(3, 1, 0).standard_normal(4)
    b = derive_rng(3, 2, 0).standard_normal(4)
    c = derive_rng(3, 1, 1).standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert np.array_equal(a, derive_rng(3, 1, 0).standard_normal(4))
    # The round fills the key's upper 32 bits: round 2**32 would be round 0.
    last = derive_rng(7, 2**32 - 1, 0).standard_normal(4)
    assert not np.allclose(last, derive_rng(7, 0, 0).standard_normal(4))
    with pytest.raises(ValueError, match="round_index"):
        derive_rng(7, 2**32, 0)
    # The stream fills the lower 32 bits: stream 2**32 would be round + 1.
    with pytest.raises(ValueError, match="stream"):
        derive_rng(7, 0, 2**32)
