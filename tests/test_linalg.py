import numpy as np
import pytest

from matfdp.errors import DegenerateVariance, InvalidMatrix, NotPsd
from matfdp.linalg import (
    corr_from_cov,
    kron_eigenpairs,
    sym_eigen,
    symmetric_sqrt,
    unvec,
    vec,
)
from matfdp.rng import derive_rng

from helpers import random_spd, sample_matrix_normal_stack


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


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        sym_eigen(np.ones((2, 3)))


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


def test_sampler_identity_mean():
    rng = derive_rng(99)
    draws = sample_matrix_normal_stack(np.zeros((2, 2)), np.eye(2), np.eye(2), 100_000, rng)
    assert abs(draws.mean()) < 0.02


def test_sampler_determinism():
    mu, u, v = np.zeros((3, 4)), np.eye(3), np.eye(4)
    a = sample_matrix_normal_stack(mu, u, v, 2, derive_rng(7, 3, 1))
    b = sample_matrix_normal_stack(mu, u, v, 2, derive_rng(7, 3, 1))
    assert np.array_equal(a, b)


def test_sampler_vec_covariance_monte_carlo():
    rng0 = np.random.default_rng(31)
    u = random_spd(rng0, 3)
    v = random_spd(rng0, 3)
    draws = sample_matrix_normal_stack(np.zeros((3, 3)), u, v, 10_000, derive_rng(31))
    flat = draws.transpose(0, 2, 1).reshape(10_000, 9)  # row s = vec(draw s)
    emp = np.cov(flat, rowvar=False)
    target = np.kron(v, u)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.1


def test_sampler_rejects_shape_mismatch():
    with pytest.raises(InvalidMatrix):
        sample_matrix_normal_stack(np.zeros((2, 3)), np.eye(3), np.eye(3), 1, derive_rng(0))


def test_corr_from_cov_basic():
    c = np.array([[4.0, 2.0], [2.0, 9.0]])
    r = corr_from_cov(c)
    assert np.allclose(np.diag(r), 1.0)
    assert np.allclose(r[0, 1], 2.0 / 6.0)


def test_corr_from_cov_degenerate():
    with pytest.raises(DegenerateVariance):
        corr_from_cov(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_vec_roundtrip_column_major():
    m = np.arange(6.0).reshape(2, 3)
    v = vec(m)
    # Column stacking: cell (r, c) lands at c * p + r.
    assert np.allclose(v, [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])
    assert np.array_equal(unvec(v, 2, 3), m)


def test_derive_rng_slots_are_independent():
    a = derive_rng(3, 1, 0).standard_normal(4)
    b = derive_rng(3, 2, 0).standard_normal(4)
    c = derive_rng(3, 1, 1).standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert np.array_equal(a, derive_rng(3, 1, 0).standard_normal(4))
