"""Property tests of invariants across the whole pipeline.

* Relabelling the rows and the columns of every observation by one joint
  permutation relabels the cells, which none of the three FDP estimates may
  notice.
* A dataset directory round trip reproduces every double bit for bit.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from matfdp.covfactor import (
    build_noodle_loadings,
    build_sandwich_loadings,
    estimate_correlations,
)
from matfdp.datafiles import read_dataset, write_dataset
from matfdp.noodle import fdp_noodle, fit_noodle
from matfdp.pfa import fdp_pfa
from matfdp.sandwich import fdp_sandwich, fit_sandwich
from matfdp.teststats import TwoSampleDataset, p_values, rejection_count, test_matrix

from helpers import random_corr, sample_matrix_normal_stack

# Same settings as tests/test_pair_properties.py: derandomized, few examples.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def estimates(ds, t):
    """Noodle and sandwich (least-squares fit) and pfa estimates at ``t``."""
    x = test_matrix(ds)
    rej = rejection_count(p_values(x), t)
    ce = estimate_correlations(ds, x.sigma_hat)
    return (
        fdp_noodle(fit_noodle(x, build_noodle_loadings(ce)), rej, t),
        fdp_sandwich(fit_sandwich(x, build_sandwich_loadings(ce)), rej, t),
        fdp_pfa(ds, x, t),
    )


@PROPERTY
@given(
    st.integers(3, 8),
    st.integers(3, 8),
    st.integers(3, 8),
    st.integers(3, 8),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 0.5),
)
def test_estimates_invariant_under_joint_row_column_permutation(p, q, n, m, seed, t):
    rng = np.random.default_rng(seed)
    u, v = random_corr(rng, p), random_corr(rng, q)
    mu = np.zeros((p, q))
    mu[0, :2] = 2.0
    y = sample_matrix_normal_stack(mu, u, v, n, rng)
    z = sample_matrix_normal_stack(np.zeros((p, q)), u, v, m, rng)
    rows, cols = rng.permutation(p), rng.permutation(q)
    permuted = TwoSampleDataset(y[:, rows][:, :, cols], z[:, rows][:, :, cols])
    for a, b in zip(estimates(TwoSampleDataset(y, z), t), estimates(permuted, t)):
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


# Every finite double, with the edge cases drawn often: signed zeros,
# subnormals and values near the overflow threshold.
EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])
FINITE = st.one_of(EDGE, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw):
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n, m = draw(st.integers(2, 3)), draw(st.integers(3, 4))
    y = draw(hnp.arrays(np.float64, (n, p, q), elements=FINITE))
    z = draw(hnp.arrays(np.float64, (m, p, q), elements=FINITE))
    return TwoSampleDataset(y, z)


@PROPERTY
@given(datasets())
def test_dataset_round_trip_is_bit_exact(ds):
    with tempfile.TemporaryDirectory() as directory:
        write_dataset(directory, ds)
        back = read_dataset(directory)
    for before, after in ((ds.treatment, back.treatment), (ds.control, back.control)):
        assert after.shape == before.shape
        assert np.array_equal(after.view(np.uint64), before.view(np.uint64))
