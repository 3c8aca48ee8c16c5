"""Property tests of invariants across the whole pipeline.

* Relabelling the rows and the columns of every observation by one joint
  permutation relabels the cells, which none of the three FDP estimates may
  notice.
* A dataset directory round trip reproduces every double bit for bit.
"""

import tempfile

import numpy as np
from hypothesis import given, seed
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

from helpers import PROPERTY, matrix_normal_dataset, random_corr


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
@seed(1)
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
    ds = matrix_normal_dataset(u, v, n, m, rng, rows=1, cols=2, amplitude=2.0)
    rows, cols = rng.permutation(p), rng.permutation(q)
    y, z = ds.treatment, ds.control
    permuted = TwoSampleDataset(y[:, rows][:, :, cols], z[:, rows][:, :, cols])
    for a, b in zip(estimates(ds, t), estimates(permuted, t)):
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
@seed(2)
@given(datasets())
def test_dataset_round_trip_is_bit_exact(ds):
    with tempfile.TemporaryDirectory() as directory:
        write_dataset(directory, ds)
        back = read_dataset(directory)
    for before, after in ((ds.treatment, back.treatment), (ds.control, back.control)):
        assert after.shape == before.shape
        assert np.array_equal(after.view(np.uint64), before.view(np.uint64))
