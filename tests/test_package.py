"""Tests for the package's public namespace and its error types."""

import pickle

import pytest

import matfdp
from matfdp import errors


def test_public_names_resolve_and_none_repeats():
    assert len(set(matfdp.__all__)) == len(matfdp.__all__)
    for name in matfdp.__all__:
        assert getattr(matfdp, name) is not None


ERROR_ARGS = {
    errors.DegenerateVariance: (1, 2),
    errors.DatasetFormatError: ("cannot parse x.csv", "x.csv"),
}


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)],
    ids=lambda c: c.__name__,
)
def test_errors_survive_a_pickle_round_trip(cls):
    # An error raised in one process must be able to cross a pipe to another.
    exc = cls(*ERROR_ARGS.get(cls, ("message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)
