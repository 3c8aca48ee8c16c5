"""Tests for the package's public namespace."""

import matfdp


def test_public_names_resolve_and_none_repeats():
    assert len(set(matfdp.__all__)) == len(matfdp.__all__)
    for name in matfdp.__all__:
        assert getattr(matfdp, name) is not None
