"""Keep a failing hypothesis test from stopping the whole session.

When a property test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to report it; with libcst installed that
import raises a ``DeprecationWarning`` from ``mypy_extensions``, which
``filterwarnings = ["error"]`` turns into an error inside a pytest hook, and
pytest then stops with ``INTERNALERROR`` and runs no further test.  Importing
the module once here, with that warning ignored, leaves the later import
nothing to warn about.  Every other warning still fails the suite.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # No libcst: hypothesis then reports without it.
        pass
