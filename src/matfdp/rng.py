"""Seeded, splittable random number generation.

All randomness in the package flows through counter-based Philox generators
keyed by ``(seed, round, stream)``.  Deriving a fresh generator per simulation
round keeps parallel runs identical to serial ones: no generator state is ever
shared between concurrent tasks, so results do not depend on worker count or
scheduling order.
"""

from __future__ import annotations

import operator

import numpy as np

_STREAM_BITS = 32
_MASK64 = (1 << 64) - 1


def derive_rng(seed: int, round_index: int = 0, stream: int = 0) -> np.random.Generator:
    """Independent generator for one ``(round, stream)`` slot under a master seed.

    Parameters
    ----------
    seed : int
        Master seed, a Python or numpy integer.  Reduced modulo 2**64.
    round_index : int
        Simulation round (or any coarse task index),
        ``0 <= round_index < 2**32``.
    stream : int
        Sub-stream within the round, ``0 <= stream < 2**32``.

    Returns
    -------
    numpy.random.Generator
        Generator backed by a Philox counter-based bit stream whose key encodes
        ``(seed, round_index, stream)``.  Two distinct slots never collide.

    Raises
    ------
    TypeError
        If any argument is not an integer (``operator.index`` refuses it).
    """
    seed, round_index, stream = map(operator.index, (seed, round_index, stream))
    if not 0 <= round_index < (1 << (64 - _STREAM_BITS)):
        raise ValueError(f"round_index must be in [0, 2**{64 - _STREAM_BITS}), got {round_index}")
    if not 0 <= stream < (1 << _STREAM_BITS):
        raise ValueError(f"stream must be in [0, 2**{_STREAM_BITS}), got {stream}")
    key = np.array(
        [seed & _MASK64, ((round_index << _STREAM_BITS) | stream) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
