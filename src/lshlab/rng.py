"""Reproducible randomness: counter-based Philox streams keyed by (seed, substream).

Every randomized routine in the package takes an explicit integer seed and
derives independent substreams by index, so Monte Carlo work can be chunked
with results that do not depend on how the chunks are split up.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 1729

_MASK64 = (1 << 64) - 1


def stream(seed: int, substream: int = 0) -> np.random.Generator:
    """The generator for (seed, substream); same pair, same bits, always."""
    key = np.array([seed & _MASK64, substream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

