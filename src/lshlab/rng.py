"""Reproducible randomness: counter-based Philox streams keyed by (seed, substream).

Every randomized routine in the package takes an explicit integer seed and
derives independent substreams by index, so Monte Carlo work can be chunked
with results that do not depend on how the chunks are split up.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 1729


def stream(seed: int, substream: int = 0) -> np.random.Generator:
    """The generator for (seed, substream); same pair, same bits, always.
    Both must lie in [0, 2^64), so no two pairs share a key."""
    for name, v in (("seed", seed), ("substream", substream)):
        if not 0 <= v < 1 << 64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {v}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, substream], dtype=np.uint64)))
