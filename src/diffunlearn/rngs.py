"""Random-stream plumbing shared across the package.

Every stochastic operation takes either an integer seed or a ready
``numpy.random.Generator``. Seeds are recorded in artifacts when known;
generators passed in directly record as None.
"""

from __future__ import annotations

import numpy as np


def as_generator(rng) -> tuple[np.random.Generator, int | None]:
    """Normalize a seed-or-generator argument.

    Returns (generator, seed) where seed is the integer that created the
    generator, or None when the caller supplied a generator directly.
    """
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng)
    return np.random.default_rng(seed), seed

