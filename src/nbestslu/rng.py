"""Deterministic random-stream management.

Every stochastic component draws from its own named substream of the run
seed, so adding or removing one consumer never shifts the numbers another
one sees.  This is what makes two runs with the same seed bit-identical.
"""

from __future__ import annotations

import numpy as np

# Substream roles.  The values are part of the reproducibility contract:
# renumbering them changes every artifact produced from a given seed.
INIT = 0
SHUFFLE = 1
DROPOUT = 2
SPLIT = 3
FOLDS = 4

INIT_SCALE = 0.1  # fresh embedding rows and every initialized weight are drawn uniform(-INIT_SCALE, INIT_SCALE)


def substream(seed: int, role: int, *extra: int) -> np.random.Generator:
    """A generator for the (role, *extra) substream of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role, *extra)))


class Initializer:
    """Initial values uniform(-INIT_SCALE, INIT_SCALE) from one generator, block after block.

    A skeleton's initializer (``skip``) jumps the stream past each block and
    leaves its memory unset.  ``Generator.uniform`` takes one 64-bit output
    per float64, so ``draw``, which always draws, then gives the values a
    fresh model draws there.
    """

    def __init__(self, rng: np.random.Generator, skip: bool = False):
        self.rng = rng
        self.skip = skip

    def fill(self, out: np.ndarray) -> np.ndarray:
        """``out``, with its values drawn or its block skipped."""
        if self.skip:
            self.rng.bit_generator.advance(out.size)
        else:
            out[...] = self.draw(out.shape)
        return out

    def uniform(self, shape) -> np.ndarray:
        """A new array of ``shape``, as ``fill`` fills it."""
        return self.fill(np.empty(shape)) if self.skip else self.draw(shape)

    def draw(self, shape) -> np.ndarray:
        """Values of ``shape`` drawn, by a skeleton's initializer too."""
        return self.rng.uniform(-INIT_SCALE, INIT_SCALE, shape)
