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


def substream(seed: int, role: int, *extra: int) -> np.random.Generator:
    """A generator for the (role, *extra) substream of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role, *extra)))
