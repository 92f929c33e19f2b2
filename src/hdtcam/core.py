"""Majority bundling of binary hypervectors.

Hypervectors are 1-D numpy arrays of dtype uint8 holding 0/1 components.
Ties are broken from an explicitly passed ``numpy.random.Generator``, so
results depend only on seeds, never on call order or scheduling.
"""

from __future__ import annotations

import numpy as np


def majority_from_counts(
    counts: np.ndarray, total: int, tie_rng: np.random.Generator | None = None
) -> np.ndarray:
    """Threshold per-component tallies of ``total`` binary vectors at total/2.

    Ties, possible only for an even ``total``, are broken by independent
    fair coin flips from ``tie_rng``.
    """
    counts, half = np.asarray(counts), total // 2
    out = (counts > half).view(np.uint8)
    if total % 2 == 0:
        ties = counts == half
        n_ties = int(np.count_nonzero(ties))
        if n_ties:
            if tie_rng is None:
                raise ValueError("tie_rng required: majority has ties for an even count")
            out[ties] = tie_rng.integers(0, 2, size=n_ties, dtype=np.uint8)
    return out
