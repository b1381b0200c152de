"""Index-gather window cut, the oracle for windows sliced from the padded scene."""

import numpy as np


def reflect_index(idx: np.ndarray, n: int) -> np.ndarray:
    """Fold arbitrary integer indices into [0, n) by mirroring about the edge
    pixels (period 2n-2, no edge repeat); identity on in-range indices."""
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n - 2
    folded = np.mod(idx, period)
    return np.where(folded >= n, period - folded, folded)


def gather_window(pixels: np.ndarray, center: tuple, width: int) -> np.ndarray:
    """The width x width window of an (H, W, C) image centred at center, each
    out-of-range row and column folded back by reflect_index, as a float64
    (C, width, width) array in [0, 1]."""
    axes = [reflect_index(np.arange(c - width // 2, c - width // 2 + width), n)
            for c, n in zip(center, pixels.shape)]
    win = pixels[np.ix_(*axes)].transpose(2, 0, 1)
    return np.ascontiguousarray(win).astype(np.float64) / 255.0
