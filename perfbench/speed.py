"""Machine-speed probe that the end-to-end times are scaled by.

The benchmark runs on a few cores of a shared host. Its speed drifts by up
to a third within minutes, and the drift is the same for every process in
the run, so no run length or median removes it. A run therefore times this
fixed probe before each stage iteration. It reports each end-to-end time as
measured × REFERENCE_S / (median probe time of the run): the seconds the
step would take on a machine where the probe takes REFERENCE_S.

The probe is fixed code on fixed inputs. It calls NumPy and SciPy only,
never lgseg, so a change to lgseg cannot move it. Its two halves, array
passes and a Euclidean distance transform, tracked the drift of the train
and evaluate stage times best of the kernels tried (BLAS matmul, a pure
Python loop, and these two).
"""

from __future__ import annotations

import time

import numpy as np
from scipy import ndimage

# about the median probe time on the 2-core Xeon (OpenBLAS, 1 thread) the
# bounds were set on; it only fixes the unit of the scaled times.  A probe
# this long (about a sixth of an evaluate iteration) keeps the probe's own
# noise below the drift it removes.
REFERENCE_S = 0.4

_rng = np.random.default_rng(0x5EED)
_VALUES = _rng.random(100_000)
_MASK = _rng.random((64, 256)) >= 0.05


def probe() -> float:
    """Wall seconds of one pass of the fixed probe work."""
    start = time.perf_counter()
    for _ in range(160):
        np.sort(_VALUES)
        np.cumsum(_VALUES)
        (_VALUES * 2.0 + 1.0).sum()
    for _ in range(180):
        ndimage.distance_transform_edt(_MASK, return_indices=True)
    return time.perf_counter() - start
