"""Central-finite-difference gradient checker for the engine and network tests."""

import numpy as np

from lgseg.rng import SplitMix64


def grad_check(loss_fn, tensors: dict, analytic: dict, eps: float = 1e-5,
               sample: int | None = None, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn() must recompute the scalar loss from the *current* contents of
    the arrays in `tensors`, which are perturbed in place coordinate by
    coordinate.  With `sample` set, at most that many coordinates per tensor
    are checked (seeded draw); otherwise every coordinate is.  Error metric:
    |a - n| / max(1, |a|, |n|).

    For losses routed through max-pool or ReLU, eps must be small enough that
    the +/-eps evaluations do not straddle an argmax switch; 1e-6 is a good
    default for whole-network checks in double precision.
    """
    if not (0.0 < eps <= 1e-3):
        raise ValueError("eps must lie in (0, 1e-3]")
    probe = loss_fn()
    if np.ndim(probe) != 0:
        raise ValueError("loss_fn must return a scalar")
    rng = SplitMix64(seed)
    worst = 0.0
    for name, t in tensors.items():
        flat = t.reshape(-1)
        g = analytic[name].reshape(-1)
        if sample is None or flat.size <= sample:
            coords = range(flat.size)
        else:
            chosen = set()
            while len(chosen) < sample:
                chosen.add(rng.below(flat.size))
            coords = sorted(chosen)
        for i in coords:
            v = flat[i]
            flat[i] = v + eps
            fp = float(loss_fn())
            flat[i] = v - eps
            fm = float(loss_fn())
            flat[i] = v
            numeric = (fp - fm) / (2.0 * eps)
            err = abs(g[i] - numeric) / max(1.0, abs(g[i]), abs(numeric))
            worst = max(worst, err)
    return worst
