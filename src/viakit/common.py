"""Shared numeric conventions.

Extended reals are encoded with a finite sentinel so that grids and CSV
files stay plain float arrays: any value >= INF means "+infinity", and
<= -INF means "-infinity".  The sentinel is far above any usable time
horizon, so thresholding against it is always safe.
"""

import numpy as np

#: +infinity sentinel for times and values (seconds / cost units).
INF = 1e18

#: Integration aborts once a state norm passes this (finite-time blow-up).
BLOWUP_NORM = 1e12


def _ladder(h_max: float, h_min: float) -> np.ndarray:
    """The geometric step ladder h_max, h_max/2, ... down to h_min (1e-12 slack)."""
    if not (h_min > 0.0 and np.isfinite(h_max)):  # else halving never ends (NaN: no rung)
        raise ValueError("the step ladder needs h_min > 0 and a finite h_max")
    hs, h = [], float(h_max)
    while h >= h_min * (1.0 - 1e-12):
        hs.append(h)
        h *= 0.5
    return np.array(hs)
