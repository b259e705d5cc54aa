"""Reference copy of the RK4 step as one plain expression.

``dynamics.rk4_step`` as it was before it built its stage points and its
weighted sum in buffers it made itself: every operation allocates its
result.  The tests require the step to agree with it bit for bit, and in
dtype and shape, whatever dtype and broadcast shape a field returns.
"""

import numpy as np


def rk4_step(field, t, x, h):
    f = field.eval if np.ndim(x) == 2 else field
    half = 0.5 * h
    t_half = t + half
    k1 = f(t, x)
    k2 = f(t_half, x + half * k1)
    k3 = f(t_half, x + half * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
