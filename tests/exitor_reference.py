"""Reference copy of the characteristic feet as two backward marches.

``characteristics._exitors`` as it was before it read the feet from the exit
sweep's own states: the backward exit sweep gives tau, then ``_advance``
marches every row from x over [0, tau] a second time.  The tests require the
one-sweep feet to agree with it bit for bit.
"""

import numpy as np

from viakit.common import INF
from viakit.dynamics import _advance
from viakit.errors import NonFinite
from viakit.kernels import _first_events


def backward_exits(phi, K, ts, xs, h):
    if np.any(ts < 0):
        raise ValueError("backward_exit_time requires t >= 0")
    ex = _first_events(phi.negated(), xs, ts, h, K=K, refine_tol=1e-8)[0]
    return np.where(ts == 0.0, 0.0, np.where(ex >= INF, ts, np.minimum(ex, ts)))


def exitors(phi, K, ts, xs, h):
    tau = backward_exits(phi, K, ts, xs, h)
    c = xs.copy()
    if not _advance(phi.negated(), c, 0.0, tau, h).all():
        raise NonFinite("state blew up during the backward flow")
    return ts - tau, c
