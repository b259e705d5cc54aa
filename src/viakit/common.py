"""Shared numeric conventions.

Extended reals are encoded with a finite sentinel so that grids and CSV
files stay plain float arrays: any value >= INF means "+infinity", and
<= -INF means "-infinity".  The sentinel is far above any usable time
horizon, so thresholding against it is always safe.
"""

import math

import numpy as np

#: +infinity sentinel for times and values (seconds / cost units).
INF = 1e18

#: Integration aborts once a state norm passes this (finite-time blow-up).
BLOWUP_NORM = 1e12


def _one_row(x) -> np.ndarray:
    """One state x as a (1, dim) row: how every scalar entry point lifts to its batch."""
    return np.asarray(x, dtype=float).reshape(1, -1)


def _exp(v) -> np.ndarray:
    """math.exp per entry (an array np.exp can differ from it in the last ulp)."""
    return np.fromiter(map(math.exp, v), float, len(v))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norms of the (m, k) rows of x: ``np.linalg.norm(x, axis=1)``, bit for bit.

    The norm's own expression, ``sqrt(add.reduce(x * x, axis=1))``, with
    its reduction over one or two columns written out (the reduction runs
    row by row, slowly on short rows).  Squares are at least +0, so one
    square, or a sum of two in either order with or without a +-0 start,
    has the same bits.  The one row-norm rule of the toolkit.
    """
    x = np.asarray(x, dtype=float)
    s = x * x
    k = s.shape[1]
    if k == 1:
        return np.sqrt(s[:, 0])
    if k == 2:
        return np.sqrt(s[:, 0] + s[:, 1])
    return np.sqrt(np.add.reduce(s, axis=1))


def _frozen(a, dtype) -> np.ndarray:
    """A read-only copy of a as a dtype array of one axis or more: a record's own array."""
    a = np.array(a, dtype=dtype, ndmin=1)
    a.flags.writeable = False
    return a


_FLOAT64 = np.dtype(float)  # the one native float64 dtype, so ``is`` tells it


class _Filled:
    """``np.full(shape, value)`` as a read-only view of one shared float64 block.

    The one cache rule of the constant built-ins (fields, lagrangians,
    obstacles), sound because the toolkit never writes into a callable's
    output.  ``fill(shape)`` has the bits, dtype and shape of
    ``np.full(shape, value)`` and is the first shape[0] rows of the slot's
    block.  A request for more rows, or for rows of another shape, builds a
    block of exactly that shape and replaces the slot; no block is written
    once it is in the slot, so threads share it without a lock, and the
    slot holds at most the largest block asked for.  The last view handed
    out is handed out again, unsliced, for the same shape.
    """

    __slots__ = ("value", "_block", "_last")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)
        self._block = self._last = _frozen((), float)

    def __call__(self, shape: tuple) -> np.ndarray:
        view = self._last  # each attribute is read once: a thread may replace it meanwhile
        if view.shape != shape:
            view = self._block[:shape[0]]
            if view.shape != shape:  # too few rows, or rows of another shape
                view = np.empty(shape)
                view[...] = self.value
                view.flags.writeable = False
                self._block = view
            self._last = view
        return view

    def like(self, x) -> np.ndarray:
        """``np.full_like(x, value)``, shared as above when x is a float64 array of rows."""
        if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim:
            view = self._last  # __call__'s first test, inlined to save a call per hit
            return view if view.shape == x.shape else self(x.shape)
        return np.full_like(x, self.value)


def _ladder(h_max: float, h_min: float) -> np.ndarray:
    """The geometric step ladder h_max, h_max/2, ... down to h_min (1e-12 slack)."""
    if not (h_min > 0.0 and np.isfinite(h_max)):  # else halving never ends (NaN: no rung)
        raise ValueError("the step ladder needs h_min > 0 and a finite h_max")
    hs, h = [], float(h_max)
    while h >= h_min * (1.0 - 1e-12):
        hs.append(h)
        h *= 0.5
    return np.array(hs)


def _refuse(bad, message, error=ValueError):
    """Raise error(message(i)) for the first True row i of the mask bad: the one bad-row rule."""
    bad = np.asarray(bad)
    if bad.any():
        raise error(message(int(np.argmax(bad))))


def _refuse_nan(where: str, **points):
    """ValueError naming the first of the one-point arguments that holds a NaN."""
    for name, a in points.items():
        a = np.asarray(a, dtype=float)
        _refuse([np.isnan(a).any()], lambda _: f"{where}: {name} = {a.tolist()} holds a NaN")


def _finite_samples(X: np.ndarray) -> np.ndarray:
    """X unchanged; a ValueError naming the first row with a non-finite entry.

    For the checks that take samples, where a NaN sample would read as a
    clause that does not apply, an infinite residual or a dropped ratio.
    """
    _refuse(~np.isfinite(X).all(axis=1), lambda i: f"sample {i} {X[i].tolist()} is not finite")
    return X
