"""Shared numeric conventions.

Extended reals are encoded with a finite sentinel so that grids and CSV
files stay plain float arrays: any value >= INF means "+infinity", and
<= -INF means "-infinity".  The sentinel is far above any usable time
horizon, so thresholding against it is always safe.
"""

#: +infinity sentinel for times and values (seconds / cost units).
INF = 1e18

#: Integration aborts once a state norm passes this (finite-time blow-up).
BLOWUP_NORM = 1e12
