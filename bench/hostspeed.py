"""How fast the host is right now, from a reference kernel timed during a pass.

This VM's speed wanders: the same NumPy kernel takes 8 % longer or shorter
from one 2-second window to the next and drifts by 15-30 % over minutes, and
a pass's wall metrics drift with it (correlation 0.8-0.9 over twelve passes
of one workload in one process).  The replay loop therefore times a small
fixed kernel between engine steps, and the ``wall_*`` metrics are divided by
how much slower than ``NOMINAL`` the kernel ran during the pass: they read as
wall time on this host at its quiet speed.  The kernel's own time is taken
out of every wall interval.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["HostSpeed"]


class HostSpeed:
    #: seconds the kernel takes on this host when it is quiet; the factor's
    #: unit, frozen
    NOMINAL = 0.0048
    #: seconds of the pass between two samples: 4 % of it goes to the kernel
    INTERVAL = 0.25
    MAX_CALLS = 8

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((512, 64))
        self._big = rng.standard_normal((16384, 64))
        self._index = rng.integers(0, 16384, size=(8, 820))
        self._last = perf_counter()
        self._weighted = 0.0
        self._weight = 0.0
        #: seconds spent in the kernel so far; the pass's clock leaves them out
        self.spent = 0.0

    def _kernel(self) -> None:
        """The program's mix in small: a gather feeding an einsum, a BLAS
        product, and interpreter work."""
        queries = self._small.reshape(8, 64, 64)[:, :2]
        for _ in range(2):
            np.einsum("ngd,ntd->ngt", queries, self._big[self._index])
            self._small @ self._small.T
            total = 0
            for i in range(3000):
                total += i * i

    def sample(self, due_only: bool = False) -> None:
        """Time the kernel; the reading stands for the stretch since the last
        sample.  With ``due_only``, only if ``INTERVAL`` has passed.

        One untimed call first brings the kernel's arrays back into the
        caches, whatever the engine step left there.  A long stretch (a
        12-second admission step) gets one timed call per ``INTERVAL`` of
        it, up to ``MAX_CALLS``: its reading weighs as much as all others.
        """
        start = perf_counter()
        stretch = start - self._last
        if due_only and stretch < self.INTERVAL:
            return
        calls = min(max(int(stretch / self.INTERVAL), 1), self.MAX_CALLS)
        self._kernel()
        timed = perf_counter()
        for _ in range(calls):
            self._kernel()
        self._last = perf_counter()
        self.spent += self._last - start
        self._weighted += (self._last - timed) / calls * stretch
        self._weight += stretch

    def factor(self) -> float:
        """Kernel time over the pass, weighted by stretch, ÷ ``NOMINAL``:
        above 1 when the host ran slower than its quiet speed."""
        return self._weighted / self._weight / self.NOMINAL if self._weight else 1.0
