"""Machine-speed meter: all times in this benchmark are reported in
reference seconds, i.e. wall time rescaled to a fixed machine speed.

On a shared machine the processor's speed drifts by tens of percent over
seconds. While the worker runs, a SIGALRM handler times a small fixed kernel
(Python arithmetic and 2x2 numpy algebra, no mpgraph code) every
``PERIOD`` seconds. For an interval ``[a, b]`` the reference duration is

    (b - a - handler time inside [a, b]) * mean(C_REF / kernel time)

with the mean taken over the samples within ``PERIOD / 2`` of the interval
(the nearest sample if there is none). At the speed where the kernel takes
``C_REF`` seconds, reference seconds equal wall seconds. The handler runs in the main thread between bytecodes; no
thread or process is started.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

import numpy as np

# A short kernel sampled often tracked the speed of 50 ms mpgraph stages
# better than a longer one sampled less often; the handler costs about 3%.
PERIOD = 0.025  # seconds between samples
C_REF = 8.5e-4  # kernel seconds at the reference speed

_EYE = np.eye(2)


def kernel() -> float:
    a, b, s = _EYE.copy(), np.ones(2), 0
    for _ in range(40):
        a = np.linalg.inv(a + 1e-3 * _EYE)
        b = a @ b
        for j in range(40):
            s += j * j % 7
    return s + float(b[0])


class SpeedMeter:
    def __init__(self):
        self.t = array("d")  # handler start
        self.k = array("d")  # kernel seconds
        self.h = array("d")  # handler seconds

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.t.append(t0)
        self.k.append(t1 - t0)
        self.h.append(perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speeds(self) -> np.ndarray:
        return C_REF / np.frombuffer(self.k, dtype=float)

    def handler_seconds(self) -> float:
        return float(sum(self.h))

    def reference(self, a, b):
        """Reference seconds of the intervals ``[a, b]`` (arrays or floats)."""
        t = np.frombuffer(self.t, dtype=float)
        speed = self.speeds()
        if len(t) == 0:
            return np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        h_cum = np.concatenate([[0.0], np.cumsum(np.frombuffer(self.h, dtype=float))])
        s_cum = np.concatenate([[0.0], np.cumsum(speed)])
        inside = h_cum[np.searchsorted(t, b)] - h_cum[np.searchsorted(t, a)]
        lo = np.searchsorted(t, a - PERIOD / 2)
        hi = np.searchsorted(t, b + PERIOD / 2)
        nearest = speed[np.clip(np.searchsorted(t, a), 0, len(t) - 1)]
        n = hi - lo
        mean = np.where(n > 0, (s_cum[hi] - s_cum[lo]) / np.maximum(n, 1), nearest)
        return (b - a - inside) * mean
