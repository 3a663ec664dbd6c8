"""Host-speed probe.

The benchmark hosts run other tenants' work: the same pure-Python loop
takes anywhere from 1x to 2x its fastest time, in states that last from
a second to minutes.  The probe is a fixed sub-millisecond mix of the two
kinds of work the program does (exact rational arithmetic on Python ints,
and scalar float loops).  A `Sampler` times it before and after a measured
command and, from a wall-clock timer, every INTERVAL_S during it; the
benchmark reports the command's time scaled to a host on which one probe
takes REFERENCE_S, with the host's slowdown raised to SENSITIVITY.

Only `math`, `signal` and `time` are imported, so that importing this
module before a timed import of the package pre-loads nothing the package
needs.
"""

import math
import signal
import time

REFERENCE_S = 0.0003
INTERVAL_S = 0.05
EDGE_REPEATS = 5
# A host slowdown that stretches the probe by x stretches the program by
# about x ** SENSITIVITY: the program allocates and walks far more memory
# than the probe, so other tenants' load costs it more.  Fitted on whole
# passes of scorecard-deep and scorecard-sweep on a shared 2-core x86-64
# host at probe factors 0.55 to 1.1, where it cut the run-to-run spread of
# wall_s by about 40% against 1.0 (the best exponent lay between 1.1 and
# 1.2; 1.5 was worse than 1.0).
SENSITIVITY = 1.15


def probe_once() -> float:
    """Seconds one fixed probe takes now."""
    start = time.perf_counter()
    num, den = 1, 1
    for i in range(1, 60):
        num, den = num * (2 * i + 1) + den * i, den * (i + 3)
        g = math.gcd(num, den)
        num //= g
        den //= g
    x = 0.0
    for i in range(2500):
        x += (i * 0.5) ** 0.5
    return time.perf_counter() - start


def probe() -> list[float]:
    return [probe_once() for _ in range(EDGE_REPEATS)]


class Sampler:
    """Context manager that probes the host speed around and during a block.

    `spent` is the time the in-block probes took, to subtract from the
    block's time; `factor()` converts seconds on this host to seconds on
    the reference host, weighting every probe equally in time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe_once())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples += probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += probe()

    def factor(self) -> float:
        mean = REFERENCE_S * sum(1 / p for p in self.samples) / len(self.samples)
        return mean ** SENSITIVITY
