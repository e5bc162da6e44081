"""Host speed, from a fixed reference kernel.

The speed of a shared host drifts by tens of percent over minutes, more
than the bounds in BENCHMARK.json.  The benchmark times this kernel next
to every op and in every set-up probe, and scales each measured time by
``NOMINAL_S`` over the kernel time measured with it, so the drift cancels
while a change to the program shows in full.  Scaled times read as seconds
on a host where the kernel takes ``NOMINAL_S``.

The kernel mixes interpreter work and numpy streaming, as the ops do.  It
allocates nothing and first reloads its own arrays untimed, so its time
does not depend on what the op before it left in the caches or the
allocator; ``test_smoke.py`` checks that a slower op shows in full.
"""

import statistics
import time

import numpy

NOMINAL_S = 0.0075
CHILD_RUNS = 12     # kernel runs averaged in a set-up probe or a CLI stage


class SpeedGauge:

    def __init__(self):
        self._data = numpy.linspace(0.0, 1.0, 200_000)
        self._out = numpy.empty_like(self._data)

    def _kernel(self):
        total = 0
        for i in range(30_000):
            total += i * i
        for _ in range(3):
            numpy.sin(self._data, out=self._out)
            self._out.sum()

    def sample(self):
        """Seconds the kernel takes now."""
        numpy.sin(self._data, out=self._out)      # reload caches, untimed
        start = time.monotonic()
        self._kernel()
        return time.monotonic() - start

    def mean(self, count):
        """Mean of ``count`` samples: the host's average speed over them."""
        return statistics.fmean(self.sample() for _ in range(count))
