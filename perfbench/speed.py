"""CPU speed gauge: a low-priority reference loop beside the jobs.

The shared host this benchmark runs on changes the speed of a vCPU by up
to half in phases of seconds to minutes, so the same job's wall and CPU
time swing with it.  The gauge measures that speed while each job runs:

- the benchmark process pins itself, and so every job and probe it
  spawns, to one CPU;
- a forked gauge process on the same CPU, at nice GAUGE_NICE, runs a
  fixed pure-Python reference loop (big-integer matrix products mod a
  prime power, like pwl's own work).  After every chunk it publishes
  (chunks done, its own CPU nanoseconds) in a shared anonymous mapping;
- the scheduler gives the gauge a small share of the CPU in
  millisecond slices all through a job, so chunks per gauge CPU second
  over the job's interval is the speed the job saw.

`Gauge.interval()` returns that speed and the CPU the gauge took.  The
benchmark scales each job's times by speed / REF_RATE, which gives them
in reference seconds: seconds on a CPU that runs the gauge at REF_RATE
chunks per second.  REF_RATE is near the median this gauge reads on a
shared 2-vCPU VM with Python 3.11.7.
"""

import mmap
import os
import signal
import struct
import time

GAUGE_NICE = 10          # weight 110 against a job's 1024: ~10% of the CPU
REF_RATE = 100000.0      # chunks per gauge CPU second at the reference speed
_SLOT = struct.Struct("qq")

_MOD = 43 ** 6
_A = [[(7 ** (3 * i + j + 40)) % _MOD for j in range(3)] for i in range(3)]


def _chunk(b):
    """One reference chunk: a 3x3 product mod 43^6, fed back into itself."""
    return [[sum(a * c for a, c in zip(row, col)) % _MOD
             for col in zip(*b)] for row in _A]


def _gauge_loop(slot):
    os.nice(GAUGE_NICE)
    parent = os.getppid()
    b, n = _A, 0
    while True:
        b = _chunk(b)
        n += 1
        slot[:] = _SLOT.pack(n, time.thread_time_ns())
        if n % 256 == 0 and os.getppid() != parent:
            return        # the benchmark died: do not outlive it


class Gauge:
    """The gauge process and its published counters; use as a context."""

    def __init__(self):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.cpu = cpu
        self._slot = mmap.mmap(-1, _SLOT.size)
        self._pid = os.fork()
        if self._pid == 0:
            try:
                _gauge_loop(self._slot)
            finally:
                os._exit(0)
        while self.read()[0] == 0:    # first chunk published
            time.sleep(0.001)

    def read(self):
        return _SLOT.unpack(self._slot[:])

    def interval(self, start):
        """(speed in chunks per gauge CPU second, gauge CPU seconds) since
        start, a value of read().  If the gauge has not run since start,
        wait until it has, so the speed is always measured."""
        n0, c0 = start
        n1, c1 = self.read()
        while n1 <= n0:
            time.sleep(0.001)
            n1, c1 = self.read()
        return (n1 - n0) / ((c1 - c0) / 1e9), (c1 - c0) / 1e9

    def close(self):
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0
            self._slot.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
