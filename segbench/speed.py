"""Machine-speed probe: put CPU times from a noisy shared VM on one scale.

CPU time on a shared 2-vCPU VM runs up to 1.6x faster or slower within
seconds (neighbours share caches, the host moves clocks), and every CPU
metric of the program moves with it.  Between ops, outside every timed
call, :class:`SpeedProbe` times a fixed reference slice every
``PROBE_EVERY_NS`` of CPU.  An op's CPU time is then scaled by
``REFERENCE_MS`` over the mean of the two slices around it: the time it
would have taken at the speed the bounds were set at.  The slice does
not touch the program, and it runs warm (after an untimed slice) and
with the garbage collector off (as ``timeit`` does), so neither the
caches the program's work leaves cold nor a collection that scans the
program's heap can land in it: no change to the program can move it.

On that VM, for repeated same-seed runs, this took the quartile spread of
``cpu_ops_per_s`` from 23% to 6% and of the CPU p50s from ~30% to ~7%.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from typing import Iterator


def reference_slice() -> int:
    """A fixed slice of interpreter work: build, sort and index tuples."""
    rows = [(str(i * 7919 % 10007), i, i * 31 % 97, b"x" * (i % 50)) for i in range(750)]
    rows.sort()
    index: dict[int, list[tuple[str, int]]] = {}
    for name, _, group, blob in rows:
        index.setdefault(group, []).append((name, len(blob)))
    return sum(len(entries) for entries in index.values())


class SpeedProbe:
    PROBE_EVERY_NS = 50_000_000
    #: The warm reference slice every CPU figure is put at: about what it
    #: took on the 2-vCPU x86 VM the bounds were set on when that VM was
    #: quiet (0.6-0.8 ms under its neighbours' load).
    REFERENCE_MS = 0.6

    def __init__(self) -> None:
        self.stamps_ns: list[int] = []
        self.samples_ns: list[int] = []
        #: Process CPU the probe itself has used, untimed slices included.
        self.spent_ns = 0
        self._next = 0

    def after_op(self) -> None:
        if time.process_time_ns() >= self._next:
            self.sample()

    def sample(self, count: int = 1) -> None:
        # Slices are timed on the thread's CPU clock: while a process CPU
        # timer is armed (:meth:`on_timer`), Linux updates the process CPU
        # clock only at scheduler ticks.  The program is one thread.
        begin = time.thread_time_ns()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                # An untimed slice first: the timed one then finds its data
                # in the caches, so it measures the machine, not what the
                # program's own work left in (or evicted from) them.
                reference_slice()
                self.stamps_ns.append(time.process_time_ns())
                start = time.thread_time_ns()
                reference_slice()
                self.samples_ns.append(time.thread_time_ns() - start)
        finally:
            if enabled:
                gc.enable()
        self.spent_ns += time.thread_time_ns() - begin
        self._next = time.process_time_ns() + self.PROBE_EVERY_NS

    @contextlib.contextmanager
    def on_timer(self) -> Iterator[None]:
        """Sample every ``PROBE_EVERY_NS`` of process CPU, wherever it is spent.

        A CPU-time timer signal interrupts the code under it, so even a
        long stretch with no op boundary to probe between (key generation
        in a set-up) is sampled.
        """
        old = signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        interval = self.PROBE_EVERY_NS / 1e9
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, old)

    def factor_at(self, cpu_ns: int) -> float:
        """Scale for CPU time measured at process CPU clock ``cpu_ns``."""
        if not self.samples_ns:
            self.sample(2)
        i = bisect.bisect_left(self.stamps_ns, cpu_ns)
        around = self.samples_ns[max(0, i - 1) : i + 1] or self.samples_ns[-1:]
        return self.REFERENCE_MS * 1e6 / statistics.fmean(around)

    def median_factor(self) -> float:
        """Scale for CPU time spread over the whole probed span."""
        if not self.samples_ns:
            self.sample(2)
        return self.REFERENCE_MS * 1e6 / statistics.median(self.samples_ns)
