"""Host-speed probe: gated timings are reported at a fixed host speed.

The host this benchmark runs on changes speed in phases of one to a few
minutes: batch-anti50k's query latency over 10-s windows of one engine
ranged 37–71 ms, and over 40-s windows it had a quartile spread of 22%,
about the bound.  The slowdown is not stolen time (the process's CPU time
moves with its wall time), so no longer window or CPU-time clock removes it.

A fixed pure-Python loop (:func:`probe`, about 1 ms) slows down with it.
Timed right after every query, over 10-s windows its time correlated
0.94–0.96 with batch-anti50k's query latency, and the ratio of the two
varied by 5% where the latency alone varied by 12–16%.  A NumPy sort, a
16 MiB stream and random gathers over 4–64 MiB arrays tracked it less well.

Where the work runs in more than one process (the pool workers of
batch-sharded, the server and client of serve-churn), one sample is the
mean of one probe pinned to each CPU in turn: on batch-sharded (240 s, one
engine, 10-s windows) that mean's ratio to the query latency varied by 4%,
the unpinned probe's by 7% and the latency alone by 8%.  On batch-anti50k,
whose one caller runs on one CPU at a time, the unpinned probe is the better
of the two (6% against 12%).

The host switches between fast and slow within a second as well: back to
back set-ups of batch-anti50k took 0.13 s or 0.23 s as the probe next to
them read 1.0 ms or 1.5 ms.  So the probes that count for an operation are
the ones taken close to it: over the same logs, 10-s medians of the scaled
latency varied by 3.5–5.2% with probes within 1 s of the query, against
5.6–6.8% within 5 s.

Queries slow down more than the probe does.  Across ten runs, the log of a
run's raw median query latency against the log of its median probe time
fell on a line of slope 1.22, 1.29 and 1.51 in three sets of batch-anti50k
and 1.17 and 0.92 in two of batch-sharded (correlations 0.84–1.00, probe
medians 0.65–1.46 ms); three 4-minute single-engine logs of batch-anti50k
gave 1.22–1.26.  Of the exponents 1.2, 1.3 and 1.4, 1.3 kept the largest
quartile spread of ``query_p50_ms`` over those five sets lowest (7.2%,
against 8.8% and 9.7%, estimated by rescaling each run with its median
probe).  Set-ups followed the probe one to one (slopes 1.06
and 0.95 in the first set of each workload).

So every gated timing ``t`` of an operation is reported as
``t * (PROBE_NOMINAL_S / p) ** e``, where ``p`` is the median time of the
probes taken from ``LOCAL_S`` seconds before the operation began to
``LOCAL_S`` seconds after it ended (the nearest probe if there is none) and
``e`` is ``QUERY_EXPONENT`` for queries, writes and the window's loop time,
``SETUP_EXPONENT`` for set-ups: the time the operation would take on a host
where the probe takes ``PROBE_NOMINAL_S``.  The raw timings and the probe's
median are printed beside them.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

#: Iterations of the probe loop, and the probe time the gated timings are
#: scaled to (a round figure inside the 0.65–1.46 ms its run medians took on
#: a 2-CPU Xeon container).
PROBE_LOOPS = 15_000
PROBE_NOMINAL_S = 0.001
#: Probes within this many seconds of an operation set its scale.
LOCAL_S = 0.5
#: A timing grows as the probe time to this power (see above).
QUERY_EXPONENT = 1.3
SETUP_EXPONENT = 1.0
#: Longest slice of a window scaled by one factor.
SLICE_S = 1.0


def probe() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    started = time.perf_counter()
    total = 0
    for step in range(PROBE_LOOPS):
        total += (step * step) % 7
    return time.perf_counter() - started


class HostSpeed:
    """Probe times of one process, by ``time.perf_counter`` at their start.

    With ``every_cpu`` a sample is the mean of one probe pinned to each CPU
    the process may use; the process's CPU set is restored after each.
    """

    def __init__(
        self,
        times: list[float] | None = None,
        seconds: list[float] | None = None,
        every_cpu: bool = False,
    ) -> None:
        self.times = times or []
        self.seconds = seconds or []
        self.every_cpu = every_cpu

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.times.append(time.perf_counter())
            self.seconds.append(self._pinned() if self.every_cpu else probe())

    def _pinned(self) -> float:
        allowed = os.sched_getaffinity(0)
        seconds = []
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                seconds.append(probe())
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.mean(seconds)

    def median_s(self) -> float:
        return statistics.median(self.seconds)

    def factor(self, start: float, end: float, exponent: float) -> float:
        """``PROBE_NOMINAL_S`` over the median probe time around ``[start, end]``,
        to the power ``exponent``."""
        low = bisect.bisect_left(self.times, start - LOCAL_S)
        high = bisect.bisect_right(self.times, end + LOCAL_S)
        if low == high:  # no probe that close: take the nearest one
            low = min(low, len(self.times) - 1)
            if low > 0 and start - self.times[low - 1] < self.times[low] - end:
                low -= 1
            high = low + 1
        return (PROBE_NOMINAL_S / statistics.median(self.seconds[low:high])) ** exponent

    def scale(self, seconds: float, at: float, exponent: float) -> float:
        """``seconds`` measured from ``at`` on, at the nominal host speed."""
        return seconds * self.factor(at, at + seconds, exponent)

    def scale_span(self, start: float, end: float, exponent: float) -> float:
        """The interval ``[start, end)`` at the nominal host speed, in slices."""
        total = 0.0
        while start < end:
            step = min(SLICE_S, end - start)
            total += self.scale(step, start, exponent)
            start += step
        return total
