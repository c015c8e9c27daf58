"""Host-speed probe: rescales measured times to a fixed reference speed.

The benchmark host is a few cores of a shared machine whose speed drifts by
up to about 1.5 times, in spells of seconds to minutes, and CPU time drifts
with wall time.  A suite pass is a single cold shot of tens of seconds, so no
repetition inside a run can average the drift away.  Instead a wall-clock
timer interrupts the workload every INTERVAL_S and runs a fixed pure-Python
probe, which reads the host's speed at that moment.

A probe's duration p_i against the fixed REFERENCE_S gives the slowdown
f_i = p_i / REFERENCE_S at an instant sampled uniformly in wall time.  Time
spent in a slow spell is over-sampled by exactly its slowdown, so the mean
slowdown per unit of work is the inverse of the mean of 1 / f_i, and

    normalized = (elapsed - probe time) * REFERENCE_S * mean(1 / p_i)

is the time the same work would take at the reference speed.  The probe runs
twice per sample and only the second, warm run is timed, with the garbage
collector off, so the program's cache footprint and heap do not reach the
sample: a change to the program moves the normalized time through the
elapsed time, not through the probe.  On a 2-vCPU Xeon host a 2.5 s stretch
of queries varied 11-16% in elapsed time and 3.5% normalized.

Run as a script it times one import in a fresh interpreter, for setup_s:
    python3 perfbench/speed.py covex.cli   ->   "<seconds> <factor>"
"""

import _signal  # not `signal`, which imports enum ahead of the timed import
import gc
import sys
import time

INTERVAL_S = 0.05
IMPORT_INTERVAL_S = 0.005  # an import takes about 0.1-0.2 s
REFERENCE_S = 0.00025  # the probe's duration at the reference speed
_TABLE = {k: (k * 2654435761) % 1000003 for k in range(1 << 10)}
_KEYS = tuple((k * 40503) % (1 << 10) for k in range(1500))


def probe() -> int:
    """Fixed interpreter work: integer arithmetic, branches and dict lookups."""
    table = _TABLE
    s = 0
    for k in _KEYS:
        s = (s * 31 + table[k]) % 1000003
        if s & 1:
            s ^= k
    return s


def sample() -> float:
    """Seconds one warm probe takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        probe()  # bring the probe's code and data back into the caches
        start = time.perf_counter()
        probe()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the host's speed on a wall-clock timer while a workload runs."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent inside samples, to subtract
        self._previous = None

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        self.durations.append(sample())
        self.spent += time.perf_counter() - begin

    def start(self) -> None:
        """Sample once now, then every interval until stop()."""
        self._sample(None, None)
        self._previous = _signal.signal(_signal.SIGALRM, self._sample)
        _signal.setitimer(_signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Stop the timer and sample once more, so even a short run has two."""
        _signal.setitimer(_signal.ITIMER_REAL, 0, 0)
        _signal.signal(_signal.SIGALRM, self._previous or _signal.SIG_DFL)
        self._sample(None, None)

    def factor(self) -> float:
        """Reference speed over the sampled speed: multiply a time by this."""
        return REFERENCE_S * sum(1 / d for d in self.durations) / len(self.durations)



def timed_import(name: str) -> tuple[float, float]:
    """(seconds to import module `name`, speed factor sampled while it ran)."""
    speed = SpeedProbe(IMPORT_INTERVAL_S)
    speed.start()
    start, spent = time.perf_counter(), speed.spent
    __import__(name)
    elapsed = time.perf_counter() - start - (speed.spent - spent)
    speed.stop()
    return elapsed, speed.factor()


if __name__ == "__main__":
    print(*timed_import(sys.argv[1]))
