"""Machine-speed probe, for timings that survive a noisy host.

On the shared host this benchmark was written on, the same code ran up to
twice as slowly for milliseconds to minutes at a time.  The benchmark
therefore runs short bursts of a fixed probe every 50 ms while it times,
inside long operations too, and reports each operation's time (bursts
taken out) scaled by REFERENCE_PROBE_S / (mean probe time around the
operation): its time at the machine speed at which the probe takes
REFERENCE_PROBE_S.  The probe is frozen benchmark code, not program code,
so a change to the program moves scaled and raw times in proportion.  Raw
times are kept in the result file.

The probe is interpreted Python of the program's kind: small function
calls, slot attribute reads, tuples, list and dict stores and cmath on
complex numbers.  On that host it tracked both the elliptic kernels and the
Lax matrix builds better than a tight arithmetic loop did, because the slow
phases slow call-heavy interpreter code more.

Child processes (the CLI commands, the fresh import in set-up) are timed
the same way: the benchmark and its children run on one CPU, and each burst
stops the running child (SIGSTOP) for its duration, so the probe measures
the CPU the child runs on without competing with it.
"""

from __future__ import annotations

import bisect
import cmath
import math
import os
import signal
import subprocess
import time

#: Probe time on the machine the benchmark was written on (2-vCPU Xeon) at
#: its faster speed, so scaled times read as seconds of that machine.
REFERENCE_PROBE_S = 1.5e-4
BURST = 20
#: Probes within this many seconds of an operation set its speed.
WINDOW_S = 0.5

#: The pid of the child process a timed operation is waiting for, if any.
_child_pid = None


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _term(p: _Pair, w: complex, k: int):
    a = (2 * k + 1) * math.pi
    return cmath.sin(a * w) * p.a, cmath.cos(a * w) * p.b, abs(w) + k


def probe() -> float:
    """Seconds taken by one run of the fixed probe."""
    t0 = time.perf_counter()
    acc = 0j
    seen = {}
    for j in range(24):
        p = _Pair(complex(1.0, 0.1 * j), complex(0.5, -0.02 * j))
        w = complex(0.1 + 0.02 * j, 0.03 * j)
        s = [0j, 0j]
        for k in range(6):
            x, y, r = _term(p, w, k)
            s[0] += x
            s[1] += y
            seen[k] = r
        acc += (s[0] + s[1]) * 1e-9
    return time.perf_counter() - t0


class Speedometer:
    """Probe bursts over time, and the scale factor for any interval.

    Between ``tick_start`` and ``tick_stop`` an interval timer interrupts
    whatever runs every ``every`` seconds with a burst, so an operation that
    lasts seconds is probed throughout, not only at its ends.  ``paused``
    sums the time spent in those bursts; a caller subtracts its growth over
    an operation from that operation's time.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.paused = 0.0

    def burst(self) -> None:
        for _ in range(BURST):
            t = time.perf_counter()
            self.durations.append(probe())
            self.times.append(t)

    def _tick(self, signum, frame) -> None:
        pid = _child_pid
        stopped = pid is not None and _signal(pid, signal.SIGSTOP)
        t0 = time.perf_counter()
        self.burst()
        self.paused += time.perf_counter() - t0
        if stopped:
            _signal(pid, signal.SIGCONT)

    def tick_start(self, every: float) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def tick_stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S over the mean probe time near [t0, t1]: the
        nearest burst on each side, and every probe within WINDOW_S."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        before = bisect.bisect_left(self.times, t0)
        after = bisect.bisect_right(self.times, t1)
        lo = min(lo, max(0, before - BURST))
        hi = max(hi, min(len(self.times), after + BURST))
        window = self.durations[lo:hi]
        return REFERENCE_PROBE_S * len(window) / sum(window)


def run_child(argv, timeout, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run(argv, capture_output=True) with the child registered,
    so that probe bursts stop it while they run."""
    global _child_pid
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          **kwargs) as proc:
        _child_pid = proc.pid
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            _child_pid = None
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _signal(pid: int, sig: int) -> bool:
    """Send sig to pid; False if the process has already been reaped."""
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        return False
    return True
