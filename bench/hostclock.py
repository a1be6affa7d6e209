"""Host speed, sampled while a round runs, to put its times on a fixed scale.

On a shared host the same work runs at up to twice the speed from one
second to the next, and the level shifts for minutes at a time, as
neighbours come and go.  A HostClock interrupts the round every PERIOD_S
seconds (SIGALRM) and times one calibration chunk: a fixed piece of
pure-Python work on partitions that touches nothing of the program.
Program time between two samples is multiplied by REFERENCE_S over the
chunk time measured there, so that it reads as it would on a host that
runs the chunk in REFERENCE_S seconds; the samples' own time is left out.
A change to the program moves the program's time and not the chunk's, so
it shows in full.

Run as a script, it times `import mullineux` on the same scale:

    python3 bench/hostclock.py --import-time
"""

from __future__ import annotations

import bisect
import gc
import signal
import sys
import time

perf_counter = time.perf_counter

PERIOD_S = 0.04
# A round figure near the chunk's median time on the 2-vCPU VM the figures
# in README.md come from, at its slower steady speed (1.4-1.7 ms there).
REFERENCE_S = 0.0015
IMPORT_CHUNKS = 15  # chunks before and after a timed import

# fixed partitions: staircases with a few extra rows of 1
_SHAPES = [tuple(range(k, 0, -1)) + (1,) * (k % 3) for k in range(2, 17)]


def chunk() -> int:
    """Beta-sets, conjugates and residue counts of _SHAPES for e = 2..5."""
    total = 0
    for lam in _SHAPES:
        rows = len(lam)
        for e in (2, 3, 4, 5):
            beta = [part + rows - 1 - i for i, part in enumerate(lam)]
            conj = [sum(1 for row in lam if row > col) for col in range(lam[0])]
            residues = {}
            for i, part in enumerate(lam):
                for j in range(part):
                    r = (j - i) % e
                    residues[r] = residues.get(r, 0) + 1
            total += len(beta) + len(conj) + len(residues)
    return total


def timed_chunk() -> float:
    start = perf_counter()
    chunk()
    return perf_counter() - start


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class HostClock:
    """Calibration samples taken between start() and stop()."""

    def __init__(self):
        self.samples = []  # (start, end) of each calibration chunk
        self._segments = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # a last sample, so that even a stretch shorter than PERIOD_S has one
        self._take()

    def _sample(self, signum, frame):
        self._take()
        # one-shot, re-armed after the chunk, so samples never nest
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def _take(self):
        # a collection due now is left to the program, whose objects it walks
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        chunk()
        self.samples.append((start, perf_counter()))
        if collecting:
            gc.enable()

    def segments(self) -> list:
        """(start, end, factor) of the program time between samples.

        Each segment takes the median chunk time of the samples next to it,
        so a single chunk slowed by an interrupt does not skew it.
        """
        if self._segments is None:
            times = [end - start for start, end in self.samples]
            bounds = [float("-inf")] + [t for sample in self.samples for t in sample] + [float("inf")]
            self._segments = []
            for k in range(len(self.samples) + 1):
                near = times[max(0, k - 1) : k + 2]
                self._segments.append((bounds[2 * k], bounds[2 * k + 1], REFERENCE_S / _median(near)))
        return self._segments

    def program_s(self, a: float, b: float) -> tuple[float, float]:
        """Program time in [a, b], as (wall seconds, reference seconds)."""
        segments = self.segments()
        k = bisect.bisect_right([end for _, end, _ in segments], a)
        wall = scaled = 0.0
        for lo, hi, factor in segments[k:]:
            if lo >= b:
                break
            span = min(hi, b) - max(lo, a)
            if span > 0:
                wall += span
                scaled += span * factor
        return wall, scaled


def import_time() -> tuple[float, float]:
    """`import mullineux` in this process, as (wall seconds, reference seconds)."""
    before = [timed_chunk() for _ in range(IMPORT_CHUNKS)]
    start = perf_counter()
    import mullineux  # noqa: F401

    wall = perf_counter() - start
    after = [timed_chunk() for _ in range(IMPORT_CHUNKS)]
    return wall, wall * REFERENCE_S / _median(before + after)


if __name__ == "__main__":
    if sys.argv[1:] != ["--import-time"]:
        sys.exit(__doc__)
    print(*import_time())
