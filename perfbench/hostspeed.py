"""The host's speed, measured by fixed reference work run between the jobs.

On a shared host the core's speed drifts on every time scale from seconds
to minutes, by 20-35 % (a fixed pure-Python loop of 0.2 s, run back to
back, spread that much), so a raw wall time says as much about the host
as about the router.  A :class:`SpeedMeter` runs fixed units of reference
work after every job, for a share of that job's time, so that the host is
sampled right next to the time each job took.  A sample's *factor* is the
mean time of one unit over :data:`REFERENCE_UNIT_S`, the unit's median
time on the reference host: above 1 the host ran slower than the
reference.  A time divided by the factor is in *reference seconds*, the
time the same work takes on the reference host.

One unit is a bounded shortest-path search with ``heapq`` over a fixed
random graph of 300,000 nodes, then a numpy gather and reduction over
300,000 values, so it has the router's mix of interpreter work, scattered
memory reads and numpy.  Against routing jobs measured back to back for
200 s, a unit of this kind tracked the host's slow phases more closely
than a search alone: over windows of about 8 s, the spread of routing
time over reference time was 9 % with it, 14 % with a search without the
numpy part, and 17 % for the raw routing time.  A cache-resident search
over a 2,000-node graph made matters worse in a calm phase (13 % against
7 % raw).

The work runs in a child process of its own, one request at a time while
the benchmark waits, so it shares the host with no job, and its memory
and heap stay out of the benchmark process's peak RSS.  It uses nothing
from ``repro``, so no change to the program moves it.

Run as a script, this module is that child: it reads one budget in
seconds per line on stdin, runs units until the budget is spent (at
least one) and answers ``<units> <seconds>``.
"""

from __future__ import annotations

import heapq
from array import array
import subprocess
import sys
import time
from pathlib import Path
from typing import IO, Tuple

#: Median seconds of one reference unit on the reference host (shared
#: 2-core x86-64 VM, CPython 3.11.7).
REFERENCE_UNIT_S = 0.0072

#: Reference work after each timed job, as a share of the job's wall time,
#: and at least ``MIN_SAMPLE_S`` (the smallest jobs take 10-50 ms, and a
#: factor from one or two units would be mostly the units' own jitter).
SHARE = 0.25
MIN_SAMPLE_S = 0.1

NODES = 300_000
DEGREE = 4
SETTLE = 800


class ReferenceWork:
    """The fixed graph and arrays one unit works on (built from a fixed seed)."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20240611)
        # Flat arrays, not lists: the graph takes 14 MB, not 140.
        self.heads = array("q", rng.integers(0, NODES, NODES * DEGREE).tobytes())
        self.weights = array("d", (0.5 + rng.random(NODES * DEGREE)).tobytes())
        self.values = rng.random(NODES)
        self.index = rng.integers(0, NODES, NODES)
        self.sources = rng.integers(0, NODES, 4096).tolist()
        self.count = 0

    def unit(self) -> float:
        """One unit: a search that settles ``SETTLE`` nodes from the next
        fixed source, then a gather, square root and sum over the arrays."""
        import numpy as np

        source = self.sources[self.count % len(self.sources)]
        self.count += 1
        heads, weights = self.heads, self.weights
        dist = {source: 0.0}
        heap = [(0.0, source)]
        settled = set()
        while heap and len(settled) < SETTLE:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            base = u * DEGREE
            for k in range(base, base + DEGREE):
                v = heads[k]
                nd = d + weights[k]
                if nd < dist.get(v, 1e300):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        gathered = self.values[self.index]
        return float(np.sqrt(gathered * 1.5 + 0.25).sum()) + len(settled)


def serve(lines: IO[str], out: IO[str]) -> None:
    """The child's loop: one budget in, ``<units> <seconds>`` out."""
    work = ReferenceWork()
    work.unit()
    out.write("ready\n")
    out.flush()
    for line in lines:
        budget = float(line)
        units, spent = 0, 0.0
        while True:
            start = time.perf_counter()
            work.unit()
            spent += time.perf_counter() - start
            units += 1
            if spent >= budget:
                break
        out.write(f"{units} {spent!r}\n")
        out.flush()


class SpeedMeter:
    """A reference-work child process and the samples taken from it."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._child.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference-work process did not start")

    def sample(self, budget: float) -> Tuple[int, float]:
        """Reference units for ``budget`` seconds (at least one):
        (units, seconds)."""
        self._child.stdin.write(f"{budget!r}\n")
        self._child.stdin.flush()
        units, spent = self._child.stdout.readline().split()
        self.units += int(units)
        self.seconds += float(spent)
        return int(units), float(spent)

    def reference_seconds(self, seconds: float) -> float:
        """``seconds`` of wall time just spent, in reference seconds; samples
        the host for half as long again."""
        return seconds / factor(*self.sample(0.5 * seconds))

    def close(self) -> None:
        child = self._child
        if child.poll() is None:
            child.stdin.close()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        child.stdout.close()


def factor(units: int, seconds: float) -> float:
    """The host's speed factor from ``units`` that took ``seconds``."""
    return seconds / units / REFERENCE_UNIT_S


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
