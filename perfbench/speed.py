"""The machine's speed while the benchmark runs, measured with a fixed
pure-Python reference piece, so that times can be calibrated against it.

On a shared host the CPU a process gets can run at well under its full
speed for spells of seconds to minutes, and every workload slows with it.
A sampler thread pinned to each CPU the workload uses times one reference
piece every SAMPLE_PERIOD_S, in thread CPU time, so being descheduled does
not count. A time measured over an interval is then rescaled by
REFERENCE_PIECE_S over the mean piece time on those CPUs in that interval:
it becomes the time the work would have taken had the reference piece run
in REFERENCE_PIECE_S.
"""

from __future__ import annotations

import bisect
import os
import random
import threading
from time import perf_counter, sleep, thread_time

from common import BenchError

# The reference piece's nominal time: roughly its time on a 2.1 GHz Xeon
# VM with a busy host, so that calibrated seconds stay near wall seconds.
REFERENCE_PIECE_S = 0.3e-3
SAMPLE_PERIOD_S = 0.01
# an interval with fewer samples borrows the nearest ones around it
MIN_SAMPLES = 8


def _containers(n: int) -> int:
    """Small lists, tuples and frozensets built, sorted and dropped."""
    out = []
    for i in range(n):
        xs = [(i * k) % 97 for k in range(12)]
        out.append(frozenset(xs))
        xs.sort()
        out.append(tuple(xs))
    return len(out)


def _random_adjacency(n: int, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


_ADJ = _random_adjacency(18, 7)


def _clique_search(limit: int) -> int:
    """The first `limit` nodes of a bitmask branch-and-bound clique search."""
    nodes = best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > limit or size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(size + 1, cand & _ADJ[v])

    expand(0, (1 << len(_ADJ)) - 1)
    return best


def reference_piece() -> int:
    """Fixed interpreter work of the kinds the workloads do: container
    churn, and recursion over bitmask ints."""
    return _containers(80) + _clique_search(110)


class SpeedSampler:
    """Samples the reference piece on each CPU in `cpus` until stopped."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        # per CPU, (perf_counter at the piece's start, its thread CPU seconds)
        self._samples = {cpu: [] for cpu in self.cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True) for cpu in self.cpus
        ]

    def __enter__(self):
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *_exc):
        self._stop.set()
        for t in self._threads:
            t.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        samples = self._samples[cpu]
        while not self._stop.is_set():
            wall0, cpu0 = perf_counter(), thread_time()
            reference_piece()
            samples.append((wall0, thread_time() - cpu0))
            sleep(SAMPLE_PERIOD_S)

    def _window(self, cpu: int, start: float, end: float) -> list[float]:
        samples = list(self._samples[cpu])
        lo = bisect.bisect_left(samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, end, key=lambda s: s[0])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(samples)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(samples))
        return [piece for _start, piece in samples[lo:hi]]

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PIECE_S over the mean piece time in [start, end]
        (perf_counter times, which all processes share)."""
        # let the samplers catch up with the end of the interval
        sleep(2 * SAMPLE_PERIOD_S)
        pieces = [p for cpu in self.cpus for p in self._window(cpu, start, end)]
        if not pieces:
            raise BenchError("the speed sampler recorded nothing")
        return REFERENCE_PIECE_S * len(pieces) / sum(pieces)
