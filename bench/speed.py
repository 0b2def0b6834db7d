"""The machine's speed, measured alongside the requests.

The shared virtual machine this benchmark was built on changes speed by
up to half over a minute or two, for every process alike, and CPU time
follows wall time. A run that lands in a slow minute would then read as
a regression. So each round samples two fixed kernels between its
requests, in proportion to the request time that passed:

- `compute`: Fraction arithmetic and dict and tuple work, the
  interpreter-bound mix that most of `qcode` spends its time in;
- `memory`: a numpy sum over a 64 MiB array, far larger than the
  caches, like the large Walsh-Hadamard transforms: bound by memory
  bandwidth, which a slow spell slows less.

A workload names the share of its time that a slow spell slows like
the memory kernel, and its times are scaled by
`1 / ((1 - share) * compute/REF + share * memory/REF)`, each kernel time
being the trimmed mean of the round's samples. Times are then in
reference seconds: the seconds the same work takes when both kernels
take their `REF` time, their medians on the 2-core VM of
bench/README.md. Each share is the one that steadied its workload most
over repeated runs on that VM; see bench/README.md.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

#: median kernel times, in seconds, on the reference machine
REF_COMPUTE_S = 0.001
REF_MEMORY_S = 0.009
#: memory share of set-up (interpreter start, imports, reading files)
SETUP_SHARE = 0.5
#: one compute sample per this much request time, and one memory sample
#: per MEMORY_EVERY compute samples
EVERY_S = 0.02
MEMORY_EVERY = 10
#: the memory kernel's array; it stays resident in every round process,
#: and the round's peak RSS is reported without it
MEMORY_MIB = 64


def compute() -> Fraction:
    acc, seen = Fraction(0), {}
    for i in range(200):
        key = (i % 64, i % 3)
        seen[key] = seen.get(key, 0) + i
        acc += Fraction(i % 7, 1 + i % 5)
    return acc + sum(sorted(seen.values())[:8])


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _trimmed_mean(xs: list[float]) -> float:
    """Mean of the middle 80%: a pre-empted sample is dropped, while a
    slow spell that covers a fifth of the round still counts."""
    xs = sorted(xs)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut])


class Meter:
    """Kernel samples taken between requests, and the scale they give."""

    def __init__(self, memory_share: float):
        self.share = memory_share
        self.compute: list[float] = []
        self.memory: list[float] = []
        self._array = np.ones(MEMORY_MIB << 17)  # float64 cells
        compute()  # warm-up, not kept
        self._owed = 0.0
        self.sample(20)

    def sample(self, n: int) -> None:
        for _ in range(n):
            self.compute.append(_timed(compute))
            if len(self.compute) % MEMORY_EVERY == 1:
                self.memory.append(_timed(self._array.sum))

    def after(self, elapsed: float) -> None:
        """Call after each request with its time; samples what is owed."""
        self._owed += elapsed
        n = int(self._owed / EVERY_S)
        self._owed -= n * EVERY_S
        self.sample(n)

    def close(self) -> None:
        """Call after the last request."""
        self.sample(max(1, int(self._owed / EVERY_S)))

    def scale(self, share: float | None = None) -> float:
        """Reference seconds per measured second over the samples."""
        share = self.share if share is None else share
        return 1 / ((1 - share) * _trimmed_mean(self.compute) / REF_COMPUTE_S
                    + share * _trimmed_mean(self.memory) / REF_MEMORY_S)
