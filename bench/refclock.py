"""Reference-speed clock: timings scaled to a fixed speed of the host.

On a shared virtual machine the speed of the same pure-Python code drifts
by a factor of up to two within minutes (neighbours on the host, steal
time, cache pressure), in wall time and in process time alike, so raw
medians of runs made a few minutes apart differ by more than any useful
regression bound.  This module times a fixed pure-Python kernel, which
does not touch dcoh, right after every query and expresses each query's
time in units of that kernel's local speed:

    scaled = raw * REF_KERNEL_S / (median kernel time around the query)

A scaled time reads "seconds on a host where the kernel takes
REF_KERNEL_S".  A change that makes dcoh faster lowers it in proportion;
a host that runs everything slower for a while leaves it where it was.
The raw times are kept beside it in the run's details file.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_KERNEL_S = 0.0006          # the kernel's time on the reference host
MIN_BLOCK_S = 0.0008           # a block after a query lasts at least this ...
BLOCK_SHARE = 0.03             # ... and at least this share of the query
WINDOW = 4                     # blocks each side that set a query's speed
WARM_CALLS = 200

_PX = {(i, j): (3 * i + j) % 7 for i in range(4) for j in range(3)}
_PQ = {(i,): Fraction(i + 1, 2 * i + 3) for i in range(6)}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def mul(self, other):
        return _Pair(self.a * other.a - self.b * other.b,
                     self.a * other.b + self.b * other.a)


def kernel() -> int:
    """A fixed mix of what dcoh's arithmetic does in pure Python: sparse
    dict polynomials mod 7 and over Fractions, small objects, tuples, and a
    plain integer loop.  Allocating code slows more than the integer loop
    when the host is busy, and dcoh lies between them; on all four
    workloads the sum tracked dcoh's drift better than either part."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    out = {}
    for (a, b), c in _PX.items():
        for (e, f), g in _PX.items():
            k = (a + e, b + f)
            out[k] = (out.get(k, 0) + c * g) % 7
    z = {}
    for (a,), c in _PQ.items():
        for (b,), d in _PQ.items():
            z[(a + b,)] = z.get((a + b,), 0) + c * d
    d, acc, p, one = {}, 0, _Pair(1, 1), _Pair(0, 1)
    f = Fraction(1, 3)
    for i in range(200):
        k = i & 15
        d[k] = d.get(k, 0) + (i * 7) % 13
        p = p.mul(one)
        acc += len((i, k, p.a))
        if i % 8 == 0:
            f = f * Fraction(i + 1, 7) + Fraction(1, i + 2)
    return s + acc + len(out) + len(z)


def sample() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def block(after_s: float) -> list:
    """Kernel times of one block: at least two calls, lasting at least
    MIN_BLOCK_S and BLOCK_SHARE of the query that came before."""
    want = max(MIN_BLOCK_S, BLOCK_SHARE * after_s)
    times = [sample(), sample()]
    spent = times[0] + times[1]
    while spent < want:
        times.append(sample())
        spent += times[-1]
    return times


def warm() -> None:
    for _ in range(WARM_CALLS):
        kernel()


def normalize(raw: list, blocks: list) -> list:
    """Scale raw[i] by the median kernel time of blocks i-WINDOW..i+WINDOW;
    blocks[i] was taken right after raw[i], blocks[i-1] right before."""
    out = []
    for i, dt in enumerate(raw):
        near = [t for b in blocks[max(0, i - WINDOW): i + WINDOW + 1] for t in b]
        out.append(dt * REF_KERNEL_S / statistics.median(near))
    return out
