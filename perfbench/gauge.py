"""A speed gauge: a fixed computation, timed while the program runs.

On a shared machine the same request can take up to 1.8 times as long from
one second or minute to the next, because other tenants take the CPU's
shared resources; CPU time rises with wall time, so it does not remove that.
The gauge measures the machine's speed at the moment, on work of the
program's own kind: interpreted float arithmetic, ``math`` calls, small
frozen dataclasses and a 4x4 elimination. It shares no code with the program,
so a change to the program never changes the gauge.

The benchmark reports times at the nominal speed: a measured time multiplied
by NOMINAL_S over the gauge's readings taken while it was measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter as clock

# The time of one reading at the speed the benchmark reports: about its
# median on a 2-core x86-64 VM, between its fast (0.34 ms) and slow (0.56 ms)
# states. A reading is short, so that it can run often inside a request.
NOMINAL_S = 0.45e-3
STEPS = 30


@dataclass(frozen=True)
class _Pair:
    even: float
    odd: float


def _det(rows: list[list[float]]) -> float:
    a = [list(r) for r in rows]
    det = 1.0
    for c in range(4):
        p = max(range(c, 4), key=lambda r: abs(a[r][c]))
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        pivot = a[c][c]
        det *= pivot
        for r in range(c + 1, 4):
            f = a[r][c] / pivot
            ar, ac = a[r], a[c]
            for k in range(c + 1, 4):
                ar[k] -= f * ac[k]
    return det


def _pair(mu: float, phi: float) -> _Pair:
    a = math.sqrt(abs(mu))
    if mu < 0.0:
        return _Pair(math.cos(a * phi), math.sin(a * phi) / a)
    return _Pair(math.cosh(a * phi), math.sinh(a * phi) / a)


def work() -> float:
    """Signs of a boundary-like determinant over a fixed grid of trial values."""
    total = 0.0
    for i in range(STEPS):
        k = 0.5037 + 0.0101 * i
        p2 = 2.0 + 0.3 * k
        disc = math.sqrt(p2 * p2 - 4.0 * (1.0 - k))
        mu1, mu2 = (-p2 - disc) / 2.0, (-p2 + disc) / 2.0
        rows = []
        for phi in (0.0, 1.3):
            u, v = _pair(mu1, phi), _pair(mu2, phi)
            rows.append([u.even, u.odd, v.even, v.odd])
            rows.append([mu1 * u.even, mu1 * u.odd, mu2 * v.even, mu2 * v.odd])
        total += math.copysign(1.0, _det(rows))
    return total


def reading() -> float:
    """Seconds one ``work`` takes now."""
    t = clock()
    work()
    return clock() - t
