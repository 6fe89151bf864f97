"""Reference answers the benchmark checks the program's output against.

The uncracked spectrum has a closed form. The cracked spectrum is checked by
an independent transfer-matrix shooting determinant, which shares no code
with the program's 8x8 boundary matrix: the two free initial states of the
left support are propagated with the matrix exponential of the ODE's
companion matrix, the crack adds theta_c * X'' to the slope at alpha, and the
simply supported conditions X = X'' = 0 at beta give a 2x2 determinant whose
sign changes at every simple eigenvalue.

scipy is imported here and nowhere else, so that the benchmark's measured
peak RSS does not include it; ``run.py`` refuses to start without it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# Half-width of the straddle window, relative to max(1, K). The solver refines
# to 1e-10 * max(1, K) and prints 9 significant digits (5e-9 relative), so a
# correct root always lies inside the window.
STRADDLE = 1e-8


def closed_form_K(n: int, beta: float, eta: float) -> float:
    """K_n = (lam^2 - 1)^2 / (1 + eta lam^2) with lam = n pi / beta."""
    lam2 = (n * math.pi / beta) ** 2
    return (lam2 - 1.0) ** 2 / (1.0 + eta * lam2)


def closed_form_spectrum(count: int, beta: float, eta: float) -> list[float]:
    """The ``count`` smallest uncracked eigenvalues, repeats included."""
    values = [closed_form_K(n, beta, eta) for n in range(1, 4 * count + 40)]
    return sorted(values)[:count]


def shooting_det(K: float, beta: float, eta: float, alpha: float, theta: float) -> float:
    """Row-scaled 2x2 boundary determinant of the cracked arch at trial K."""
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 2] = A[2, 3] = 1.0
    A[3, 0] = K - 1.0
    A[3, 2] = -(2.0 + K * eta)
    Y = expm(A * alpha)[:, [1, 3]]  # states started from X'(0) = 1 and X'''(0) = 1
    Y[1] += theta * Y[2]
    Y = expm(A * (beta - alpha)) @ Y
    M = Y[[0, 2]]
    M /= np.abs(M).max(axis=1, keepdims=True)
    return float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])


def straddle(K: float) -> float:
    """Half-width of the window around K in which a reported root must lie."""
    return STRADDLE * max(1.0, K)


def straddles(K: float, beta: float, eta: float, alpha: float, theta: float) -> bool:
    """True when the shooting determinant changes sign across K (1 +- STRADDLE)."""
    delta = straddle(K)
    lo = shooting_det(K - delta, beta, eta, alpha, theta)
    hi = shooting_det(K + delta, beta, eta, alpha, theta)
    return lo * hi < 0.0


def sign_changes(lo: float, hi: float, beta: float, eta: float, alpha: float, theta: float,
                 points: int) -> int:
    """Sign changes of the shooting determinant over ``points`` even steps from
    lo to hi: the number of roots in [lo, hi], up to an even number of roots
    closer together than one step. An odd count is always seen, so a single
    root left out between two reported ones never goes unnoticed."""
    dets = [shooting_det(lo + (hi - lo) * i / points, beta, eta, alpha, theta)
            for i in range(points + 1)]
    return sum(a * b < 0.0 for a, b in zip(dets, dets[1:]))
