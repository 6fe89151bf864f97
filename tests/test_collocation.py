"""Every cracked eigenvalue, from a two-segment Chebyshev collocation.

The oracle discretizes the cracked pencil directly, X'''' + 2X'' + X =
K*(X - eta*X''), with N + 1 Chebyshev points on each segment [0, alpha] and
[alpha, beta] (Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ``cheb``).
Eight rows, four a segment, are replaced by the boundary and crack
conditions with zero in B: X = X'' = 0 at both supports; X, X'' and X'''
continuous at alpha; X'(alpha+) - X'(alpha-) = theta_c*X''(alpha). Each row
of the pencil is then scaled to unit max norm. ``scipy.linalg.eigvals(A, B)``
gives every eigenvalue with its multiplicity, so the oracle counts what a
scan of sign changes cannot see: a close pair or a double root reads as two.
It shares no code with the solver and is a counting oracle at low modes,
not a high-mode reference.
"""

import math

import numpy as np
import pytest

from arch_resonance import (
    ArchProblem,
    CrackJoint,
    PowerLawCompliance,
    SearchConfig,
    compliance,
    find_frequencies,
)

eigvals = pytest.importorskip("scipy.linalg").eigvals

# Chebyshev intervals per segment.
N = 24
# A collocation eigenvalue matches a solver root within ROOT_TOL * max(1, K).
ROOT_TOL = 1e-4


def _cheb(n):
    """Chebyshev points cos(j*pi/n), j = 0..n, on [-1, 1] and their differentiation matrix."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    return d - np.diag(d.sum(axis=1))


def collocation_eigenvalues(beta, eta, alpha, theta, n=N):
    """The finite eigenvalues of the collocated cracked pencil (complex)."""
    d, m = _cheb(n), n + 1
    a, b = np.zeros((2 * m, 2 * m)), np.zeros((2 * m, 2 * m))
    derivatives = []
    for s, length in enumerate((alpha, beta - alpha)):
        d1 = d * (2.0 / length)
        d2 = d1 @ d1
        block = slice(s * m, (s + 1) * m)
        a[block, block] = d2 @ d2 + 2.0 * d2 + np.eye(m)
        b[block, block] = np.eye(m) - eta * d2
        derivatives.append((np.eye(m), d1, d2, d2 @ d1))

    def row(segment, order, point):
        """Derivative ``order`` of X at ``point`` of a segment: 0 its right end, n its left."""
        r = np.zeros(2 * m)
        r[segment * m:(segment + 1) * m] = derivatives[segment][order][point]
        return r

    conditions = {
        n: row(0, 0, n), n - 1: row(0, 2, n),  # X = X'' = 0 at phi = 0
        m: row(1, 0, 0), m + 1: row(1, 2, 0),  # X = X'' = 0 at phi = beta
        0: row(1, 0, n) - row(0, 0, 0),  # X, X'' and X''' continuous at alpha
        1: row(1, 2, n) - row(0, 2, 0),
        m + n: row(1, 3, n) - row(0, 3, 0),
        m + n - 1: row(1, 1, n) - row(0, 1, 0) - theta * row(0, 2, 0),  # the slope jump
    }
    for i, r in conditions.items():
        a[i], b[i] = r, 0.0
    scale = np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1))
    w = eigvals(a / scale[:, None], b / scale[:, None])
    return w[np.isfinite(w)]


def _check(problem, modes):
    """The solver's roots against the real collocation eigenvalues in (k_min, 1.001 K_last]."""
    cfg = SearchConfig(max_modes=modes)
    ks = find_frequencies(problem, cfg).K_values
    crack = problem.crack
    w = collocation_eigenvalues(problem.beta, problem.eta_nd, crack.alpha, crack.theta_c)
    inside = w[(w.real > cfg.k_min) & (w.real <= 1.001 * ks[-1])]
    real = np.sort(inside[np.abs(inside.imag) <= 1e-6 * np.abs(inside.real)].real)
    assert len(inside) == len(real), inside  # no eigenvalue off the real axis there
    assert len(real) == len(ks), (problem, ks, real)
    for k, c in zip(ks, real.tolist()):
        assert abs(c - k) <= ROOT_TOL * max(1.0, k), (problem, ks, real)


def test_collocation_counts_match_the_solver():
    # 200 seeded low-mode problems: beta 0.3-2 pi, eta 0 or 0-4, alpha/beta
    # 0.1-0.9, theta_c 1e-3-1e2, one to five modes.
    rng = np.random.default_rng(2336)
    for _ in range(200):
        beta = rng.uniform(0.3, 2 * math.pi)
        eta = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 4.0)
        crack = CrackJoint(beta * rng.uniform(0.1, 0.9), 10.0 ** rng.uniform(-3.0, 2.0))
        _check(ArchProblem(beta, eta, crack), int(rng.integers(1, 6)))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: a crack of depth 1e-6 splits the double root K_1 = K_2 = 0.36"
    " within 1e-11, inside one grid interval, and the scan lists it once",
)
def test_the_known_miss_of_a_tiny_crack_at_a_double_root():
    # freq --beta 4.967294132898051 --eta 0 --crack-psi 1e-6 --crack-alpha 1.6557 --modes 3
    # prints 0.36, 6.76 and 29.16; the collocation holds two eigenvalues near 0.36.
    theta = compliance(PowerLawCompliance(), 1e-6)
    _check(ArchProblem(4.967294132898051, 0.0, CrackJoint(1.6557, theta)), 3)
