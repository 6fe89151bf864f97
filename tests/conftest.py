"""Shared helpers: determinant oracles and problem builders.

Hypothesis draws at random unless ``HYPOTHESIS_PROFILE=ci`` selects the
``ci`` profile, whose draws are fixed per test, so that CI's test count does
not depend on which examples a run happens to draw.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import settings

from arch_resonance import kernel
from arch_resonance.model import BETA_MIN, ArchProblem, CrackJoint

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def cofactor_det(m) -> float:
    """Determinant by first-row cofactor expansion; independent of the kernel."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    sign = 1.0
    for j in range(n):
        if m[0][j] != 0.0:
            minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
            total += sign * m[0][j] * cofactor_det(minor)
        sign = -sign
    return total


def reduced_det_mp(K, eta, beta, alpha, theta, dps=60):
    """The reduced characteristic function of ``kernel.det_sign_logmag_at`` in mpmath.

    The same scaling (tanh(a2*x)/a2 for a hyperbolic pair) evaluated at
    ``dps`` digits from the exact roots of mu^2 + p2*mu + p0, with the
    divided difference taken as a mu-derivative where they coincide (K = 0).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        K, eta, beta = mp.mpf(K), mp.mpf(eta), mp.mpf(beta)
        p2, p0 = 2 + K * eta, 1 - K
        root = mp.sqrt(p2 * p2 - 4 * p0)
        mu1, mu2 = -(p2 + root) / 2, (root - p2) / 2

        def odd(mu, x):
            if mu > 0:
                return mp.tanh(mp.sqrt(mu) * x) / mp.sqrt(mu)
            return x if mu == 0 else mp.sin(mp.sqrt(-mu) * x) / mp.sqrt(-mu)

        alpha = mp.mpf(alpha)
        gamma = beta - alpha

        def s(mu):
            return odd(mu, alpha) + odd(mu, gamma) if mu > 0 else odd(mu, beta)

        def a(mu):
            return odd(mu, alpha) * odd(mu, gamma)

        if mu1 == mu2:
            dd = mp.diff(s, mu1) * a(mu1) - s(mu1) * mp.diff(a, mu1)
        else:
            dd = (s(mu1) * a(mu2) - s(mu2) * a(mu1)) / (mu1 - mu2)
        return s(mu1) * s(mu2) + theta * mu1 * mu2 * dd


def reference_log(K, eta, beta, alpha, theta):
    """60-digit log|F| of :func:`reduced_det_mp`, or None near a root.

    Near a root means |d log|F| / d log K| > 1e6 (K below 1 counts as 1):
    there, rounding K or the roots mu by 1e-16 moves log|F| by more than
    1e-10, so a double-precision evaluation cannot be held to 1e-9.
    """
    mp = pytest.importorskip("mpmath")
    step = 1e-20 * max(1.0, K)
    with mp.workdps(60):
        f = reduced_det_mp(K, eta, beta, alpha, theta)
        shifted = reduced_det_mp(mp.mpf(K) + step, eta, beta, alpha, theta)
        slope = abs(shifted / f - 1) * max(1.0, K) / step
        return None if slope > 1e6 else float(mp.log(abs(f)))


def random_arch_points(seed: int, count: int):
    """Random (beta, eta, alpha, theta, K array) tuples for determinant checks.

    Central angles are log-uniform down to ``model.BETA_MIN``; 40% of the
    problems have eta = 0 and 40% no crack, given as the crack of zero
    compliance at beta/2 (theta 0), which has the uncracked arch's function.
    Each K array holds K = 0 (the repeated root), K = 1 (mu2 = 0),
    both sides of the K = 1 branch switch, and twelve log-uniform values
    from 1e-8 to 1e10, where the hyperbolic argument a2*beta reaches the
    thousands at eta = 0.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        beta = float(10 ** rng.uniform(math.log10(BETA_MIN), math.log10(2 * math.pi)))
        eta = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.0, 4.0))
        cracked = rng.random() < 0.6
        alpha = float(rng.uniform(0.05, 0.95) * beta) if cracked else 0.5 * beta
        theta = float(10 ** rng.uniform(-3.0, 4.0)) if cracked else 0.0
        special = [0.0, 1.0, 1.0 - 1e-9, 1.0 + 1e-9]
        ks = np.concatenate([special, 10 ** rng.uniform(-8.0, 10.0, 12)])
        yield beta, eta, alpha, theta, ks


def matching_matrix(problem: ArchProblem, K: float) -> list:
    """The 4x4 support-adapted matching matrix of a cracked problem at one K: 4 rows of floats."""
    basis = kernel.quartic_roots(K, problem.eta_nd)
    return kernel.assemble_cracked(basis, problem.beta, problem.crack.alpha, problem.crack.theta_c)


def assembled_signs(problem: ArchProblem, ks) -> list[int]:
    """Signs the 4x4 boundary systems at ``ks`` give ``det_sign_logmag_at``.

    Cofactor-determinant signs of :func:`matching_matrix`, whose matrix (that
    of an uncracked arch as the crack of zero compliance too) has the sign of
    the reduced function.
    """
    return [
        (d > 0) - (d < 0)
        for d in (cofactor_det(matching_matrix(problem, float(k))) for k in ks)
    ]


def reduced_det(problem: ArchProblem, K: float) -> tuple[int, float]:
    """(sign, log|F|) of a cracked problem's reduced characteristic function at one K."""
    crack, eta, beta = problem.crack, problem.eta_nd, problem.beta
    return kernel.det_sign_logmag_at(float(K), eta, beta, crack.alpha, crack.theta_c)


def make_problem(
    beta: float = 1.0,
    eta: float = 0.0,
    alpha: float | None = None,
    theta: float | None = None,
) -> ArchProblem:
    crack = None
    if alpha is not None:
        crack = CrackJoint(alpha=alpha, theta_c=theta if theta is not None else 0.0)
    return ArchProblem(beta=beta, eta_nd=eta, crack=crack)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


PI = math.pi
