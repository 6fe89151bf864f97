"""A small crack's shift of each mode, against its first-order closed form.

Implicit differentiation of the reduced characteristic function F at
theta_c = 0 gives each mode's shift exactly to first order. For a mode n of
wavenumber a = n*pi/beta (a = a1 for a rising mode, n*pi/beta > 1; a = a2
for a falling one, n*pi/beta < 1), at K = K_n with p2 = 2 + K*eta and
disc = p2^2 - 4*(1 - K):

    dK/dtheta_c = (1 - K)*sin^2(a*alpha) / (sqrt(disc)*beta*a*|da/dK|),
    da1/dK = (eta + (p2*eta + 2)/sqrt(disc)) / (4*a1),
    da2/dK = (eta - (p2*eta + 2)/sqrt(disc)) / (4*a2).

So a small crack moves a mode with the sign of 1 - K: modes below K = 1 rise
and modes above it fall, and a crack on a node of the mode (sin(a*alpha) = 0)
leaves it in place to first order.
"""

from __future__ import annotations

import math

import numpy as np

from arch_resonance import (
    ArchProblem,
    CrackJoint,
    SearchConfig,
    find_frequencies,
    uncracked_K_closed_form,
)

CFG = SearchConfig(max_modes=5, refine_tol=1e-13)
# Set before the run: the second-order term is about theta_c^2 (1e-8 at most
# here) times K's second derivative.
BOUND = 1e-6


def first_order_shift(n: int, beta: float, eta: float, alpha: float) -> tuple[float, float]:
    """(K_n, dK/dtheta_c at theta_c = 0) of mode n, a crack at ``alpha``."""
    k = uncracked_K_closed_form(n, beta, eta)
    a = n * math.pi / beta
    p2 = 2.0 + k * eta
    root = math.sqrt(p2 * p2 - 4.0 * (1.0 - k))
    rate = p2 * eta + 2.0
    da = (eta + rate / root if a > 1.0 else eta - rate / root) / (4.0 * a)
    return k, (1.0 - k) * math.sin(a * alpha) ** 2 / (root * beta * a * abs(da))


def _draws(count: int, seed: int):
    """Random small-crack problems whose uncracked spectrum starts above 1e-3."""
    rng = np.random.default_rng(seed)
    while count:
        beta = rng.uniform(0.5, 6.2)
        eta = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 4.0)
        alpha = beta * rng.uniform(0.1, 0.9)
        theta = 10.0 ** rng.uniform(-6.0, -4.0)
        # A K_n below k_min would enter the range as the crack moves it. The
        # smallest K_n is that of mode floor(beta/pi) or the next.
        lowest = min(uncracked_K_closed_form(n, beta, eta) for n in range(1, int(beta / math.pi) + 2))
        if lowest < 1e-3:
            continue
        count -= 1
        yield beta, eta, alpha, theta


def test_small_crack_shift_is_the_first_order_closed_form():
    signed = 0
    for beta, eta, alpha, theta in _draws(200, 21):
        cracked = find_frequencies(ArchProblem(beta, eta, CrackJoint(alpha, theta)), CFG).K_values
        # The modes by their uncracked order: the first five K_n above k_min.
        modes = sorted(
            (first_order_shift(n, beta, eta, alpha) for n in range(1, int(beta / math.pi) + 7)),
            key=lambda mode: mode[0],
        )[:5]
        for root, (kn, slope) in zip(cracked, modes):
            shift = theta * slope
            assert abs(root - (kn + shift)) <= BOUND * max(1.0, kn), (beta, eta, alpha, theta, kn)
            # The sign rule, where the shift stands well above the refinement's tolerance.
            if abs(shift) > 1e-9 * max(1.0, kn):
                assert (root - kn > 0.0) == (kn < 1.0), (beta, eta, alpha, theta, kn)
                signed += 1
    assert signed >= 0.9 * 200 * 5
