"""The cracked spectrum checked against an independent shooting determinant.

The oracle shares no code with the support-adapted 4x4 matching matrix: the
two free initial states of the left support are propagated with the matrix
exponential of the ODE's companion matrix, the crack adds theta_c * X'' to
the slope at alpha, and the simply supported conditions X = X'' = 0 at beta
give a 2x2 determinant whose sign changes at every simple eigenvalue.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arch_resonance import (
    ArchProblem,
    ChiralityClass,
    CrackJoint,
    PowerLawCompliance,
    SearchConfig,
    compliance,
    find_frequencies,
    resolve_preset,
)
from arch_resonance._record import replace
from arch_resonance.cli import load_presets
from arch_resonance.model import BETA_MIN

expm = pytest.importorskip("scipy.linalg").expm

GOLDEN_DIR = Path(__file__).parent / "golden"

# A reported root must lie within STRADDLE * max(1, K) of a sign change.
STRADDLE = 1e-8
# Even steps of the grid that must find no sign change between two roots.
GRID_STEPS = 64
# Substeps per segment, each followed by re-orthonormalizing the two states.
SUBSTEPS = 8


def shooting_det(K, beta, eta, alpha, theta):
    """Row-scaled 2x2 boundary determinant of the cracked arch at trial K.

    After each substep the two states are replaced by an orthonormal basis of
    their span (QR with R's diagonal made positive, which keeps the sign of
    the determinant). Without it both align with the growing exponential: at
    beta = 4.25, alpha = 0.4375 beta, theta = 10 the determinant read 0.0 and
    6.9e-18 on the two sides of the root K = 655.71. A K array gives an
    array of determinants, each evaluated on its own.
    """
    K = np.asarray(K, dtype=float)
    A = np.zeros(K.shape + (4, 4))
    A[..., 0, 1] = A[..., 1, 2] = A[..., 2, 3] = 1.0
    A[..., 3, 0] = K - 1.0
    A[..., 3, 2] = -(2.0 + K * eta)
    # States started from X'(0) = 1 and X'''(0) = 1.
    Y = np.broadcast_to(np.eye(4)[:, [1, 3]], K.shape + (4, 2))
    for length, jump in ((alpha, theta), (beta - alpha, 0.0)):
        step = expm(A * (length / SUBSTEPS))
        for _ in range(SUBSTEPS):
            Y, r = np.linalg.qr(step @ Y)
            Y = Y * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
        Y[..., 1, :] += jump * Y[..., 2, :]
    M = Y[..., [0, 2], :]
    M = M / np.abs(M).max(axis=-1, keepdims=True)
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def _sign_changes(values):
    return int(np.sum(np.asarray(values[:-1]) * np.asarray(values[1:]) < 0.0))


def _check_against_shooting(beta, eta, alpha, theta, modes):
    problem = ArchProblem(beta=beta, eta_nd=eta, crack=CrackJoint(alpha=alpha, theta_c=theta))
    cfg = SearchConfig(max_modes=modes)
    ks = find_frequencies(problem, cfg).K_values
    args = (beta, eta, alpha, theta)
    for k in ks:
        delta = STRADDLE * max(1.0, k)
        assert shooting_det(k - delta, *args) * shooting_det(k + delta, *args) < 0.0, k
    # No root left out below the first one or between two consecutive ones.
    ends = [cfg.k_min, *ks]
    for lo, hi in zip(ends, ends[1:]):
        grid = np.linspace(lo + STRADDLE * max(1.0, lo), hi - STRADDLE * max(1.0, hi), GRID_STEPS + 1)
        assert _sign_changes(shooting_det(grid, *args)) == 0, (lo, hi)


@settings(max_examples=25, deadline=None)
@given(
    beta=st.floats(0.3, 2 * np.pi),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    alpha_frac=st.floats(0.05, 0.95),
    log_theta=st.floats(-2.0, 2.0),
    modes=st.integers(1, 5),
)
def test_cracked_roots_match_shooting(beta, eta, alpha_frac, log_theta, modes):
    _check_against_shooting(beta, eta, alpha_frac * beta, 10.0**log_theta, modes)


def test_close_low_roots_of_a_stiff_crack():
    # Roots at K = 0.825 and 1.31 lie in the interval [0.80, 1.41] of a
    # 2000-point grid; without the guide nodes at K = 1 -+ 1e-6 their two sign
    # changes cancelled and the scan reported K = 9.83 as mode 1.
    _check_against_shooting(4.25, 0.0, 0.4375 * 4.25, 10.0, 2)


def test_close_low_roots_of_a_very_stiff_crack():
    # Found by test_cracked_roots_match_shooting: the shooting determinant
    # changes sign at K = 0.861 and 2.403, both inside the 2000-point grid's
    # interval [0.0093, 3.49] (a guide node, then the first uniform node past it);
    # without the guide nodes at K = 1 the scan reported K = 35.155 as mode 1.
    _check_against_shooting(3.0, 0.0, 0.875 * 3.0, 100.0, 2)


def test_close_low_roots_of_a_stiff_crack_at_a_quarter_span():
    # Found by test_cracked_roots_match_shooting: the shooting determinant
    # changes sign at K = 0.939 and 1.701, both inside the 2000-point grid's
    # interval [0.0378, 1.833] (a guide node, then the first uniform node past it);
    # without the guide nodes at K = 1 the scan reported K = 29.8124 as mode 1.
    _check_against_shooting(3.5, 0.0, 0.25 * 3.5, 100.0, 2)


def _golden_rows(name):
    """Solved rows of a cracked golden file as (beta, eta, alpha, theta, Ks).

    Each row's problem is rebuilt from its printed fields with the default
    power-law compliance, scaled by the preset tube's h/R (1 without a
    chirality, as the freq command has). The printed 9 digits keep beta and
    K within a few 1e-9 relative of the solve, inside the straddle.
    """
    with open(GOLDEN_DIR / name, newline="") as f:
        rows = list(csv.DictReader(f))
    if name == "freq_cracked.csv":
        # freq --beta 1.0 --eta 1.0 --crack-psi 0.5 --crack-alpha 0.4
        theta = compliance(PowerLawCompliance(), 0.5, (1.0, 1.0))
        return [(1.0, 1.0, 0.4, theta, [float(r["K"]) for r in rows])]
    presets = load_presets()
    solved = []
    for r in rows:
        if not r["K"]:
            assert r["note"] == "crack-outside" and float(r["alpha_rad"]) >= float(r["beta_rad"])
            continue
        assert r["mode"] == "1"
        tube = replace(
            resolve_preset(ChiralityClass(r["chirality"]), presets), radius=float(r["radius_m"])
        )
        theta = compliance(
            PowerLawCompliance(), float(r["psi"]), (tube.wall_thickness, tube.radius)
        )
        args = (float(r["beta_rad"]), float(r["eta_nd"]), float(r["alpha_rad"]), theta)
        solved.append((*args, [float(r["K"])]))
    return solved


@pytest.mark.parametrize(
    "name, solved",
    [("sweep_beta_cracked.csv", 156), ("sweep_eta_cracked.csv", 123), ("freq_cracked.csv", 1)],
)
def test_cracked_goldens_match_shooting(name, solved):
    # Every root of the cracked goldens straddles a sign change of the QR
    # shooting determinant, and none is left out below mode 1 or between
    # two consecutive modes.
    rows = _golden_rows(name)
    assert len(rows) == solved
    for beta, eta, alpha, theta, ks in rows:
        args = (beta, eta, alpha, theta)
        for k in ks:
            delta = STRADDLE * max(1.0, k)
            below, above = shooting_det([k - delta, k + delta], *args)
            assert below * above < 0.0, (args, k)
        ends = [SearchConfig().k_min, *ks]
        for lo, hi in zip(ends, ends[1:]):
            grid = np.linspace(
                lo + STRADDLE * max(1.0, lo), hi - STRADDLE * max(1.0, hi), GRID_STEPS + 1
            )
            assert _sign_changes(shooting_det(grid, *args)) == 0, (args, lo, hi)


def _shooting_det_mp(K, beta, eta, alpha, theta):
    """The unscaled 2x2 shooting determinant in 60-digit arithmetic.

    At the smallest central angle the roots reach K ~ 1e16, where the double
    precision expm of :func:`shooting_det` loses their sign.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        A = mp.zeros(4, 4)
        A[0, 1] = A[1, 2] = A[2, 3] = 1
        A[3, 0] = mp.mpf(K) - 1
        A[3, 2] = -(2 + mp.mpf(K) * eta)
        Y = mp.expm(A * alpha) * mp.matrix([[0, 0], [1, 0], [0, 0], [0, 1]])
        for j in range(2):
            Y[1, j] += theta * Y[2, j]
        Y = mp.expm(A * (beta - alpha)) * Y
        return Y[0, 0] * Y[2, 1] - Y[0, 1] * Y[2, 0]


def _check_straddles_mp(beta, eta, alpha, theta, modes=5):
    """Every reported root straddles a sign change of the 60-digit determinant."""
    args = (beta, eta, alpha, theta)
    problem = ArchProblem(beta=beta, eta_nd=eta, crack=CrackJoint(alpha, theta))
    for k in find_frequencies(problem, SearchConfig(max_modes=modes)).K_values:
        delta = STRADDLE * max(1.0, k)
        assert _shooting_det_mp(k - delta, *args) * _shooting_det_mp(k + delta, *args) < 0, k


@pytest.mark.parametrize(
    "eta, alpha_frac, theta", [(0.5, 1 / 3, 0.1), (0.0, 0.5, 1.0), (4.0, 0.1, 100.0)]
)
def test_cracked_roots_at_the_smallest_central_angle(eta, alpha_frac, theta):
    # At beta = 1e-4 the first and last cases report roots that are not.
    _check_straddles_mp(BETA_MIN, eta, alpha_frac * BETA_MIN, theta)


@pytest.mark.parametrize(
    "beta, eta, alpha_frac, theta",
    [
        (5e-3, 1.4786, 0.53794, 6523.9),
        (3e-3, 1.4786, 0.53794, 6523.9),
        (2e-3, 0.8515, 0.8279, 748.7),
        (1e-3, 0.6603, 0.1126, 17538.0),
    ],
)
def test_stiff_cracks_at_small_central_angles(beta, eta, alpha_frac, theta):
    # Evaluated as a row-equilibrated 4x4 LU, the determinant lost its sign
    # near 9 of these 20 roots, and they straddled no sign change.
    _check_straddles_mp(beta, eta, alpha_frac * beta, theta)


@settings(max_examples=10, deadline=None)
@given(
    log_beta=st.floats(np.log10(BETA_MIN), np.log10(0.3)),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    alpha_frac=st.floats(0.05, 0.95),
    log_theta=st.floats(-2.0, 4.0),
    modes=st.integers(1, 5),
)
def test_small_angle_roots_straddle_shooting(log_beta, eta, alpha_frac, log_theta, modes):
    # The double-precision shooting_det loses its sign at these K (up to
    # about 1e16), so the check is the 60-digit one.
    beta = 10.0**log_beta
    _check_straddles_mp(beta, eta, alpha_frac * beta, 10.0**log_theta, modes)
