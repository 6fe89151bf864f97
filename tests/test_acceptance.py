"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time
from pathlib import Path

import numpy as np

from arch_resonance import (
    ArchProblem,
    ChiralityClass,
    CrackJoint,
    SearchConfig,
    SweepSpec,
    find_frequencies,
    mode_shape,
    resolve_preset,
    run_sweep,
    uncracked_K_closed_form,
)
from arch_resonance.cli import load_presets, main
from arch_resonance.kernel import det_sign_logmag_at
from conftest import assembled_signs, make_problem, random_arch_points, reference_log, rel_err

GOLDEN_DIR = Path(__file__).parent / "golden"

BETAS = (0.5, 1.0, 2.0, math.pi / 2)
ETAS = (0.0, 0.5, 1.0, 2.0)


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")


def test_criterion_1_closed_form_oracle_suite():
    # An uncracked spectrum is the closed form itself, so the root search is
    # checked on a crack of zero compliance, which has the same spectrum.
    start = time.perf_counter()
    worst = 0.0
    cfg = SearchConfig(max_modes=5)
    for beta in BETAS:
        for eta in ETAS:
            problem = make_problem(beta=beta, eta=eta, alpha=0.4 * beta, theta=0.0)
            spectrum = find_frequencies(problem, cfg)
            for n, root in enumerate(spectrum.roots, start=1):
                expected = uncracked_K_closed_form(n, beta, eta)
                worst = max(worst, rel_err(root.K, expected))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(1, "closed-form oracle suite", ok, f"worst rel {worst:.2e}, {elapsed:.2f} s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_2_classical_straight_limit():
    beta = 0.05
    spectrum = find_frequencies(make_problem(beta=beta), SearchConfig(max_modes=1))
    omega = math.sqrt(spectrum.roots[0].K) * beta**2
    expected = math.pi**2 - beta**2
    err_exact = rel_err(omega, expected)
    err_pi2 = abs(omega - math.pi**2) / math.pi**2
    reference_present = 9.75821  # reported comparison only; not asserted
    reported_gap = abs(omega - reference_present) / reference_present
    ok = err_exact < 1e-8 and err_pi2 < 3e-4
    _report(
        2,
        "classical straight limit",
        ok,
        f"Omega={omega:.7f}, vs pi^2-b^2 {err_exact:.2e}, "
        f"vs published 9.75821 {reported_gap:.2%} (reported)",
    )
    assert err_exact < 1e-8
    assert err_pi2 < 3e-4


def test_criterion_3_nonlocal_monotonicity():
    cfg = SearchConfig(max_modes=1)
    ok = True
    for crack in (None, CrackJoint(alpha=0.5, theta_c=1.0)):
        ks = []
        for eta in (0.0, 0.5, 1.0, 2.0, 4.0):
            problem = ArchProblem(beta=1.0, eta_nd=eta, crack=crack)
            ks.append(find_frequencies(problem, cfg).roots[0].K)
        ok = ok and all(b < a for a, b in zip(ks, ks[1:]))
    _report(3, "nonlocal monotonicity", ok)
    assert ok


def test_criterion_4_radius_monotonicity():
    armchair = resolve_preset(ChiralityClass.ARMCHAIR, load_presets())
    base = dict(
        parameter="radius",
        start=2e-9,
        stop=2e-8,
        steps=41,
        tubes={ChiralityClass.ARMCHAIR: armchair},
    )
    rows0 = run_sweep(SweepSpec(**base, eta_physical=0.0))
    products = [r.omega_rad_s * r.radius_m**2 for r in rows0]
    worst = max(rel_err(p, products[0]) for p in products[1:])

    rows1 = run_sweep(SweepSpec(**base, eta_physical=1e-18))
    omegas = [r.omega_rad_s for r in rows1]
    strictly_decreasing = all(b < a for a, b in zip(omegas, omegas[1:]))

    ok = worst < 1e-10 and strictly_decreasing
    _report(4, "radius monotonicity", ok, f"R^-2 worst rel {worst:.2e}")
    assert worst < 1e-10
    assert strictly_decreasing


def test_criterion_5_crack_reduction_and_symmetry():
    tight = SearchConfig(max_modes=3, refine_tol=1e-12)
    plain = find_frequencies(make_problem(eta=0.5), tight)
    closed = find_frequencies(make_problem(eta=0.5, alpha=0.4, theta=0.0), tight)
    reduction_err = max(
        rel_err(a, b) for a, b in zip(closed.K_values, plain.K_values)
    )

    left = find_frequencies(make_problem(eta=0.5, alpha=0.3, theta=0.7), tight)
    right = find_frequencies(make_problem(eta=0.5, alpha=0.7, theta=0.7), tight)
    symmetry_err = max(rel_err(a, b) for a, b in zip(left.K_values, right.K_values))

    cfg = SearchConfig(max_modes=1)
    ks = [
        find_frequencies(make_problem(alpha=0.5, theta=t), cfg).roots[0].K
        for t in (0.0, 0.1, 0.5, 1.0, 5.0)
    ]
    nonincreasing = all(b <= a for a, b in zip(ks, ks[1:]))

    ok = reduction_err < 1e-10 and symmetry_err < 1e-8 and nonincreasing
    _report(
        5,
        "crack reduction and symmetry",
        ok,
        f"reduction {reduction_err:.2e}, symmetry {symmetry_err:.2e}",
    )
    assert reduction_err < 1e-10
    assert symmetry_err < 1e-8
    assert nonincreasing


def test_criterion_6_determinant_oracle():
    # The reduced characteristic function against two oracles: its sign
    # against the cofactor determinant of the assembled 4x4 system (times
    # the fixed factor of each case), its log-magnitude against 60 digits
    # away from roots.
    worst = 0.0
    sign_mismatches = 0
    checked = 0
    for beta, eta, alpha, theta, ks in random_arch_points(20240815, 100):
        signs, logs = zip(*(det_sign_logmag_at(k, eta, beta, alpha, theta) for k in ks.tolist()))
        expected = assembled_signs(make_problem(beta, eta, alpha, theta), ks)
        sign_mismatches += sum(s != e for s, e in zip(signs, expected))
        for k, logmag in zip(ks, logs):
            reference = reference_log(k, eta, beta, alpha, theta)
            if reference is not None:
                checked += 1
                worst = max(worst, abs(logmag - reference))
    ok = sign_mismatches == 0 and worst < 1e-9 and checked >= 0.9 * 1600
    _report(6, "determinant oracle", ok, f"worst log gap {worst:.2e} over {checked} points")
    assert sign_mismatches == 0
    assert worst < 1e-9
    assert checked >= 0.9 * 1600


def test_criterion_7_mode_shapes():
    problem = make_problem()
    spectrum = find_frequencies(problem, SearchConfig(max_modes=1))
    shape = np.asarray(mode_shape(problem, spectrum.roots[0], samples=257))
    phi, x = shape[:, 0], shape[:, 1]
    reference = np.sin(math.pi * phi)
    reference /= np.abs(reference).max()
    sine_dev = float(np.abs(x - reference).max())
    boundary = max(abs(x[0]), abs(x[-1]))

    theta = 2.0
    cracked = make_problem(alpha=0.5, theta=theta)
    spec_c = find_frequencies(cracked, SearchConfig(max_modes=1))
    cs = np.asarray(mode_shape(cracked, spec_c.roots[0], samples=401))
    xc = cs[:, 1]
    h = cs[1, 0] - cs[0, 0]
    i_mid = 200  # phi = 0.5 with 401 samples over [0, 1]
    left_slope = (xc[i_mid - 1] - xc[i_mid - 3]) / (2 * h)
    right_slope = (xc[i_mid + 3] - xc[i_mid + 1]) / (2 * h)
    jump = abs(right_slope - left_slope)

    ok = sine_dev < 1e-8 and boundary <= 1e-9 and jump > 1e-3
    _report(
        7,
        "mode shapes",
        ok,
        f"sine dev {sine_dev:.2e}, boundary {boundary:.2e}, slope jump {jump:.3f}",
    )
    assert sine_dev < 1e-8
    assert boundary <= 1e-9
    assert jump > 1e-3


FIGURE_COMMANDS = {
    "fig3.csv": ["sweep", "--param", "beta"],
    "fig4.csv": ["sweep", "--param", "eta"],
    "fig5.csv": ["sweep", "--param", "radius"],
    "fig6.csv": ["sweep", "--param", "radius", "--chirality", "armchair"],
    "fig7.csv": ["sweep", "--param", "radius", "--chirality", "zigzag"],
    "sweep_beta_cracked.csv": ["sweep", "--param", "beta", "--chirality", "all",
                               "--crack-psi", "0.5", "--crack-alpha", "0.4"],
    "sweep_eta_cracked.csv": ["sweep", "--param", "eta", "--beta", "1",
                              "--crack-psi", "0.5", "--crack-alpha", "0.3"],
}


def test_criterion_8_figure_reproduction(tmp_path):
    ok = True
    details = []
    for name, command in FIGURE_COMMANDS.items():
        golden = GOLDEN_DIR / name
        assert golden.exists(), f"missing golden file {golden}"
        out = tmp_path / name
        start = time.perf_counter()
        code = main(command + ["--out", str(out)])
        elapsed = time.perf_counter() - start
        identical = out.read_bytes() == golden.read_bytes()
        ok = ok and code == 0 and elapsed < 30.0 and identical
        details.append(f"{name} {elapsed:.1f}s{'' if identical else ' DIFF'}")
        assert code == 0
        assert elapsed < 30.0, f"{name} took {elapsed:.1f} s"
        assert identical, f"{name} differs from golden"
    _report(8, "figure reproduction", ok, ", ".join(details))
