import math
import random
import warnings

import numpy as np
import pytest

from arch_resonance import DoubleRoot, uncracked_K_closed_form
from arch_resonance.kernel import (
    PIVOT_ZERO_TOL,
    _lam2_roots_at,
    assemble_cracked,
    det_sign_logmag_at,
    null_vector,
    quartic_roots,
)
from conftest import (
    assembled_signs,
    cofactor_det,
    make_problem,
    matching_matrix,
    random_arch_points,
    reduced_det_mp,
    reference_log,
)

BETAS = (0.5, 1.0, 2.0, math.pi / 2)
ETAS = (0.0, 0.5, 1.0, 2.0)


def _matrix_signs(stack) -> list[int]:
    """Cofactor-determinant signs of a stack of matrices."""
    return [int(np.sign(cofactor_det(m))) for m in stack]


def _signs(ks, eta, beta, alpha, theta) -> list[int]:
    """Signs of the reduced characteristic function at each K of ``ks``."""
    return [det_sign_logmag_at(float(k), eta, beta, alpha, theta)[0] for k in ks]


def _changes(signs) -> list[int]:
    """Indices i where the sign changes between entries i and i + 1."""
    return [i for i in range(len(signs) - 1) if signs[i] * signs[i + 1] < 0]


def _midpoint(kn: float) -> float:
    """Midpoint of the two guide nodes the solver places around K_n."""
    return 0.5 * (kn * (1.0 - 1e-6) + kn * (1.0 + 1e-6))


def _coefficients(basis) -> tuple[float, float]:
    """(p2, p0) of the bi-quadratic, from its lam^2 roots by Vieta."""
    return -(basis.mu1 + basis.mu2), basis.mu1 * basis.mu2


class TestCharacteristicCoefficients:
    """p2 = 2 + K*eta and p0 = 1 - K, as the roots of quartic_roots carry them."""

    def test_static_case(self):
        assert _coefficients(quartic_roots(0.0, 0.0)) == (2.0, 1.0)

    def test_arithmetic(self):
        assert _coefficients(quartic_roots(5.0, 0.2)) == pytest.approx((3.0, -4.0), rel=1e-14)

    def test_branch_boundary(self):
        assert _coefficients(quartic_roots(1.0, 1.0)) == (3.0, 0.0)


class TestQuarticRoots:
    @pytest.mark.parametrize("K, eta", [(1e200, 1.0), (1.5e154, 1.0), (1e300, 1e10), (1e160, 1e-3)])
    def test_overflowing_square_is_no_repeated_root(self, K, eta):
        # Where p2^2 overflows, so does the discriminant: inf <= 1e-10 * inf
        # once called the pair repeated, at a finite -p2/2. The roots are
        # distinct, and mu1 is beyond the float range.
        p2 = 2.0 + K * eta
        assert p2 * p2 == math.inf
        basis = quartic_roots(K, eta)
        assert not basis.repeated and basis.mu1 == -math.inf

    def test_largest_finite_square_keeps_its_roots(self):
        # Just below the overflow the pair is distinct and finite: mu1 ~ -p2
        # and mu2 = p0/mu1 ~ 1 at eta = 1.
        basis = quartic_roots(1.3e154, 1.0)
        assert not basis.repeated
        assert basis.mu1 == pytest.approx(-1.3e154, rel=1e-15)
        assert basis.mu2 == pytest.approx(1.0, rel=1e-15)

    def test_trig_plus_hyperbolic(self):
        # lam^2 roots of lam^4 + 3 lam^2 - 4: (-3 +- 5)/2 -> -4 and 1.
        basis = quartic_roots(5.0, 0.2)
        assert not basis.repeated
        assert basis.mu1 == pytest.approx(-4.0, rel=1e-14)
        assert basis.mu2 == pytest.approx(1.0, rel=1e-14)

    def test_repeated_root(self):
        basis = quartic_roots(0.0, 0.0)
        assert basis.repeated
        assert basis.mu1 == basis.mu2 == -1.0

    def test_zero_root(self):
        # lam^2 (lam^2 + 3) = 0.
        basis = quartic_roots(1.0, 1.0)
        assert not basis.repeated
        assert basis.mu1 == -3.0
        assert basis.mu2 == 0.0

    def test_zero_root_window_scales_with_p2(self):
        # At K*eta ~ 6e9 the hyperbolic root is about -p0/p2 = 0.31; a window
        # of 1e-10*p2^2 in p0 snapped it to 0 and dropped the crack term.
        basis = quartic_roots(1792313584.2251546, 3.2353752361386796)
        assert basis.mu2 == pytest.approx(0.30908315915693641, rel=1e-12)
        near = quartic_roots(1.0 + 1e-11, 1.0)
        assert near.mu2 == 0.0

    def test_two_trig(self):
        basis = quartic_roots(0.5, 0.0)
        assert not basis.repeated
        assert basis.mu1 < basis.mu2 < 0

    def test_discriminant_nonnegative_over_domain(self):
        rng = random.Random(7)
        for _ in range(2000):
            K = rng.uniform(0.0, 500.0)
            eta = rng.uniform(0.0, 4.0)
            p2, p0 = 2.0 + K * eta, 1.0 - K
            assert p2 * p2 - 4.0 * p0 >= 0.0
            basis = quartic_roots(K, eta)
            assert basis.mu1 <= basis.mu2

    def test_basis_holds_floats(self):
        # The matching path takes one K, whose basis holds Python floats.
        basis = quartic_roots(np.float64(5.0), 0.2)
        assert type(basis.mu1) is type(basis.mu2) is float and type(basis.repeated) is bool

    def test_branch_of_each_k(self):
        bases = [quartic_roots(k, 0.0) for k in (0.0, 0.5, 1.0, 5.0)]
        # Repeated, two trigonometric, zero root, trigonometric plus hyperbolic.
        assert [b.repeated for b in bases] == [True, False, False, False]
        assert [b.mu1 for b in bases] == pytest.approx(
            [-1.0, -1.0 - math.sqrt(0.5), -2.0, -1.0 - math.sqrt(5.0)], rel=1e-14
        )
        assert bases[0].mu2 == -1.0 and -1.0 < bases[1].mu2 < 0.0
        assert bases[2].mu2 == 0.0 and bases[3].mu2 > 0.0

    def test_zero_root_functions(self):
        # mu1 = -3, mu2 = 0: o(mu1, x) and the divided difference (x - o(mu1, x))/3.
        basis = quartic_roots(1.0, 1.0)
        (row0,), = basis.support_rows([0.7], 1.3, nrows=1)
        a = math.sqrt(3.0)
        o1 = math.sin(a * 0.7) / a
        assert row0[0] == pytest.approx(o1, rel=1e-14)
        assert row0[1] == pytest.approx((0.7 - o1) / 3.0, rel=1e-13)


def _odd_rows(mu: float, x: float) -> list[float]:
    """Derivatives 0..3 of o(mu, x) in closed form, independent of the kernel."""
    if mu == 0.0:
        return [x, 1.0, 0.0, 0.0]
    a = math.sqrt(abs(mu))
    o, e = (math.sinh(a * x), math.cosh(a * x)) if mu > 0 else (math.sin(a * x), math.cos(a * x))
    return [o / a, e, mu * o / a, mu * e]


# Five-point central difference: f'(x) ~ sum(w * f(x + k*h)) / h.
_FD_STEPS = (-2, -1, 1, 2)
_FD_WEIGHTS = (1.0 / 12.0, -2.0 / 3.0, 2.0 / 3.0, -1.0 / 12.0)


def _residual(basis, p2, p0, x, ref):
    """Worst relative defect of the two support-adapted columns at x.

    Each derivative row is checked against the five-point difference of the
    row before it, and the governing equation with the fourth derivative
    taken as the difference of the third-derivative row. With a the largest
    wavenumber, a defect in derivative n is measured against a**n times the
    column's size, the largest |row m| / a**m: near a support some rows
    vanish, and so do their differences, to rounding.
    """
    a = max(1.0, math.sqrt(-basis.mu1))
    h = 1e-3 / a
    # Rows (derivative, column) at x, then at each step of the difference.
    rows, *shifted = np.asarray(basis.support_rows([x, *(x + k * h for k in _FD_STEPS)], ref)).swapaxes(0, 1)
    diff = sum(w * r for r, w in zip(shifted, _FD_WEIGHTS)) / h
    worst = 0.0
    for j in range(2):
        size = max(abs(rows[m][j]) / a**m for m in range(4))
        for k in range(3):
            worst = max(worst, abs(diff[k][j] - rows[k + 1][j]) / (a ** (k + 1) * size))
        ode = diff[3][j] + p2 * rows[2][j] + p0 * rows[0][j]
        worst = max(worst, abs(ode) / (a**4 * size))
    return worst


class TestBasisProperties:
    def test_residual_random_sample(self):
        # Every support-adapted column solves the governing equation
        # pointwise, and its rows are its successive derivatives.
        rng = random.Random(20240814)
        beta = 2.0
        for _ in range(1000):
            K = rng.uniform(0.0, 500.0)
            eta = rng.uniform(0.0, 4.0)
            x = rng.uniform(0.0, beta)
            basis = quartic_roots(K, eta)
            assert _residual(basis, 2.0 + K * eta, 1.0 - K, x, beta) <= 1e-8

    def test_residual_tight_on_grid(self):
        for K, eta in ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0), (40.0, 0.3), (400.0, 2.0)):
            basis = quartic_roots(K, eta)
            for i in range(21):
                assert _residual(basis, 2.0 + K * eta, 1.0 - K, 1.5 * i / 20, 1.5) <= 1e-9

    def test_linear_independence(self):
        # The Wronskian of the two columns at a generic distance from the
        # support is far from singular for each branch.
        for K, eta in ((0.5, 0.0), (5.0, 0.2), (1.0, 1.0), (0.0, 0.0)):
            basis = quartic_roots(K, eta)
            rows = np.asarray(basis.support_rows([0.6], 1.0, nrows=2))[:, 0]
            scale = np.prod(np.abs(rows).max(axis=0))
            assert abs(cofactor_det(rows.tolist())) > 1e-6 * scale

    def test_branch_continuity_at_unity(self):
        # Determinant value is continuous through the K = 1 branch switch.
        beta, eta = 1.3, 0.7

        def value(K):
            sign, logmag = det_sign_logmag_at(K, eta, beta, 0.5 * beta, 0.0)
            return sign * math.exp(logmag)

        gaps = []
        for eps in (1e-4, 1e-6, 1e-8):
            gaps.append(abs(value(1.0 + eps) - value(1.0 - eps)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-6 * abs(value(1.0))

    def test_hyperbolic_entries_stay_finite(self):
        # Wavenumber times angle up to 50: soft rescaling keeps entries finite.
        beta = 2.0
        target = 25.0  # hyperbolic wavenumber; a * beta = 50
        K = (target**2 + 1.0) ** 2  # eta = 0: mu2 = sqrt(K) - 1
        basis = quartic_roots(K, 0.0)
        assert basis.mu2 == pytest.approx(target**2, rel=1e-12)
        for alpha, theta in ((0.5 * beta, 0.0), (0.7, 10.0)):
            matrix = matching_matrix(make_problem(beta, 0.0, alpha, theta), K)
            assert np.isfinite(matrix).all()
        for alpha, theta in ((0.5 * beta, 0.0), (0.7, 10.0)):
            sign, logmag = det_sign_logmag_at(K, 0.0, beta, alpha, theta)
            assert sign != 0 and math.isfinite(logmag)


class TestClosedForm:
    def test_reference_values(self):
        assert uncracked_K_closed_form(1, 1.0, 0.0) == pytest.approx(
            78.6698822318237, rel=1e-14
        )
        assert uncracked_K_closed_form(1, 1.0, 1.0) == pytest.approx(
            7.237603074490859, rel=1e-14
        )

    def test_inextensional_zero(self):
        # lam = 1 zero of the numerator, any eta.
        assert uncracked_K_closed_form(1, math.pi, 0.0) == 0.0
        assert uncracked_K_closed_form(1, math.pi, 3.7) == 0.0

    def test_nonnegative(self):
        for n in range(1, 8):
            for beta in BETAS:
                for eta in ETAS:
                    assert uncracked_K_closed_form(n, beta, eta) >= 0.0


class TestAssembleUncracked:
    """The matching matrix of an uncracked arch as the crack of zero compliance at beta/2."""

    def test_row_patterns(self):
        # Both segments have length beta/2, so the rows of X and X'' are
        # antisymmetric and those of the third derivative and the slope jump
        # symmetric, bit for bit.
        m = np.array(matching_matrix(make_problem(beta=1.0, eta=0.2, alpha=0.5, theta=0.0), 5.0))
        assert m.shape == (4, 4)
        assert np.array_equal(m[:2, 2:], -m[:2, :2])
        assert np.array_equal(m[2:, 2:], m[2:, :2])
        # mu1 = -4, mu2 = 1, crack at 0.5: the X row is [o(mu1), o(mu2)/cosh]
        # and the X'' row mu times it.
        assert m[0, :2] == pytest.approx((math.sin(1.0) / 2.0, math.tanh(0.5)), rel=1e-14)
        assert m[1, :2] == pytest.approx((-2.0 * math.sin(1.0), math.tanh(0.5)), rel=1e-14)

    def test_determinant_vanishes_at_closed_form(self):
        # Sign change bracketed within K_n * (1 +- 1e-6) for the whole grid.
        for beta in BETAS:
            for eta in ETAS:
                for n in range(1, 6):
                    kn = uncracked_K_closed_form(n, beta, eta)

                    def sgn(K):
                        return det_sign_logmag_at(K, eta, beta, 0.5 * beta, 0.0)[0]

                    assert sgn(kn * (1 - 1e-6)) * sgn(kn * (1 + 1e-6)) == -1

    def test_near_zero_normalized_determinant_at_root(self):
        kn = uncracked_K_closed_form(2, 1.0, 0.5)
        matrix = matching_matrix(make_problem(beta=1.0, eta=0.5, alpha=0.5, theta=0.0), kn)
        logmag = math.log(abs(cofactor_det(matrix)))
        log_row_scales = sum(math.log(max(abs(x) for x in row)) for row in matrix)
        # Normalized determinant magnitude <= 1e-8.
        assert logmag - log_row_scales < math.log(1e-8)


class TestAssembleCracked:
    def test_zero_compliance_matches_uncracked_sign_pattern(self):
        beta, eta, alpha = 1.0, 0.3, 0.37
        ks = [1.0 + i * (2000.0 - 1.0) / 120 for i in range(121)]

        # The uncracked matrix is the crack of zero compliance at beta/2.
        uncracked = make_problem(beta, eta, 0.5 * beta, 0.0)
        plain = _matrix_signs(matching_matrix(uncracked, k) for k in ks)
        bases = [quartic_roots(k, eta) for k in ks]
        cracked = _matrix_signs(assemble_cracked(b, beta, alpha, 0.0) for b in bases)
        assert _changes(plain) == _changes(cracked)
        # The reduced function changes sign where the matrices do.
        for at in (0.5 * beta, alpha):
            assert _changes(_signs(ks, eta, beta, at, 0.0)) == _changes(plain)

    def test_mirrored_crack_same_zero_set(self):
        beta, eta, theta = 1.0, 0.0, 0.8
        ks = [1.0 + i * (2000.0 - 1.0) / 160 for i in range(161)]

        bases = [quartic_roots(k, eta) for k in ks]
        changes = [
            _changes(_matrix_signs(assemble_cracked(b, beta, alpha, theta) for b in bases))
            for alpha in (0.3, 0.7)
        ]
        assert changes[0] == changes[1]
        for alpha in (0.3, 0.7):
            reduced = _signs(ks, eta, beta, alpha, theta)
            assert _changes(reduced) == changes[0]

    def test_one_matrix_per_k(self):
        # 4 rows of 4 floats, in every branch of mu2.
        for problem in (make_problem(2.0, 0.3, 1.0, 0.0), make_problem(2.0, 0.3, 0.8, 0.5)):
            for k in (0.0, 0.5, 1.0, 7.0, 5.0e4):
                rows = matching_matrix(problem, k)
                assert len(rows) == 4
                assert all(len(row) == 4 and all(type(v) is float for v in row) for row in rows)


class TestSupportRows:
    @pytest.mark.parametrize("K, eta", [(0.5, 0.0), (1.0, 1.0), (5.0, 0.2), (40.0, 0.3)])
    def test_columns_are_scaled_odd_functions(self, K, eta):
        # Against o(mu1) and o(mu2) and their derivatives in closed form.
        x, ref = 0.3, 0.8
        basis = quartic_roots(K, eta)
        o1, o2 = np.array(_odd_rows(basis.mu1, x)), np.array(_odd_rows(basis.mu2, x))
        if basis.mu2 > 0:
            second = o2 / math.cosh(math.sqrt(basis.mu2) * ref)
        else:
            second = (o2 - o1) / (basis.mu2 - basis.mu1)
        rows = np.asarray(basis.support_rows([x], ref))
        assert rows.shape == (4, 1, 2)
        rows = rows[:, 0]
        assert rows[:, 0] == pytest.approx(o1, rel=1e-13, abs=1e-15)
        assert rows[:, 1] == pytest.approx(second, rel=1e-12, abs=1e-15)

    def test_supports_hold_exactly(self):
        for k in (0.0, 1e-8, 0.5, 1.0, 5.0, 400.0, 1e6):
            rows = np.asarray(quartic_roots(k, 0.7).support_rows([0.0], 1.3, nrows=3))[:, 0]
            assert rows.shape == (3, 2)
            assert np.all(rows[0] == 0.0) and np.all(rows[2] == 0.0)

    def test_hyperbolic_column_at_the_crack(self):
        # a2 * ref from 1e-4 to about 34: entries tanh(a2*ref)/a2 and 1.
        for k in (1.0 + 1e-8, 2.0, 50.0, 1e5):
            basis = quartic_roots(k, 0.0)
            a2 = math.sqrt(basis.mu2)
            rows = np.asarray(basis.support_rows([1.9], 1.9))[:, 0]
            assert np.all(np.isfinite(rows))
            assert rows[0, 1] == pytest.approx(math.tanh(a2 * 1.9) / a2, rel=1e-14)
            assert rows[1, 1] == pytest.approx(1.0, rel=1e-15)

    def test_repeated_root_column_is_the_limit(self):
        # At K = 0 the divided difference is replaced by d o/d mu. Outside
        # the degeneracy window the rows approach it in step with mu2 - mu1,
        # with no loss to cancellation down to the window's edge.
        at = quartic_roots(0.0, 0.5)
        assert at.repeated
        limit = np.asarray(at.support_rows([1.7], 2.0))
        for K in (1e-6, 1e-8, 1e-10):
            near = quartic_roots(K, 0.5)
            assert not near.repeated
            gap = np.abs(np.asarray(near.support_rows([1.7], 2.0)) - limit).max() / np.abs(limit).max()
            assert gap <= near.mu2 - near.mu1

    @pytest.mark.parametrize("beta, alpha", [(0.5, 0.2), (2.0, 1.4), (6.0, 3.0)])
    def test_cracked_sign_nonzero_at_repeated_root(self, beta, alpha):
        basis = quartic_roots(0.0, 0.3)
        for theta in (0.0, 1.0, 1e3):
            matrix = assemble_cracked(basis, beta, alpha, theta)
            assert cofactor_det(matrix) != 0.0
            assert det_sign_logmag_at(0.0, 0.3, beta, alpha, theta)[0] != 0


class TestDeterminant:
    def test_identity(self):
        # Uncracked, the crack of zero compliance at beta/2: F =
        # o(mu1, beta)*o(mu2, beta) with the hyperbolic pair divided by
        # cosh(a2*beta/2)^2, which is 2*tanh(a2*beta/2)/a2; the crack at
        # another angle only rescales the second factor by a positive amount.
        for K, eta, beta in ((0.5, 0.0, 1.3), (0.3, 2.0, 4.0), (5.0, 0.2, 1.0), (400.0, 1.0, 2.0)):
            basis = quartic_roots(K, eta)
            a1, a2 = math.sqrt(-basis.mu1), math.sqrt(abs(basis.mu2))
            second = 2.0 * math.tanh(0.5 * a2 * beta) if basis.mu2 > 0 else math.sin(a2 * beta)
            expected = math.sin(a1 * beta) / a1 * second / a2
            sign, logmag = det_sign_logmag_at(K, eta, beta, 0.5 * beta, 0.0)
            assert sign == (1 if expected > 0 else -1)
            assert logmag == pytest.approx(math.log(abs(expected)), abs=1e-12)
            assert det_sign_logmag_at(K, eta, beta, 0.4 * beta, 0.0)[0] == sign

    def test_crack_term_vanishes_at_mu2_zero(self):
        # At K = 1 the root mu2 is 0, the reduced 2x2 is triangular, and F is
        # o(mu1, beta)*beta whatever the crack.
        for eta, beta, alpha in ((0.0, 1.0, 0.3), (1.0, 2.5, 2.0)):
            assert quartic_roots(1.0, eta).mu2 == 0.0
            a1 = math.sqrt(2.0 + eta)
            plain = det_sign_logmag_at(1.0, eta, beta, 0.5 * beta, 0.0)
            expected = math.log(abs(math.sin(a1 * beta) / a1 * beta))
            assert plain[1] == pytest.approx(expected, abs=1e-14)
            for theta in (0.0, 1.0, 1e4):
                assert det_sign_logmag_at(1.0, eta, beta, alpha, theta) == plain

    def test_singular(self):
        # The solver's guide midpoint of each closed-form root reads sign 0
        # behind a crack of zero compliance, at beta/2 (uncracked) or not.
        for beta in BETAS:
            for eta in ETAS:
                for n in (1, 2, 3):
                    mid = _midpoint(uncracked_K_closed_form(n, beta, eta))
                    assert det_sign_logmag_at(mid, eta, beta, 0.5 * beta, 0.0)[0] == 0
                    assert det_sign_logmag_at(mid, eta, beta, 0.37 * beta, 0.0)[0] == 0

    def test_constructed_singular_matrices_have_sign_zero(self):
        # Guide midpoints of closed-form roots, where the boundary system is
        # singular, read 0 behind a crack of zero compliance; the K values
        # between them do not.
        beta, eta = 2.0, 0.3
        roots = [_midpoint(uncracked_K_closed_form(n, beta, eta)) for n in (1, 2, 3, 4)]
        others = [0.0, 1.0, 1e6, 0.5 * sum(roots[:2])]
        for alpha in (0.5 * beta, 0.8):
            assert _signs(roots, eta, beta, alpha, 0.0) == [0, 0, 0, 0]
            assert 0 not in _signs(others, eta, beta, alpha, 0.0)

    def test_zero_sign_rule(self):
        # Two trigonometric pairs (K < 1): sign 0 exactly where
        # |sin(a1*beta)*sin(a2*beta)| <= PIVOT_ZERO_TOL.
        beta, eta = 5.0, 0.0
        kn = uncracked_K_closed_form(1, beta, eta)
        ks = kn * (1.0 + np.array([0.0, 1e-15, -1e-15, 1e-11, -1e-11, 1e-6]))
        signs = np.array(_signs(ks, eta, beta, 0.5 * beta, 0.0))
        bases = [quartic_roots(float(k), eta) for k in ks]
        mu1, mu2 = (np.array([getattr(b, name) for b in bases]) for name in ("mu1", "mu2"))
        assert np.all(mu2 < 0.0)
        product = np.sin(np.sqrt(-mu1) * beta) * np.sin(np.sqrt(-mu2) * beta)
        assert (signs == 0).tolist() == (np.abs(product) <= PIVOT_ZERO_TOL).tolist()
        assert signs.tolist()[:3] == [0, 0, 0] and 0 not in signs.tolist()[3:]

    def test_against_cofactor_oracle(self):
        # Signs against the assembled 4x4 systems, log-magnitudes against 60
        # digits away from roots.
        checked = 0
        for beta, eta, alpha, theta, ks in random_arch_points(42, 40):
            signs, logs = zip(*(det_sign_logmag_at(k, eta, beta, alpha, theta) for k in ks.tolist()))
            assert list(signs) == assembled_signs(make_problem(beta, eta, alpha, theta), ks)
            for k, logmag in zip(ks, logs):
                reference = reference_log(k, eta, beta, alpha, theta)
                checked += reference is not None
                point = (beta, eta, alpha, theta, k)
                assert reference is None or abs(logmag - reference) < 1e-9, point
        assert checked >= 0.9 * 40 * 16

    # (K, beta, alpha, theta_c) at eta 0 where S1*S2 and the crack term
    # cancel exactly, so F rounds to 0.0; found next to cracked roots.
    EXACT_ZEROS = [
        (10.045952766868375, 1.3235221796021612, 0.7085917783337312, 0.8411780206429167),
        (1822.1389308810603, 0.8289695814207232, 0.6382860736927121, 0.445025642449315),
        (2.7676791337501343, 1.1313561328517527, 0.6877384126909744, 14.794942030829308),
    ]

    @pytest.mark.parametrize("point", EXACT_ZEROS)
    def test_exact_zero_reads_minus_infinity(self, point):
        # log|F| of an exact 0.0 is -inf, with sign 0, and no RuntimeWarning
        # (pyproject makes one an error); K on either side reads finite.
        k, beta, alpha, theta = point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert det_sign_logmag_at(k, 0.0, beta, alpha, theta) == (0, -math.inf)
            for other in (0.5 * k, 2.0 * k):
                sign, logmag = det_sign_logmag_at(other, 0.0, beta, alpha, theta)
                assert sign != 0 and math.isfinite(logmag)


class TestNullVector:
    def test_recovers_known_null_direction(self):
        rng = np.random.RandomState(3)
        x0 = rng.standard_normal(4)
        x0 /= np.linalg.norm(x0)
        rows = []
        for _ in range(4):
            r = rng.standard_normal(4)
            rows.append(r - (r @ x0) * x0)  # every row orthogonal to x0
        v = null_vector(rows)
        cosine = abs(v @ x0) / np.linalg.norm(v)
        assert cosine == pytest.approx(1.0, abs=1e-9)

    def test_largest_component_is_one(self):
        # The null direction of these rows is (1, -1, 0, 0).
        v = null_vector([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [2, 2, 3, 4]])
        assert type(v) is list and all(type(x) is float for x in v)
        assert max(map(abs, v)) == 1.0 and max(v, key=abs) == 1.0
        assert [abs(x) for x in v] == [1.0, 1.0, 0.0, 0.0]

    def test_rank_below_three_raises(self):
        # Rank 2: every 3x3 minor keeps a zero column, so every cofactor is 0.
        with pytest.raises(DoubleRoot, match="rank is below 3"):
            null_vector([[1, 2, 0, 0], [3, 4, 0, 0], [5, 6, 0, 0], [0, 1, 0, 0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_raises(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            null_vector([[1, 2, 0, 0], [3, 4, 0, 0], [5, 6, 7, 0], [0, 1, 0, bad]])

    @pytest.mark.parametrize("size, rank3", [(1e-9, False), (1e-7, False), (1e-4, True)])
    def test_rank_is_read_to_a_bound(self, size, rank3):
        # A rank-2 matrix plus a rank-1 term of the given size in its zero
        # columns: rank 3, its largest cofactor about that size, which reads
        # as a rank of 3 only above 1e-6. Below, the error is DoubleRoot.
        rows = np.array([[1, 2, 0, 0], [3, 4, 0, 0], [5, 6, 0, 0], [0, 1, 0, 0]], dtype=float)
        rows[:, 2:] += size * np.outer([0.9, 0.6, 0.7, 0.8], [1.0, 0.5])
        if rank3:
            v = null_vector(rows)
            assert np.abs(rows @ v).max() <= 1e-9 * np.abs(rows).max()
        else:
            with pytest.raises(DoubleRoot, match="rank is below 3"):
                null_vector(rows)


def _branch(K: float, eta: float) -> str:
    """The branch of mu2 at K, as :func:`kernel._lam2_roots_at` resolves it."""
    basis = quartic_roots(K, eta)
    if basis.repeated:
        return "repeated"
    return "zero" if basis.mu2 == 0.0 else "hyperbolic" if basis.mu2 > 0.0 else "trigonometric"


class TestOneK:
    """det_sign_logmag_at, the one form of F, in math on floats, in every
    branch of mu2 against the matching matrix and against 60 digits."""

    @staticmethod
    def _points():
        """random_arch_points' K values plus K within 2e-10 of 1 and below 3e-11."""
        rng = np.random.default_rng(28)
        for beta, eta, alpha, theta, ks in random_arch_points(28, 200):
            near_one = 1.0 + rng.uniform(-2e-10, 2e-10, 3)
            tiny = rng.uniform(0.0, 3e-11, 3)
            yield beta, eta, alpha, theta, np.concatenate([ks, near_one, tiny]).tolist()

    def test_signs_match_the_matching_matrix_in_every_branch(self):
        # The sign against the cofactor determinant of the assembled 4x4
        # system, whose basis takes the same windows at K = 0 and K = 1.
        branches = set()
        for beta, eta, alpha, theta, ks in self._points():
            expected = assembled_signs(make_problem(beta, eta, alpha, theta), ks)
            for k, sign in zip(ks, expected):
                one = det_sign_logmag_at(k, eta, beta, alpha, theta)
                assert type(one[0]) is int and type(one[1]) is float
                assert one[0] == sign, (beta, eta, alpha, theta, k)
                branches.add((_branch(k, eta), theta > 0.0, eta > 0.0))
        kinds = ("repeated", "zero", "hyperbolic", "trigonometric")
        assert branches == {(b, c, e) for b in kinds for c in (False, True) for e in (False, True)}

    def test_against_60_digits(self):
        # Away from the windows, whose snapped roots are off by up to their
        # width: random_arch_points' values, K = 0 and K = 1 exactly included.
        checked = 0
        for beta, eta, alpha, theta, ks in random_arch_points(28, 200):
            for k in ks.tolist()[::2]:
                sign, logmag = det_sign_logmag_at(k, eta, beta, alpha, theta)
                reference = reference_log(k, eta, beta, alpha, theta)
                if reference is None:  # near a root: rounding K moves F too much
                    continue
                checked += 1
                exact = reduced_det_mp(k, eta, beta, alpha, theta)
                assert sign == (1 if exact > 0 else -1), (beta, eta, alpha, theta, k)
                assert abs(logmag - reference) < 1e-9, (beta, eta, alpha, theta, k)
        assert checked >= 0.9 * 200 * 8

    def test_zero_sign_rule(self):
        # Guide midpoints of closed-form roots, where the uncracked F is 0 to
        # rounding, read 0; K = 1 and a cracked K_n do not.
        beta, eta = 2.0, 0.3
        for n in (1, 2, 3, 4):
            k = _midpoint(uncracked_K_closed_form(n, beta, eta))
            for alpha, theta in ((0.5 * beta, 0.0), (0.8, 0.0), (0.8, 1.0)):
                one = det_sign_logmag_at(k, eta, beta, alpha, theta)
                assert (one[0] == 0) == (theta == 0.0)
        assert det_sign_logmag_at(1.0, eta, beta, 0.8, 1.0)[0] != 0


def _repeated_on_arrays(K, eta, beta, alpha, theta):
    """F at a repeated root with its three h values taken on a numpy array.

    The kernel once evaluated them so: h = d o/d mu on np.array([beta,
    alpha, gamma]) both as its series and in the direct form, selected by
    np.where. The rest is det_sign_logmag_at's, where mu2 = mu1 < 0 and gap
    = 1.
    """
    mu1, mu2, repeated = _lam2_roots_at(K, eta)
    assert repeated
    a1 = math.sqrt(-mu1)
    gamma = beta - alpha
    s1 = math.sin(a1 * beta) / a1
    o_a, o_g = math.sin(a1 * alpha) / a1, math.sin(a1 * gamma) / a1
    a2 = math.sqrt(-mu2)
    s2, b2 = math.sin(a2 * beta) / a2, 1.0 / a2
    x = np.array([beta, alpha, gamma])
    x2 = x * x
    series = x * x2 / 6.0
    mupow = 1.0
    for k, fact in ((2, 120.0), (3, 5040.0), (4, 362880.0), (5, 39916800.0)):
        mupow = mupow * mu1
        series = series + k * mupow * x * x2**k / fact
    direct = (x * np.cos(a1 * x) - np.sin(a1 * x) / a1) / (2.0 * mu1)
    h_b, h_a, h_g = np.where(abs(mu1) * x * x < 0.01, series, direct).tolist()
    num = h_b * o_a * o_g - s1 * (h_a * o_g + o_a * h_g)
    extra = theta * mu1 * mu2 * (num / 1.0)
    assert math.isfinite(extra)
    f = s1 * s2 + extra
    size = abs(f)
    if size <= PIVOT_ZERO_TOL * (b2 / a1 + abs(extra)):
        return 0, math.log(size) if size else -math.inf
    return (1 if f > 0.0 else -1), math.log(size)


class TestRepeatedBranchOnFloats:
    def test_float_h_keeps_the_array_bits(self):
        # K near 0, where the roots are repeated for K*(1 + eta) within about
        # 1e-10, and short segments, where h takes its series.
        rng = random.Random(40)
        repeated = series = 0
        for i in range(4000):
            k = rng.uniform(0.0, 2e-10) if i % 2 else 10.0 ** rng.uniform(-20.0, -9.5)
            eta = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 10.0)
            beta = 10.0 ** rng.uniform(-3.0, math.log10(2.0 * math.pi))
            alpha = beta * rng.uniform(0.01, 0.99)
            theta = 10.0 ** rng.uniform(-8.0, 10.0)
            if not _lam2_roots_at(k, eta)[2]:
                continue
            repeated += 1
            series += min(alpha, beta - alpha) ** 2 < 0.009
            point = (k, eta, beta, alpha, theta)
            assert det_sign_logmag_at(*point) == _repeated_on_arrays(*point), point
        assert repeated >= 1500 and 500 <= series <= repeated - 500


class TestCrackTermNearTheLargestFloat:
    """theta_c*mu1*mu2 overflows where theta_c*(K - 1) passes the largest
    float, while the divided difference may underflow to 0: the one-K form
    then regroups the crack term's factors, so it neither warns nor returns
    NaN."""

    # (eta, beta, alpha, theta_c, K) where F is well-conditioned, so the
    # 60-digit reference holds, and theta_c*mu1*mu2 overflows.
    CONDITIONED = [
        (0.0, 0.01, 0.004, 1e290, 1e20), (1.0, 0.01, 0.004, 1e300, 1e10),
        (0.0, 0.5, 0.2, 1e300, 1e12), (3.0, 0.003, 0.002, 1e305, 1e8),
    ]
    # A cracked CLI request's problem at eta = 5e-324: theta_c*mu1*mu2
    # overflows while the divided difference underflows to 0.
    FAR = (5e-324, 6.283185307179585, 3.1415926535897927)

    @pytest.mark.parametrize("point", CONDITIONED)
    def test_overflowing_product_against_60_digits(self, point):
        eta, beta, alpha, theta, k = point
        basis = quartic_roots(k, eta)
        assert abs(theta * basis.mu1 * basis.mu2) == math.inf
        exact = reduced_det_mp(k, eta, beta, alpha, theta)
        reference = reference_log(k, eta, beta, alpha, theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sign, logmag = det_sign_logmag_at(k, *point[:4])
            assert sign == (1 if exact > 0 else -1)
            assert abs(logmag - reference) < 1e-9

    @pytest.mark.parametrize("theta, k", [(1e3, 1e307), (1e10, 1e300)])
    def test_one_k_near_the_largest_float(self, theta, k):
        # Here a 1e-20 change of K moves the phase a1*beta ~ 1e77 by far more
        # than 2*pi, so the 60-digit reference declines (None) and F's sign
        # is noise; what holds is a finite value and no warning.
        assert reference_log(k, *self.FAR, theta) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sign, logmag = det_sign_logmag_at(k, *self.FAR, theta)
            assert sign in (-1, 1) and math.isfinite(logmag)

    @pytest.mark.parametrize("theta", [1.0, 1e3, 1e10, 1e300])
    def test_k_array_near_the_largest_float(self, theta):
        ks = np.sort(np.concatenate([np.geomspace(1e290, 4e307, 120), [1e300, 1e307]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ones = [det_sign_logmag_at(k, *self.FAR, theta) for k in ks.tolist()]
        assert all(sign in (-1, 1) and math.isfinite(logmag) for sign, logmag in ones)

    # Near the largest theta_c, where theta_c*num*(mu1/gap*mu2) itself passes
    # the largest float (|F| near 5e308): the one-K form keeps F as its log.
    PAST = [(0.0, 6.25, 1.44, 1.7e308, 0.003), (3.0, 6.13, 4.47, 1.7e308, 0.005),
            (0.1, 6.18, 1.6, 1e308, 0.0025)]

    @pytest.mark.parametrize("point", PAST)
    def test_crack_term_past_the_largest_float(self, point):
        eta, beta, alpha, theta, k = point
        exact = reduced_det_mp(k, eta, beta, alpha, theta)
        assert math.isinf(float(exact))
        reference = reference_log(k, eta, beta, alpha, theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sign, logmag = det_sign_logmag_at(k, *point[:4])
            assert sign == (1 if exact > 0 else -1)
            assert abs(logmag - reference) < 1e-9

    def test_crack_term_of_zero_at_the_largest_theta(self):
        # At K = 1 mu2 snaps to 0, and theta_c*mu1 and theta_c*num (num near
        # 1.3) both overflow: inf meets 0 in both groupings. The crack term is
        # 0 and F that of no crack.
        args = (0.0, 6.25, 1.44)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert det_sign_logmag_at(1.0, *args, 1.7e308) == det_sign_logmag_at(1.0, *args, 0.0)
            assert det_sign_logmag_at(1.0, *args, 0.0)[0] == 1
