import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arch_resonance import (
    DegenerateSegment,
    assemble_cracked,
    boundary_matrix,
    det_sign_logmag,
    null_vector,
    quartic_roots,
    uncracked_K_closed_form,
)
from arch_resonance import kernel
from arch_resonance.kernel import DEGENERACY_TOL, PIVOT_ZERO_TOL
from conftest import (
    assembled_signs,
    cofactor_det,
    make_problem,
    random_arch_points,
    reference_log,
)

BETAS = (0.5, 1.0, 2.0, math.pi / 2)
ETAS = (0.0, 0.5, 1.0, 2.0)


def _matrix_signs(stack) -> list[int]:
    """Cofactor-determinant signs of a stack of matrices."""
    return [int(np.sign(cofactor_det(m.tolist()))) for m in stack]


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

    def test_domain(self):
        with pytest.raises(ValueError):
            quartic_roots(-1.0, 0.0)
        with pytest.raises(ValueError):
            quartic_roots(1.0, -0.5)


class TestQuarticRoots:
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

    def test_rejects_an_array(self):
        # The matching path takes one K; only det_sign_logmag takes stacks.
        with pytest.raises(ValueError, match="one trial eigenvalue"):
            quartic_roots(np.array([0.5, 5.0]), 0.2)
        with pytest.raises(ValueError, match="one trial eigenvalue"):
            quartic_roots(5.0, np.array([0.2, 0.3]))
        basis = quartic_roots(np.float64(5.0), 0.2)
        assert type(basis.mu1) is type(basis.mu2) is float and type(basis.repeated) is bool

    def test_zero_root_functions(self):
        # mu1 = -3, mu2 = 0: o(mu1, x) and the divided difference (x - o(mu1, x))/3.
        basis = quartic_roots(1.0, 1.0)
        row0 = basis.support_rows(0.7, 1.3, nrows=1)[0]
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
    rows = basis.support_rows(x, ref)
    diff = sum(w * basis.support_rows(x + k * h, ref) for k, w in zip(_FD_STEPS, _FD_WEIGHTS)) / h
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
            rows = basis.support_rows(0.6, 1.0, nrows=2)
            scale = np.prod(np.abs(rows).max(axis=0))
            assert abs(cofactor_det(rows.tolist())) > 1e-6 * scale

    def test_branch_continuity_at_unity(self):
        # Determinant value is continuous through the K = 1 branch switch.
        beta, eta = 1.3, 0.7

        def value(K):
            sign, logmag = det_sign_logmag(K, eta, beta, 0.5 * beta, 0.0)
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
        for alpha in (None, 0.7):
            matrix = boundary_matrix(make_problem(beta, 0.0, alpha, 10.0), K)
            assert np.isfinite(matrix).all()
        for alpha, theta in ((0.5 * beta, 0.0), (0.7, 10.0)):
            sign, logmag = det_sign_logmag(K, 0.0, beta, alpha, theta)
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
    """The boundary matrix of an uncracked problem: the crack of zero compliance at beta/2."""

    def test_row_patterns(self):
        # Both segments have length beta/2, so the rows of X and X'' are
        # antisymmetric and those of the third derivative and the slope jump
        # symmetric, bit for bit.
        m = boundary_matrix(make_problem(beta=1.0, eta=0.2), 5.0)
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
                        return det_sign_logmag(K, eta, beta, 0.5 * beta, 0.0)[0]

                    assert sgn(kn * (1 - 1e-6)) * sgn(kn * (1 + 1e-6)) == -1

    def test_near_zero_normalized_determinant_at_root(self):
        kn = uncracked_K_closed_form(2, 1.0, 0.5)
        matrix = boundary_matrix(make_problem(beta=1.0, eta=0.5), kn)
        logmag = math.log(abs(cofactor_det(matrix.tolist())))
        rows = [list(r) for r in matrix]
        log_row_scales = sum(math.log(max(abs(x) for x in row)) for row in rows)
        # Normalized determinant magnitude <= 1e-8.
        assert logmag - log_row_scales < math.log(1e-8)


class TestAssembleCracked:
    def test_zero_compliance_matches_uncracked_sign_pattern(self):
        beta, eta, alpha = 1.0, 0.3, 0.37
        ks = [1.0 + i * (2000.0 - 1.0) / 120 for i in range(121)]

        # The uncracked matrix is the crack of zero compliance at beta/2.
        plain = _matrix_signs(boundary_matrix(make_problem(beta, eta), k) for k in ks)
        bases = [quartic_roots(k, eta) for k in ks]
        cracked = _matrix_signs(assemble_cracked(b, beta, alpha, 0.0) for b in bases)
        assert _changes(plain) == _changes(cracked)
        # The reduced function changes sign where the matrices do.
        for at in (0.5 * beta, alpha):
            assert _changes(det_sign_logmag(np.array(ks), eta, beta, at, 0.0)[0]) == _changes(plain)

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
            reduced = det_sign_logmag(np.array(ks), eta, beta, alpha, theta)[0]
            assert _changes(reduced) == changes[0]

    def test_degenerate_segment(self):
        basis = quartic_roots(5.0, 0.0)
        with pytest.raises(DegenerateSegment):
            assemble_cracked(basis, 1.0, 0.0, 1.0)
        with pytest.raises(DegenerateSegment):
            assemble_cracked(basis, 1.0, 1.0, 1.0)

    def test_one_matrix_per_k(self):
        for problem in (make_problem(2.0, 0.3), make_problem(2.0, 0.3, 0.8, 0.5)):
            for k in (0.0, 0.5, 1.0, 7.0, 5.0e4):
                assert boundary_matrix(problem, k).shape == (4, 4)
            with pytest.raises(ValueError, match="one trial eigenvalue"):
                boundary_matrix(problem, np.array([0.5, 7.0]))


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
        rows = basis.support_rows(x, ref)
        assert rows.shape == (4, 2)
        assert rows[:, 0] == pytest.approx(o1, rel=1e-13, abs=1e-15)
        assert rows[:, 1] == pytest.approx(second, rel=1e-12, abs=1e-15)

    def test_supports_hold_exactly(self):
        for k in (0.0, 1e-8, 0.5, 1.0, 5.0, 400.0, 1e6):
            rows = quartic_roots(k, 0.7).support_rows(0.0, 1.3, nrows=3)
            assert rows.shape == (3, 2)
            assert np.all(rows[0] == 0.0) and np.all(rows[2] == 0.0)

    def test_hyperbolic_column_at_the_crack(self):
        # a2 * ref from 1e-4 to about 34: entries tanh(a2*ref)/a2 and 1.
        for k in (1.0 + 1e-8, 2.0, 50.0, 1e5):
            basis = quartic_roots(k, 0.0)
            a2 = math.sqrt(basis.mu2)
            rows = basis.support_rows(1.9, 1.9)
            assert np.all(np.isfinite(rows))
            assert rows[0, 1] == pytest.approx(math.tanh(a2 * 1.9) / a2, rel=1e-14)
            assert rows[1, 1] == pytest.approx(1.0, rel=1e-15)

    def test_repeated_root_column_is_the_limit(self):
        # At K = 0 the divided difference is replaced by d o/d mu. Outside
        # the degeneracy window the rows approach it in step with mu2 - mu1,
        # with no loss to cancellation down to the window's edge.
        at = quartic_roots(0.0, 0.5)
        assert at.repeated
        limit = at.support_rows(1.7, 2.0)
        for K in (1e-6, 1e-8, 1e-10):
            near = quartic_roots(K, 0.5)
            assert not near.repeated
            gap = np.abs(near.support_rows(1.7, 2.0) - limit).max() / np.abs(limit).max()
            assert gap <= near.mu2 - near.mu1

    @pytest.mark.parametrize("beta, alpha", [(0.5, 0.2), (2.0, 1.4), (6.0, 3.0)])
    def test_cracked_sign_nonzero_at_repeated_root(self, beta, alpha):
        basis = quartic_roots(0.0, 0.3)
        for theta in (0.0, 1.0, 1e3):
            matrix = assemble_cracked(basis, beta, alpha, theta)
            assert cofactor_det(matrix.tolist()) != 0.0
            assert det_sign_logmag(0.0, 0.3, beta, alpha, theta)[0] != 0


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
            sign, logmag = det_sign_logmag(K, eta, beta, 0.5 * beta, 0.0)
            assert sign == (1 if expected > 0 else -1)
            assert logmag == pytest.approx(math.log(abs(expected)), abs=1e-12)
            assert det_sign_logmag(K, eta, beta, 0.4 * beta, 0.0)[0] == sign

    def test_crack_term_vanishes_at_mu2_zero(self):
        # At K = 1 the root mu2 is 0, the reduced 2x2 is triangular, and F is
        # o(mu1, beta)*beta whatever the crack.
        for eta, beta, alpha in ((0.0, 1.0, 0.3), (1.0, 2.5, 2.0)):
            assert quartic_roots(1.0, eta).mu2 == 0.0
            a1 = math.sqrt(2.0 + eta)
            plain = det_sign_logmag(1.0, eta, beta, 0.5 * beta, 0.0)
            expected = math.log(abs(math.sin(a1 * beta) / a1 * beta))
            assert plain[1] == pytest.approx(expected, abs=1e-14)
            for theta in (0.0, 1.0, 1e4):
                assert det_sign_logmag(1.0, eta, beta, alpha, theta) == plain

    def test_singular(self):
        # The solver's guide midpoint of each closed-form root reads sign 0
        # behind a crack of zero compliance, at beta/2 (uncracked) or not.
        for beta in BETAS:
            for eta in ETAS:
                for n in (1, 2, 3):
                    mid = _midpoint(uncracked_K_closed_form(n, beta, eta))
                    assert det_sign_logmag(mid, eta, beta, 0.5 * beta, 0.0)[0] == 0
                    assert det_sign_logmag(mid, eta, beta, 0.37 * beta, 0.0)[0] == 0

    def test_zero_sign_rule(self):
        # Two trigonometric pairs (K < 1): sign 0 exactly where
        # |sin(a1*beta)*sin(a2*beta)| <= PIVOT_ZERO_TOL.
        beta, eta = 5.0, 0.0
        kn = uncracked_K_closed_form(1, beta, eta)
        ks = kn * (1.0 + np.array([0.0, 1e-15, -1e-15, 1e-11, -1e-11, 1e-6]))
        signs, _ = det_sign_logmag(ks, eta, beta, 0.5 * beta, 0.0)
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
            signs, logs = det_sign_logmag(ks, eta, beta, alpha, theta)
            assert signs.tolist() == assembled_signs(make_problem(beta, eta, alpha, theta), ks)
            for k, logmag in zip(ks, logs):
                reference = reference_log(k, eta, beta, alpha, theta)
                checked += reference is not None
                point = (beta, eta, alpha, theta, k)
                assert reference is None or abs(logmag - reference) < 1e-9, point
        assert checked >= 0.9 * 40 * 16

    def test_rejects_nonfinite(self):
        for K, eta in ((math.inf, 0.0), (np.array([1.0, math.nan]), 0.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                det_sign_logmag(K, eta, 1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            det_sign_logmag(-1.0, 0.0, 1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            det_sign_logmag(1.0, 0.0, 1.0, 0.5, -1.0)
        with pytest.raises(DegenerateSegment):
            det_sign_logmag(1.0, 0.0, 1.0, 1.0, 1.0)


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
        assert v.shape == (4,) and np.abs(v).max() == 1.0 and v[np.abs(v).argmax()] == 1.0
        assert np.abs(v).tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_rank_below_three_raises(self):
        # Rank 2: every 3x3 minor keeps a zero column, so every cofactor is 0.
        with pytest.raises(ValueError, match="rank is below 3"):
            null_vector([[1, 2, 0, 0], [3, 4, 0, 0], [5, 6, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(ValueError, match="one 4x4 matrix"):
            null_vector(np.zeros((2, 4, 4)))


class TestStackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cracked=st.booleans(),
        count=st.integers(1, 40),
    )
    def test_stack_matches_single_calls(self, seed, cracked, count):
        rng = np.random.default_rng(seed)
        beta, eta = rng.uniform(0.01, 2 * math.pi), rng.choice([0.0, rng.uniform(0.0, 4.0)])
        crack = (0.5 * beta, 0.0)  # uncracked
        if cracked:
            crack = (rng.uniform(0.05, 0.95) * beta, 10 ** rng.uniform(-3, 4))
        ks = 10 ** rng.uniform(-8.0, 8.0, count)
        ks[rng.random(count) < 0.1] = rng.choice([0.0, 1.0])
        signs, logs = det_sign_logmag(ks, eta, beta, *crack)
        assert signs.shape == logs.shape == (count,)
        for k, sign, logmag in zip(ks, signs, logs):
            one_sign, one_log = det_sign_logmag(float(k), eta, beta, *crack)
            assert sign == one_sign
            assert abs(logmag - one_log) <= 1e-12

    @pytest.mark.parametrize("cracked", [False, True])
    def test_parameter_stack_matches_scalar_calls(self, cracked):
        # Several problems in one call, each K against its own parameters:
        # every value is bit-identical to a call with scalar parameters.
        points = [p for p in random_arch_points(11, 16) if (p[3] > 0.0) == cracked]
        ks = np.concatenate([p[4] for p in points])
        owner = np.repeat(np.arange(len(points)), [p[4].size for p in points])
        beta, eta, alpha, theta = (np.array([p[i] for p in points]) for i in range(4))
        theta[0] = 0.0  # a zero compliance among compliant cracks
        params = [eta[owner], beta[owner], alpha[owner], theta[owner]]
        signs, logs = det_sign_logmag(ks, *params)
        assert signs.shape == logs.shape == ks.shape
        for k, *args, sign, logmag in zip(ks, *params, signs, logs):
            assert det_sign_logmag(float(k), *map(float, args)) == (sign, logmag)
        # Parameters broadcast against a 2-D K, one column per problem.
        grid = ks[: 4 * len(points)].reshape(4, len(points))
        columns = [eta, beta, alpha, theta]
        signs, logs = det_sign_logmag(grid, *columns)
        for row, k_row in enumerate(grid):
            for col, k in enumerate(k_row):
                one = det_sign_logmag(float(k), *(float(c[col]) for c in columns))
                assert one == (signs[row, col], logs[row, col])

    def test_parameter_stack_checks_each_element(self):
        ks = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="central angle must be positive"):
            det_sign_logmag(ks, 0.0, np.array([1.0, 0.0]), 0.25, 0.0)
        with pytest.raises(ValueError, match="nonlocal parameter must be nonnegative"):
            det_sign_logmag(ks, np.array([0.0, -1.0]), 1.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="must be finite"):
            det_sign_logmag(ks, np.array([0.0, math.nan]), 1.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="crack compliance must be nonnegative"):
            det_sign_logmag(ks, 0.0, 1.0, 0.5, np.array([1.0, -1.0]))
        # The message names the first problem whose crack leaves no segment.
        degenerate = "alpha=2.0 leaves a vanishing segment of beta=2.0"
        with pytest.raises(DegenerateSegment, match=degenerate):
            det_sign_logmag(ks, 0.0, np.array([1.0, 2.0]), np.array([0.5, 2.0]), 1.0)

    def test_cracked_stack_against_cofactor_oracle(self):
        problem = make_problem(beta=1.3, eta=0.7, alpha=0.5, theta=1.2)
        ks = np.linspace(3.0, 900.0, 12)
        signs, logs = det_sign_logmag(ks, 0.7, 1.3, 0.5, 1.2)
        assert signs.tolist() == assembled_signs(problem, ks)
        for k, logmag in zip(ks, logs):
            assert abs(logmag - reference_log(k, 0.7, 1.3, 0.5, 1.2)) < 1e-9

    def test_constructed_singular_matrices_have_sign_zero(self):
        # Guide midpoints of closed-form roots, where the boundary system is
        # singular, read 0 anywhere in a stack; the other K values do not.
        beta, eta = 2.0, 0.3
        roots = [_midpoint(uncracked_K_closed_form(n, beta, eta)) for n in (1, 2, 3, 4)]
        others = [0.0, 1.0, 1e6, 0.5 * sum(roots[:2])]
        ks = np.array([k for pair in zip(roots, others) for k in pair])
        for alpha in (0.5 * beta, 0.8):
            signs, _ = det_sign_logmag(ks, eta, beta, alpha, 0.0)
            assert signs.tolist()[0::2] == [0, 0, 0, 0]
            assert 0 not in signs.tolist()[1::2]
            for k, sign in zip(ks, signs):
                assert det_sign_logmag(float(k), eta, beta, alpha, 0.0)[0] == sign

    def test_rejects_nonfinite_trial_values(self):
        for K, eta in ((1.0, math.nan), (math.nan, 0.5), (math.inf, 0.5), (1.0, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                quartic_roots(K, eta)
        with pytest.raises(ValueError):
            det_sign_logmag(np.array([1.0, math.nan]), 0.5, 1.0, 0.5, 0.0)

    def test_branch_of_a_stack(self):
        bases = [quartic_roots(k, 0.0) for k in (0.0, 0.5, 1.0, 5.0)]
        # Repeated, two trigonometric, zero root, trigonometric plus hyperbolic.
        assert [b.repeated for b in bases] == [True, False, False, False]
        assert [b.mu1 for b in bases] == pytest.approx(
            [-1.0, -1.0 - math.sqrt(0.5), -2.0, -1.0 - math.sqrt(5.0)], rel=1e-14
        )
        assert bases[0].mu2 == -1.0 and -1.0 < bases[1].mu2 < 0.0
        assert bases[2].mu2 == 0.0 and bases[3].mu2 > 0.0


class TestMaskShortcut:
    """det_sign_logmag builds the zero-root and repeated-root masks only when
    its K range reaches their windows near K = 1 and K = 0; the values are
    those of a call that always builds them."""

    # Uncracked (the crack of zero compliance at beta/2), cracked.
    PROBLEMS = [(2.0, 1.0, 0.0), (2.0, 0.7, 0.3)]

    def _record(self, monkeypatch, force=False):
        # Each _lam2_roots call as (masks built, zero-root mask, repeated mask).
        calls, original = [], kernel._lam2_roots

        def recording(p2, p0, masks=True):
            mu1, mu2, repeated = original(p2, p0, masks or force)
            calls.append((masks, mu2 == 0.0, repeated))
            return mu1, mu2, repeated

        monkeypatch.setattr(kernel, "_lam2_roots", recording)
        return calls

    def _evaluate(self, monkeypatch, ks, eta, problem):
        """The stack's values, its _lam2_roots call, and the values with forced masks."""
        with monkeypatch.context() as m:
            calls = self._record(m)
            values = det_sign_logmag(np.array(ks), eta, *problem)
        with monkeypatch.context() as m:
            self._record(m, force=True)
            forced = det_sign_logmag(np.array(ks), eta, *problem)
        for v, f in zip(values, forced):
            assert np.array_equal(v, f)
        for k, sign, logmag in zip(ks, *values):
            assert det_sign_logmag(float(k), eta, *problem) == (sign, logmag)
        assert len(calls) == 1
        return calls[0]

    @pytest.mark.parametrize("eta", [0.0, 4.0])
    @pytest.mark.parametrize("problem", PROBLEMS, ids=["uncracked", "cracked"])
    def test_special_value_among_far_ones(self, monkeypatch, eta, problem):
        p2 = 2.0 + eta
        zero_roots = (1.0, 1.0 + 1e-11, 1.0 - 1e-11)
        edges = (1.0 + 1e-10 * p2, 1.0 - 1e-10 * p2)
        repeated_roots = (0.0, 1e-12)
        for k in zero_roots + edges + repeated_roots:
            # Far values above 1, then below 1 (and above 0).
            for far in ([5.0, 40.0, 260.0], [0.3, 0.6]):
                masks, zero, repeated = self._evaluate(monkeypatch, [*far, k], eta, problem)
                assert masks
                assert zero[-1] == (k in zero_roots) or k in edges
                assert repeated[-1] == (k in repeated_roots)
                assert not zero[:-1].any() and not repeated[:-1].any()

    @pytest.mark.parametrize("eta", [0.0, 4.0])
    @pytest.mark.parametrize("problem", PROBLEMS, ids=["uncracked", "cracked"])
    def test_stacks_at_the_windows(self, monkeypatch, eta, problem):
        width = DEGENERACY_TOL * (2.0 + eta)  # of the zero-root window, either side of 1
        for side in (1.0, -1.0):
            inside = [1.0 + side * t * width for t in (0.0, 0.2, 0.5, 0.9)]
            masks, zero, repeated = self._evaluate(monkeypatch, inside, eta, problem)
            assert masks and zero.all() and not repeated.any()
            # Past the window but within the shortcut's margin of 2.
            margin = [1.0 + side * t * width for t in (1.2, 1.5, 1.9)]
            masks, zero, repeated = self._evaluate(monkeypatch, margin, eta, problem)
            assert masks and not zero.any() and not repeated.any()
            outside = [1.0 + side * t * width for t in (2.5, 4.0, 10.0)]
            masks, _, repeated = self._evaluate(monkeypatch, outside, eta, problem)
            assert not masks and repeated is None
        # A stack on both sides of 1 with none of its values in the window.
        across = [0.5, 1.0 - 3.0 * width, 1.0 + 3.0 * width, 7.0]
        masks, _, repeated = self._evaluate(monkeypatch, across, eta, problem)
        assert not masks and repeated is None
        masks, zero, _ = self._evaluate(monkeypatch, across + [1.0 + 0.5 * width], eta, problem)
        assert masks and zero.tolist() == [False] * 4 + [True]
        # The repeated-root window is K <= tol / (1 + eta).
        inside = [t * DEGENERACY_TOL / (1.0 + eta) for t in (0.0, 0.1, 0.5, 0.9)]
        masks, zero, repeated = self._evaluate(monkeypatch, inside, eta, problem)
        assert masks and repeated.all() and not zero.any()
        margin = [t * DEGENERACY_TOL for t in (1.5, 1.9)]
        masks, zero, repeated = self._evaluate(monkeypatch, margin, eta, problem)
        assert masks and not repeated.any() and not zero.any()
        outside = [t * DEGENERACY_TOL for t in (2.5, 5.0, 10.0)]
        masks, _, repeated = self._evaluate(monkeypatch, outside, eta, problem)
        assert not masks and repeated is None

    # Parameter stacks: (eta, beta, alpha, theta_c) of three problems, the
    # first and last with the smallest and largest eta, the last uncompliant.
    STACK = [(0.0, 1.0, 0.4, 0.5), (1.5, 2.0, 0.7, 3.0), (4.0, 3.0, 1.1, 0.0)]
    FAR = [0.3, 5.0, 40.0]  # far from both windows for every eta of STACK

    def _columns(self, cracked):
        """STACK's columns; uncracked, each crack is the zero-compliance one at beta/2."""
        eta, beta, alpha, theta = (np.array(c) for c in zip(*self.STACK))
        return [eta, beta, alpha, theta] if cracked else [eta, beta, 0.5 * beta, 0.0 * theta]

    def _evaluate_stack(self, monkeypatch, ks, cracked):
        """As _evaluate, for a parameter stack with the K values ``ks[i]`` of problem i."""
        owner = np.repeat(np.arange(len(ks)), [len(k) for k in ks])
        params = [c[owner] for c in self._columns(cracked)]
        flat = np.concatenate([np.array(k, dtype=float) for k in ks])
        with monkeypatch.context() as m:
            calls = self._record(m)
            values = det_sign_logmag(flat, *params)
        with monkeypatch.context() as m:
            self._record(m, force=True)
            forced = det_sign_logmag(flat, *params)
        for v, f in zip(values, forced):
            assert v.tobytes() == f.tobytes()
        for k, *args, sign, logmag in zip(flat, *params, *values):
            one = det_sign_logmag(float(k), *map(float, args))
            assert (one[0], one[1].hex()) == (sign, float(logmag).hex())
        assert len(calls) == 1
        return calls[0]

    @pytest.mark.parametrize("cracked", [False, True], ids=["uncracked", "cracked"])
    def test_parameter_stack_with_one_value_in_a_window(self, monkeypatch, cracked):
        masks, _, repeated = self._evaluate_stack(monkeypatch, [self.FAR] * 3, cracked)
        assert not masks and repeated is None
        for i, (eta, *_) in enumerate(self.STACK):
            width = DEGENERACY_TOL * (2.0 + eta)  # of problem i's zero-root window
            repeated_root = 0.5 * DEGENERACY_TOL / (1.0 + eta)
            for k in (1.0 + 0.9 * width, 1.0 - 0.5 * width, repeated_root):
                ks = [self.FAR] * 3
                ks[i] = [*self.FAR, k]
                masks, zero, repeated = self._evaluate_stack(monkeypatch, ks, cracked)
                at = np.zeros(zero.size, dtype=bool)
                at[3 * i + 3] = True  # the one value in its window
                assert masks
                assert zero.tolist() == (at & (k != repeated_root)).tolist()
                assert repeated.tolist() == (at & (k == repeated_root)).tolist()

    @pytest.mark.parametrize("cracked", [False, True], ids=["uncracked", "cracked"])
    def test_parameter_stack_margin_follows_the_largest_eta(self, monkeypatch, cracked):
        # 1 + 8 tol lies outside the zero-root window of eta = 0 (tol*2) and
        # the margin it sets alone (2 tol*2), but within the margin of the
        # stack's largest eta, 4 (2 tol*6): masks are built, and snap nothing.
        alone = [[1.0 + 8.0 * DEGENERACY_TOL]]
        with monkeypatch.context() as m:
            calls = self._record(m)
            det_sign_logmag(np.array(alone[0]), *(float(c[0]) for c in self._columns(cracked)))
        assert not calls[0][0]
        masks, zero, repeated = self._evaluate_stack(monkeypatch, alone + [self.FAR] * 2, cracked)
        assert masks and not zero.any() and not repeated.any()


class TestOneSidedBranches:
    """Every mu2 of a K stack wholly above 1 is hyperbolic, and wholly below 1
    trigonometric; det_sign_logmag then evaluates that branch alone. Each value
    equals that of the same K inside a stack that straddles K = 1, where the
    branch is chosen per value."""

    BELOW = [1e-6, 0.05, 0.3, 0.7, 0.999]
    ABOVE = [1.001, 1.2, 4.0, 60.0, 900.0, 2.5e5]
    # Stacks by side, those next to 1 out of the degeneracy windows.
    SIDES = {
        "below": BELOW,
        "above": ABOVE,
        "just-below": [1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 1e-6],
        "just-above": [1.0 + 1e-6, 1.0 + 1e-4, 1.0 + 1e-3],
    }
    # (eta, beta, alpha, theta_c): two uncracked (the crack of zero compliance
    # at beta/2), then cracked, and cracked with theta_c = 0.
    PROBLEMS = [
        (0.0, 1.0, 0.5, 0.0), (2.0, 1.5, 0.75, 0.0),
        (1.0, 1.0, 0.4, 0.8), (3.0, 2.5, 2.0, 40.0), (0.5, 2.0, 0.7, 0.0),
    ]

    @staticmethod
    def _check(ks, params, monkeypatch):
        """Values of ``ks`` alone, checked against ``ks`` between the other side's values."""
        one_sided = all(k > 1.0 for k in ks) or all(k < 1.0 for k in ks)
        calls, original = [], kernel._lam2_roots
        monkeypatch.setattr(
            kernel,
            "_lam2_roots",
            lambda p2, p0, masks: calls.append(masks) or original(p2, p0, masks),
        )
        signs, logs = det_sign_logmag(np.array(ks), *params)
        assert one_sided and calls == [False]
        other = TestOneSidedBranches.ABOVE if ks[0] < 1.0 else TestOneSidedBranches.BELOW
        n, rest = len(ks), len(other) - 2
        mixed = np.array(other[:2] + ks + other[2:])
        # A parameter stack is repeated over the other side's values.
        wide = [
            np.concatenate([np.resize(p, 2), p, np.resize(p, rest)])
            if isinstance(p, np.ndarray) else p
            for p in params
        ]
        mixed_signs, mixed_logs = det_sign_logmag(mixed, *wide)
        assert signs.tobytes() == mixed_signs[2 : 2 + n].tobytes()
        assert logs.tobytes() == mixed_logs[2 : 2 + n].tobytes()
        assert calls == [False, False]

    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize("side", SIDES)
    def test_single_parameters(self, monkeypatch, problem, side):
        self._check(self.SIDES[side], problem, monkeypatch)

    @pytest.mark.parametrize("cracked", [False, True], ids=["uncracked", "cracked"])
    @pytest.mark.parametrize("side", SIDES)
    def test_stacked_parameters(self, monkeypatch, cracked, side):
        problems = self.PROBLEMS[2:] if cracked else self.PROBLEMS[:2]
        ks = self.SIDES[side]
        owner = np.arange(len(ks)) % len(problems)
        params = [np.array(c, dtype=float)[owner] for c in zip(*problems)]
        self._check(ks, params, monkeypatch)
