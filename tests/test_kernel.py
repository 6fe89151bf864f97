import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arch_resonance import (
    DegenerateSegment,
    SearchConfig,
    assemble_cracked,
    assemble_uncracked,
    boundary_matrix,
    characteristic_coefficients,
    det_sign_logmag,
    find_frequencies,
    null_vector,
    quartic_roots,
    uncracked_K_closed_form,
)
from conftest import cofactor_det, make_problem

BETAS = (0.5, 1.0, 2.0, math.pi / 2)
ETAS = (0.0, 0.5, 1.0, 2.0)


class TestCharacteristicCoefficients:
    def test_static_case(self):
        c = characteristic_coefficients(0.0, 0.0)
        assert (c.p2, c.p0) == (2.0, 1.0)

    def test_arithmetic(self):
        c = characteristic_coefficients(5.0, 0.2)
        assert (c.p2, c.p0) == (3.0, -4.0)

    def test_branch_boundary(self):
        c = characteristic_coefficients(1.0, 1.0)
        assert (c.p2, c.p0) == (3.0, 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            characteristic_coefficients(-1.0, 0.0)
        with pytest.raises(ValueError):
            characteristic_coefficients(1.0, -0.5)


class TestQuarticRoots:
    def test_trig_plus_hyperbolic(self):
        # lam^2 roots of lam^4 + 3 lam^2 - 4: (-3 +- 5)/2 -> -4 and 1.
        basis = quartic_roots(characteristic_coefficients(5.0, 0.2))
        assert not basis.repeated
        assert basis.mu1 == pytest.approx(-4.0, rel=1e-14)
        assert basis.mu2 == pytest.approx(1.0, rel=1e-14)

    def test_repeated_root(self):
        basis = quartic_roots(characteristic_coefficients(0.0, 0.0))
        assert basis.repeated
        assert basis.mu1 == basis.mu2 == -1.0

    def test_zero_root(self):
        # lam^2 (lam^2 + 3) = 0.
        basis = quartic_roots(characteristic_coefficients(1.0, 1.0))
        assert not basis.repeated
        assert basis.mu1 == -3.0
        assert basis.mu2 == 0.0

    def test_two_trig(self):
        basis = quartic_roots(characteristic_coefficients(0.5, 0.0))
        assert not basis.repeated
        assert basis.mu1 < basis.mu2 < 0

    def test_discriminant_nonnegative_over_domain(self):
        rng = random.Random(7)
        for _ in range(2000):
            K = rng.uniform(0.0, 500.0)
            eta = rng.uniform(0.0, 4.0)
            c = characteristic_coefficients(K, eta)
            assert c.p2 * c.p2 - 4.0 * c.p0 >= 0.0

    def test_zero_root_functions(self):
        basis = quartic_roots(characteristic_coefficients(1.0, 1.0))
        row0 = basis.derivative_rows(0.7, nrows=1)[0]
        a = math.sqrt(3.0)
        assert row0[0] == pytest.approx(math.cos(a * 0.7), rel=1e-14)
        assert row0[1] == pytest.approx(math.sin(a * 0.7) / a, rel=1e-14)
        assert row0[2] == 1.0
        assert row0[3] == 0.7


def _residual(basis, coeffs, phi):
    rows = basis.derivative_rows(phi, nrows=5)
    worst = 0.0
    for j in range(4):
        r = rows[4][j] + coeffs.p2 * rows[2][j] + coeffs.p0 * rows[0][j]
        scale = max(
            abs(rows[4][j]), abs(coeffs.p2 * rows[2][j]), abs(coeffs.p0 * rows[0][j])
        )
        if scale > 0:
            worst = max(worst, abs(r) / scale)
        else:
            assert r == 0.0
    return worst


class TestBasisProperties:
    def test_residual_random_sample(self):
        # Every basis function solves the governing equation pointwise.
        rng = random.Random(20240814)
        beta = 2.0
        for _ in range(1000):
            K = rng.uniform(0.0, 500.0)
            eta = rng.uniform(0.0, 4.0)
            phi = rng.uniform(0.0, beta)
            coeffs = characteristic_coefficients(K, eta)
            basis = quartic_roots(coeffs, phi_max=beta)
            assert _residual(basis, coeffs, phi) <= 1e-8

    def test_residual_tight_on_grid(self):
        for K, eta in ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0), (40.0, 0.3), (400.0, 2.0)):
            coeffs = characteristic_coefficients(K, eta)
            basis = quartic_roots(coeffs, phi_max=1.5)
            for i in range(21):
                assert _residual(basis, coeffs, 1.5 * i / 20) <= 1e-9

    def test_linear_independence(self):
        # Wronskian at a generic angle is far from singular for each branch.
        for K, eta in ((0.5, 0.0), (5.0, 0.2), (1.0, 1.0), (0.0, 0.0)):
            basis = quartic_roots(characteristic_coefficients(K, eta), phi_max=1.0)
            rows = basis.derivative_rows(0.6, nrows=4)
            sign, _ = det_sign_logmag([list(r) for r in rows])
            assert sign != 0

    def test_branch_continuity_at_unity(self):
        # Determinant value is continuous through the K = 1 branch switch.
        beta, eta = 1.3, 0.7

        def value(K):
            basis = quartic_roots(characteristic_coefficients(K, eta), phi_max=beta)
            sign, logmag = det_sign_logmag(assemble_uncracked(basis, beta))
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
        basis = quartic_roots(characteristic_coefficients(K, 0.0), phi_max=beta)
        assert basis.mu2 == pytest.approx(target**2, rel=1e-12)
        matrix = assemble_uncracked(basis, beta)
        assert np.isfinite(matrix).all()
        sign, logmag = det_sign_logmag(matrix)
        assert math.isfinite(logmag)


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
    def test_row_patterns(self):
        basis = quartic_roots(characteristic_coefficients(5.0, 0.2), phi_max=1.0)
        m = assemble_uncracked(basis, 1.0)
        assert m.shape == (4, 4)
        assert m[0] == pytest.approx((1.0, 0.0, 1.0, 0.0), abs=1e-15)
        # Second derivative row: [mu1, 0, mu2, 0] = [-a^2, 0, b^2, 0].
        assert m[1] == pytest.approx((-4.0, 0.0, 1.0, 0.0), abs=1e-14)

    def test_determinant_vanishes_at_closed_form(self):
        # Sign change bracketed within K_n * (1 +- 1e-6) for the whole grid.
        for beta in BETAS:
            for eta in ETAS:
                for n in range(1, 6):
                    kn = uncracked_K_closed_form(n, beta, eta)

                    def sgn(K):
                        basis = quartic_roots(
                            characteristic_coefficients(K, eta), phi_max=beta
                        )
                        s, _ = det_sign_logmag(assemble_uncracked(basis, beta))
                        return s

                    assert sgn(kn * (1 - 1e-6)) * sgn(kn * (1 + 1e-6)) == -1

    def test_near_zero_normalized_determinant_at_root(self):
        kn = uncracked_K_closed_form(2, 1.0, 0.5)
        basis = quartic_roots(characteristic_coefficients(kn, 0.5), phi_max=1.0)
        matrix = assemble_uncracked(basis, 1.0)
        _, logmag = det_sign_logmag(matrix)
        rows = [list(r) for r in matrix]
        log_row_scales = sum(math.log(max(abs(x) for x in row)) for row in rows)
        # Normalized determinant magnitude <= 1e-8.
        assert logmag - log_row_scales < math.log(1e-8)


class TestAssembleCracked:
    def test_zero_compliance_matches_uncracked_sign_pattern(self):
        beta, eta, alpha = 1.0, 0.3, 0.37
        ks = [1.0 + i * (2000.0 - 1.0) / 120 for i in range(121)]

        def signs(cracked):
            out = []
            for K in ks:
                basis = quartic_roots(characteristic_coefficients(K, eta), phi_max=beta)
                if cracked:
                    m = assemble_cracked(basis, beta, alpha, 0.0)
                else:
                    m = assemble_uncracked(basis, beta)
                s, _ = det_sign_logmag(m)
                out.append(s)
            return out

        s4, s8 = signs(False), signs(True)
        changes4 = [i for i in range(120) if s4[i] * s4[i + 1] < 0]
        changes8 = [i for i in range(120) if s8[i] * s8[i + 1] < 0]
        assert changes4 == changes8

    def test_mirrored_crack_same_zero_set(self):
        beta, eta, theta = 1.0, 0.0, 0.8
        ks = [1.0 + i * (2000.0 - 1.0) / 160 for i in range(161)]

        def signs(alpha):
            out = []
            for K in ks:
                basis = quartic_roots(characteristic_coefficients(K, eta), phi_max=beta)
                s, _ = det_sign_logmag(assemble_cracked(basis, beta, alpha, theta))
                out.append(s)
            return out

        sa, sb = signs(0.3), signs(0.7)
        changes_a = [i for i in range(160) if sa[i] * sa[i + 1] < 0]
        changes_b = [i for i in range(160) if sb[i] * sb[i + 1] < 0]
        assert changes_a == changes_b

    def test_degenerate_segment(self):
        basis = quartic_roots(characteristic_coefficients(5.0, 0.0), phi_max=1.0)
        with pytest.raises(DegenerateSegment):
            assemble_cracked(basis, 1.0, 0.0, 1.0)
        with pytest.raises(DegenerateSegment):
            assemble_cracked(basis, 1.0, 1.0, 1.0)


class TestSupportRows:
    @pytest.mark.parametrize("K, eta", [(0.5, 0.0), (1.0, 1.0), (5.0, 0.2), (40.0, 0.3)])
    def test_columns_are_scaled_odd_functions(self, K, eta):
        # Against the odd columns o(mu1), o(mu2) of the four-function basis.
        x, ref = 0.3, 0.8
        basis = quartic_roots(characteristic_coefficients(K, eta))
        plain = basis.derivative_rows(x, nrows=4)
        o1, o2 = plain[:, 1], plain[:, 3]
        if basis.mu2 > 0:
            second = o2 / math.cosh(math.sqrt(basis.mu2) * ref)
        else:
            second = (o2 - o1) / (basis.mu2 - basis.mu1)
        rows = basis.support_rows(x, ref)
        assert rows.shape == (4, 2)
        assert rows[:, 0] == pytest.approx(o1, rel=1e-13, abs=1e-15)
        assert rows[:, 1] == pytest.approx(second, rel=1e-12, abs=1e-15)

    def test_supports_hold_exactly(self):
        ks = np.array([0.0, 1e-8, 0.5, 1.0, 5.0, 400.0, 1e6])
        basis = quartic_roots(characteristic_coefficients(ks, 0.7), phi_max=2.0)
        rows = basis.support_rows(0.0, 1.3, nrows=3)
        assert rows.shape == (7, 3, 2)
        assert np.all(rows[:, 0] == 0.0) and np.all(rows[:, 2] == 0.0)

    def test_hyperbolic_column_at_the_crack(self):
        # a2 * ref from 1e-4 to about 34: entries tanh(a2*ref)/a2 and 1.
        ks = np.array([1.0 + 1e-8, 2.0, 50.0, 1e5])
        basis = quartic_roots(characteristic_coefficients(ks, 0.0))
        a2 = np.sqrt(basis.mu2)
        rows = basis.support_rows(1.9, 1.9)
        assert np.all(np.isfinite(rows))
        assert rows[:, 0, 1] == pytest.approx(np.tanh(a2 * 1.9) / a2, rel=1e-14)
        assert rows[:, 1, 1] == pytest.approx(1.0, rel=1e-15)

    def test_repeated_root_column_is_the_limit(self):
        # At K = 0 the divided difference is replaced by d o/d mu. Outside
        # the degeneracy window the rows approach it in step with mu2 - mu1,
        # with no loss to cancellation down to the window's edge.
        at = quartic_roots(characteristic_coefficients(0.0, 0.5))
        assert at.repeated
        limit = at.support_rows(1.7, 2.0)
        for K in (1e-6, 1e-8, 1e-10):
            near = quartic_roots(characteristic_coefficients(K, 0.5))
            assert not near.repeated
            gap = np.abs(near.support_rows(1.7, 2.0) - limit).max() / np.abs(limit).max()
            assert gap <= near.mu2 - near.mu1

    @pytest.mark.parametrize("beta, alpha", [(0.5, 0.2), (2.0, 1.4), (6.0, 3.0)])
    def test_cracked_sign_nonzero_at_repeated_root(self, beta, alpha):
        basis = quartic_roots(characteristic_coefficients(0.0, 0.3), phi_max=beta)
        for theta in (0.0, 1.0, 1e3):
            assert det_sign_logmag(assemble_cracked(basis, beta, alpha, theta))[0] != 0


class TestDeterminant:
    def test_identity(self):
        assert det_sign_logmag(np.eye(4)) == (1, 0.0)

    def test_diagonal(self):
        sign, logmag = det_sign_logmag(np.diag([2.0, 3.0, 4.0, 5.0]))
        assert sign == 1
        assert logmag == pytest.approx(math.log(120.0), rel=1e-14)

    def test_singular(self):
        sign, logmag = det_sign_logmag([[1.0, 2.0], [2.0, 4.0]])
        assert sign == 0

    def test_zero_row(self):
        sign, logmag = det_sign_logmag([[0.0, 0.0], [1.0, 2.0]])
        assert sign == 0
        assert logmag == -math.inf

    def test_against_cofactor_oracle(self):
        rng = np.random.RandomState(42)
        for n in (3, 4):
            for _ in range(50):
                m = rng.standard_normal((n, n))
                sign, logmag = det_sign_logmag(m)
                ref = cofactor_det(m.tolist())
                assert sign == (1 if ref > 0 else -1 if ref < 0 else 0)
                assert abs(logmag - math.log(abs(ref))) < 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            det_sign_logmag([[1.0, math.inf], [0.0, 1.0]])


class TestNullVector:
    def test_recovers_known_null_direction(self):
        rng = np.random.RandomState(3)
        x0 = rng.standard_normal(4)
        x0 /= np.linalg.norm(x0)
        rows = []
        for _ in range(4):
            r = rng.standard_normal(4)
            rows.append(r - (r @ x0) * x0)  # every row orthogonal to x0
        vec, minpiv = null_vector([list(r) for r in rows])
        v = np.array(vec)
        assert minpiv < 1e-12
        cosine = abs(v @ x0) / np.linalg.norm(v)
        assert cosine == pytest.approx(1.0, abs=1e-9)

    def test_largest_component_is_one(self):
        vec, _ = null_vector([[1.0, 1.0], [1.0, 1.0]])
        assert max(abs(v) for v in vec) == 1.0


def _random_stack(seed: int, order: int, count: int) -> np.ndarray:
    """Random matrices with rows scaled over 16 decades, like boundary systems."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((count, order, order))
    return m * 10.0 ** rng.uniform(-8.0, 8.0, (count, order, 1))


class TestStackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from((4, 8)),
        count=st.integers(1, 40),
    )
    def test_stack_matches_single_calls(self, seed, order, count):
        stack = _random_stack(seed, order, count)
        signs, logs = det_sign_logmag(stack)
        assert signs.shape == logs.shape == (count,)
        for m, sign, logmag in zip(stack, signs, logs):
            one_sign, one_log = det_sign_logmag(m)
            assert sign == one_sign
            assert abs(logmag - one_log) <= 1e-12

    def test_cracked_stack_against_cofactor_oracle(self):
        problem = make_problem(beta=1.3, eta=0.7, alpha=0.5, theta=1.2)
        ks = np.linspace(3.0, 900.0, 12)
        matrix = boundary_matrix(problem, ks)
        assert matrix.shape == (12, 4, 4)
        signs, logs = det_sign_logmag(matrix)
        for entries, sign, logmag in zip(matrix, signs, logs):
            ref = cofactor_det(entries.tolist())
            assert sign == (1 if ref > 0 else -1)
            assert abs(logmag - math.log(abs(ref))) < 1e-9

    def test_stacked_assembly_matches_single(self):
        problem = make_problem(beta=2.0, eta=0.3, alpha=0.8, theta=0.5)
        ks = np.array([0.5, 1.0, 7.0, 400.0, 5.0e4])
        stack = boundary_matrix(problem, ks)
        for k, entries in zip(ks, stack):
            assert np.array_equal(boundary_matrix(problem, float(k)), entries)

    def test_constructed_singular_matrices_have_sign_zero(self):
        stack = _random_stack(11, 8, 6)
        stack[0, 3] = stack[0, 5]  # repeated row
        stack[1, 7] = 2.0 * stack[1, 2]  # exactly proportional row
        stack[2, :, 6] = stack[2, :, 1]  # repeated column
        stack[3, 4] = 0.0  # zero row
        signs, logs = det_sign_logmag(stack)
        assert signs.tolist()[:4] == [0, 0, 0, 0]
        assert all(s != 0 for s in signs[4:])
        assert logs[3] == -math.inf
        for m in stack[:4]:
            assert det_sign_logmag(m)[0] == 0

    def test_null_vectors_of_stack_match_single_calls(self):
        problem = make_problem(beta=1.3, eta=0.7, alpha=0.5, theta=1.2)
        roots = find_frequencies(problem, SearchConfig(max_modes=4)).K_values
        stack = boundary_matrix(problem, np.array(roots))
        vectors, pivots = null_vector(stack)
        assert vectors.shape == (4, 4)
        for entries, vec, piv in zip(stack, vectors, pivots):
            one_vec, one_piv = null_vector(entries)
            assert one_vec == vec.tolist()
            assert one_piv == piv
            assert max(abs(v) for v in one_vec) == 1.0
            residual = np.abs(entries @ vec).max() / np.abs(entries).max()
            assert residual < 1e-8

    def test_rejects_nonfinite_trial_values(self):
        with pytest.raises(ValueError):
            characteristic_coefficients(np.array([1.0, math.nan]), 0.5)
        with pytest.raises(ValueError):
            characteristic_coefficients(1.0, math.inf)
        with pytest.raises(ValueError):
            det_sign_logmag(np.array([np.eye(4), np.full((4, 4), math.nan)]))

    def test_branch_of_a_stack(self):
        ks = np.array([0.0, 0.5, 1.0, 5.0])
        basis = quartic_roots(characteristic_coefficients(ks, 0.0))
        # Repeated, two trigonometric, zero root, trigonometric plus hyperbolic.
        assert basis.repeated.tolist() == [True, False, False, False]
        assert basis.mu1.tolist() == pytest.approx(
            [-1.0, -1.0 - math.sqrt(0.5), -2.0, -1.0 - math.sqrt(5.0)], rel=1e-14
        )
        assert basis.mu2[0] == -1.0 and -1.0 < basis.mu2[1] < 0.0
        assert basis.mu2[2] == 0.0 and basis.mu2[3] > 0.0
        # Every branch in one stack evaluates like the single-K basis.
        rows = basis.derivative_rows(0.7, nrows=5)
        for k, table in zip(ks, rows):
            single = quartic_roots(characteristic_coefficients(float(k), 0.0))
            assert np.array_equal(single.derivative_rows(0.7, nrows=5), table)
