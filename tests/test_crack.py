import pytest
from hypothesis import given
from hypothesis import strategies as st

from arch_resonance import (
    ArchProblem,
    CrackJoint,
    InvalidModel,
    OutOfRange,
    PolynomialCompliance,
    PowerLawCompliance,
    SearchConfig,
    compliance,
    find_frequencies,
)


class TestPowerLaw:
    def test_intact_section(self):
        assert compliance(PowerLawCompliance(), 0.0) == 0.0

    def test_reference_point(self):
        # kappa0 = 1, h/R = 1, psi = 0.5: 0.25 / 0.25 = 1.
        model = PowerLawCompliance(kappa0=1.0)
        assert compliance(model, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_through_crack_rejected(self):
        with pytest.raises(OutOfRange):
            compliance(PowerLawCompliance(), 1.0)
        with pytest.raises(OutOfRange):
            compliance(PowerLawCompliance(), -0.1)

    def test_linear_in_gain_and_geometry(self):
        base = compliance(PowerLawCompliance(kappa0=1.0), 0.3, (1.0, 1.0))
        assert compliance(PowerLawCompliance(kappa0=7.5), 0.3, (1.0, 1.0)) == 7.5 * base
        assert compliance(PowerLawCompliance(kappa0=1.0), 0.3, (0.34, 10.0)) == (
            0.34 / 10.0
        ) * base

    @given(st.floats(0.0, 0.95), st.floats(0.0, 0.95))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        model = PowerLawCompliance()
        assert compliance(model, hi) >= compliance(model, lo)


class TestPolynomial:
    def test_evaluates(self):
        model = PolynomialCompliance("quad", (0.0, 0.0, 2.0), scale=3.0)
        assert compliance(model, 0.5) == pytest.approx(1.5, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(InvalidModel):
            PolynomialCompliance("bad", (0.0, -1.0))

    def test_nonzero_constant_rejected(self):
        with pytest.raises(InvalidModel):
            PolynomialCompliance("bad", (0.5, 1.0))

    def test_empty_rejected(self):
        with pytest.raises(InvalidModel):
            PolynomialCompliance("bad", ())

    def test_monotone_on_grid(self):
        model = PolynomialCompliance("cubic", (0.0, 1.0, 0.5, 2.0))
        values = [compliance(model, i / 200 * 0.95) for i in range(201)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestDownstreamMonotonicity:
    def test_fundamental_nonincreasing_in_compliance(self):
        cfg = SearchConfig(max_modes=1)
        k_values = []
        for theta in (0.0, 0.1, 0.5, 1.0, 5.0):
            problem = ArchProblem(
                beta=1.0, eta_nd=0.0, crack=CrackJoint(alpha=0.5, theta_c=theta)
            )
            k_values.append(find_frequencies(problem, cfg).roots[0].K)
        assert all(b <= a for a, b in zip(k_values, k_values[1:]))
        assert k_values[-1] > 0.0
