import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arch_resonance import (
    ArchProblem,
    ChiralityClass,
    ChiralitySpec,
    CrackJoint,
    CrackSpec,
    InvalidPreset,
    MissingPreset,
    PhysicalTube,
    PowerLawCompliance,
    classify_chirality,
    nondimensionalize,
    omega_from_K,
    omega_nd,
    resolve_preset,
    tube_diameter,
)

GOOD_PRESET = {
    "youngs_modulus_tpa": 1.0,
    "diameter_nm": 0.678,
    "wall_thickness_nm": 0.34,
    "mass_per_length_kg_per_m": 1.6367e-15,
    "arch_radius_nm": 10.0,
}


class TestChirality:
    def test_armchair(self):
        assert classify_chirality(ChiralitySpec(6, 6)) is ChiralityClass.ARMCHAIR

    def test_zigzag(self):
        assert classify_chirality(ChiralitySpec(9, 0)) is ChiralityClass.ZIGZAG

    def test_chiral(self):
        assert classify_chirality(ChiralitySpec(8, 3)) is ChiralityClass.CHIRAL

    def test_canonical_swap(self):
        spec = ChiralitySpec(3, 8)
        assert (spec.n, spec.m) == (8, 3)

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            ChiralitySpec(0, 0)
        with pytest.raises(ValueError):
            ChiralitySpec(5, -1)
        with pytest.raises(ValueError):
            ChiralitySpec(5, 5, bond_length=0.0)

    @given(st.integers(1, 60), st.integers(0, 60))
    def test_classification_total(self, n, m):
        spec = ChiralitySpec(n, m)
        cls = classify_chirality(spec)
        if spec.n == spec.m:
            assert cls is ChiralityClass.ARMCHAIR
        elif spec.m == 0:
            assert cls is ChiralityClass.ZIGZAG
        else:
            assert cls is ChiralityClass.CHIRAL


class TestDiameter:
    def test_armchair_55(self):
        # Direct evaluation of d = (sqrt(3) a / pi) sqrt(n^2 + nm + m^2).
        d = tube_diameter(ChiralitySpec(5, 5))
        assert d == pytest.approx(0.6780000575714741, rel=1e-12)

    def test_zigzag_10(self):
        d = tube_diameter(ChiralitySpec(10, 0))
        assert d == pytest.approx(0.7828870314989446, rel=1e-12)

    def test_unit_reduction(self):
        # bond length pi/sqrt(3) collapses the prefactor to 1.
        d = tube_diameter(ChiralitySpec(1, 0, bond_length=math.pi / math.sqrt(3.0)))
        assert d == pytest.approx(1.0, rel=1e-14)

    @given(st.integers(1, 50), st.integers(0, 50))
    def test_symmetric_in_indices(self, n, m):
        assert tube_diameter(ChiralitySpec(n, m)) == tube_diameter(ChiralitySpec(m, n))

    def test_increasing_in_n(self):
        diameters = [tube_diameter(ChiralitySpec(n, 3)) for n in range(3, 12)]
        assert all(b > a for a, b in zip(diameters, diameters[1:]))


class TestPhysicalTube:
    def test_moment_of_inertia_recomputed(self):
        tube = PhysicalTube(1e12, 10e-9, 0.678e-9, 0.34e-9, 1.6367e-15)
        assert tube.moment_of_inertia == pytest.approx(1.0372624927972261e-38, rel=1e-12)

    def test_positivity(self):
        with pytest.raises(ValueError):
            PhysicalTube(0.0, 10e-9, 0.678e-9, 0.34e-9, 1.6e-15)

    def test_diameter_vs_radius(self):
        with pytest.raises(ValueError):
            PhysicalTube(1e12, 0.3e-9, 0.678e-9, 0.34e-9, 1.6e-15)


class TestResolvePreset:
    def test_from_diameter(self):
        tube = resolve_preset(ChiralityClass.ARMCHAIR, {"armchair": GOOD_PRESET})
        assert tube.youngs_modulus == 1e12
        assert tube.moment_of_inertia == pytest.approx(1.0372624927972261e-38, rel=1e-12)

    def test_from_indices(self):
        entry = dict(GOOD_PRESET)
        del entry["diameter_nm"]
        entry["n"], entry["m"] = 5, 5
        tube = resolve_preset(ChiralityClass.ARMCHAIR, {"armchair": entry})
        assert tube.diameter == pytest.approx(0.6780000575714741e-9, rel=1e-12)

    def test_missing_class(self):
        with pytest.raises(MissingPreset):
            resolve_preset(ChiralityClass.CHIRAL, {"armchair": GOOD_PRESET})

    def test_nonpositive_field(self):
        entry = dict(GOOD_PRESET, youngs_modulus_tpa=0.0)
        with pytest.raises(InvalidPreset):
            resolve_preset(ChiralityClass.ARMCHAIR, {"armchair": entry})

    def test_missing_key(self):
        entry = dict(GOOD_PRESET)
        del entry["wall_thickness_nm"]
        with pytest.raises(InvalidPreset):
            resolve_preset(ChiralityClass.ARMCHAIR, {"armchair": entry})


class TestNondimensionalize:
    tube = PhysicalTube(1e12, 10e-9, 0.678e-9, 0.34e-9, 1.6367e-15)

    def test_zero_maps_to_zero(self):
        problem = nondimensionalize(self.tube, 0.0, beta=1.0)
        assert problem.eta_nd == 0.0

    def test_radius_squared_is_unity(self):
        problem = nondimensionalize(self.tube, self.tube.radius**2, beta=1.0)
        assert problem.eta_nd == pytest.approx(1.0, rel=1e-14)

    def test_intact_crack_gives_zero_compliance(self):
        crack = CrackSpec(0.5, 0.0, PowerLawCompliance())
        problem = nondimensionalize(self.tube, 0.0, crack, beta=1.0)
        assert problem.crack.theta_c == 0.0

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            nondimensionalize(self.tube, -1.0, beta=1.0)

    def test_dimensionless_eta_passes_through(self):
        problem = nondimensionalize(self.tube, beta=1.0, eta_nd=0.25)
        assert problem.eta_nd == 0.25

    def test_without_tube_geometry_factor_is_one(self):
        crack = CrackSpec(0.5, 0.5, PowerLawCompliance(kappa0=1.0))
        problem = nondimensionalize(None, None, crack, beta=1.0, eta_nd=0.0)
        assert problem.crack.theta_c == 1.0
        with pytest.raises(ValueError, match="tube"):
            nondimensionalize(None, 1e-18, beta=1.0)

    @pytest.mark.parametrize("eta", [{}, {"eta_physical": 0.0, "eta_nd": 0.0}])
    def test_exactly_one_eta(self, eta):
        with pytest.raises(ValueError, match="exactly one"):
            nondimensionalize(self.tube, beta=1.0, **eta)


class TestOmega:
    # Coherent SI tube engineered so E I / (mu R^4) is exactly 1:
    # d = 1 gives I = pi/64, E = 64/pi cancels it, mu = 1/16 cancels R^4 = 16.
    unit_tube = PhysicalTube(
        youngs_modulus=64.0 / math.pi,
        radius=2.0,
        diameter=1.0,
        wall_thickness=1.0,
        mass_per_length=1.0 / 16.0,
    )

    def test_unit_values(self):
        assert omega_from_K(1.0, self.unit_tube) == pytest.approx(1.0, rel=1e-14)

    def test_zero_mode(self):
        assert omega_from_K(0.0, self.unit_tube) == 0.0

    def test_arithmetic(self):
        # Same tube with mu scaled down 9x: E I / (mu R^4) = 9, omega = sqrt(4 * 9).
        tube = PhysicalTube(64.0 / math.pi, 2.0, 1.0, 1.0, 1.0 / 144.0)
        assert omega_from_K(4.0, tube) == pytest.approx(6.0, rel=1e-12)

    def test_radius_scaling(self):
        # At fixed K, doubling R divides omega by 4.
        tube = PhysicalTube(1e12, 10e-9, 0.678e-9, 0.34e-9, 1.6367e-15)
        w1 = omega_from_K(5.0, tube)
        w2 = omega_from_K(5.0, replace(tube, radius=20e-9))
        assert w1 / w2 == pytest.approx(4.0, rel=1e-12)

    def test_increasing_in_K(self):
        tube = PhysicalTube(1e12, 10e-9, 0.678e-9, 0.34e-9, 1.6367e-15)
        values = [omega_from_K(k, tube) for k in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_omega_nd(self):
        assert omega_nd(4.0, 0.5) == pytest.approx(0.5, rel=1e-14)


class TestRoundTrip:
    def test_omega_nd_independent_of_material(self):
        # Two tubes with different E and mu but identical geometry produce the
        # same dimensionless problem, hence the same K and omega_nd.
        from arch_resonance import SearchConfig, find_frequencies

        tube_a = PhysicalTube(1e12, 10e-9, 0.678e-9, 0.34e-9, 1.6367e-15)
        tube_b = PhysicalTube(7e12, 10e-9, 0.678e-9, 0.34e-9, 9.1e-16)
        eta_phys = 0.5 * tube_a.radius**2
        cfg = SearchConfig(max_modes=2)
        omegas = []
        for tube in (tube_a, tube_b):
            problem = nondimensionalize(tube, eta_phys, beta=1.2)
            spectrum = find_frequencies(problem, cfg)
            omegas.append([omega_nd(root.K, problem.beta) for root in spectrum.roots])
        assert omegas[0] == omegas[1]


class TestArchProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArchProblem(beta=0.0, eta_nd=0.0)
        with pytest.raises(ValueError):
            ArchProblem(beta=7.0, eta_nd=0.0)
        with pytest.raises(ValueError):
            ArchProblem(beta=1.0, eta_nd=-0.1)
        with pytest.raises(ValueError):
            ArchProblem(beta=1.0, eta_nd=0.0, crack=CrackJoint(1.5, 0.0))
        with pytest.raises(ValueError):
            ArchProblem(beta=1.0, eta_nd=0.0, crack=CrackJoint(0.5, -1.0))

    def test_crack_spec_validation(self):
        with pytest.raises(ValueError):
            CrackSpec(0.5, 1.0, PowerLawCompliance())
        with pytest.raises(ValueError):
            CrackSpec(-0.5, 0.3, PowerLawCompliance())
