import functools
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arch_resonance import (
    ArchProblem,
    ChiralityClass,
    CrackSpec,
    InvalidSpec,
    PowerLawCompliance,
    SearchConfig,
    SweepSpec,
    find_frequencies,
    omega_nd,
    resolve_preset,
    rows_to_csv,
    run_sweep,
    uncracked_K_closed_form,
    validation_table,
    validation_to_csv,
)
from arch_resonance import solver
from arch_resonance.cli import load_presets
from arch_resonance.model import BETA_MIN
from arch_resonance.sweep import CSV_HEADER
from conftest import rel_err

PRESETS = load_presets()
TUBES = {c: resolve_preset(c, PRESETS) for c in ChiralityClass}
ARMCHAIR = {ChiralityClass.ARMCHAIR: TUBES[ChiralityClass.ARMCHAIR]}


def eta_sweep(**kwargs) -> SweepSpec:
    defaults = dict(
        parameter="eta",
        start=0.0,
        stop=4.0,
        steps=5,
        tubes=ARMCHAIR,
        beta=1.0,
        eta_nd=1.0,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSpecValidation:
    def test_single_step_rejected(self):
        with pytest.raises(InvalidSpec):
            eta_sweep(steps=1)

    def test_reversed_range_rejected(self):
        with pytest.raises(InvalidSpec):
            eta_sweep(start=4.0, stop=0.0)
        with pytest.raises(InvalidSpec):
            eta_sweep(parameter="radius", start=2e-9, stop=math.inf)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidSpec):
            eta_sweep(parameter="thickness")

    def test_eta_given_exactly_once(self):
        with pytest.raises(InvalidSpec, match="exactly one"):
            eta_sweep(eta_physical=1e-18)
        with pytest.raises(InvalidSpec, match="exactly one"):
            eta_sweep(eta_nd=None)

    def test_no_tube_rejected(self):
        with pytest.raises(InvalidSpec):
            eta_sweep(tubes={})

    @pytest.mark.parametrize(
        "parameter, start, stop",
        [("beta", 6.0, 7.0), ("eta", -1.0, 1.0), ("radius", 0.1e-9, 2e-9),
         ("radius", 1.0, 1e91)],  # the last: R^4 overflows
    )
    def test_invalid_range_end_rejected_before_solving(self, monkeypatch, parameter, start, stop):
        def no_solve(*args):
            raise AssertionError("solved a point of an invalid range")

        monkeypatch.setattr(solver, "find_frequencies", no_solve)
        with pytest.raises(InvalidSpec, match=f"{parameter} = "):
            run_sweep(eta_sweep(parameter=parameter, start=start, stop=stop))


class TestEtaSweep:
    def test_matches_closed_form(self):
        rows = run_sweep(eta_sweep())
        assert len(rows) == 5
        for row, eta in zip(rows, (0.0, 1.0, 2.0, 3.0, 4.0)):
            assert row.eta_nd == eta
            assert rel_err(row.K, uncracked_K_closed_form(1, 1.0, eta)) < 1e-8
            assert row.note == ""

    def test_strictly_decreasing(self):
        rows = run_sweep(eta_sweep(steps=9))
        values = [row.omega_nd for row in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_omega_consistency(self):
        for row in run_sweep(eta_sweep()):
            assert rel_err(row.omega_nd, math.sqrt(row.K) * row.beta_rad**2) < 1e-14


class TestRadiusSweep:
    def test_inverse_square_at_zero_eta(self):
        spec = SweepSpec(
            parameter="radius",
            start=2e-9,
            stop=2e-8,
            steps=5,
            tubes=ARMCHAIR,
            eta_physical=0.0,
        )
        rows = run_sweep(spec)
        products = [row.omega_rad_s * row.radius_m**2 for row in rows]
        for p in products[1:]:
            assert rel_err(p, products[0]) < 1e-10

    def test_strictly_decreasing_at_positive_physical_eta(self):
        spec = SweepSpec(
            parameter="radius",
            start=2e-9,
            stop=2e-8,
            steps=9,
            tubes=ARMCHAIR,
            eta_physical=1e-18,  # 1 nm^2
        )
        rows = run_sweep(spec)
        values = [row.omega_rad_s for row in rows]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestOrderingAndDegradation:
    def test_parameter_major_order_all_chiralities(self):
        spec = SweepSpec(
            parameter="eta",
            start=0.0,
            stop=1.0,
            steps=2,
            tubes=TUBES,
            eta_nd=1.0,
        )
        rows = run_sweep(spec)
        assert [r.chirality for r in rows] == [
            "armchair",
            "zigzag",
            "chiral",
            "armchair",
            "zigzag",
            "chiral",
        ]
        assert [r.eta_nd for r in rows] == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_failed_points_degrade_to_blank_rows(self):
        # Fixed crack angle exceeds the smallest swept central angles.
        crack = CrackSpec(0.5, 0.3, PowerLawCompliance())
        spec = SweepSpec(
            parameter="beta",
            start=0.1,
            stop=3.0,
            steps=5,
            tubes=ARMCHAIR,
            eta_nd=1.0,
            crack=crack,
        )
        rows = run_sweep(spec)
        assert len(rows) == 5
        bad = [r for r in rows if r.note == "crack-outside"]
        good = [r for r in rows if r.note == ""]
        assert bad and good
        assert all(r.K is None and r.eta_nd == 1.0 for r in bad)
        assert all(r.K is not None for r in good)

    def test_short_search_degrades_to_no_root(self, monkeypatch):
        # With k_max = 10 the fundamental at beta = 1 (K = 78.67) is out of
        # range, while those at beta = 2 and 3 (K = 2.15 and 0.0093) are not.
        short = functools.partial(solver.SearchConfig, k_max=10.0)
        monkeypatch.setattr(solver, "SearchConfig", short)
        spec = SweepSpec(
            parameter="beta", start=1.0, stop=3.0, steps=3, tubes=ARMCHAIR, eta_nd=0.0
        )
        rows = run_sweep(spec)
        assert [r.note for r in rows] == ["no-root", "", ""]
        assert rows[0].K is rows[0].omega_nd is rows[0].omega_rad_s is None
        for row in rows[1:]:
            assert rel_err(row.K, uncracked_K_closed_form(1, row.beta_rad, 0.0)) < 1e-8
        assert rows_to_csv(rows).splitlines()[1].endswith(",1,,,,no-root")

    def test_byte_identical_reruns(self):
        spec = eta_sweep()
        assert rows_to_csv(run_sweep(spec)) == rows_to_csv(run_sweep(spec))

    def test_csv_header_exact(self):
        text = rows_to_csv(run_sweep(eta_sweep(steps=2)))
        assert text.splitlines()[0] == CSV_HEADER
        assert (
            CSV_HEADER
            == "chirality,beta_rad,eta_nd,radius_m,alpha_rad,psi,mode,K,omega_nd,omega_rad_s,note"
        )


class TestValidationTable:
    def test_classical_limit_value(self):
        rows = validation_table(0.05)
        # Omega = pi^2 - beta^2 in the classical uncracked limit.
        assert rel_err(rows[0].omega_nd, math.pi**2 - 0.05**2) < 1e-8
        assert rows[0].present == 9.75821
        assert rows[0].thai == 9.2745

    def test_reference_columns_attach_to_integer_eta(self):
        rows = validation_table(0.05)
        assert [r.present for r in rows] == [9.75821, 7.05584, 5.80188, 5.04192, 4.51883]
        assert [r.thai for r in rows] == [9.2745, 8.8482, 8.4757, 8.1466, 7.8530]

    def test_straight_limit_approaches_pi_squared(self):
        rows = validation_table(0.005)
        assert abs(rows[0].omega_nd - math.pi**2) / math.pi**2 < 3e-4

    @given(st.floats(BETA_MIN, 0.5))
    @example(BETA_MIN)
    @example(0.5)
    def test_rows_are_the_solvers_fundamental(self, beta):
        # Each row is K_1's closed form; the solver's first root is the reference.
        cfg = SearchConfig(max_modes=1)
        for row in validation_table(beta):
            spectrum = find_frequencies(ArchProblem(beta=beta, eta_nd=row.eta), cfg)
            assert row.omega_nd == omega_nd(spectrum.roots[0].K, beta)

    def test_large_angle_rejected(self):
        with pytest.raises(InvalidSpec):
            validation_table(0.7)

    def test_angle_below_floor_rejected(self):
        with pytest.raises(InvalidSpec):
            validation_table(1e-200)

    def test_csv_serialization(self):
        text = validation_to_csv(validation_table(0.05))
        lines = text.splitlines()
        assert lines[0] == "mode,eta,present,thai,omega_nd"
        assert lines[1].startswith("1,0,9.75821,9.2745,")
