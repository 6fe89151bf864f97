"""The package's frozen records: fields, defaults, immutability, equality, repr, replace.

Every record of ``cli``, ``crack``, ``kernel``, ``model``, ``solver`` and
``sweep`` behaves as a frozen dataclass does: its ``repr`` is part of the
program's output (the ``freq`` info line prints a :class:`CrackJoint`), its
``__dict__`` is the JSON of a sweep or validation row, and ``replace`` runs
its checks again.
"""

import math
from collections import namedtuple
from types import SimpleNamespace

import pytest

from arch_resonance import cli, crack, kernel, model, solver, sweep
from arch_resonance._record import replace

TUBE = model.PhysicalTube(1e12, 1e-8, 1e-9, 3.4e-10, 1e-15)
TUBE_TEXT = (
    "PhysicalTube(youngs_modulus=1000000000000.0, radius=1e-08, diameter=1e-09, "
    "wall_thickness=3.4e-10, mass_per_length=1e-15)"
)
JOINT = model.CrackJoint(0.5, 0.1)

# A record, its fields in order, a value for each, its repr, the defaults and
# the keywords that a call giving only the fields without a default also needs.
Case = namedtuple("Case", "cls fields values text defaults keywords", defaults=({},))
CASES = [
    Case(model.ChiralitySpec, ("n", "m", "bond_length"), (10, 7, 0.142),
         "ChiralitySpec(n=10, m=7, bond_length=0.142)", {"bond_length": 0.142}),
    Case(model.PhysicalTube,
         ("youngs_modulus", "radius", "diameter", "wall_thickness", "mass_per_length"),
         (1e12, 1e-8, 1e-9, 3.4e-10, 1e-15), TUBE_TEXT, {}),
    Case(model.CrackSpec, ("position_angle", "depth_ratio", "compliance_model"),
         (0.5, 0.3, crack.PowerLawCompliance()),
         "CrackSpec(position_angle=0.5, depth_ratio=0.3, "
         "compliance_model=PowerLawCompliance(kappa0=18.84955592153876))", {}),
    Case(model.CrackJoint, ("alpha", "theta_c"), (0.5, 0.1),
         "CrackJoint(alpha=0.5, theta_c=0.1)", {}),
    Case(model.ArchProblem, ("beta", "eta_nd", "crack"), (1.0, 1.0, JOINT),
         "ArchProblem(beta=1.0, eta_nd=1.0, crack=CrackJoint(alpha=0.5, theta_c=0.1))",
         {"crack": None}),
    Case(crack.PowerLawCompliance, ("kappa0",), (6.0 * math.pi,),
         "PowerLawCompliance(kappa0=18.84955592153876)", {"kappa0": 6.0 * math.pi}),
    Case(crack.PolynomialCompliance, ("coefficients", "scale"), ((0.0, 1.0), 2.0),
         "PolynomialCompliance(coefficients=(0.0, 1.0), scale=2.0)", {"scale": 1.0}),
    Case(solver.SearchConfig, ("k_min", "k_max", "grid_points", "refine_tol", "max_modes"),
         (1e-6, None, 256, 1e-10, 5),
         "SearchConfig(k_min=1e-06, k_max=None, grid_points=256, refine_tol=1e-10, max_modes=5)",
         {"k_min": 1e-6, "k_max": None, "grid_points": 256, "refine_tol": 1e-10, "max_modes": 5}),
    Case(solver.Root, ("K",), (2.0,), "Root(K=2.0)", {}),
    Case(solver.Spectrum, ("roots",), ((solver.Root(2.0),),),
         "Spectrum(roots=(Root(K=2.0),))", {}),
    Case(kernel.ModeBasis, ("mu1", "mu2", "repeated"), (-1.0, 1.0, False),
         "ModeBasis(mu1=-1.0, mu2=1.0, repeated=False)", {"repeated": False}),
    Case(sweep.SweepSpec,
         ("parameter", "start", "stop", "steps", "tubes", "mode", "beta", "eta_nd",
          "eta_physical", "crack"),
         ("beta", 0.1, 3.0, 3, {model.ChiralityClass.ARMCHAIR: TUBE}, 1, 1.0, 1.0, None, None),
         "SweepSpec(parameter='beta', start=0.1, stop=3.0, steps=3, "
         f"tubes={{<ChiralityClass.ARMCHAIR: 'armchair'>: {TUBE_TEXT}}}, mode=1, beta=1.0, "
         "eta_nd=1.0, eta_physical=None, crack=None)",
         {"mode": 1, "beta": 1.0, "eta_physical": None, "crack": None}, {"eta_nd": 1.0}),
    Case(sweep.SweepRow,
         ("chirality", "beta_rad", "eta_nd", "radius_m", "alpha_rad", "psi", "mode", "K",
          "omega_nd", "omega_rad_s", "note"),
         ("armchair", 1.0, 1.0, 1e-8, 0.0, 0.0, 1, 2.0, 2.0, 3e9, ""),
         "SweepRow(chirality='armchair', beta_rad=1.0, eta_nd=1.0, radius_m=1e-08, "
         "alpha_rad=0.0, psi=0.0, mode=1, K=2.0, omega_nd=2.0, omega_rad_s=3000000000.0, "
         "note='')", {"note": ""}),
    Case(sweep.ValidationRow, ("mode", "eta", "present", "thai", "omega_nd"),
         (1, 0.0, 9.75821, 9.2745, 9.87),
         "ValidationRow(mode=1, eta=0.0, present=9.75821, thai=9.2745, omega_nd=9.87)", {}),
    Case(cli.CliInvocation, ("command", "config_path", "overrides", "output_path", "format"),
         ("freq", None, {}, None, "table"),
         "CliInvocation(command='freq', config_path=None, overrides={}, output_path=None, "
         "format='table')", {}),
]
IDS = [case.cls.__name__ for case in CASES]


def hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestRecord:
    def test_positional_order(self, case):
        record = case.cls(*case.values)
        assert tuple(getattr(record, name) for name in case.fields) == case.values
        assert case.cls.__match_args__ == case.fields
        assert list(record.__dict__) == list(case.fields)  # a row's JSON keys, in order

    def test_keywords_match_positions(self, case):
        assert case.cls(**dict(zip(case.fields, case.values))) == case.cls(*case.values)

    def test_defaults(self, case):
        required = case.values[: len(case.fields) - len(case.defaults) - len(case.keywords)]
        record = case.cls(*required, **case.keywords)
        for name, default in case.defaults.items():
            assert getattr(record, name) == default, name
            assert getattr(case.cls, name) == default, name  # kept as a class attribute
        if required:
            with pytest.raises(TypeError):
                case.cls(*required[:-1], **case.keywords)

    def test_fields_are_frozen(self, case):
        record = case.cls(*case.values)
        for name in (*case.fields, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in case.fields) == case.values

    def test_equality_with_the_same_class_only(self, case):
        record = case.cls(*case.values)
        assert record == case.cls(*case.values)
        assert not record != case.cls(*case.values)
        assert record != case.values
        assert record.__eq__(SimpleNamespace(**record.__dict__)) is NotImplemented

    def test_hash_is_the_fields_hash(self, case):
        record = case.cls(*case.values)
        if hashable(case.values):
            assert hash(record) == hash(case.cls(*case.values)) == hash(case.values)
        else:  # a dict field
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)

    def test_repr(self, case):
        assert repr(case.cls(*case.values)) == case.text

    def test_replace_keeps_the_other_fields(self, case):
        record = case.cls(*case.values)
        copy = replace(record)
        assert copy == record and copy is not record
        with pytest.raises(TypeError):
            replace(record, no_such_field=1)


class TestReplace:
    def test_replace_sets_one_field(self):
        cfg = solver.SearchConfig(grid_points=64)
        assert replace(cfg, max_modes=3) == solver.SearchConfig(grid_points=64, max_modes=3)
        assert cfg.max_modes == 5

    def test_replace_runs_the_checks_again(self):
        with pytest.raises(ValueError, match="max_modes must be at least 1"):
            replace(solver.SearchConfig(), max_modes=0)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            replace(TUBE, radius=-1.0)

    def test_replace_canonicalizes_again(self):
        assert replace(model.ChiralitySpec(5, 3), m=7) == model.ChiralitySpec(7, 5)
        poly = replace(crack.PolynomialCompliance((0, 1)), coefficients=[0, 2])
        assert poly.coefficients == (0.0, 2.0)
