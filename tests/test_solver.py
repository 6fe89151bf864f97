import logging
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arch_resonance import (
    ArchProblem,
    CrackJoint,
    DegenerateSegment,
    NoRootsInRange,
    RootFlag,
    SearchConfig,
    boundary_determinant,
    characteristic_coefficients,
    find_frequencies,
    mode_shape,
    quartic_roots,
    refine_root,
    scan_and_bracket,
    uncracked_K_closed_form,
)
from arch_resonance import kernel, solver
from arch_resonance.cli import main
from arch_resonance.kernel import SEGMENT_TOL
from arch_resonance.model import BETA_MIN
from conftest import make_problem, rel_err

K1_B1_E0 = 78.6698822318237
K1_B1_E1 = 7.237603074490859


def _coefficients(problem, root):
    """The root's mode coefficients: the null vector of its boundary system."""
    return tuple(kernel.null_vector(solver.boundary_matrix(problem, root.K)).tolist())


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(k_min=-1.0)
        with pytest.raises(ValueError):
            SearchConfig(k_min=5.0, k_max=4.0)
        with pytest.raises(ValueError):
            SearchConfig(grid_points=4)
        with pytest.raises(ValueError):
            SearchConfig(refine_tol=0.0)
        with pytest.raises(ValueError):
            SearchConfig(max_modes=0)


class TestScanAndBracket:
    def test_single_bracket_contains_fundamental(self):
        result = scan_and_bracket(make_problem(), SearchConfig(k_max=100.0))
        assert len(result.brackets) == 1
        lo, hi = result.brackets[0]
        assert lo <= K1_B1_E0 <= hi
        assert result.suspects == ()

    def test_no_roots_below_fundamental(self):
        with pytest.raises(NoRootsInRange):
            scan_and_bracket(make_problem(), SearchConfig(k_max=10.0))

    def test_zero_compliance_same_bracket_count(self):
        cfg = SearchConfig(k_max=10000.0)
        plain = scan_and_bracket(make_problem(), cfg)
        cracked = scan_and_bracket(make_problem(alpha=0.4, theta=0.0), cfg)
        assert len(plain.brackets) == len(cracked.brackets)

    def test_bracket_endpoints_straddle(self):
        problem = make_problem(eta=0.5)
        result = scan_and_bracket(problem, SearchConfig(k_max=5000.0))
        for lo, hi in result.brackets:
            s_lo, _ = boundary_determinant(problem, lo)
            s_hi, _ = boundary_determinant(problem, hi)
            assert s_lo * s_hi == -1


class TestRefineRoot:
    def test_fundamental(self):
        k = refine_root((70.0, 90.0), make_problem())
        assert rel_err(k, K1_B1_E0) < 1e-8

    def test_fundamental_nonlocal(self):
        k = refine_root((7.0, 7.5), make_problem(eta=1.0))
        assert rel_err(k, K1_B1_E1) < 1e-8

    def test_degenerate_bracket_returns_endpoint(self):
        assert refine_root((42.0, 42.0), make_problem()) == 42.0

    def test_empty_bracket_list(self):
        roots = refine_root([], make_problem())
        assert isinstance(roots, np.ndarray) and roots.shape == (0,)
        assert refine_root([], []).shape == (0,)

    def test_unbracketed_rejected(self):
        with pytest.raises(ValueError):
            refine_root((1.0, 2.0), make_problem())

    def test_deterministic(self):
        a = refine_root((70.0, 90.0), make_problem())
        b = refine_root((70.0, 90.0), make_problem())
        assert a == b


class TestFindFrequencies:
    def test_matches_closed_form_classical(self):
        spectrum = find_frequencies(make_problem(), SearchConfig(max_modes=3))
        for n, root in enumerate(spectrum.roots, start=1):
            assert rel_err(root.K, uncracked_K_closed_form(n, 1.0, 0.0)) < 1e-8
            assert root.flag is RootFlag.BRACKETED

    def test_matches_closed_form_nonlocal(self):
        spectrum = find_frequencies(make_problem(eta=1.0), SearchConfig(max_modes=3))
        for n, root in enumerate(spectrum.roots, start=1):
            assert rel_err(root.K, uncracked_K_closed_form(n, 1.0, 1.0)) < 1e-8

    def test_crack_lowers_fundamental(self):
        plain = find_frequencies(make_problem(), SearchConfig(max_modes=1))
        cracked = find_frequencies(
            make_problem(alpha=0.5, theta=1.0), SearchConfig(max_modes=1)
        )
        assert cracked.roots[0].K < plain.roots[0].K

    def test_roots_strictly_increasing_above_k_min(self):
        cfg = SearchConfig(max_modes=5)
        spectrum = find_frequencies(make_problem(eta=0.5), cfg)
        ks = spectrum.K_values
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert ks[0] > cfg.k_min

    def test_rank_deficiency_at_roots(self):
        # The null vector annihilates the row-scaled boundary matrix.
        problem = make_problem()
        spectrum = find_frequencies(problem, SearchConfig(max_modes=3))
        for root in spectrum.roots:
            matrix = solver.boundary_matrix(problem, root.K)
            matrix /= np.abs(matrix).max(axis=1, keepdims=True)
            vec = kernel.null_vector(matrix)
            assert np.abs(matrix @ vec).max() <= 1e-7

    def test_inextensional_artifact_excluded(self):
        # At beta = pi the n = 1 closed form collapses to K = 0; the first
        # reported root must be the n = 2 eigenvalue.
        problem = make_problem(beta=math.pi)
        spectrum = find_frequencies(problem, SearchConfig(max_modes=2))
        assert rel_err(spectrum.roots[0].K, uncracked_K_closed_form(2, math.pi, 0.0)) < 1e-8

    def test_bit_identical_reruns(self):
        pa = make_problem(eta=0.5, alpha=0.3, theta=0.7)
        pb = make_problem(eta=0.5, alpha=0.3, theta=0.7)
        a, b = find_frequencies(pa), find_frequencies(pb)
        assert a.K_values == b.K_values
        assert all(
            _coefficients(pa, ra) == _coefficients(pb, rb) for ra, rb in zip(a.roots, b.roots)
        )

    def test_k_min_zero_cracked(self):
        # K = 0 is the repeated characteristic root; the cracked determinant
        # must not read it as a root.
        problem = make_problem(eta=0.5, alpha=0.3, theta=0.7)
        assert boundary_determinant(problem, 0.0)[0] != 0
        base = find_frequencies(problem)
        from_zero = find_frequencies(problem, SearchConfig(k_min=0.0))
        assert [r.flag for r in from_zero.roots] == [r.flag for r in base.roots]
        for k0, k in zip(from_zero.K_values, base.K_values):
            assert abs(k0 - k) <= 2e-10 * max(1.0, k)

    def test_propagates_no_roots(self):
        with pytest.raises(NoRootsInRange):
            find_frequencies(make_problem(), SearchConfig(k_max=10.0))


class TestOracleEquivalence:
    def test_closed_form_grid(self):
        # Subset here; the full acceptance grid lives in test_acceptance.
        cfg = SearchConfig(max_modes=3)
        for beta in (0.5, 2.0):
            for eta in (0.0, 2.0):
                spectrum = find_frequencies(make_problem(beta=beta, eta=eta), cfg)
                for n, root in enumerate(spectrum.roots, start=1):
                    expected = uncracked_K_closed_form(n, beta, eta)
                    assert rel_err(root.K, expected) < 1e-8


class TestModeShape:
    def test_fundamental_is_sine(self):
        problem = make_problem()
        spectrum = find_frequencies(problem, SearchConfig(max_modes=1))
        shape = mode_shape(problem, spectrum.roots[0], samples=257)
        phi, x = shape[:, 0], shape[:, 1]
        reference = np.sin(math.pi * phi)
        reference /= np.abs(reference).max()
        assert np.abs(x - reference).max() < 1e-8

    def test_boundary_values(self):
        # X vanishes exactly at both supports, uncracked and cracked.
        for problem in (make_problem(eta=1.0), make_problem(eta=1.0, alpha=0.3, theta=0.7)):
            spectrum = find_frequencies(problem, SearchConfig(max_modes=2))
            for root in spectrum.roots:
                shape = mode_shape(problem, root, samples=101)
                assert shape[0, 1] == 0.0
                assert shape[-1, 1] == 0.0

    def test_normalization_exact(self):
        # The largest sample is exactly +1 and none lies below -1, also for
        # mode 2, whose + and - extrema tie (uncracked, or cracked at its node).
        for problem, mode in (
            (make_problem(), 1),
            (make_problem(), 2),
            (make_problem(alpha=0.5, theta=1.0), 2),
        ):
            spectrum = find_frequencies(problem, SearchConfig(max_modes=mode))
            shape = mode_shape(problem, spectrum.roots[-1], samples=64)
            assert shape[:, 1].max() == 1.0
            assert shape[:, 1].min() >= -1.0

    def test_unpolished_fallback_is_logged(self, caplog):
        # One debug line when the shape is sampled at the stored root: a
        # suspected double, or a bracketed K with no sign change nearby.
        problem = make_problem()
        root = find_frequencies(problem, SearchConfig(max_modes=1)).roots[0]
        fallbacks = [
            (solver.Root(K=root.K, flag=RootFlag.SUSPECTED_DOUBLE), "suspected double root"),
            (solver.Root(K=50.0, flag=RootFlag.BRACKETED), "no sign change"),
        ]
        with caplog.at_level(logging.DEBUG, logger="arch_resonance"):
            mode_shape(problem, root, samples=11)
            assert caplog.records == []
            for stored, reason in fallbacks:
                caplog.clear()
                mode_shape(problem, stored, samples=11)
                assert len(caplog.records) == 1
                record = caplog.records[0]
                assert record.name == "arch_resonance.solver"
                assert record.levelno == logging.DEBUG
                assert reason in record.getMessage() and repr(stored.K) in record.getMessage()

    def test_sample_count_and_grid(self):
        problem = make_problem()
        spectrum = find_frequencies(problem, SearchConfig(max_modes=1))
        shape = mode_shape(problem, spectrum.roots[0], samples=11)
        assert shape.shape == (11, 2)
        assert shape[0, 0] == 0.0
        assert shape[-1, 0] == 1.0

    def test_cracked_slope_jump(self):
        theta = 2.0
        problem = make_problem(alpha=0.5, theta=theta)
        spectrum = find_frequencies(problem, SearchConfig(max_modes=1))
        root = spectrum.roots[0]
        basis = quartic_roots(characteristic_coefficients(root.K, problem.eta_nd))
        # Rows in the distance from each support; d/dphi = -d/dx on the right.
        left = basis.support_rows(0.5, 0.5, nrows=3)
        right = basis.support_rows(problem.beta - 0.5, problem.beta - 0.5, nrows=3)
        c1, c2, d1, d2 = _coefficients(problem, root)
        left_slope = c1 * left[1][0] + c2 * left[1][1]
        right_slope = -(d1 * right[1][0] + d2 * right[1][1])
        left_curvature = c1 * left[2][0] + c2 * left[2][1]
        jump = right_slope - left_slope
        assert abs(jump) > 1e-3
        assert jump / left_curvature == pytest.approx(theta, rel=1e-6)

    @pytest.mark.parametrize(
        "beta, eta, alpha, theta",
        [(2.0, 0.5, 0.7, 1.5), (4.0, 0.0, 2.9, 0.5)],  # the second has K_1 < 1
    )
    def test_cracked_supports_hold(self, beta, eta, alpha, theta):
        problem = make_problem(beta=beta, eta=eta, alpha=alpha, theta=theta)
        for root in find_frequencies(problem, SearchConfig(max_modes=3)).roots:
            coefficients = _coefficients(problem, root)
            assert len(coefficients) == 4
            shape = mode_shape(problem, root, samples=101)
            assert abs(shape[0, 1]) <= 1e-12 and abs(shape[-1, 1]) <= 1e-12
            basis = quartic_roots(characteristic_coefficients(root.K, eta))
            c1, c2, d1, d2 = coefficients
            for (w1, w2), ref in (((c1, c2), alpha), ((d1, d2), beta - alpha)):
                rows = basis.support_rows(0.0, ref, nrows=3)
                for k in (0, 2):  # X and X'' at the support
                    assert abs(w1 * rows[k][0] + w2 * rows[k][1]) <= 1e-12

    def test_rejects_tiny_sample_count(self):
        problem = make_problem()
        spectrum = find_frequencies(problem, SearchConfig(max_modes=1))
        with pytest.raises(ValueError):
            mode_shape(problem, spectrum.roots[0], samples=1)


class TestEtaMonotonicity:
    def test_fundamental_decreases_with_nonlocal_parameter(self):
        cfg = SearchConfig(max_modes=1)
        for crack in (None, CrackJoint(alpha=0.5, theta_c=1.0)):
            ks = []
            for eta in (0.0, 0.5, 1.0, 2.0, 4.0):
                problem = ArchProblem(beta=1.0, eta_nd=eta, crack=crack)
                ks.append(find_frequencies(problem, cfg).roots[0].K)
            assert all(b < a for a, b in zip(ks, ks[1:]))


class TestNonfiniteAndDegenerateInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_problem_rejects_nonfinite_fields(self, bad):
        with pytest.raises(ValueError):
            ArchProblem(beta=bad, eta_nd=1.0)
        with pytest.raises(ValueError):
            ArchProblem(beta=1.0, eta_nd=bad)
        with pytest.raises(ValueError):
            ArchProblem(beta=1.0, eta_nd=1.0, crack=CrackJoint(alpha=bad, theta_c=1.0))
        with pytest.raises(ValueError):
            ArchProblem(beta=1.0, eta_nd=1.0, crack=CrackJoint(alpha=0.5, theta_c=bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_config_rejects_nonfinite_fields(self, bad):
        for field in ("k_min", "k_max", "refine_tol"):
            with pytest.raises(ValueError):
                SearchConfig(**{field: bad})

    @pytest.mark.parametrize("alpha", [1e-12, SEGMENT_TOL, 1.0 - SEGMENT_TOL / 2])
    def test_problem_rejects_crack_at_a_support(self, alpha):
        with pytest.raises(DegenerateSegment):
            make_problem(beta=1.0, alpha=alpha, theta=1.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--eta", "nan"],
            ["freq", "--eta", "inf"],
            ["freq", "--beta", "nan"],
            ["freq", "--crack-psi", "0.5", "--crack-alpha", "1e-12"],
            ["modeshape", "--crack-psi", "0.5", "--crack-alpha", "0.9999999999"],
        ],
    )
    def test_cli_exits_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err


class TestSpectrumLength:
    def test_default_range_grows_with_requested_modes(self):
        spectrum = find_frequencies(make_problem(eta=1.0), SearchConfig(max_modes=20))
        assert len(spectrum) == 20
        for n, root in enumerate(spectrum.roots, start=1):
            assert rel_err(root.K, uncracked_K_closed_form(n, 1.0, 1.0)) < 1e-8

    def test_default_range_unchanged_up_to_five_modes(self):
        k5 = uncracked_K_closed_form(5, 1.0, 1.0)
        for modes in (1, 5):
            cfg = solver._resolved(make_problem(eta=1.0), SearchConfig(max_modes=modes))
            assert cfg.k_max == 10.0 * k5

    def test_short_spectrum_raises(self):
        # beta = 1, eta = 0: K_1 = 78.7 and K_2 = 1490, so one root below 1000.
        with pytest.raises(NoRootsInRange, match="1 of 2"):
            find_frequencies(make_problem(), SearchConfig(k_max=1000.0, max_modes=2))

    def test_cli_many_modes(self, capsys):
        assert main(["freq", "--beta", "1", "--eta", "1", "--modes", "20", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 21

    def test_cli_short_spectrum_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[search]\nk-max = 1000\n")
        assert main(["freq", "--eta", "0", "--modes", "2", "--config", str(cfg)]) == 1
        assert "1 of 2" in capsys.readouterr().err


class TestRefineOnlyReturned:
    def _record(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def recording(arg, *args, **kwargs):
            calls.append(arg)
            return original(arg, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return calls

    @pytest.mark.parametrize("modes", [1, 3])
    def test_brackets_and_null_vectors_cover_returned_roots(self, monkeypatch, modes):
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        full = find_frequencies(problem, SearchConfig(max_modes=5))
        assert len(scan_and_bracket(problem, SearchConfig(max_modes=5)).brackets) > 5
        refined = self._record(monkeypatch, solver, "refine_root")
        nulls = self._record(monkeypatch, kernel, "null_vector")
        spectrum = find_frequencies(problem, SearchConfig(max_modes=modes))
        assert sum(len(b) for b in refined) == modes
        assert nulls == []
        assert spectrum.roots == full.roots[:modes]
        mode_shape(problem, spectrum.roots[-1], samples=11)
        assert [np.shape(m) for m in nulls] == [(4, 4)]  # one matrix, no stack

    def test_sweep_point_solves_only_its_mode(self, monkeypatch):
        from arch_resonance import ChiralityClass, SweepSpec, resolve_preset, run_sweep
        from arch_resonance.cli import load_presets

        asked = []
        original = solver.find_frequencies
        monkeypatch.setattr(
            solver,
            "find_frequencies",
            lambda problem, cfg: asked.append(cfg.max_modes) or original(problem, cfg),
        )
        armchair = ChiralityClass.ARMCHAIR
        spec = SweepSpec(
            parameter="beta", start=0.5, stop=1.0, steps=2, eta_nd=1.0, mode=3,
            tubes={armchair: resolve_preset(armchair, load_presets())},
        )
        rows = run_sweep(spec)
        # One batched call for both points, still asking only for mode 3.
        assert asked == [3]
        for row in rows:
            assert rel_err(row.K, uncracked_K_closed_form(3, row.beta_rad, 1.0)) < 1e-8

    def test_batch_matches_single_brackets(self):
        problem = make_problem(eta=0.5, alpha=0.3, theta=2.0)
        scan = scan_and_bracket(problem, SearchConfig(k_max=3000.0))
        batch = refine_root(scan.brackets, problem, end_values=scan.end_values)
        singles = [refine_root(b, problem) for b in scan.brackets]
        assert batch.tolist() == singles

    def test_scan_end_values(self):
        problem = make_problem(eta=0.5, alpha=0.3, theta=2.0)
        scan = scan_and_bracket(problem, SearchConfig(k_max=3000.0))
        for (lo, hi), (at_lo, at_hi) in zip(scan.brackets, scan.end_values):
            assert boundary_determinant(problem, lo) == at_lo
            assert boundary_determinant(problem, hi) == at_hi
            assert at_lo[0] * at_hi[0] == -1


def _alone(problem, cfg):
    """The problem's solve alone, or the NoRootsInRange it raises."""
    try:
        return find_frequencies(problem, cfg)
    except NoRootsInRange as exc:
        return exc


def _assert_same_entry(entry, alone):
    if isinstance(alone, NoRootsInRange):
        assert isinstance(entry, NoRootsInRange) and str(entry) == str(alone)
    else:
        assert [(r.K.hex(), r.flag) for r in entry.roots] == [
            (r.K.hex(), r.flag) for r in alone.roots
        ]


@st.composite
def _batches(draw):
    """1-6 problems, all uncracked or all cracked, with up to eight modes."""
    cracked = draw(st.booleans())
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        beta = 10.0 ** draw(st.floats(math.log10(BETA_MIN), math.log10(2 * math.pi)))
        eta = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
        crack = None
        if cracked:
            alpha = draw(st.floats(0.05, 0.95)) * beta
            crack = CrackJoint(alpha=alpha, theta_c=10.0 ** draw(st.floats(-3.0, 2.0)))
        problems.append(ArchProblem(beta=beta, eta_nd=eta, crack=crack))
    return problems, SearchConfig(max_modes=draw(st.integers(1, 8)))


class TestBatchedSearch:
    @settings(max_examples=25, deadline=None)
    @given(batch=_batches())
    def test_entries_match_solves_alone(self, batch):
        problems, cfg = batch
        entries = find_frequencies(problems, cfg)
        assert len(entries) == len(problems)
        for problem, entry in zip(problems, entries):
            _assert_same_entry(entry, _alone(problem, cfg))

    def test_short_problem_leaves_the_others_alone(self):
        # With k_max = 10: beta = 1 has no candidate at all (K_1 = 78.67),
        # beta = 2 one of the two modes (K_2 = 78.6), beta = 6 both.
        problems = [make_problem(beta=b) for b in (1.0, 2.0, 6.0)]
        cfg = SearchConfig(max_modes=2, k_max=10.0)
        entries = find_frequencies(problems, cfg)
        messages = [str(e) for e in entries[:2]]
        assert messages == [
            "no determinant roots in K range [1e-06, 10.0]",
            "1 of 2 requested roots in K range [1e-06, 10.0]",
        ]
        for problem, entry in zip(problems, entries):
            _assert_same_entry(entry, _alone(problem, cfg))
        assert len(entries[2]) == 2

    def test_more_problems_than_one_group(self, monkeypatch):
        # Five problems in groups of two: three lockstep scans.
        monkeypatch.setattr(solver, "_BATCH", 2)
        scans, original = [], solver.scan_and_bracket
        monkeypatch.setattr(
            solver,
            "scan_and_bracket",
            lambda problems, *args, **kwargs: scans.append(len(problems))
            or original(problems, *args, **kwargs),
        )
        problems = [make_problem(beta=b, eta=0.5) for b in (0.5, 1.0, 1.5, 2.0, 2.5)]
        cfg = SearchConfig(max_modes=3)
        entries = find_frequencies(problems, cfg)
        assert scans == [2, 2, 1]
        for problem, entry in zip(problems, entries):
            _assert_same_entry(entry, _alone(problem, cfg))

    def test_mixed_batch_rejected(self):
        problems = [make_problem(), make_problem(alpha=0.4, theta=0.8)]
        for search in (find_frequencies, scan_and_bracket):
            with pytest.raises(ValueError, match="all cracked or all uncracked"):
                search(problems)
        with pytest.raises(ValueError, match="all cracked or all uncracked"):
            refine_root([(70.0, 80.0), (60.0, 80.0)], problems)

    def test_refine_needs_one_problem_per_bracket(self):
        with pytest.raises(ValueError, match="one problem per bracket"):
            refine_root([(70.0, 80.0), (60.0, 80.0)], [make_problem()])

    def test_empty_batch(self):
        assert find_frequencies([]) == []

    def test_one_debug_line_per_call(self, caplog):
        problems = [make_problem(beta=b) for b in (1.0, 2.0, 6.0)]
        with caplog.at_level(logging.DEBUG, logger="arch_resonance.solver"):
            find_frequencies(problems, SearchConfig(max_modes=2, k_max=10.0))
            find_frequencies(make_problem(), SearchConfig(max_modes=1))
        lines = [r.getMessage() for r in caplog.records if r.name == "arch_resonance.solver"]
        # beta = 6 stops after its first block of 256; beta = 1 and 2 scan
        # their whole grids of 2002 and 2004 nodes (8 blocks: 2000 uniform,
        # the guides at K = 1 and, for beta = 2, those at K_1 = 2.15), then
        # one bisection call evaluates the paths of beta = 6's two guide
        # pairs down to the tolerance (8 + 14 midpoints), and each ends at
        # its first midpoint, one level. The single solve's guide pair takes
        # 15 midpoints.
        assert lines == [
            "find_frequencies: 3 problems, 9 kernel calls (8 scan, 1 bisection), "
            "4284 K values, 2 bisection levels, 2 brackets refined, 2 short",
            "find_frequencies: 1 problems, 2 kernel calls (1 scan, 1 bisection), "
            "271 K values, 1 bisection levels, 1 brackets refined, 0 short",
        ]


def _whole_grid_spectrum(problem, cfg):
    """The first max_modes roots of the whole-grid scan's candidates.

    Refines every candidate of the whole grid in one batch (each bracket is
    bisected independently), then keeps the first max_modes in ascending
    order, each candidate one root, as find_frequencies does.
    """
    scan = scan_and_bracket(problem, cfg)
    candidates = sorted(
        [(*b, ends, RootFlag.BRACKETED) for b, ends in zip(scan.brackets, scan.end_values)]
        + [(k, k, None, RootFlag.SUSPECTED_DOUBLE) for k in scan.suspects],
        key=lambda c: c[0],
    )
    ks = solver.refine_root(
        [c[:2] for c in candidates], problem, cfg, end_values=[c[2] for c in candidates]
    )
    return tuple(
        solver.Root(K=k, flag=flag) for k, (*_, flag) in zip(ks.tolist(), candidates)
    )[: cfg.max_modes]


class TestEarlyExitScan:
    @pytest.mark.parametrize("block", [16, 256])
    @settings(max_examples=15, deadline=None)
    @given(
        beta=st.floats(0.3, 6.0),
        eta=st.sampled_from([0.0, 0.5, 1.0, 4.0]),
        crack=st.one_of(st.none(), st.tuples(st.floats(0.05, 0.95), st.floats(0.0, 3.0))),
        modes=st.integers(1, 8),
    )
    def test_matches_whole_grid(self, block, beta, eta, crack, modes):
        problem = ArchProblem(
            beta=beta,
            eta_nd=eta,
            crack=None if crack is None else CrackJoint(alpha=crack[0] * beta, theta_c=crack[1]),
        )
        cfg = SearchConfig(max_modes=modes)
        with mock.patch.object(solver, "_BLOCK", block):
            expected = _whole_grid_spectrum(problem, cfg)
            if len(expected) < modes:
                with pytest.raises(NoRootsInRange):
                    find_frequencies(problem, cfg)
            else:
                assert find_frequencies(problem, cfg).roots == expected

    @settings(max_examples=40, deadline=None)
    @given(
        log_beta=st.floats(math.log10(BETA_MIN), math.log10(2 * math.pi)),
        eta=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        modes=st.integers(1, 12),
        points=st.sampled_from([16, 17, 257, 258, 2000]),
        log_k_max=st.one_of(st.none(), st.floats(-2.0, 6.0)),
    )
    def test_grid_prefix_is_the_start_of_the_whole_grid(
        self, log_beta, eta, modes, points, log_k_max
    ):
        problem = ArchProblem(beta=10.0**log_beta, eta_nd=eta)
        k_max = None if log_k_max is None else 10.0**log_k_max
        cfg = solver._resolved(problem, SearchConfig(max_modes=modes, grid_points=points, k_max=k_max))
        whole = solver._grid_nodes(problem, cfg)
        for count in {1, 2, 16, 17, 257, 258, 513, points - 2, points - 1, whole.size, whole.size + 1}:
            prefix = solver._grid_nodes(problem, cfg, count)
            assert prefix.tobytes() == whole[:count].tobytes(), count

    def test_partial_scan_is_a_prefix_of_the_whole_grid(self, monkeypatch):
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        monkeypatch.setattr(solver, "_BLOCK", 16)
        whole = scan_and_bracket(problem)
        partial = scan_and_bracket(problem, wanted=3)
        found = len(partial.brackets) + len(partial.suspects)
        assert 3 <= found < len(whole.brackets) + len(whole.suspects)
        assert partial.brackets == whole.brackets[: len(partial.brackets)]
        assert partial.end_values == whole.end_values[: len(partial.brackets)]

    def test_coincident_candidates_are_two_roots(self, monkeypatch):
        # The second candidate is made to refine onto the first root. It is
        # still its own root: candidates sit in disjoint grid intervals, so a
        # near-coincident pair is a double root split by a grid node.
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        cfg = SearchConfig(max_modes=2)
        scan = scan_and_bracket(problem, cfg)
        first_k = find_frequencies(problem, SearchConfig(max_modes=1)).roots[0].K
        second_lo = scan.brackets[1][0]
        original = solver.refine_root
        refines = []

        def duplicating(brackets, *args, **kwargs):
            refines.append(len(brackets))
            ks = original(brackets, *args, **kwargs)
            return np.where(np.array(brackets)[:, 0] == second_lo, first_k, ks)

        monkeypatch.setattr(solver, "refine_root", duplicating)
        scans = []
        original_scan = solver.scan_and_bracket
        monkeypatch.setattr(
            solver,
            "scan_and_bracket",
            lambda *args, **kwargs: scans.append(kwargs["wanted"]) or original_scan(*args, **kwargs),
        )
        spectrum = find_frequencies(problem, cfg)
        assert scans == [2]
        assert refines == [2]
        assert spectrum.K_values == (first_k, first_k)


def _sequential_bisection(pairs, problem, cfg):
    """Reference: one bisection level per kernel call, the same midpoints."""
    lo, hi = np.array(pairs, dtype=float).T.copy()
    roots = lo.copy()
    idx = np.flatnonzero(lo != hi)
    lo, hi = lo[idx], hi[idx]
    s_lo = boundary_determinant(problem, lo)[0] if idx.size else idx
    for _ in range(solver._MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        go = hi - lo > cfg.refine_tol * np.maximum(1.0, mid)
        roots[idx[~go]] = mid[~go]
        idx, lo, hi, s_lo, mid = idx[go], lo[go], hi[go], s_lo[go], mid[go]
        if not idx.size:
            break
        s_mid, _ = boundary_determinant(problem, mid)
        up = s_mid == s_lo
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        hit = s_mid == 0
        roots[idx[hit]] = mid[hit]
        idx, lo, hi, s_lo = idx[~hit], lo[~hit], hi[~hit], s_lo[~hit]
    roots[idx] = 0.5 * (lo + hi)
    return roots


def _estimate_leaving_the_path(levels, roots):
    """An estimate that follows the path to the bracket's root for levels - 1
    levels and leaves it at the next, so each call advances ``levels`` levels.

    ``roots`` are the roots plain bisection finds; the one in the bracket is
    the target (brackets sharing a root only change the schedule).
    """

    def estimate(lo, hi, m_lo, m_hi):
        root = next(r for r in roots if lo <= r <= hi)
        for _ in range(levels):
            mid = 0.5 * (lo + hi)
            lo, hi, wrong = (mid, hi, lo) if root > mid else (lo, mid, hi)
        return 0.5 * (wrong + mid)

    return estimate


# Estimates by test id suffix: the shipped secant estimate, and deliberately
# wrong ones that leave the path at the n-th level of every call.
_SCHEDULES = {"": None, "-levels1": 1, "-levels3": 3, "-levels4": 4, "-levels6": 6}


class TestMultiLevelBisection:
    def _batch(self, problem):
        # A zero-width bracket, for the uncracked problem the guide pair
        # around K_1 (for beta = 1, eta = 0 its first midpoint is K_1, where
        # the sign is 0), and the scan's brackets, with their end values.
        scan = scan_and_bracket(problem, SearchConfig(k_max=3000.0))
        pairs, ends = [(42.0, 42.0)], [None]
        if problem.crack is None:
            k1 = uncracked_K_closed_form(1, 1.0, 0.0)
            pairs.append((k1 * (1.0 - 1e-6), k1 * (1.0 + 1e-6)))
            ends.append(tuple(boundary_determinant(problem, k) for k in pairs[-1]))
        return [*pairs, *scan.brackets], [*ends, *scan.end_values]

    # A cap of 7 levels cuts a path short.
    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize(
        "cap, levels",
        [(cap, levels) for levels in _SCHEDULES.values() for cap in (200, 7)],
        ids=[f"{cap}{suffix}" for suffix in _SCHEDULES for cap in (200, 7)],
    )
    def test_matches_one_level_per_call(self, monkeypatch, tol, cap, levels):
        monkeypatch.setattr(solver, "_MAX_BISECTIONS", cap)
        cfg = SearchConfig(refine_tol=tol)
        for problem in (make_problem(), make_problem(eta=0.5, alpha=0.3, theta=2.0)):
            pairs, ends = self._batch(problem)
            expected = _sequential_bisection(pairs, problem, cfg).tolist()
            if levels is not None:
                estimate = _estimate_leaving_the_path(levels, expected)
                monkeypatch.setattr(solver, "_secant_estimate", estimate)
            # With the end values given, and evaluated by refine_root.
            assert refine_root(pairs, problem, cfg, end_values=ends).tolist() == expected
            assert refine_root(pairs, problem, cfg).tolist() == expected

    def test_wrong_estimate_advances_its_levels_per_call(self, monkeypatch):
        # An estimate that leaves the path at the third level of every call:
        # each call advances each bracket three levels, so a bracket that
        # needs L levels takes ceil(L / 3) calls.
        problem = make_problem(eta=0.5, alpha=0.3, theta=2.0)
        scan = scan_and_bracket(problem, SearchConfig(max_modes=1), wanted=1)
        pair, ends = scan.brackets[0], scan.end_values[0]
        cfg = SearchConfig()
        expected = _sequential_bisection([pair], problem, cfg).tolist()
        sizes = []
        original = solver.boundary_determinant
        monkeypatch.setattr(
            solver, "boundary_determinant", lambda p, K: sizes.append(K.size) or original(p, K)
        )
        levels = solver._tally.levels
        monkeypatch.setattr(solver, "_secant_estimate", _estimate_leaving_the_path(3, expected))
        assert refine_root(pair, problem, cfg, end_values=ends) == expected[0]
        needed = solver._tally.levels - levels
        assert len(sizes) == math.ceil(needed / 3)
        assert 25 <= needed <= 40

    @settings(max_examples=40, deadline=None)
    @given(
        batch=_batches(),
        tol=st.one_of(
            st.sampled_from([1e-10, 1e-13]), st.floats(-13.0, -4.0).map(lambda e: 10.0**e)
        ),
    )
    def test_random_batches_match_one_level_per_call(self, batch, tol):
        # The scan's brackets and dips (zero-width brackets) of every problem,
        # bisected as one batch, against each problem's alone, one level per
        # call; uncracked brackets are guide pairs that end at their midpoint.
        problems, cfg = batch
        scans = scan_and_bracket(problems, cfg, wanted=cfg.max_modes)
        cfg = replace(cfg, refine_tol=tol)
        pairs, ends, owners, expected = [], [], [], []
        for problem, scan in zip(problems, scans):
            if isinstance(scan, NoRootsInRange):
                continue
            own = [*scan.brackets, *((k, k) for k in scan.suspects)]
            pairs += own
            ends += [*scan.end_values, *[None] * len(scan.suspects)]
            owners += [problem] * len(own)
            expected += _sequential_bisection(own, problem, cfg).tolist()
        assume(pairs)
        roots = refine_root(pairs, owners, cfg, end_values=ends)
        assert [k.hex() for k in roots.tolist()] == [k.hex() for k in expected]

    def test_guide_midpoint_is_an_exact_zero(self):
        # The symmetric guide bracket of K_1 has K_1 itself as its first
        # midpoint, where the determinant sign is exactly 0.
        problem = make_problem()
        k1 = uncracked_K_closed_form(1, 1.0, 0.0)
        guide = (k1 * (1.0 - 1e-6), k1 * (1.0 + 1e-6))
        assert 0.5 * (guide[0] + guide[1]) == k1
        assert boundary_determinant(problem, k1)[0] == 0
        assert refine_root(guide, problem) == k1


class TestKernelCallsPerSolve:
    def _count(self, monkeypatch):
        calls = []
        original = solver.boundary_determinant
        monkeypatch.setattr(
            solver,
            "boundary_determinant",
            lambda problem, K: calls.append(np.size(K)) or original(problem, K),
        )
        return calls

    def test_cracked_five_modes(self, monkeypatch):
        calls = self._count(monkeypatch)
        find_frequencies(make_problem(eta=1.0, alpha=0.4, theta=0.8))
        # One scan block, then the paths toward the secant estimates: four
        # wide brackets (31 + 29 + 26 + 27 midpoints) and a guide pair (15)
        # that ends at its first midpoint; four paths leave their estimates
        # (28 + 21 + 16 + 18 midpoints left to go), then three (19 + 5 + 1),
        # then one (3).
        assert calls == [256, 128, 83, 25, 3]

    def test_brackets_ended_at_their_midpoints_take_one_call(self, monkeypatch):
        # The guide pairs around the first five uncracked K_n, whose midpoints
        # have sign 0: the first call, 15 midpoints down each path to the
        # tolerance, ends them all at their first midpoint.
        problem = make_problem(eta=1.0)
        scan = scan_and_bracket(problem, wanted=5)
        brackets = scan.brackets[:5]
        calls = self._count(monkeypatch)
        roots = refine_root(brackets, problem, end_values=scan.end_values[:5])
        assert calls == [75]
        assert roots.tolist() == [0.5 * (lo + hi) for lo, hi in brackets]

    def test_sweep_point_mode_one(self, monkeypatch):
        from arch_resonance import ChiralityClass, SweepSpec, resolve_preset, run_sweep
        from arch_resonance.cli import load_presets

        calls = self._count(monkeypatch)
        armchair = ChiralityClass.ARMCHAIR
        spec = SweepSpec(
            parameter="beta", start=1.0, stop=2.0, steps=2, eta_nd=1.0,
            tubes={armchair: resolve_preset(armchair, load_presets())},
        )
        run_sweep(spec)
        # Both points in lockstep: one call with the first scan block of
        # each, then one bisection call down both guide pairs' paths to the
        # tolerance (15 and 14 midpoints), which end at their first midpoint.
        assert calls == [512, 29]
