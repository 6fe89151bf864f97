import logging
import math
import sys
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
    DoubleRoot,
    NoRootsInRange,
    PowerLawCompliance,
    SearchConfig,
    boundary_determinant,
    compliance,
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
DOUBLE_BETA = 4.967294132898051  # pi / sqrt(0.4): K_1 = K_2 = 0.36 at eta = 0


def _coefficients(problem, root):
    """The root's mode coefficients: the null vector of its boundary system."""
    return tuple(kernel.null_vector(solver.boundary_matrix(problem, root.K)).tolist())


def _scan(problem, cfg=SearchConfig()):
    """The problem's scan alone: its ScanResult or its NoRootsInRange."""
    return scan_and_bracket([problem], cfg)[0]


def _whole_scan(problem, cfg=SearchConfig()):
    """The problem's scan over its whole grid, in the range ``cfg`` gives it.

    No grid holds ``sys.maxsize`` candidates, so the scan never stops early.
    """
    return _scan(problem, replace(solver._resolved(problem, cfg), max_modes=sys.maxsize))


def _refine(pair, problem, cfg=SearchConfig()):
    """One bracket's root, with its end values evaluated here."""
    ends = tuple(boundary_determinant(problem, k) for k in pair)
    return refine_root([pair], problem, cfg, [ends]).item()


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
        result = _whole_scan(make_problem(), SearchConfig(k_max=100.0))
        assert len(result.brackets) == 1
        lo, hi = result.brackets[0]
        assert lo <= K1_B1_E0 <= hi

    def test_no_roots_below_fundamental(self):
        assert isinstance(_scan(make_problem(), SearchConfig(k_max=10.0)), NoRootsInRange)

    def test_zero_compliance_same_bracket_count(self):
        cfg = SearchConfig(k_max=10000.0)
        plain = _whole_scan(make_problem(), cfg)
        cracked = _whole_scan(make_problem(alpha=0.4, theta=0.0), cfg)
        assert len(plain.brackets) == len(cracked.brackets)

    def test_bracket_endpoints_straddle(self):
        # An uncracked root is the midpoint of its K_n guide pair, where the
        # sign is 0: a zero-width bracket. A cracked root's bracket straddles.
        for problem in (make_problem(eta=0.5), make_problem(eta=0.5, alpha=0.3, theta=2.0)):
            result = _whole_scan(problem, SearchConfig(k_max=5000.0))
            for lo, hi in result.brackets:
                s_lo, _ = boundary_determinant(problem, lo)
                s_hi, _ = boundary_determinant(problem, hi)
                if problem.crack is None:
                    assert lo == hi and s_lo == 0
                else:
                    assert s_lo * s_hi == -1 or (lo == hi and s_lo == 0)


class TestRefineRoot:
    def test_fundamental(self):
        k = _refine((70.0, 90.0), make_problem())
        assert rel_err(k, K1_B1_E0) < 1e-8

    def test_fundamental_nonlocal(self):
        k = _refine((7.0, 7.5), make_problem(eta=1.0))
        assert rel_err(k, K1_B1_E1) < 1e-8

    def test_degenerate_bracket_returns_endpoint(self):
        assert refine_root([(42.0, 42.0)], make_problem(), SearchConfig(), [None]).item() == 42.0

    def test_empty_bracket_list(self):
        roots = refine_root([], make_problem(), SearchConfig(), [])
        assert isinstance(roots, np.ndarray) and roots.shape == (0,)
        assert refine_root([], [], SearchConfig(), []).shape == (0,)

    def test_unbracketed_rejected(self):
        with pytest.raises(ValueError):
            _refine((1.0, 2.0), make_problem())

    def test_deterministic(self):
        a = _refine((70.0, 90.0), make_problem())
        b = _refine((70.0, 90.0), make_problem())
        assert a == b


class TestFindFrequencies:
    def test_matches_closed_form_classical(self):
        spectrum = find_frequencies(make_problem(), SearchConfig(max_modes=3))
        for n, root in enumerate(spectrum.roots, start=1):
            assert rel_err(root.K, uncracked_K_closed_form(n, 1.0, 0.0)) < 1e-8

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
        assert len(from_zero) == len(base)
        for k0, k in zip(from_zero.K_values, base.K_values):
            assert abs(k0 - k) <= 2e-10 * max(1.0, k)

    def test_propagates_no_roots(self):
        with pytest.raises(NoRootsInRange):
            find_frequencies(make_problem(), SearchConfig(k_max=10.0))


class TestOracleEquivalence:
    def test_closed_form_grid(self):
        # Subset here; the full acceptance grid lives in test_acceptance. A
        # crack of zero compliance has the uncracked spectrum and takes the
        # root search, so the closed form checks the search.
        cfg = SearchConfig(max_modes=3)
        for beta in (0.5, 2.0):
            for eta in (0.0, 2.0):
                problem = make_problem(beta=beta, eta=eta, alpha=0.4 * beta, theta=0.0)
                spectrum = find_frequencies(problem, cfg)
                for n, root in enumerate(spectrum.roots, start=1):
                    expected = uncracked_K_closed_form(n, beta, eta)
                    assert rel_err(root.K, expected) < 1e-8

    @settings(max_examples=200, deadline=None)
    @given(
        betas=st.lists(
            st.one_of(st.just(DOUBLE_BETA), st.floats(BETA_MIN, 2 * math.pi)),
            min_size=1,
            max_size=4,
        ),
        eta=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        log_k_min=st.floats(-8.0, 4.0),
        log_span=st.one_of(st.none(), st.floats(0.01, 6.0)),
        modes=st.integers(1, 12),
    )
    def test_uncracked_spectrum_is_the_enumerated_closed_form(
        self, betas, eta, log_k_min, log_span, modes
    ):
        # Every K_n in (k_min, k_max), in ascending order, a double root
        # (K_1 = K_2 at DOUBLE_BETA, eta = 0) as one value twice, single or
        # batched, with no kernel call.
        k_min = 10.0**log_k_min
        k_max = None if log_span is None else k_min * 10.0**log_span
        cfg = SearchConfig(k_min=k_min, k_max=k_max, max_modes=modes)
        problems = [make_problem(beta=beta, eta=eta) for beta in betas]
        expected = []
        for problem in problems:
            try:
                k_range = solver._resolved(problem, cfg)
            except ValueError:  # the default k_max lies below k_min
                return
            ks, n = [], 1
            while True:
                k = uncracked_K_closed_form(n, problem.beta, eta)
                if n * math.pi / problem.beta > 1.0 and k >= k_range.k_max:
                    break
                ks.append(k)
                n += 1
            ks = sorted(k for k in ks if k_range.k_min < k < k_range.k_max)[:modes]
            for i in range(1, len(ks)):
                if rel_err(ks[i], ks[i - 1]) <= 1e-12:
                    ks[i] = ks[i - 1]
            expected.append(tuple(ks))
        calls = solver._tally.calls
        entries = find_frequencies(problems, cfg)
        for problem, entry, ks in zip(problems, entries, expected):
            if len(ks) < modes:
                assert isinstance(entry, NoRootsInRange)
                _assert_same_entry(entry, _alone(problem, cfg))
            else:
                assert entry.K_values == ks == find_frequencies(problem, cfg).K_values
        assert solver._tally.calls == calls


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
        # One debug line when a cracked shape is sampled at the stored root: a
        # K with no sign change nearby.
        problem = make_problem(alpha=0.4, theta=0.8)
        root = find_frequencies(problem, SearchConfig(max_modes=1)).roots[0]
        stored = solver.Root(K=50.0)
        with caplog.at_level(logging.DEBUG, logger="arch_resonance"):
            mode_shape(problem, root, samples=11)
            assert caplog.records == []
            mode_shape(problem, stored, samples=11)
            assert len(caplog.records) == 1
            record = caplog.records[0]
            assert record.name == "arch_resonance.solver"
            assert record.levelno == logging.DEBUG
            assert "no sign change" in record.getMessage()
            assert repr(stored.K) in record.getMessage()

    def test_uncracked_shape_takes_no_kernel_call(self):
        # An uncracked root is its closed form, exact: it is not polished, and
        # only the matching matrix at that K is assembled. A cracked root is.
        cases = ((make_problem(eta=0.5), False), (make_problem(0.5, 0.5, 0.2, 1.0), True))
        for problem, polished in cases:
            for root in find_frequencies(problem, SearchConfig(max_modes=3)).roots:
                calls = solver._tally.calls
                mode_shape(problem, root, samples=11)
                assert (solver._tally.calls > calls) == polished

    def test_uncracked_shape_at_a_high_root_is_the_sine(self):
        # K_62991 = 1.00006e10 at beta = 1 is exact. A bisection polish once
        # moved it by 5e-14 relative, and the shape sampled there strayed
        # from the sine by 1.9.
        problem = make_problem(eta=3.915896)
        cfg = SearchConfig(k_min=1e10, k_max=1e12, max_modes=2)
        root = find_frequencies(problem, cfg).roots[1]
        assert root.K == uncracked_K_closed_form(62991, 1.0, 3.915896)
        shape = mode_shape(problem, root, samples=200)
        sine = np.sin(62991 * math.pi * shape[:, 0])
        sine /= np.abs(sine).max()
        assert min(np.abs(shape[:, 1] - s * sine).max() for s in (1.0, -1.0)) <= 1e-6

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
        basis = quartic_roots(root.K, problem.eta_nd)
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
            basis = quartic_roots(root.K, eta)
            c1, c2, d1, d2 = coefficients
            for (w1, w2), ref in (((c1, c2), alpha), ((d1, d2), beta - alpha)):
                rows = basis.support_rows(0.0, ref, nrows=3)
                for k in (0, 2):  # X and X'' at the support
                    assert abs(w1 * rows[k][0] + w2 * rows[k][1]) <= 1e-12

    def test_two_samples_are_the_supports(self):
        # Both samples lie on a support, where X is 0, so there is no peak to
        # divide by: every X is +0.0, not 0/0, uncracked and cracked.
        for problem in (make_problem(eta=1.0), make_problem(eta=1.0, alpha=0.3, theta=0.7)):
            root = find_frequencies(problem, SearchConfig(max_modes=1)).roots[0]
            shape = mode_shape(problem, root, samples=2)
            assert shape[:, 0].tolist() == [0.0, problem.beta]
            assert shape[:, 1].tolist() == [0.0, 0.0]
            assert not np.signbit(shape[:, 1]).any()

    def test_samples_all_on_nodes_read_zero(self):
        # When every sample lies on a node, only rounding is left, and every X
        # is +0.0 rather than noise scaled to +-1: mode n at n + 1 samples of
        # an uncracked arch, and an antisymmetric mode whose middle node holds
        # the crack. One more sample moves them off the nodes: a real shape.
        for problem, mode, samples in (
            (make_problem(1.0, 1.0), 2, 3),
            (make_problem(1.0, 0.0), 3, 4),
            (make_problem(2.5, 0.7), 4, 5),
            (make_problem(1.0, 0.0, 0.5, 1.0), 2, 3),
        ):
            root = find_frequencies(problem, SearchConfig(max_modes=mode)).roots[mode - 1]
            shape = mode_shape(problem, root, samples=samples)
            assert shape[:, 1].tolist() == [0.0] * samples
            assert not np.signbit(shape[:, 1]).any()
            assert mode_shape(problem, root, samples=samples + 1)[:, 1].max() == 1.0

    def test_uncracked_shapes_match_the_sine_oracle(self):
        # An uncracked shape is sin(a*phi) with a = n*pi/beta, for the n whose
        # K_n = (a^2 - 1)^2 / (1 + eta*a^2) is the root, both written out here
        # so that the check shares no code with the kernel. Up to sign: the
        # largest sample of mode_shape is +1, and antisymmetric extrema tie.
        rng = np.random.default_rng(21)
        wavenumbers = np.arange(1, 64) * math.pi
        worst, checked = 0.0, 0
        for _ in range(300):
            beta = float(rng.uniform(0.1, 2.0 * math.pi))
            eta = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 4.0))
            mode = int(rng.integers(1, 6))
            problem = make_problem(beta, eta)
            root = find_frequencies(problem, SearchConfig(max_modes=mode)).roots[mode - 1]
            try:
                shape = mode_shape(problem, root, samples=200)
            except DoubleRoot:
                continue
            a = wavenumbers / beta
            n = np.abs((a * a - 1.0) ** 2 / (1.0 + eta * a * a) - root.K).argmin()
            sine = np.sin(a[n] * shape[:, 0])
            sine /= np.abs(sine).max()
            worst = max(worst, min(np.abs(shape[:, 1] - s * sine).max() for s in (1.0, -1.0)))
            checked += 1
        assert checked >= 290
        assert worst <= 1e-9

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

    @pytest.mark.parametrize("k_min", ["1e300", "1e200"])
    @pytest.mark.parametrize("eta", ["4", "0"])
    def test_cli_range_beyond_double_precision_exits_one(self, eta, k_min, capsys, tmp_path):
        # At eta = 4, N(k_min) or K_n overflows; at eta = 0 the K_n there
        # are finite but adjacent ones are one float. Neither range is empty.
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[search]\nk-min = {k_min}\nk-max = 1e301\n")
        assert main(["freq", "--beta", "1", "--eta", eta, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: K range [{float(k_min)!r}, 1e+301] is beyond what double precision resolves\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_cracked_range_beyond_double_precision_exits_one(self, capsys, tmp_path):
        # At eta > 0, N(k_max) overflows, and so would the kernel's roots mu:
        # one line, as for an uncracked range, and no numpy warning. At
        # eta = 0 nothing overflows, and the range is searched.
        cfg = tmp_path / "c.ini"
        cfg.write_text("[search]\nk-min = 1e300\nk-max = 1e301\n")
        argv = ["freq", "--beta", "5.9108", "--eta", "3.82", "--chirality", "armchair",
                "--crack-psi", "0.54", "--crack-alpha", "0.646447878", "--modes", "12",
                "--config", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: K range [1e+300, 1e+301] is beyond what double precision resolves\n"
        )
        argv = ["freq", "--beta", "1", "--eta", "0", "--crack-psi", "0.3", "--config", str(cfg)]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6

    @pytest.mark.parametrize("eta, k_min", [(0.0, 1e300), (4.0, 1e70)])
    def test_range_one_float_wide_is_not_empty(self, eta, k_min):
        # N(k_min) and the K_n are finite, and the range lies below the first
        # K_n tried, but adjacent K_n there are one float: it holds roots.
        cfg = SearchConfig(k_min=k_min, k_max=math.nextafter(k_min, math.inf))
        with pytest.raises(NoRootsInRange, match="beyond what double precision resolves"):
            find_frequencies(make_problem(eta=eta), cfg)


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
        assert len(_whole_scan(problem, SearchConfig(max_modes=5)).brackets) > 5
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
        scan = _whole_scan(problem, SearchConfig(k_max=3000.0))
        batch = refine_root(scan.brackets, problem, SearchConfig(), scan.end_values)
        singles = [_refine(b, problem) for b in scan.brackets]
        assert batch.tolist() == singles

    def test_scan_end_values(self):
        problem = make_problem(eta=0.5, alpha=0.3, theta=2.0)
        scan = _whole_scan(problem, SearchConfig(k_max=3000.0))
        for (lo, hi), (at_lo, at_hi) in zip(scan.brackets, scan.end_values):
            assert boundary_determinant(problem, lo) == at_lo
            assert boundary_determinant(problem, hi) == at_hi
            # The crack at alpha = 0.3 = 3 beta / 10 sits on a zero of mode
            # 10's curvature, so K_10 = 1965.94 stays a root: the midpoint of
            # its guide pair, of sign 0, is a zero-width bracket.
            if lo == hi:
                assert at_lo[0] == 0 and lo == uncracked_K_closed_form(10, 1.0, 0.5)
            else:
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
        assert [r.K.hex() for r in entry.roots] == [r.K.hex() for r in alone.roots]


@st.composite
def _batches(draw):
    """1-6 problems, each cracked or not, with up to eight modes."""
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        beta = 10.0 ** draw(st.floats(math.log10(BETA_MIN), math.log10(2 * math.pi)))
        eta = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
        crack = None
        if draw(st.booleans()):
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
        # Five cracked problems in groups of two: three lockstep scans.
        monkeypatch.setattr(solver, "_BATCH", 2)
        scans, original = [], solver.scan_and_bracket
        monkeypatch.setattr(
            solver,
            "scan_and_bracket",
            lambda problems, *args, **kwargs: scans.append(len(problems))
            or original(problems, *args, **kwargs),
        )
        problems = [
            make_problem(beta=b, eta=0.5, alpha=0.4 * b, theta=0.8)
            for b in (0.5, 1.0, 1.5, 2.0, 2.5)
        ]
        cfg = SearchConfig(max_modes=3)
        entries = find_frequencies(problems, cfg)
        assert scans == [2, 2, 1]
        for problem, entry in zip(problems, entries):
            _assert_same_entry(entry, _alone(problem, cfg))

    def test_mixed_batch_matches_solves_alone(self):
        # Uncracked problems among cracked ones: each entry of the search, the
        # scan and the bisection is the one of that problem alone, bit for bit.
        problems = [
            make_problem(eta=0.5), make_problem(alpha=0.4, theta=0.8),
            make_problem(beta=2.0), make_problem(beta=2.0, eta=1.0, alpha=1.5, theta=0.0),
        ]
        cfg = SearchConfig(max_modes=3)
        for problem, entry in zip(problems, find_frequencies(problems, cfg)):
            _assert_same_entry(entry, _alone(problem, cfg))
        scans = scan_and_bracket(problems, cfg)
        assert scans == [_scan(problem, cfg) for problem in problems]
        pairs = [scan.brackets[0] for scan in scans]
        ends = [scan.end_values[0] for scan in scans]
        roots = refine_root(pairs, problems, cfg, ends).tolist()
        assert roots == [_refine(pair, problem) for pair, problem in zip(pairs, problems)]

    def test_refine_needs_one_problem_per_bracket(self):
        with pytest.raises(ValueError, match="one problem per bracket"):
            refine_root(
                [(70.0, 80.0), (60.0, 80.0)], [make_problem()], SearchConfig(), [None, None]
            )

    def test_refine_needs_one_pair_of_end_values_per_bracket(self):
        pairs = [(70.0, 80.0), (60.0, 80.0), (50.0, 80.0)]
        ends = ((1, 0.0), (-1, 0.0))
        for given in ([ends] * 2, [ends] * 4):
            with pytest.raises(ValueError, match="one pair of end values per bracket"):
                refine_root(pairs, make_problem(), SearchConfig(), given)

    def test_empty_batch(self):
        assert find_frequencies([]) == []

    def test_one_debug_line_per_call(self, caplog):
        problems = [make_problem(beta=b, alpha=0.4 * b, theta=0.8) for b in (1.0, 2.0, 6.0)]
        with caplog.at_level(logging.DEBUG, logger="arch_resonance.solver"):
            find_frequencies(problems, SearchConfig(max_modes=2, k_max=10.0))
            cracked = make_problem(eta=1.0, alpha=0.4, theta=0.8)
            find_frequencies(cracked, SearchConfig(max_modes=1))
            find_frequencies([make_problem(beta=b) for b in (1.0, 2.0)], SearchConfig(max_modes=2))
        lines = [r.getMessage() for r in caplog.records if r.name == "arch_resonance.solver"]
        # Below k_max = 10, beta = 1 has no root and beta = 2 one, so both scan
        # their whole grids of 2002 and 2005 nodes (8 blocks: 2000 uniform,
        # the guides at K = 1 and, for beta = 2, the guides and midpoint of
        # K_1 = 2.15); beta = 6 stops after its first block, and its two
        # roots take two bisection calls. The uncracked batch is its closed
        # form: no kernel call, and no bracket refined.
        assert lines == [
            "find_frequencies: 3 problems, 10 kernel calls (8 scan, 2 bisection), "
            "4344 K values, 52 bisection levels, 2 brackets refined, 2 short",
            "find_frequencies: 1 problems, 4 kernel calls (1 scan, 3 bisection), "
            "105 K values, 31 bisection levels, 1 brackets refined, 0 short",
            "find_frequencies: 2 problems, 0 kernel calls (0 scan, 0 bisection), "
            "0 K values, 0 bisection levels, 0 brackets refined, 0 short",
        ]


def _dip(monkeypatch, problem):
    """Make the determinant of ``problem`` dip at a grid node between its modes 1 and 2.

    The node keeps its sign, and its log-magnitude drops by four times the
    dip threshold, so it lies far below its same-sign neighbours. Other
    problems of a batch, told apart by their central angle, are left alone.
    Returns the node's K and a list that gets one entry per kernel call that
    evaluates it.
    """
    lo, hi = find_frequencies(problem, SearchConfig(max_modes=2)).K_values
    nodes = solver._grid_nodes(problem, solver._resolved(problem, SearchConfig()), solver._BLOCK)
    inside = nodes[(nodes > lo) & (nodes < hi)]
    assert inside.size >= 3  # so the node's neighbours lie between the roots too
    k = inside[inside.size // 2].item()
    original = solver.boundary_determinant
    hits = []

    def dipping(p, K):
        signs, logs = original(p, K)
        beta = p.beta if isinstance(p, ArchProblem) else p[1]  # a stack's second row
        hit = (K == k) & (beta == problem.beta)
        if hit.any():
            hits.append(k)
        return signs, np.where(hit, logs - 4.0 * solver._DIP_THRESHOLD, logs)

    monkeypatch.setattr(solver, "boundary_determinant", dipping)
    return k, hits


# The dip guards the search, which only cracked arches take; a crack of zero
# compliance has the uncracked spectrum.
_DIP_PROBLEMS = [make_problem(alpha=0.4, theta=0.0), make_problem(eta=1.0, alpha=0.4, theta=0.8)]


class TestDip:
    """A node far below both neighbours of its sign fails the solve.

    An even number of roots may lie around a dip, none of them bracketed, so
    a dip among the first max_modes candidates is a NoRootsInRange naming
    its K.
    """

    @pytest.mark.parametrize("problem", _DIP_PROBLEMS, ids=["zero-compliance", "cracked"])
    def test_dip_fails_the_solve(self, problem, monkeypatch):
        k, _ = _dip(monkeypatch, problem)
        with pytest.raises(NoRootsInRange) as raised:
            find_frequencies(problem, SearchConfig(max_modes=2))
        assert repr(k) in str(raised.value)

    @pytest.mark.parametrize("problem", _DIP_PROBLEMS, ids=["zero-compliance", "cracked"])
    def test_dip_above_the_requested_modes_is_ignored(self, problem, monkeypatch):
        # The scan of one mode evaluates the dip, its second candidate, and
        # ignores it; asking for two modes then fails.
        one = find_frequencies(problem, SearchConfig(max_modes=1))
        k, hits = _dip(monkeypatch, problem)
        _assert_same_entry(find_frequencies(problem, SearchConfig(max_modes=1)), one)
        assert hits == [k]
        with pytest.raises(NoRootsInRange):
            find_frequencies(problem, SearchConfig(max_modes=2))

    def test_only_the_dipping_problem_of_a_batch_fails(self, monkeypatch):
        problems = [make_problem(beta=b, alpha=0.4 * b, theta=0.8) for b in (0.8, 1.0, 1.5)]
        cfg = SearchConfig(max_modes=2)
        alone = [find_frequencies(p, cfg) for p in problems]
        k, _ = _dip(monkeypatch, problems[1])
        entries = find_frequencies(problems, cfg)
        assert isinstance(entries[1], NoRootsInRange) and repr(k) in str(entries[1])
        _assert_same_entry(entries[0], alone[0])
        _assert_same_entry(entries[2], alone[2])

    def test_freq_exits_one_with_one_line(self, monkeypatch, capsys):
        # The CLI's problem: a crack of depth 0.3 at beta / 2, no geometry factor.
        theta = compliance(PowerLawCompliance(), 0.3)
        k, _ = _dip(monkeypatch, make_problem(alpha=0.5, theta=theta))
        argv = ["freq", "--beta", "1", "--eta", "0", "--crack-psi", "0.3", "--modes", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:") and repr(k) in captured.err

    def test_sweep_point_reads_no_root(self, monkeypatch, capsys):
        from arch_resonance import ChiralityClass, resolve_preset
        from arch_resonance.cli import load_presets

        argv = ["sweep", "--param", "beta", "--from", "1", "--to", "2", "--steps", "2",
                "--eta", "0", "--chirality", "armchair", "--modes", "2",
                "--crack-psi", "0.3", "--crack-alpha", "0.4"]
        assert main(argv) == 0
        before = capsys.readouterr().out.splitlines()
        # The sweep's compliance carries the tube's geometry factor h / R.
        tube = resolve_preset(ChiralityClass.ARMCHAIR, load_presets())
        theta = compliance(PowerLawCompliance(), 0.3, (tube.wall_thickness, tube.radius))
        _dip(monkeypatch, make_problem(alpha=0.4, theta=theta))
        assert main(argv) == 0
        after = capsys.readouterr().out.splitlines()
        assert after[1].startswith("armchair,1,0,") and after[1].endswith(",2,,,,no-root")
        assert before[1] != after[1] and after[2] == before[2]


def _whole_grid_spectrum(problem, cfg):
    """The first max_modes roots of the whole-grid scan's brackets.

    Refines every bracket of the whole grid in one batch (each bracket is
    bisected independently), then keeps the first max_modes in ascending
    order, each bracket one root, as find_frequencies does.
    """
    scan = _whole_scan(problem, cfg)
    ks = solver.refine_root(scan.brackets, problem, cfg, end_values=scan.end_values)
    return tuple(solver.Root(K=k) for k in ks.tolist())[: cfg.max_modes]


class TestEarlyExitScan:
    @pytest.mark.parametrize("block", [16, 256])
    @settings(max_examples=15, deadline=None)
    @given(
        beta=st.floats(0.3, 6.0),
        eta=st.sampled_from([0.0, 0.5, 1.0, 4.0]),
        crack=st.tuples(st.floats(0.05, 0.95), st.floats(0.0, 3.0)),
        modes=st.integers(1, 8),
    )
    def test_matches_whole_grid(self, block, beta, eta, crack, modes):
        # Cracked problems only: an uncracked solve is the closed form, no scan.
        problem = ArchProblem(beta, eta, CrackJoint(alpha=crack[0] * beta, theta_c=crack[1]))
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
        whole = solver._grid_nodes(problem, cfg, sys.maxsize)  # no grid is that long
        for count in {1, 2, 16, 17, 257, 258, 513, points - 2, points - 1, whole.size, whole.size + 1}:
            prefix = solver._grid_nodes(problem, cfg, count)
            assert prefix.tobytes() == whole[:count].tobytes(), count

    def test_partial_scan_is_a_prefix_of_the_whole_grid(self, monkeypatch):
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        monkeypatch.setattr(solver, "_BLOCK", 16)
        cfg = SearchConfig(max_modes=3)
        whole = _whole_scan(problem, cfg)
        partial = _scan(problem, cfg)
        assert 3 <= len(partial.brackets) < len(whole.brackets)
        assert partial.brackets == whole.brackets[: len(partial.brackets)]
        assert partial.end_values == whole.end_values[: len(partial.brackets)]

    def test_coincident_candidates_are_two_roots(self, monkeypatch):
        # The second candidate is made to refine onto the first root. It is
        # still its own root: candidates sit in disjoint grid intervals, so a
        # near-coincident pair is a double root split by a grid node.
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        cfg = SearchConfig(max_modes=2)
        scan = _scan(problem, cfg)
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
            lambda problems, cfg: scans.append(cfg.max_modes) or original_scan(problems, cfg),
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

    def estimate(lo, hi, *values):
        root = next(r for r in roots if lo <= r <= hi)
        for _ in range(levels):
            mid = 0.5 * (lo + hi)
            lo, hi, wrong = (mid, hi, lo) if root > mid else (lo, mid, hi)
        return 0.5 * (wrong + mid)

    return estimate


# Estimates by test id suffix: the shipped estimate, and deliberately
# wrong ones that leave the path at the n-th level of every call.
_SCHEDULES = {"": None, "-levels1": 1, "-levels3": 3, "-levels4": 4, "-levels6": 6}


class TestMultiLevelBisection:
    def _batch(self, problem):
        # A zero-width bracket, for the uncracked problem the guide pair
        # around K_1 (for beta = 1, eta = 0 its first midpoint is K_1, where
        # the sign is 0), and the scan's brackets, with their end values.
        scan = _whole_scan(problem, SearchConfig(k_max=3000.0))
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
                monkeypatch.setattr(solver, "_root_estimate", estimate)
            assert refine_root(pairs, problem, cfg, ends).tolist() == expected

    def test_wrong_estimate_advances_its_levels_per_call(self, monkeypatch):
        # An estimate that leaves the path at the third level of every call:
        # each call advances each bracket three levels, so a bracket that
        # needs L levels takes ceil(L / 3) calls.
        problem = make_problem(eta=0.5, alpha=0.3, theta=2.0)
        scan = _scan(problem, SearchConfig(max_modes=1))
        pair, ends = scan.brackets[0], scan.end_values[0]
        cfg = SearchConfig()
        expected = _sequential_bisection([pair], problem, cfg).tolist()
        sizes = []
        original = solver.boundary_determinant
        monkeypatch.setattr(
            solver, "boundary_determinant", lambda p, K: sizes.append(K.size) or original(p, K)
        )
        levels = solver._tally.levels
        monkeypatch.setattr(solver, "_root_estimate", _estimate_leaving_the_path(3, expected))
        assert refine_root([pair], problem, cfg, [ends]).tolist() == expected
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
        # The scan's brackets (zero-width ones included) of every problem,
        # bisected as one batch, against each problem's alone, one level per
        # call; uncracked brackets are guide pairs that end at their midpoint.
        problems, cfg = batch
        scans = scan_and_bracket(problems, cfg)
        cfg = replace(cfg, refine_tol=tol)
        pairs, ends, owners, expected = [], [], [], []
        for problem, scan in zip(problems, scans):
            if isinstance(scan, NoRootsInRange):
                continue
            pairs += scan.brackets
            ends += scan.end_values
            owners += [problem] * len(scan.brackets)
            expected += _sequential_bisection(scan.brackets, problem, cfg).tolist()
        assume(pairs)
        roots = refine_root(pairs, owners, cfg, ends)
        assert [k.hex() for k in roots.tolist()] == [k.hex() for k in expected]

    def test_guide_midpoint_is_an_exact_zero(self):
        # The symmetric guide bracket of K_1 has K_1 itself as its first
        # midpoint, where the determinant sign is exactly 0.
        problem = make_problem()
        k1 = uncracked_K_closed_form(1, 1.0, 0.0)
        guide = (k1 * (1.0 - 1e-6), k1 * (1.0 + 1e-6))
        assert 0.5 * (guide[0] + guide[1]) == k1
        assert boundary_determinant(problem, k1)[0] == 0
        assert _refine(guide, problem) == k1


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
        # One scan block, then the paths toward the secant estimates of four
        # wide brackets (31 + 29 + 26 + 27 midpoints). The crack at
        # alpha = 0.4 = 2 beta / 5 sits on a zero of mode 5's curvature, so
        # K_5 stays a root: its guide midpoint, of sign 0, is a zero-width
        # bracket, where the parent grid's guide pair cost a 15-midpoint
        # path. The four paths leave their estimates (28 + 21 + 16 + 18
        # midpoints left to go), and from then on each path aims at the
        # inverse cubic interpolant of the points the walk has evaluated
        # nearest its bracket, so three brackets end in the next call and
        # one (8) in the call after.
        assert calls == [256, 113, 83, 8]

    def test_cracked_batch_of_three(self, monkeypatch):
        # The problem above and two more, solved alone and then as one batch.
        # Each call of the batch evaluates what the three solves' calls with
        # the same number evaluate: a first scan block each, then the paths
        # of every open bracket. A first bisection call's paths run down to
        # the tolerance, so its K values are the levels its brackets need.
        problems = [
            make_problem(eta=1.0, alpha=0.4, theta=0.8),
            make_problem(beta=2.5, eta=0.0, alpha=0.7, theta=5.0),
            make_problem(beta=0.8, eta=3.0, alpha=0.6, theta=0.05),
        ]
        calls = self._count(monkeypatch)
        alone = []
        for problem, schedule in zip(
            problems, ([256, 113, 83, 8], [256, 150, 115, 13], [256, 111, 65])
        ):
            levels = solver._tally.levels
            alone.append(find_frequencies(problem))
            assert (calls, solver._tally.levels - levels) == (schedule, schedule[1])
            calls.clear()
        levels = solver._tally.levels
        assert find_frequencies(problems) == alone
        assert calls == [768, 374, 263, 21]
        assert solver._tally.levels - levels == 374

    @staticmethod
    def _bisection_calls(problem, cfg):
        """The problem's spectrum and the bisection calls its solve took."""
        before = solver._tally.calls - solver._tally.scan_calls
        spectrum = find_frequencies(problem, cfg)
        return spectrum, solver._tally.calls - solver._tally.scan_calls - before

    def test_cracked_five_modes_in_the_benchmark_ranges(self):
        # Cracked problems drawn as the benchmark's cracked workload draws
        # them, the compliance scaled by the armchair geometry. With the
        # secant estimate in every call they took 3.08 calls a solve.
        from arch_resonance import (
            ChiralityClass, PowerLawCompliance, compliance, resolve_preset,
        )
        from arch_resonance.cli import load_presets

        tube = resolve_preset(ChiralityClass.ARMCHAIR, load_presets())
        geometry = (tube.wall_thickness, tube.radius)
        rng = np.random.default_rng(2015)
        calls = []
        for _ in range(50):
            beta, eta = rng.uniform(0.5, 3.0), rng.uniform(0.0, 4.0)
            alpha = beta * rng.uniform(0.1, 0.9)
            theta = compliance(PowerLawCompliance(), rng.uniform(0.1, 0.8), geometry)
            problem = ArchProblem(beta, eta, CrackJoint(alpha, theta))
            calls.append(self._bisection_calls(problem, SearchConfig(max_modes=5))[1])
        assert sum(calls) / len(calls) <= 2.4

    def test_wide_bracket(self):
        # A bracket [1.000001, 5.6e6] where F is far from linear: the secant
        # estimate alone took 7 calls, advancing 1, 1, 2, 2, 7, 12 and 6 levels.
        problem = ArchProblem(0.06454, 0.0, CrackJoint(0.030614, 0.15648))
        cfg = SearchConfig(max_modes=1, refine_tol=4.66e-9)
        spectrum, calls = self._bisection_calls(problem, cfg)
        assert calls <= 6
        assert spectrum.K_values == (953745.4129525002,)

    def test_brackets_ended_at_their_midpoints_take_one_call(self, monkeypatch):
        # The guide pairs around the first five uncracked K_n, whose midpoints
        # have sign 0: the first call, 15 midpoints down each path to the
        # tolerance, ends them all at their first midpoint. The scan holds
        # those midpoints as nodes and hands them on as zero-width brackets,
        # which take no call.
        problem = make_problem(eta=1.0)
        brackets = [
            (k * (1.0 - 1e-6), k * (1.0 + 1e-6))
            for k in (uncracked_K_closed_form(n, 1.0, 1.0) for n in range(1, 6))
        ]
        ends = [tuple(boundary_determinant(problem, k) for k in pair) for pair in brackets]
        scan = _scan(problem)
        calls = self._count(monkeypatch)
        roots = refine_root(brackets, problem, SearchConfig(), ends)
        assert calls == [75]
        midpoints = [0.5 * (lo + hi) for lo, hi in brackets]
        assert roots.tolist() == midpoints
        assert scan.brackets == tuple((k, k) for k in midpoints)
        roots = refine_root(scan.brackets, problem, SearchConfig(), scan.end_values)
        assert calls == [75]
        assert roots.tolist() == midpoints

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
        # Both points are uncracked, so each is its closed-form K_1.
        assert calls == []

    def test_figure_points_take_no_kernel_call(self, monkeypatch):
        # Every point of the fig3-5 grids (all uncracked), solved alone, is
        # its closed form: no kernel call.
        batches, original = [], solver.find_frequencies
        monkeypatch.setattr(
            solver,
            "find_frequencies",
            lambda problems, cfg: batches.append((problems, cfg)) or original(problems, cfg),
        )
        for param in ("beta", "eta", "radius"):
            with mock.patch("sys.stdout"):
                assert main(["sweep", "--param", param]) == 0
        assert sum(len(problems) for problems, _ in batches) == 3 * (59 + 41 + 41)
        calls = self._count(monkeypatch)
        for problems, cfg in batches:
            for problem in problems:
                original(problem, cfg)
        assert calls == []

    def test_first_block_sized_to_the_requested_modes(self, monkeypatch):
        # The first-block rule serves cracked solves and direct scans of
        # either kind; an uncracked scan shows it against known K_n.
        calls = self._count(monkeypatch)
        # beta = 2 pi, eta = 4: the fundamental, K_3 = 0.15625 (lam = 1.5),
        # lies near node 100 of the whole grid, K_1 = 0.28125 (lam = 0.5) is
        # the second mode, and K_2 = 0 lies below k_min.
        problem = make_problem(beta=2 * math.pi, eta=4.0)
        scan = _scan(problem, SearchConfig(max_modes=1))
        assert calls == [60]
        k3 = uncracked_K_closed_form(3, 2 * math.pi, 4.0)
        assert scan.brackets[0] == (k3, k3)
        calls.clear()
        _scan(make_problem(eta=1.0), SearchConfig(max_modes=5))
        assert calls == [256]


def _closed_form_count(beta, eta, K):
    """Uncracked eigenvalues K_n < K, by enumerating the closed form."""
    count, n = 0, 1
    while True:
        k_n = uncracked_K_closed_form(n, beta, eta)
        if n * math.pi / beta > 1.0 and k_n >= K:
            return count
        count += k_n < K
        n += 1


class TestExactCount:
    def test_count_matches_the_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(3000):
            beta = 10.0 ** rng.uniform(math.log10(0.05), math.log10(2 * math.pi))
            eta = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 4.0)
            K = 10.0 ** rng.uniform(math.log10(6e-6), math.log10(1.6e5))
            problem = make_problem(beta=beta, eta=eta)
            n = solver._count_below(problem, K)
            assert n == _closed_form_count(beta, eta, K), (beta, eta, K)
            sign, _ = boundary_determinant(problem, K)
            assert sign in (0, (-1) ** n)

    def test_double_root_twice(self):
        # K_1 = K_2 = 0.36 (to rounding) is modes 1 and 2, listed as one
        # float twice, from the closed form with no kernel call.
        problem = make_problem(beta=DOUBLE_BETA)
        for modes in (1, 2, 3):
            before = solver._tally.calls
            spectrum = find_frequencies(problem, SearchConfig(max_modes=modes))
            assert solver._tally.calls == before
            assert len(spectrum) == modes
            assert rel_err(spectrum.K_values[0], 0.36) < 1e-12
            assert spectrum.K_values[:2] == (spectrum.K_values[0],) * min(modes, 2)
        assert rel_err(spectrum.K_values[2], 6.76) < 1e-12

    def test_double_root_freq_and_modeshape(self, capsys):
        beta = repr(DOUBLE_BETA)
        assert main(["freq", "--beta", beta, "--eta", "0", "--modes", "2", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0.36", "0.36"]
        # Its shapes span a plane: one line, exit 1, for either mode.
        for mode in ("1", "2"):
            assert main(["modeshape", "--beta", beta, "--eta", "0", "--mode", mode]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: K = 0.36 is a double root: its mode shapes span a plane\n"
        assert main(["modeshape", "--beta", beta, "--eta", "0", "--mode", "3", "--samples", "5"]) == 0
        root = find_frequencies(make_problem(beta=DOUBLE_BETA), SearchConfig(max_modes=1)).roots[0]
        with pytest.raises(DoubleRoot):
            mode_shape(make_problem(beta=DOUBLE_BETA), root)

    def test_close_roots_above_one_are_distinct(self):
        # Only a falling and a rising K_n, both below 1, can coincide: above
        # 1, K_n closer than the double-root window are distinct roots, each
        # listed, and a mode shape is asked of one of them.
        problem = make_problem()
        cfg = SearchConfig(k_min=1e60, k_max=1e61, max_modes=3)
        n = solver._count_below(problem, 1e60)
        expected = tuple(uncracked_K_closed_form(n + i, 1.0, 0.0) for i in (1, 2, 3))
        assert rel_err(expected[2], expected[0]) < 1e-12
        spectrum = find_frequencies(problem, cfg)
        assert spectrum.K_values == expected
        assert mode_shape(problem, spectrum.roots[1], samples=5)[:, 1].max() == 1.0

    def test_uniform_node_inside_a_guide_pair(self):
        # With 16 grid points and this k_max, uniform node 1 lies between the
        # guides of K_1, so their midpoint is not a node: the scan's bracket is
        # [lower guide, uniform node], bisected as plain bisection does.
        problem = make_problem()
        k1 = uncracked_K_closed_form(1, 1.0, 0.0)
        k_min = 1e-6
        cfg = SearchConfig(max_modes=1, grid_points=16, k_max=k_min + (k1 * (1 + 5e-7) - k_min) * 15)
        grid = solver._grid_nodes(problem, cfg, sys.maxsize)
        lo, hi = k1 * (1 - 1e-6), k1 * (1 + 1e-6)
        inside = grid[(grid > lo) & (grid < hi)]
        assert inside.size == 1 and inside[0] != 0.5 * (lo + hi)
        scan = _scan(problem, cfg)
        assert scan.brackets == ((lo, inside[0]),)
        expected = _sequential_bisection(scan.brackets, problem, cfg).tolist()
        assert refine_root(scan.brackets, problem, cfg, scan.end_values).tolist() == expected
        assert rel_err(expected[0], k1) < 1e-10
