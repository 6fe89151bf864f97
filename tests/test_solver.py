import logging
import math
import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arch_resonance import (
    ArchProblem,
    CrackJoint,
    DegenerateSegment,
    DoubleRoot,
    NoRootsInRange,
    PowerLawCompliance,
    SearchConfig,
    compliance,
    find_frequencies,
    mode_shape,
    uncracked_K_closed_form,
)
from arch_resonance import kernel, solver
from arch_resonance._record import replace
from arch_resonance.cli import main
from arch_resonance.kernel import quartic_roots
from arch_resonance.model import BETA_MIN, SEGMENT_TOL
from arch_resonance.solver import refine_root, scan_and_bracket
from conftest import make_problem, matching_matrix, reduced_det, reduced_det_mp, rel_err

K1_B1_E0 = 78.6698822318237
K1_B1_E1 = 7.237603074490859
DOUBLE_BETA = 4.967294132898051  # pi / sqrt(0.4): K_1 = K_2 = 0.36 at eta = 0


def _coefficients(problem, root):
    """The root's mode coefficients: the null vector of its boundary system."""
    return tuple(kernel.null_vector(matching_matrix(problem, root.K)))


def _zero_crack(beta=1.0, eta=0.0):
    """An uncracked arch as a cracked problem: the crack of zero compliance at beta/2."""
    return ArchProblem(beta=beta, eta_nd=eta, crack=CrackJoint(alpha=0.5 * beta, theta_c=0.0))


def _exact_sine(n, samples):
    """sin(n*pi*i/(samples - 1)) at each sample i, scaled to a largest |value| of 1.

    The argument is reduced modulo 2*pi exactly, in Python's integers: a
    plain ``np.sin(n*pi*phi/beta)`` carries about 1e-11 of argument rounding
    at n near 1e4 and is meaningless at n near 1e14.
    """
    d = samples - 1
    sine = np.array([math.sin(math.pi * (n * i % (2 * d)) / d) for i in range(samples)])
    return sine / np.abs(sine).max()


def _scan(problem, cfg=SearchConfig()):
    """The problem's scan, in the default configuration unless ``cfg`` is given."""
    return solver.scan_and_bracket(problem, cfg)


def _whole_scan(problem, cfg=SearchConfig()):
    """Every bracket of the problem's whole grid, in the range ``cfg`` gives it.

    Written out apart from the scan's walk: each node of the grid is
    evaluated, a node of sign 0 is a zero-width bracket and a sign change
    between two nonzero nodes brackets the gap. Dips are not looked for.
    """
    nodes = list(solver._grid_nodes(problem, cfg, solver._k_max(problem, cfg)))
    values = [reduced_det(problem, k) for k in nodes]
    pairs = [(j, j) if not s else (j - 1, j) for j, s in enumerate(v[0] for v in values)
             if not s or (j and s * values[j - 1][0] < 0)]
    return tuple(((nodes[i], values[i]), (nodes[j], values[j])) for i, j in pairs)


def _bracket(problem, pair):
    """The bracket record of ``pair``, (lo, hi), with F's values evaluated here at its ends."""
    return tuple((k, reduced_det(problem, k)) for k in pair)


def _pairs(brackets):
    """The (lo, hi) ends of bracket records."""
    return tuple((lo, hi) for (lo, _), (hi, _) in brackets)


def _refine(pair, problem, cfg=SearchConfig()):
    """One bracket's root, with its end values evaluated here."""
    return refine_root(problem, [_bracket(problem, pair)], cfg.refine_tol)[0]


def _one_k_calls():
    """A wrapper on the one-K form: its ``call_count`` counts the evaluations made
    while it is in place, those of conftest's ``reduced_det`` too."""
    return mock.patch.object(kernel, "det_sign_logmag_at", wraps=kernel.det_sign_logmag_at)


def _counted(name, made):
    """``solver.<name>`` that appends the one-K evaluations of each call to ``made``."""
    original = getattr(solver, name)

    def counted(*args):
        with _one_k_calls() as one_k:
            try:
                return original(*args)
            finally:
                made.append(one_k.call_count)

    return counted


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
        with pytest.raises(ValueError, match="room for a default k_max"):
            SearchConfig(k_min=sys.float_info.max)


class TestScanAndBracket:
    def test_single_bracket_contains_fundamental(self):
        result = _whole_scan(_zero_crack(), SearchConfig(k_max=100.0))
        assert len(result) == 1
        (lo, hi), = _pairs(result)
        assert lo <= K1_B1_E0 <= hi

    def test_no_roots_below_fundamental(self):
        with pytest.raises(NoRootsInRange, match="no determinant roots"):
            _scan(_zero_crack(), SearchConfig(k_max=10.0))

    def test_zero_compliance_same_bracket_count(self):
        cfg = SearchConfig(k_max=10000.0)
        plain = _whole_scan(_zero_crack(), cfg)
        cracked = _whole_scan(make_problem(alpha=0.4, theta=0.0), cfg)
        assert len(plain) == len(cracked)

    def test_bracket_endpoints_straddle(self):
        # An uncracked root is the midpoint of its K_n guide pair, where the
        # sign is 0: a zero-width bracket. A cracked root's bracket straddles.
        for problem in (_zero_crack(eta=0.5), make_problem(eta=0.5, alpha=0.3, theta=2.0)):
            result = _whole_scan(problem, SearchConfig(k_max=5000.0))
            for lo, hi in _pairs(result):
                s_lo, _ = reduced_det(problem, lo)
                s_hi, _ = reduced_det(problem, hi)
                if problem.crack.theta_c == 0.0:
                    assert lo == hi and s_lo == 0
                else:
                    assert s_lo * s_hi == -1 or (lo == hi and s_lo == 0)


    def test_scan_runs_on_lists(self):
        # numpy serves mode shapes only: the grid, its candidates, the scan
        # and the refinement run on Python floats with numpy unimportable.
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        expected = find_frequencies(problem).K_values
        with mock.patch.dict(sys.modules, {"numpy": None}):
            scan = _scan(problem)
            assert find_frequencies(problem).K_values == expected
        assert {type(k) for pair in _pairs(scan) for k in pair} == {float}


class TestRefineRoot:
    def test_fundamental(self):
        k = _refine((70.0, 90.0), _zero_crack())
        assert rel_err(k, K1_B1_E0) < 1e-8

    def test_fundamental_nonlocal(self):
        k = _refine((7.0, 7.5), _zero_crack(eta=1.0))
        assert rel_err(k, K1_B1_E1) < 1e-8

    def test_degenerate_bracket_returns_endpoint(self):
        # A zero-width record of sign 0, as the scan hands on a node of sign
        # 0, is its own root, with no evaluation.
        end = (42.0, (0, -40.0))
        with _one_k_calls() as one_k:
            assert refine_root(_zero_crack(), [(end, end)], 1e-10) == [42.0]
        assert one_k.call_count == 0

    def test_empty_bracket_list(self):
        assert refine_root(_zero_crack(), (), 1e-10) == []

    def test_unbracketed_rejected(self):
        with pytest.raises(ValueError):
            _refine((1.0, 2.0), _zero_crack())

    def test_deterministic(self):
        a = _refine((70.0, 90.0), _zero_crack())
        b = _refine((70.0, 90.0), _zero_crack())
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
        spectrum = find_frequencies(make_problem(), SearchConfig(max_modes=3))
        for root in spectrum.roots:
            matrix = np.array(matching_matrix(_zero_crack(), root.K))
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
        assert reduced_det(problem, 0.0)[0] != 0
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
        # (K_1 = K_2 at DOUBLE_BETA, eta = 0) as one value twice, with no
        # kernel call; a range short of modes raises.
        k_min = 10.0**log_k_min
        k_max = None if log_span is None else k_min * 10.0**log_span
        cfg = SearchConfig(k_min=k_min, k_max=k_max, max_modes=modes)
        problems = [make_problem(beta=beta, eta=eta) for beta in betas]
        expected = []
        for problem in problems:
            try:
                top = solver._k_max(problem, cfg)
            except ValueError:  # the default k_max lies below k_min
                return
            ks, n = [], 1
            while True:
                k = uncracked_K_closed_form(n, problem.beta, eta)
                if n * math.pi / problem.beta > 1.0 and k >= top:
                    break
                ks.append(k)
                n += 1
            ks = sorted(k for k in ks if k_min < k < top)[:modes]
            for i in range(1, len(ks)):
                if rel_err(ks[i], ks[i - 1]) <= 1e-12:
                    ks[i] = ks[i - 1]
            expected.append(tuple(ks))
        with _one_k_calls() as one_k:
            for problem, ks in zip(problems, expected):
                if len(ks) < modes:
                    with pytest.raises(NoRootsInRange):
                        find_frequencies(problem, cfg)
                else:
                    assert find_frequencies(problem, cfg).K_values == ks
        assert one_k.call_count == 0


class TestModeShape:
    def test_fundamental_is_sine(self):
        problem = make_problem()
        spectrum = find_frequencies(problem, SearchConfig(max_modes=1))
        shape = np.asarray(mode_shape(problem, spectrum.roots[0], samples=257))
        phi, x = shape[:, 0], shape[:, 1]
        reference = np.sin(math.pi * phi)
        reference /= np.abs(reference).max()
        assert np.abs(x - reference).max() < 1e-8

    def test_boundary_values(self):
        # X vanishes exactly at both supports, uncracked and cracked.
        for problem in (make_problem(eta=1.0), make_problem(eta=1.0, alpha=0.3, theta=0.7)):
            spectrum = find_frequencies(problem, SearchConfig(max_modes=2))
            for root in spectrum.roots:
                shape = np.asarray(mode_shape(problem, root, samples=101))
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
            shape = np.asarray(mode_shape(problem, spectrum.roots[-1], samples=64))
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

    @pytest.mark.parametrize(
        "problem, mode",
        [
            (make_problem(alpha=0.4, theta=0.8), 1),
            (make_problem(eta=1.0, alpha=0.3, theta=0.7), 3),
            (make_problem(beta=0.2, eta=2.5, alpha=0.15, theta=20.0), 2),
            (make_problem(beta=5.5, eta=0.0, alpha=1.0, theta=0.05), 4),
        ],
    )
    def test_polish_refines_in_the_rung_the_whole_ladder_picks(self, problem, mode):
        # _polish walks its ladder of intervals k -+ delta*max(1, k) outward,
        # one K at a time, to the first that straddles a sign change or ends
        # at a sign 0: the rung that evaluating the whole ladder picks. Its
        # root lies in that rung, within 1e-13 max(1, K) of a sign change there.
        k = find_frequencies(problem, SearchConfig(max_modes=mode)).roots[-1].K
        deltas = np.array([1e-10, 1e-9, 1e-8, 1e-7, 1e-6]) * max(1.0, k)
        signs = [reduced_det(problem, x)[0] for x in np.concatenate([k - deltas, k + deltas])]
        rung = next(i for i in range(5) if signs[i] * signs[i + 5] != 1)
        lo, hi = k - deltas[rung], k + deltas[rung]
        polished = solver._polish(problem, k)
        assert lo <= polished <= hi
        if signs[rung] == 0 or signs[rung + 5] == 0:
            assert polished == (lo if signs[rung] == 0 else hi)
        elif reduced_det(problem, polished)[0] != 0:
            d = 1e-13 * max(1.0, polished)
            around = [reduced_det(problem, x)[0] for x in (polished - d, polished + d)]
            assert around[0] * around[1] == -1

    def test_uncracked_shape_takes_no_kernel_call(self):
        # An uncracked root is sampled as its closed-form sine: it is not
        # polished, and no basis, matching matrix or null vector is built. A
        # cracked root takes all of them, and its polish evaluates F one K at
        # a time: no shape runs a scan.
        cases = ((make_problem(eta=0.5), False), (make_problem(0.5, 0.5, 0.2, 1.0), True))
        for problem, cracked in cases:
            for root in find_frequencies(problem, SearchConfig(max_modes=3)).roots:
                with (
                    mock.patch.object(solver, "scan_and_bracket", wraps=solver.scan_and_bracket) as scan,
                    mock.patch.object(kernel, "quartic_roots", wraps=kernel.quartic_roots) as basis,
                    mock.patch.object(kernel, "null_vector", wraps=kernel.null_vector) as null,
                    mock.patch.object(
                        kernel, "det_sign_logmag_at", wraps=kernel.det_sign_logmag_at
                    ) as one_k,
                ):
                    mode_shape(problem, root, samples=11)
                assert not scan.called
                assert basis.called == null.called == one_k.called == cracked

    def test_uncracked_shape_at_a_high_root_is_the_sine(self):
        # K_62991 = 1.00006e10 at beta = 1 is exact. A bisection polish once
        # moved it by 5e-14 relative, and the shape sampled there strayed
        # from the sine by 1.9.
        problem = make_problem(eta=3.915896)
        cfg = SearchConfig(k_min=1e10, k_max=1e12, max_modes=2)
        root = find_frequencies(problem, cfg).roots[1]
        assert root.K == uncracked_K_closed_form(62991, 1.0, 3.915896)
        shape = np.asarray(mode_shape(problem, root, samples=200))
        sine = np.sin(62991 * math.pi * shape[:, 0])
        sine /= np.abs(sine).max()
        assert min(np.abs(shape[:, 1] - s * sine).max() for s in (1.0, -1.0)) <= 1e-6

    @pytest.mark.parametrize(
        "beta, eta, cfg, mode, n, samples",
        [
            # Mode 2 of this range strayed from its sine by 0.21 when it was
            # the null vector of the matching matrix.
            (1.528537, 1.692185, SearchConfig(k_min=1e10, k_max=1e12, max_modes=2), 2, 63294, 200),
            # Mode 4 of this range is K_n for n = 3183098861837911, but its
            # nearest-integer mode number is n + 1.
            (1.0, 1.0, SearchConfig(k_min=1e32, k_max=1e33, max_modes=4), 4, 3183098861837911, 200),
            # n * i passes the largest int64 from i = 28977 of 100001 samples on.
            (1.0, 0.0, SearchConfig(k_min=1e60, k_max=1e61, max_modes=1), 1, 318309886183791, 100_001),
        ],
        ids=["K_63294", "float-limit", "K_1e60"],
    )
    def test_high_mode_is_the_exactly_reduced_sine(self, beta, eta, cfg, mode, n, samples):
        problem = make_problem(beta, eta)
        root = find_frequencies(problem, cfg).roots[mode - 1]
        assert root.K == uncracked_K_closed_form(n, beta, eta)
        shape = np.asarray(mode_shape(problem, root, samples=samples))
        sine = _exact_sine(n, samples)
        assert min(np.abs(shape[:, 1] - s * sine).max() for s in (1.0, -1.0)) <= 1e-12
        assert shape[0, 1] == shape[-1, 1] == 0.0 and shape[:, 1].max() == 1.0

    @pytest.mark.parametrize("n, beta, eta", [(3000, 1.0, 1.0), (10001, 1.3, 3.0)])
    def test_hand_built_mode_is_the_exactly_reduced_sine(self, n, beta, eta):
        # At 200 samples these strayed from their sines by 3.8e-5 and 1.92
        # when a shape was the null vector of the matching matrix with a crack
        # of zero compliance at beta/2.
        root = solver.Root(K=uncracked_K_closed_form(n, beta, eta))
        shape = np.asarray(mode_shape(make_problem(beta, eta), root, samples=200))
        sine = _exact_sine(n, 200)
        assert min(np.abs(shape[:, 1] - s * sine).max() for s in (1.0, -1.0)) <= 1e-12

    @pytest.mark.parametrize("beta, eta", [(0.7, 0.0), (1.0, 1.0), (2.9, 3.5)])
    def test_uncracked_shape_is_zero_exactly_when_every_sample_is_a_node(self, beta, eta):
        # Sample i of mode n is a node exactly when (samples - 1) divides n*i,
        # and reads exactly 0 there. So every sample is a node exactly when
        # (samples - 1) divides n; any other shape peaks at sin(pi/3) or more,
        # and is scaled to a largest |X| of exactly 1.
        problem = make_problem(beta, eta)
        for samples in (2, 3, 4, 5, 9, 65, 129, 201, 257):
            last = samples - 1
            modes = {*range(1, 41), last, 2 * last, 3 * last, 7 * last, 2**40 + 3, 2**50}
            for n in sorted(modes):
                root = solver.Root(K=uncracked_K_closed_form(n, beta, eta))
                xs = [x for _, x in mode_shape(problem, root, samples=samples)]
                if n % last == 0:
                    assert xs == [0.0] * samples and not np.signbit(xs).any(), (n, samples)
                else:
                    assert max(map(abs, xs)) == 1.0, (n, samples)

    @pytest.mark.parametrize("K", [50.0, K1_B1_E0 * (1 + 1e-15), 1e300, math.inf, -1.0])
    def test_k_that_is_no_eigenvalue_is_rejected(self, K):
        # 1e300 and inf are beyond every K_n a double resolves: their mode
        # numbers at eta = 1 pass 2**55, or the largest float. A negative K
        # has no mode numbers.
        for eta in (0.0, 1.0):
            with pytest.raises(ValueError, match="not the closed-form K_n"):
                mode_shape(make_problem(eta=eta), solver.Root(K=K), samples=5)

    @pytest.mark.parametrize(
        "K, message",
        [(-1.0, "K must be nonnegative"), (math.nan, "must be finite"),
         (math.inf, "must be finite"), (-math.inf, "must be finite")],
    )
    def test_cracked_root_must_be_finite_and_nonnegative(self, K, message):
        # The kernel takes K on trust, so mode_shape checks a caller's root.
        with pytest.raises(ValueError, match=message):
            mode_shape(make_problem(alpha=0.3, theta=0.5), solver.Root(K=K), samples=5)

    @pytest.mark.parametrize("K", [1.7e308, 4.4942328371557893e307])
    def test_cracked_root_beyond_the_kernels_range(self, K):
        # The quadratic's discriminant 4K overflows at eta = 0 from about
        # 4.49e307, at K or at an end of the polish's intervals.
        problem = ArchProblem(1.0, 0.0, CrackJoint(0.3, 0.5))
        message = re.escape(f"K = {K!r} is beyond the kernel's range")
        with pytest.raises(ValueError, match=message):
            mode_shape(problem, solver.Root(K=K), samples=5)

    @pytest.mark.parametrize("K", [1e200, 1.5e154])
    def test_cracked_root_whose_square_overflows(self, K):
        # At eta = 1, p2^2 = (2 + K)^2 overflows from about K = 1.34e154. Such
        # a K once read as a repeated root at -p2/2, and its shape was sampled
        # through overflowing arithmetic: its roots overflow, so it is beyond
        # the kernel's range.
        problem = ArchProblem(1.0, 1.0, CrackJoint(0.3, 0.5))
        message = re.escape(f"K = {K!r} is beyond the kernel's range: its roots overflow")
        with pytest.raises(ValueError, match=message):
            mode_shape(problem, solver.Root(K=K), samples=5)

    def test_sample_count_and_grid(self):
        # A tuple of (phi, X) float pairs, uncracked and cracked.
        for problem in (make_problem(), make_problem(alpha=0.3, theta=0.7)):
            root = find_frequencies(problem, SearchConfig(max_modes=1)).roots[0]
            shape = mode_shape(problem, root, samples=11)
            assert type(shape) is tuple and len(shape) == 11
            assert all(type(pair) is tuple and [type(v) for v in pair] == [float, float] for pair in shape)
            assert shape[0][0] == 0.0
            assert shape[-1][0] == 1.0

    def test_cracked_slope_jump(self):
        theta = 2.0
        problem = make_problem(alpha=0.5, theta=theta)
        spectrum = find_frequencies(problem, SearchConfig(max_modes=1))
        root = spectrum.roots[0]
        basis = quartic_roots(root.K, problem.eta_nd)
        # Rows in the distance from each support; d/dphi = -d/dx on the right.
        left = [row[0] for row in basis.support_rows([0.5], 0.5, nrows=3)]
        right = [row[0] for row in basis.support_rows([problem.beta - 0.5], problem.beta - 0.5, nrows=3)]
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
            shape = np.asarray(mode_shape(problem, root, samples=101))
            assert abs(shape[0, 1]) <= 1e-12 and abs(shape[-1, 1]) <= 1e-12
            basis = quartic_roots(root.K, eta)
            c1, c2, d1, d2 = coefficients
            for (w1, w2), ref in (((c1, c2), alpha), ((d1, d2), beta - alpha)):
                rows = [row[0] for row in basis.support_rows([0.0], ref, nrows=3)]
                for k in (0, 2):  # X and X'' at the support
                    assert abs(w1 * rows[k][0] + w2 * rows[k][1]) <= 1e-12

    def test_two_samples_are_the_supports(self):
        # Both samples lie on a support, where X is 0, so there is no peak to
        # divide by: every X is +0.0, not 0/0, uncracked and cracked.
        for problem in (make_problem(eta=1.0), make_problem(eta=1.0, alpha=0.3, theta=0.7)):
            root = find_frequencies(problem, SearchConfig(max_modes=1)).roots[0]
            shape = np.asarray(mode_shape(problem, root, samples=2))
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
            shape = np.asarray(mode_shape(problem, root, samples=samples))
            assert shape[:, 1].tolist() == [0.0] * samples
            assert not np.signbit(shape[:, 1]).any()
            assert max(x for _, x in mode_shape(problem, root, samples=samples + 1)) == 1.0

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
                shape = np.asarray(mode_shape(problem, root, samples=200))
            except DoubleRoot:
                continue
            a = wavenumbers / beta
            n = np.abs((a * a - 1.0) ** 2 / (1.0 + eta * a * a) - root.K).argmin()
            sine = np.sin(a[n] * shape[:, 0])
            sine /= np.abs(sine).max()
            worst = max(worst, min(np.abs(shape[:, 1] - s * sine).max() for s in (1.0, -1.0)))
            checked += 1
        assert checked >= 290
        assert worst <= 1e-13

    def test_rejects_tiny_sample_count(self):
        problem = make_problem()
        spectrum = find_frequencies(problem, SearchConfig(max_modes=1))
        with pytest.raises(ValueError):
            mode_shape(problem, spectrum.roots[0], samples=1)


def _pair_form_shape(problem, K, phis):
    """A cracked mode shape at ``phis`` from the 2x2 pair form, in mpmath at 60 digits.

    Independent of the kernel's 4x4 matching system. At the 60-digit root of
    :func:`conftest.reduced_det_mp` near ``K``, each characteristic pair i
    (mu_i, u_i(x) = sin(a_i x)/a_i, x or sinh(b_i x)/b_i) is continuous in X
    and X'' across the crack, so its coefficients are t_i*(u_i(gamma),
    u_i(alpha)) left and right of it, gamma = beta - alpha. Shear continuity
    and the slope jump theta_c*X''(alpha) give (t1, t2) as the null vector of
    [[mu1 S1, mu2 S2], [S1 + theta_c mu1 A1, S2 + theta_c mu2 A2]], S_i =
    u_i(beta), A_i = u_i(alpha)*u_i(gamma), whose determinant over mu1 - mu2
    is F. Returns the shape scaled to a largest sample of +1, and the least
    of |sin(a1 alpha)| and |sin(a1 gamma)|, small where the crack sits near
    a node of the mode and the pair form loses the shape.
    """
    mp = pytest.importorskip("mpmath")
    beta, eta, crack = problem.beta, problem.eta_nd, problem.crack
    args = (eta, beta, crack.alpha, crack.theta_c)
    with mp.workdps(60):
        k = mp.findroot(
            lambda x: reduced_det_mp(x, *args), (mp.mpf(K), K * (1 + mp.mpf(1e-9))),
            solver="secant", verify=False,
        )
        assert abs(k - K) <= 1e-9 * max(1.0, K)
        p2 = 2 + k * eta
        root = mp.sqrt(p2 * p2 - 4 * (1 - k))
        mus = (-(p2 + root) / 2, (root - p2) / 2)

        def u(mu, x):
            if mu > 0:
                return mp.sinh(mp.sqrt(mu) * x) / mp.sqrt(mu)
            return x if mu == 0 else mp.sin(mp.sqrt(-mu) * x) / mp.sqrt(-mu)

        beta, alpha = mp.mpf(beta), mp.mpf(crack.alpha)
        gamma = beta - alpha
        s = [u(mu, beta) for mu in mus]
        rows = (
            [mu * si for mu, si in zip(mus, s)],
            [si + crack.theta_c * mu * u(mu, alpha) * u(mu, gamma) for mu, si in zip(mus, s)],
        )
        m = max(rows, key=lambda row: max(map(abs, row)))
        left = [t * u(mu, gamma) for t, mu in zip((m[1], -m[0]), mus)]
        right = [t * u(mu, alpha) for t, mu in zip((m[1], -m[0]), mus)]
        x = [
            sum(c * u(mu, phi) for c, mu in zip(left, mus)) if phi < alpha
            else sum(c * u(mu, beta - phi) for c, mu in zip(right, mus))
            for phi in map(mp.mpf, phis)
        ]
        peak = max(x, key=abs)
        a1 = mp.sqrt(-mus[0])
        return np.array([float(v / peak) for v in x]), float(
            min(abs(mp.sin(a1 * alpha)), abs(mp.sin(a1 * gamma)))
        )


class TestCrackedShapeOracle:
    def test_matches_the_pair_form(self):
        # 40 seeded low-mode cracked shapes against the 60-digit pair form,
        # both scaled to a peak of +1. A crack near a node of the mode, where
        # the pair form loses the shape, is left out, and so is a shape whose
        # + and - extrema nearly tie, where rounding picks the sign.
        rng = np.random.default_rng(14)
        worst, checked = 0.0, 0
        for _ in range(40):
            beta = float(rng.uniform(0.5, 6.0))
            eta = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 4.0))
            alpha, theta = float(rng.uniform(0.1, 0.9)) * beta, float(10 ** rng.uniform(-2, 1))
            problem = make_problem(beta, eta, alpha, theta)
            mode = int(rng.integers(1, 6))
            root = find_frequencies(problem, SearchConfig(max_modes=mode)).roots[mode - 1]
            shape = np.asarray(mode_shape(problem, root))
            reference, node = _pair_form_shape(problem, root.K, shape[:, 0])
            if node < 0.1 or reference.min() < -1.0 + 1e-6:
                continue
            worst = max(worst, np.abs(shape[:, 1] - reference).max())
            checked += 1
        assert checked >= 35
        assert worst <= 1e-9


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

    def test_largest_compliance_solves_as_a_hinge(self):
        # At theta_c = 1.7e308 the crack term passes the largest float near
        # K = 0; the roots are those of a compliance far below it, and no
        # sign 0 of an infinite F reads as a root.
        roots = [find_frequencies(make_problem(6.25, 0.0, 1.44, theta)).roots for theta in (1e300, 1.7e308)]
        assert all(rel_err(b.K, a.K) < 1e-12 for a, b in zip(*roots))

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
            assert solver._k_max(make_problem(eta=1.0), SearchConfig(max_modes=modes)) == 10.0 * k5

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
        # eta = 0 nothing overflows, and the range is searched, with no numpy
        # warning either; adjacent K_n there lie far closer than the guides
        # tell apart, so the scan fails with one line rather than list sign
        # changes of the uniform grid, each across some 1e71 modes, as roots.
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
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: K range [1e+300, 1e+301] holds modes closer than the grid tells apart\n"
        )

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

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, recording)
        return calls

    @pytest.mark.parametrize("modes", [1, 3])
    def test_brackets_and_null_vectors_cover_returned_roots(self, monkeypatch, modes):
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        full = find_frequencies(problem, SearchConfig(max_modes=5))
        assert len(_whole_scan(problem, SearchConfig(max_modes=5))) > 5
        refined = self._record(monkeypatch, solver, "refine_root")
        nulls = self._record(monkeypatch, kernel, "null_vector")
        spectrum = find_frequencies(problem, SearchConfig(max_modes=modes))
        assert sum(len(brackets) for _, brackets, *_ in refined) == modes
        assert nulls == []
        assert spectrum.roots == full.roots[:modes]
        mode_shape(problem, spectrum.roots[-1], samples=11)
        assert [np.shape(m) for m, in nulls] == [(4, 4)]  # one matrix, no stack

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
        # One call per point, each asking only for mode 3.
        assert asked == [3, 3]
        for row in rows:
            assert rel_err(row.K, uncracked_K_closed_form(3, row.beta_rad, 1.0)) < 1e-8

    def test_batch_matches_single_brackets(self):
        problem = make_problem(eta=0.5, alpha=0.3, theta=2.0)
        scan = _whole_scan(problem, SearchConfig(k_max=3000.0))
        batch = refine_root(problem, scan, 1e-10)
        singles = [_refine(pair, problem) for pair in _pairs(scan)]
        assert batch == singles

    def test_scan_end_values(self):
        problem = make_problem(eta=0.5, alpha=0.3, theta=2.0)
        cfg = SearchConfig(k_max=3000.0, max_modes=len(_whole_scan(problem, SearchConfig(k_max=3000.0))))
        args = problem.eta_nd, problem.beta, problem.crack.alpha, problem.crack.theta_c
        for (lo, at_lo), (hi, at_hi) in _scan(problem, cfg):
            assert kernel.det_sign_logmag_at(lo, *args) == at_lo
            assert kernel.det_sign_logmag_at(hi, *args) == at_hi
            # The crack at alpha = 0.3 = 3 beta / 10 sits on a zero of mode
            # 10's curvature, so K_10 = 1965.94 stays a root: the midpoint of
            # its guide pair, of sign 0, is a zero-width bracket.
            if lo == hi:
                assert at_lo[0] == 0 and lo == uncracked_K_closed_form(10, 1.0, 0.5)
            else:
                assert at_lo[0] * at_hi[0] == -1


def _alone(problem, cfg):
    """The problem's solve, or the NoRootsInRange it raises."""
    try:
        return find_frequencies(problem, cfg)
    except NoRootsInRange as exc:
        return exc


def _hex(spectrum):
    return [k.hex() for k in spectrum.K_values]


@st.composite
def _problems(draw):
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


def _sweep(parameter, start, stop, steps, mode, crack_angle, chiralities, fixed):
    from arch_resonance import ChiralityClass, CrackSpec, SweepSpec, resolve_preset
    from arch_resonance.cli import load_presets

    presets = load_presets()
    crack = None
    if crack_angle is not None:
        crack = CrackSpec(crack_angle, 0.4, PowerLawCompliance())
    tubes = {c: resolve_preset(c, presets) for c in ChiralityClass if c.value in chiralities}
    other = dict(eta_nd=fixed) if parameter == "beta" else dict(beta=fixed, eta_nd=0.0)
    return SweepSpec(parameter=parameter, start=start, stop=stop, steps=steps, mode=mode,
                     tubes=tubes, crack=crack, **other)


@st.composite
def _sweeps(draw):
    """Beta sweeps whose crack may lie outside some arches, and eta sweeps up
    to 1e300, where the default K range holds no root."""
    parameter = draw(st.sampled_from(["beta", "eta"]))
    if parameter == "beta":
        start = 10.0 ** draw(st.floats(math.log10(BETA_MIN), 0.5))
        stop = draw(st.floats(start + 0.01, 2 * math.pi))
        fixed = draw(st.floats(0.0, 4.0))
    else:
        start = draw(st.floats(0.0, 4.0))
        stop = start + 10.0 ** draw(st.floats(-1.0, 300.0))
        fixed = 10.0 ** draw(st.floats(math.log10(BETA_MIN), math.log10(2 * math.pi)))
    top = stop if parameter == "beta" else fixed
    crack_angle = draw(st.one_of(st.none(), st.floats(0.05, 0.95).map(lambda f: f * top)))
    chiralities = draw(st.sets(st.sampled_from(["armchair", "zigzag", "chiral"]), min_size=1))
    return _sweep(parameter, start, stop, draw(st.integers(2, 4)), draw(st.integers(1, 6)),
                  crack_angle, chiralities, fixed)


class TestBatchedSearch:
    """Many problems, as a sweep has, are solved one after another, each as it is alone."""

    @settings(max_examples=25, deadline=None)
    @given(spec=_sweeps())
    @example(spec=_sweep("beta", 0.5, 2.0, steps=3, mode=2, crack_angle=1.0,
                         chiralities={"armchair", "zigzag"}, fixed=1.0))
    @example(spec=_sweep("eta", 0.0, 1e300, steps=3, mode=1, crack_angle=0.3,
                         chiralities={"chiral"}, fixed=1.0))
    def test_entries_match_solves_alone(self, spec):
        # Each solved row's K is, bit for bit, the mode of its point solved
        # alone; a no-root row is a point whose solve raises, and a
        # crack-outside row one whose crack does not fit. The two examples
        # hold rows of each kind.
        from arch_resonance import sweep

        rows = iter(sweep.run_sweep(spec))
        cfg = SearchConfig(max_modes=spec.mode)
        for value in sweep._linspace(spec.start, spec.stop, spec.steps):
            for tube in spec.tubes.values():
                row = next(rows)
                try:
                    _, problem = sweep._reduce(spec, value, tube, spec.crack)
                except DegenerateSegment:
                    assert (row.note, row.K) == ("crack-outside", None)
                    continue
                alone = _alone(problem, cfg)
                if isinstance(alone, NoRootsInRange):
                    assert (row.note, row.K) == ("no-root", None)
                else:
                    assert (row.note, row.K.hex()) == ("", _hex(alone)[-1])
        assert next(rows, None) is None

    def test_short_problem_leaves_the_others_alone(self):
        # With k_max = 10: beta = 1 has no candidate at all (K_1 = 78.67),
        # beta = 2 one of the two modes (K_2 = 78.6), beta = 6 both. Each
        # solve raises or returns alone, whatever was solved before it.
        problems = [make_problem(beta=b) for b in (1.0, 2.0, 6.0)]
        cfg = SearchConfig(max_modes=2, k_max=10.0)
        for order in (problems, problems[::-1]):
            entries = {p.beta: _alone(p, cfg) for p in order}
            assert [str(entries[b]) for b in (1.0, 2.0)] == [
                "no determinant roots in K range [1e-06, 10.0]",
                "1 of 2 requested roots in K range [1e-06, 10.0]",
            ]
            assert len(entries[6.0]) == 2

    def test_mixed_batch_matches_solves_alone(self):
        # Uncracked problems among cracked ones, solved in turn and then in
        # reverse order: the same spectra bit for bit, and the same scans and
        # refinements, each bracket alone too. No solve leaves state behind.
        problems = [
            make_problem(eta=0.5), make_problem(alpha=0.4, theta=0.8),
            make_problem(beta=2.0), make_problem(beta=2.0, eta=1.0, alpha=1.5, theta=0.0),
        ]
        cfg = SearchConfig(max_modes=3)
        spectra = [_hex(find_frequencies(problem, cfg)) for problem in problems]
        assert [_hex(find_frequencies(p, cfg)) for p in problems[::-1]] == spectra[::-1]
        # The search internals take the uncracked ones as the crack of zero compliance.
        searched = [p if p.crack else _zero_crack(p.beta, p.eta_nd) for p in problems]
        scans = [scan_and_bracket(problem, cfg) for problem in searched]
        roots = [refine_root(problem, scan, cfg.refine_tol) for problem, scan in zip(searched, scans)]
        for problem, scan, ks in reversed(list(zip(searched, scans, roots))):
            assert scan_and_bracket(problem, cfg) == scan
            assert ks == [_refine(pair, problem, cfg) for pair in _pairs(scan)]

    def test_one_debug_line_per_call(self, caplog):
        problems = [make_problem(beta=b, alpha=0.4 * b, theta=0.8) for b in (1.0, 2.0, 6.0)]
        with caplog.at_level(logging.DEBUG, logger="arch_resonance.solver"):
            for problem in problems:
                _alone(problem, SearchConfig(max_modes=2, k_max=10.0))
            find_frequencies(make_problem(eta=1.0, alpha=0.4, theta=0.8), SearchConfig(max_modes=1))
            find_frequencies(make_problem(beta=2.0), SearchConfig(max_modes=2))
            _alone(make_problem(), SearchConfig(max_modes=2, k_max=10.0))
        lines = [r.getMessage() for r in caplog.records if r.name == "arch_resonance.solver"]
        # Below k_max = 10, beta = 1 has no root and beta = 2 one, so both
        # raise after walking their whole grids of 258 and 261 nodes (256
        # uniform, the guides at K = 1 and, for beta = 2, the guides and
        # midpoint of K_1 = 2.15), and refine nothing; beta = 6 stops at its
        # second bracket, and its two roots take nine one-K evaluations. An
        # uncracked problem is its closed form: no scan evaluation and no
        # bracket refined, whether it solves or raises.
        assert lines == [
            "find_frequencies: 258 scan evaluations, 0 refinement evaluations, 0 brackets refined",
            "find_frequencies: 261 scan evaluations, 0 refinement evaluations, 0 brackets refined",
            "find_frequencies: 23 scan evaluations, 9 refinement evaluations, 2 brackets refined",
            "find_frequencies: 4 scan evaluations, 5 refinement evaluations, 1 brackets refined",
            "find_frequencies: 0 scan evaluations, 0 refinement evaluations, 0 brackets refined",
            "find_frequencies: 0 scan evaluations, 0 refinement evaluations, 0 brackets refined",
        ]

    @pytest.mark.parametrize("registered", [None, "placeholder"])
    def test_debug_line_before_the_logger_is_made(self, caplog, registered):
        # The solver reads its logger from logging's registry, and makes it where
        # the registry holds none, or only a placeholder for a child's logger.
        registry = logging.Logger.manager.loggerDict
        with mock.patch.dict(registry), caplog.at_level(logging.DEBUG, logger="arch_resonance"):
            registry.pop(solver.__name__, None)
            if registered:
                child = logging.Logger(f"{solver.__name__}.child")
                child.parent = logging.root
                registry[solver.__name__] = logging.PlaceHolder(child)
            find_frequencies(make_problem(beta=2.0), SearchConfig(max_modes=2))
            assert isinstance(registry[solver.__name__], logging.Logger)
        assert [r.getMessage() for r in caplog.records] == [
            "find_frequencies: 0 scan evaluations, 0 refinement evaluations, 0 brackets refined"
        ]

    def test_threads_log_their_own_counts(self, caplog):
        # Four threads, more than the cores, solve the cracked problems of
        # TestKernelCallsPerSolve at once, the interpreter switching between
        # them every microsecond: each debug line holds the counts of its own
        # solve.
        problems = [
            (make_problem(eta=1.0, alpha=0.4, theta=0.8), 42, 17),
            (make_problem(beta=2.5, eta=0.0, alpha=0.7, theta=5.0), 33, 25),
            (make_problem(beta=0.8, eta=3.0, alpha=0.6, theta=0.05), 41, 14),
        ]
        work = {f"solver {i}": problems[i % len(problems)] for i in range(4)}
        start = threading.Barrier(len(work))

        def solve(problem):
            start.wait(timeout=60)
            for _ in range(40):
                find_frequencies(problem)

        threads = [threading.Thread(target=solve, args=(p,), name=n) for n, (p, _, _) in work.items()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level(logging.DEBUG, logger="arch_resonance.solver"):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        seen = [(r.threadName, r.getMessage()) for r in caplog.records if r.name == "arch_resonance.solver"]
        expected = [
            (name, f"find_frequencies: {values} scan evaluations, {evals} refinement evaluations, "
                   "5 brackets refined")
            for name, (_, values, evals) in work.items() for _ in range(40)
        ]
        assert sorted(seen) == expected


def _dip(monkeypatch, problem):
    """Make the determinant of ``problem`` dip at a grid node between its modes 1 and 2.

    The node keeps its sign, and its log-magnitude drops by four times the
    dip threshold, so it lies far below its same-sign neighbours. Other
    problems, told apart by their central angle, are left alone.
    Returns the node's K and a list that gets one entry per evaluation of it.
    """
    lo, hi = find_frequencies(problem, SearchConfig(max_modes=2)).K_values
    cfg = SearchConfig()
    inside = [k for k in solver._grid_nodes(problem, cfg, solver._k_max(problem, cfg)) if lo < k < hi]
    assert len(inside) >= 3  # so the node's neighbours lie between the roots too
    k = inside[len(inside) // 2]
    original = kernel.det_sign_logmag_at
    hits = []

    def dipping(K, eta, beta, alpha, theta):
        sign, logmag = original(K, eta, beta, alpha, theta)
        if K == k and beta == problem.beta:
            hits.append(k)
            logmag -= 4.0 * solver._DIP_THRESHOLD
        return sign, logmag

    monkeypatch.setattr(kernel, "det_sign_logmag_at", dipping)
    return k, hits


# The dip guards the search, which only cracked arches take; a crack of zero
# compliance has the uncracked spectrum.
# At eta = 1 the default grid holds five nodes between modes 1 and 2.
_DIP_PROBLEMS = [
    make_problem(eta=1.0, alpha=0.4, theta=0.0), make_problem(eta=1.0, alpha=0.4, theta=0.8)
]


class TestDip:
    """A node far below both neighbours of its sign fails the solve.

    An even number of roots may lie around a dip, none of them bracketed, so
    a dip among the first max_modes candidates, which the scan's walk
    evaluates, is a NoRootsInRange naming its K.
    """

    @pytest.mark.parametrize("problem", _DIP_PROBLEMS, ids=["zero-compliance", "cracked"])
    def test_dip_fails_the_solve(self, problem, monkeypatch):
        k, _ = _dip(monkeypatch, problem)
        with pytest.raises(NoRootsInRange) as raised:
            find_frequencies(problem, SearchConfig(max_modes=2))
        assert repr(k) in str(raised.value)

    @pytest.mark.parametrize("problem", _DIP_PROBLEMS, ids=["zero-compliance", "cracked"])
    def test_dip_above_the_requested_modes_is_ignored(self, problem, monkeypatch):
        # The walk of one mode stops at mode 1's bracket, below the dip, and
        # never evaluates it; asking for two modes then fails.
        one = find_frequencies(problem, SearchConfig(max_modes=1))
        k, hits = _dip(monkeypatch, problem)
        assert _hex(find_frequencies(problem, SearchConfig(max_modes=1))) == _hex(one)
        assert hits == []
        with pytest.raises(NoRootsInRange):
            find_frequencies(problem, SearchConfig(max_modes=2))

    def test_only_the_dipping_problem_of_a_batch_fails(self, monkeypatch):
        problems = [make_problem(beta=b, alpha=0.4 * b, theta=0.8) for b in (0.8, 1.0, 1.5)]
        cfg = SearchConfig(max_modes=2)
        before = [_hex(find_frequencies(p, cfg)) for p in problems]
        k, _ = _dip(monkeypatch, problems[1])
        entries = [_alone(p, cfg) for p in problems]
        assert isinstance(entries[1], NoRootsInRange) and repr(k) in str(entries[1])
        assert [_hex(entries[0]), _hex(entries[2])] == [before[0], before[2]]

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
    ks = solver.refine_root(problem, _whole_scan(problem, cfg), cfg.refine_tol)
    return tuple(solver.Root(K=k) for k in ks)[: cfg.max_modes]


class TestEarlyExitScan:
    @pytest.mark.parametrize("points", [16, 256])
    @settings(max_examples=15, deadline=None)
    @given(
        beta=st.floats(0.3, 6.0),
        eta=st.sampled_from([0.0, 0.5, 1.0, 4.0]),
        crack=st.tuples(st.floats(0.05, 0.95), st.floats(0.0, 3.0)),
        modes=st.integers(1, 8),
    )
    def test_matches_whole_grid(self, points, beta, eta, crack, modes):
        # Cracked problems only: an uncracked solve is the closed form, no scan.
        problem = ArchProblem(beta, eta, CrackJoint(alpha=crack[0] * beta, theta_c=crack[1]))
        cfg = SearchConfig(max_modes=modes, grid_points=points)
        expected = _whole_grid_spectrum(problem, cfg)
        if len(expected) < modes:
            with pytest.raises(NoRootsInRange):
                find_frequencies(problem, cfg)
        else:
            assert find_frequencies(problem, cfg).roots == expected

    @pytest.mark.parametrize("node", [1.0 - solver._GUIDE_OFFSET, 1.0 + solver._GUIDE_OFFSET])
    def test_a_guide_on_a_uniform_node_is_dropped(self, node):
        # k_max puts uniform node 1 within rounding of a guide of K = 1. The
        # grid drops the upper node of each pair within 1e-15 max(1, K),
        # compared here in a plain loop over the sorted nodes and guides.
        problem = make_problem(beta=1.3, eta=1.0, alpha=0.4, theta=0.8)
        k_min, points = 1e-6, 2000
        cfg = SearchConfig(k_min=k_min, k_max=k_min + (node - k_min) * (points - 1), grid_points=points)
        nodes = list(solver._grid_nodes(problem, cfg, cfg.k_max))
        uniform = (k_min + (cfg.k_max - k_min) * np.arange(301) / (points - 1)).tolist()
        step, bound = (cfg.k_max - k_min) / (points - 1), uniform[-1]
        guides = [1.0 - solver._GUIDE_OFFSET, 1.0 + solver._GUIDE_OFFSET]
        for n in range(1, 40):  # beta < pi: rising modes only
            kn = uncracked_K_closed_form(n, problem.beta, problem.eta_nd)
            lo, hi = kn * (1.0 - solver._GUIDE_OFFSET), kn * (1.0 + solver._GUIDE_OFFSET)
            guides += [lo, hi]
            if k_min < lo and hi < bound and (lo - k_min) // step == (hi - k_min) // step:
                guides.append(0.5 * (lo + hi))
        kept = []
        for k in sorted(uniform + [g for g in guides if k_min < g < bound]):
            if not kept or k - kept[-1] > 1e-15 * max(1.0, k):
                kept.append(k)
        assert abs(uniform[1] - node) <= 1e-15
        assert nodes[:300] == kept[:300]

    @pytest.mark.parametrize("dip", [False, True], ids=["sign-0", "dip"])
    def test_the_walk_is_a_prefix_of_the_grid(self, monkeypatch, dip):
        # The scan evaluates the grid's nodes in order, each once, and stops
        # on the upper node of its fifth candidate. The crack at alpha = 0.4
        # = 2 beta / 5 sits on a zero of mode 5's curvature, so K_5 stays a
        # root: its guide midpoint, of sign 0, is the fifth bracket and the
        # last node. A dip between modes 1 and 2 is the second candidate, so
        # the walk ends on the upper node of the fourth bracket and fails.
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        cfg = SearchConfig(max_modes=5)
        grid = list(solver._grid_nodes(problem, cfg, solver._k_max(problem, cfg)))
        records = _whole_scan(problem, cfg)
        whole = _pairs(records)
        if dip:
            k, _ = _dip(monkeypatch, problem)
        evaluate, evaluated = kernel.det_sign_logmag_at, []
        monkeypatch.setattr(
            kernel, "det_sign_logmag_at", lambda K, *args: evaluated.append(K) or evaluate(K, *args)
        )
        if dip:
            with pytest.raises(NoRootsInRange, match=f"dips without a sign change at K = {k!r}"):
                _scan(problem, cfg)
            assert whole[0][1] < k < whole[1][0]
            last = whole[3][1]
        else:
            scan = _scan(problem, cfg)
            assert scan == records[:5]
            (last, (sign, _)), (k5, _) = scan[4]
            assert last == k5 and sign == 0
            assert rel_err(last, uncracked_K_closed_form(5, 1.0, 1.0)) < 1e-15
        assert evaluated == grid[: grid.index(last) + 1]

    def test_partial_scan_is_a_prefix_of_the_whole_grid(self):
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        cfg = SearchConfig(max_modes=3)
        whole = _whole_scan(problem, cfg)
        partial = _scan(problem, cfg)
        assert 3 == len(partial) < len(whole)
        assert partial == whole[:3]

    def test_coincident_candidates_are_two_roots(self, monkeypatch):
        # The second candidate is made to refine onto the first root. It is
        # still its own root: candidates sit in disjoint grid intervals, so a
        # near-coincident pair is a double root split by a grid node.
        problem = make_problem(eta=1.0, alpha=0.4, theta=0.8)
        cfg = SearchConfig(max_modes=2)
        scan = _scan(problem, cfg)
        first_k = find_frequencies(problem, SearchConfig(max_modes=1)).roots[0].K
        second = scan[1]
        original = solver.refine_root
        refines = []

        def duplicating(problem, brackets, tol, counts):
            refines.append(len(brackets))
            ks = original(problem, brackets, tol, counts)
            return [first_k if b == second else k for b, k in zip(brackets, ks)]

        monkeypatch.setattr(solver, "refine_root", duplicating)
        scans = []
        original_scan = solver.scan_and_bracket
        monkeypatch.setattr(
            solver,
            "scan_and_bracket",
            lambda problem, cfg, counts: scans.append(cfg.max_modes) or original_scan(problem, cfg, counts),
        )
        spectrum = find_frequencies(problem, cfg)
        assert scans == [2]
        assert refines == [2]
        assert spectrum.K_values == (first_k, first_k)


def _near_a_true_root(problem, k, tol):
    """Whether the 60-digit F changes sign within tol * max(1, k) of k."""
    d = tol * max(1.0, k)
    crack = problem.crack
    args = (problem.eta_nd, problem.beta, crack.alpha, crack.theta_c)
    return reduced_det_mp(k - d, *args) * reduced_det_mp(k + d, *args) <= 0


def _on_near_or_off_a_node(beta, rng):
    """A crack angle on a node of a low mode, within 1e-6 beta of one, or anywhere."""
    kind, m = rng.integers(3), int(rng.integers(2, 8))
    node = beta * int(rng.integers(1, m)) / m
    if kind == 0:
        return node
    if kind == 1:
        return node + beta * rng.uniform(-1e-6, 1e-6)
    return beta * rng.uniform(0.01, 0.99)


class TestOnePass:
    """The scan walks its grid once and stops at the last requested
    candidate: the rest of the grid is left."""

    def test_seeded_survey_against_the_whole_grid(self):
        # Default k_max, k_min at 1e-6 or raised, cracks of compliance 1e-8 to
        # 1e10 on, near and off the nodes of a mode, 1-200 modes and 16-2000
        # grid points: each scan's brackets and end values are the first
        # max_modes of the whole grid's.
        rng = np.random.default_rng(37)
        for _ in range(300):
            beta = 10.0 ** rng.uniform(math.log10(0.05), math.log10(2 * math.pi))
            eta = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 4.0)
            crack = CrackJoint(_on_near_or_off_a_node(beta, rng), 10.0 ** rng.uniform(-8.0, 10.0))
            problem = ArchProblem(beta, eta, crack)
            k_min = 1e-6 if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 4.0)
            modes = int(rng.integers(1, 11)) if rng.random() < 0.7 else int(rng.integers(1, 201))
            points = int(rng.integers(16, 2001)) if rng.random() < 0.5 else 256
            cfg = SearchConfig(k_min=k_min, max_modes=modes, grid_points=points)
            scan, whole = _scan(problem, cfg), _whole_scan(problem, cfg)
            assert scan == whole[:modes], (problem, cfg)

    def test_many_mode_spectra_against_60_digits(self):
        # 2000-3000 modes: 20 sampled roots, the first and last among them,
        # each lie within refine_tol * max(1, K) of a sign change of the
        # 60-digit F, and the spectrum ascends.
        rng = np.random.default_rng(2500)
        for _ in range(3):
            beta, eta = rng.uniform(0.3, 6.0), rng.choice([0.0, rng.uniform(0.0, 2.0)])
            problem = ArchProblem(beta, eta, CrackJoint(beta * rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-1.3, 1.3)))
            cfg = SearchConfig(max_modes=int(rng.integers(2000, 3001)))
            ks = find_frequencies(problem, cfg).K_values
            assert len(ks) == cfg.max_modes and all(a <= b for a, b in zip(ks, ks[1:]))
            sample = {0, len(ks) - 1, *rng.choice(len(ks), 18, replace=False).tolist()}
            for i in sorted(sample):
                assert _near_a_true_root(problem, ks[i], cfg.refine_tol), (problem, i, ks[i])


def _straddles_a_true_root(problem, lo, hi, k, tol):
    """Whether the 60-digit F changes sign within tol/2 * max(1, k) of k, inside [lo, hi]."""
    d = 0.5 * tol * max(1.0, k)
    crack = problem.crack
    args = (problem.eta_nd, problem.beta, crack.alpha, crack.theta_c)
    a, b = (reduced_det_mp(x, *args) for x in (max(lo, k - d), min(hi, k + d)))
    return lo <= k <= hi and a * b <= 0


def _armchair_theta(psi):
    """The compliance of a crack of depth ``psi`` in the armchair preset's tube."""
    from arch_resonance import ChiralityClass, resolve_preset
    from arch_resonance.cli import load_presets

    tube = resolve_preset(ChiralityClass.ARMCHAIR, load_presets())
    return compliance(PowerLawCompliance(), psi, (tube.wall_thickness, tube.radius))


def _draw(family, rng):
    """One random cracked problem of a family, and the modes to solve."""
    if family == "benchmark":  # as the benchmark's cracked workload draws them
        beta = rng.uniform(0.5, 3.0)
        crack = CrackJoint(beta * rng.uniform(0.1, 0.9), _armchair_theta(rng.uniform(0.1, 0.8)))
        return ArchProblem(beta, rng.uniform(0.0, 4.0), crack), 5
    beta = 10.0 ** rng.uniform(math.log10(BETA_MIN), math.log10(2 * math.pi))
    eta = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 4.0)
    log_theta = rng.uniform(1.0, 3.0) if family == "stiff" else rng.uniform(-3.0, 2.0)
    crack = CrackJoint(beta * rng.uniform(0.05, 0.95), 10.0**log_theta)
    return ArchProblem(beta, eta, crack), 8 if family == "eight-modes" else 5


class TestCrackTermInTheZeroRootWindow:
    """A compliance above about 1e11 puts a cracked root near K = 1 inside the
    zero-root window |1 - K| <= 1e-10*(2 + K*eta), where mu2 is snapped to 0:
    the crack term keeps its factor mu2 = (1 - K)/mu1 there."""

    ARGS = (0.0, 6.25, 1.44)  # eta, beta, alpha
    THETAS = [1e11, 1e12, 1e20]

    @pytest.mark.parametrize("theta", THETAS)
    def test_root_near_one_against_60_digits(self, theta):
        cfg = SearchConfig()
        k = find_frequencies(ArchProblem(6.25, 0.0, CrackJoint(1.44, theta)), cfg).K_values[1]
        assert abs(1.0 - k) <= 2e-10
        d = cfg.refine_tol * max(1.0, k)
        a, b = (reduced_det_mp(x, *self.ARGS, theta) for x in (k - d, k + d))
        assert a * b <= 0

    @pytest.mark.parametrize("theta", THETAS)
    def test_one_k_form_in_the_window(self, theta):
        ks = [1 - 1e-10, 1 - 2e-11, 1 - 3.7e-12, 1 - 3.6e-12, 1 + 5e-11]
        for k in ks:
            sign, _ = kernel.det_sign_logmag_at(k, *self.ARGS, theta)
            assert sign == (1 if reduced_det_mp(k, *self.ARGS, theta) > 0 else -1)


class TestBrentRefinement:
    """refine_root runs Brent's method on each bracket, one K at a time."""

    @pytest.mark.parametrize(
        "family, count",
        [("all-angles", 240), ("benchmark", 60), ("stiff", 60), ("eight-modes", 40)],
    )
    def test_random_roots_lie_within_half_the_tolerance_of_60_digit_roots(self, family, count):
        # Each root the scan's first brackets refine to lies in its bracket,
        # within refine_tol/2 * max(1, K) of a sign change of the 60-digit F.
        # "all-angles" draws central angles down to BETA_MIN, "stiff" cracks
        # of compliance 10 to 1000.
        rng = np.random.default_rng(2828)
        checked = 0
        for _ in range(count):
            problem, modes = _draw(family, rng)
            cfg = SearchConfig(max_modes=modes)
            try:
                scan = _scan(problem, cfg)
            except NoRootsInRange:
                continue
            ks = refine_root(problem, scan, cfg.refine_tol)
            for (lo, hi), k in zip(_pairs(scan), ks):
                if lo != hi:
                    checked += 1
                    assert _straddles_a_true_root(problem, lo, hi, k, cfg.refine_tol), (problem, k)
        assert checked >= 3 * count

    @pytest.mark.parametrize(
        "problem",
        [
            make_problem(eta=1.0, alpha=0.4, theta=0.8),
            make_problem(beta=0.01, eta=2.0, alpha=0.003, theta=50.0),
            ArchProblem(0.06454, 0.0, CrackJoint(0.030614, 0.15648)),
        ],
        ids=["moderate", "small-angle", "wide-bracket"],
    )
    def test_evaluations_stay_inside_the_bracket(self, problem, monkeypatch):
        # Every K Brent's method evaluates lies strictly inside the bracket
        # it refines, whatever its steps: interpolated, bisecting or least.
        cfg = SearchConfig(max_modes=3)
        scan = _scan(problem, cfg)
        seen, original = [], kernel.det_sign_logmag_at
        monkeypatch.setattr(
            kernel, "det_sign_logmag_at", lambda K, *args: seen.append(K) or original(K, *args)
        )
        for bracket, pair in zip(scan, _pairs(scan)):
            seen.clear()
            refine_root(problem, [bracket], cfg.refine_tol)
            assert len(seen) <= solver._MAX_EVALUATIONS
            assert all(pair[0] < k < pair[1] for k in seen), (pair, seen)

    def test_guide_midpoint_is_an_exact_zero(self):
        # The symmetric guide bracket of K_1 has K_1 itself as its midpoint,
        # where the determinant sign is exactly 0. Brent's steps need not
        # land on it: the bracket ends within the tolerance of K_1.
        problem = _zero_crack()
        k1 = uncracked_K_closed_form(1, 1.0, 0.0)
        guide = (k1 * (1.0 - 1e-6), k1 * (1.0 + 1e-6))
        assert 0.5 * (guide[0] + guide[1]) == k1
        assert reduced_det(problem, k1)[0] == 0
        bracket = _bracket(problem, guide)
        with _one_k_calls() as one_k:
            k = refine_root(problem, [bracket], SearchConfig().refine_tol)[0]
        assert one_k.call_count <= solver._MAX_EVALUATIONS
        assert abs(k - k1) <= 0.5e-10 * k1 or reduced_det(problem, k)[0] == 0

    def test_bracket_at_a_double_root(self):
        # At beta = pi/sqrt(0.4), eta = 0, K_1 = K_2 = 0.36 is a double root:
        # F touches 0 there without a sign change, so an end next to it reads
        # a tiny value. Brackets holding it and the simple root K_3 = 6.76
        # end within the cap, at a K of sign 0 or within the tolerance of a
        # sign change.
        problem = _zero_crack(beta=DOUBLE_BETA)
        cfg = SearchConfig()
        for pair in [(0.3, 7.0), (0.36 - 1e-6, 6.77), (0.36 + 1e-6, 6.77)]:
            (_, (s_lo, _)), (_, (s_hi, _)) = bracket = _bracket(problem, pair)
            assert s_lo * s_hi == -1
            with _one_k_calls() as one_k:
                k = refine_root(problem, [bracket], cfg.refine_tol)[0]
            assert one_k.call_count <= solver._MAX_EVALUATIONS
            if reduced_det(problem, k)[0] != 0:
                assert _straddles_a_true_root(problem, *pair, k, cfg.refine_tol), (pair, k)

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_evaluation_cap(self, monkeypatch, cap):
        # Capped below the eight evaluations it needs, the wide bracket of
        # TestKernelCallsPerSolve ends at the midpoint of the bracket it holds
        # then, which still straddles the root but is wider than the tolerance.
        problem = ArchProblem(0.06454, 0.0, CrackJoint(0.030614, 0.15648))
        scan = _scan(problem, SearchConfig(max_modes=1))
        (lo, hi), = _pairs(scan)
        with _one_k_calls() as one_k:
            root = refine_root(problem, scan, 1e-10)[0]
        assert one_k.call_count == 8
        monkeypatch.setattr(solver, "_MAX_EVALUATIONS", cap)
        with _one_k_calls() as one_k:
            capped = refine_root(problem, scan, 1e-10)[0]
        assert one_k.call_count == cap
        assert lo < capped < hi
        assert abs(capped - root) > SearchConfig().refine_tol * root

    @pytest.mark.parametrize("pair", [(-1.0, 2.0), (1.0, math.inf), (2.0, 1.0)])
    def test_bracket_outside_the_range_is_rejected(self, pair):
        problem = make_problem(alpha=0.4, theta=0.8)
        bracket = (pair[0], (1, 0.0)), (pair[1], (-1, 0.0))
        with pytest.raises(ValueError, match="must lie in"):
            refine_root(problem, [bracket], 1e-10)

    @pytest.mark.parametrize("end", [0, 1])
    def test_end_of_sign_zero_is_the_root(self, end):
        # An end the scan read as sign 0 is the root, with no evaluation.
        problem = make_problem(alpha=0.4, theta=0.8)
        pair = (60.0, 80.0)
        ends = [(-1, 0.0), (1, 0.0)]
        ends[end] = (0, -40.0)
        with _one_k_calls() as one_k:
            assert refine_root(problem, [tuple(zip(pair, ends))], 1e-10)[0] == pair[end]
        assert one_k.call_count == 0

    def test_evaluated_sign_zero_is_the_root(self, monkeypatch):
        # The first K evaluated reads sign 0 here, so it is the root.
        problem = make_problem(eta=0.5, alpha=0.3, theta=2.0)
        scan = _scan(problem, SearchConfig(max_modes=1))
        seen, original = [], kernel.det_sign_logmag_at

        def zero_at_first(K, *args):
            seen.append(K)
            return (0, -40.0) if len(seen) == 1 else original(K, *args)

        monkeypatch.setattr(kernel, "det_sign_logmag_at", zero_at_first)
        root = refine_root(problem, scan, 1e-10)
        assert root == seen == [seen[0]]


def _sequential_bisection(pairs, problem, cfg, levels=200):
    """Reference: plain bisection of each bracket, at most ``levels`` levels."""
    roots = []
    for lo, hi in pairs:
        s_lo = reduced_det(problem, lo)[0] if lo != hi else 0
        for _ in range(levels):
            mid = 0.5 * (lo + hi)
            if hi - lo <= cfg.refine_tol * max(1.0, mid):
                break
            s_mid = reduced_det(problem, mid)[0]
            if s_mid == 0:
                lo = hi = mid
                break
            lo, hi = (mid, hi) if s_mid == s_lo else (lo, mid)
        roots.append(0.5 * (lo + hi))
    return roots


def _bisected(pair, problem, levels):
    """The bracket plain bisection holds after ``levels`` levels of ``pair``:
    a zero-width one at a midpoint of sign 0."""
    lo, hi = pair
    s_lo = reduced_det(problem, lo)[0]
    for _ in range(levels if lo != hi else 0):
        mid = 0.5 * (lo + hi)
        s_mid = reduced_det(problem, mid)[0]
        if s_mid == 0:
            return mid, mid
        lo, hi = (mid, hi) if s_mid == s_lo else (lo, mid)
    return lo, hi


def _same_root(problem, k, ref, tol):
    """Whether two refinements of a bracket, k and ref, end at the same root:
    within tol * max(1, K) of each other, or both at a K of sign 0, which
    each takes as the root (the band of sign 0 can be wider than tol * K)."""
    if abs(k - ref) <= tol * max(1.0, k, ref):
        return True
    return reduced_det(problem, k)[0] == 0 == reduced_det(problem, ref)[0]


# Brackets by test id suffix: the batch's own, and the brackets plain
# bisection holds after its first N levels of each.
_SCHEDULES = {"": None, "-levels1": 1, "-levels3": 3, "-levels4": 4, "-levels6": 6}


class TestMultiLevelBisection:
    """refine_root against plain bisection, one level at a time: each
    root lies within refine_tol * max(1, K) of bisection's, since both end
    within half the tolerance of the bracket's sign change."""

    def _batch(self, problem):
        # For the crack of zero compliance the guide pair around K_1 (for
        # beta = 1, eta = 0 its midpoint is K_1, where the sign is 0), and
        # the scan's brackets, zero-width ones of sign 0 among them.
        scan = _whole_scan(problem, SearchConfig(k_max=3000.0))
        if problem.crack.theta_c == 0.0:
            k1 = uncracked_K_closed_form(1, 1.0, 0.0)
            return (_bracket(problem, (k1 * (1.0 - 1e-6), k1 * (1.0 + 1e-6))), *scan)
        return scan

    # A cap of 7 evaluations: a bracket that reaches it ends at the midpoint
    # of the bracket Brent's method holds then, inside its own.
    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize(
        "cap, levels",
        [(cap, levels) for levels in _SCHEDULES.values() for cap in (200, 7)],
        ids=[f"{cap}{suffix}" for suffix in _SCHEDULES for cap in (200, 7)],
    )
    def test_matches_one_level_per_call(self, monkeypatch, tol, cap, levels):
        monkeypatch.setattr(solver, "_MAX_EVALUATIONS", cap)
        cfg = SearchConfig(refine_tol=tol)
        for problem in (_zero_crack(), make_problem(eta=0.5, alpha=0.3, theta=2.0)):
            brackets = self._batch(problem)
            expected = _sequential_bisection(_pairs(brackets), problem, cfg)
            if levels is not None:
                brackets = [_bracket(problem, _bisected(pair, problem, levels)) for pair in _pairs(brackets)]
            for bracket, pair, ref in zip(brackets, _pairs(brackets), expected):
                with _one_k_calls() as one_k:
                    k = refine_root(problem, [bracket], tol)[0]
                assert pair[0] <= k <= pair[1]
                if one_k.call_count < cap:
                    assert _same_root(problem, k, ref, tol), (pair, k, ref)

    @settings(max_examples=40, deadline=None)
    @given(
        batch=_problems(),
        tol=st.one_of(
            st.sampled_from([1e-10, 1e-13]), st.floats(-13.0, -4.0).map(lambda e: 10.0**e)
        ),
    )
    def test_random_batches_match_one_level_per_call(self, batch, tol):
        # The scan's brackets (zero-width ones included) of every problem,
        # refined by Brent's method, against the same brackets bisected one
        # level per call; uncracked brackets, of the crack of zero
        # compliance, are guide pairs whose midpoints have sign 0.
        problems, cfg = batch
        searched = []
        for problem in problems:
            problem = problem if problem.crack else _zero_crack(problem.beta, problem.eta_nd)
            try:
                searched.append((problem, scan_and_bracket(problem, cfg)))
            except NoRootsInRange:
                pass
        assume(searched)
        cfg = replace(cfg, refine_tol=tol)
        for problem, scan in searched:
            roots = refine_root(problem, scan, tol)
            expected = _sequential_bisection(_pairs(scan), problem, cfg)
            for pair, k, ref in zip(_pairs(scan), roots, expected):
                assert _same_root(problem, k, ref, tol), (pair, k, ref)


class TestKernelCallsPerSolve:
    def _count(self, monkeypatch):
        """The nodes each scan evaluates from here on, one entry a scan."""
        scans = []
        monkeypatch.setattr(solver, "scan_and_bracket", _counted("scan_and_bracket", scans))
        return scans

    @staticmethod
    def _solve(problem, cfg=SearchConfig()):
        """The problem's spectrum and the one-K evaluations its refinement took."""
        refined = []
        with mock.patch.object(solver, "refine_root", _counted("refine_root", refined)):
            spectrum = find_frequencies(problem, cfg)
        return spectrum, sum(refined)

    def test_cracked_five_modes(self, monkeypatch):
        # One scan of 42 values, through the guide midpoint of K_5, and its
        # five brackets take 17 one-K evaluations. The crack at alpha = 0.4 =
        # 2 beta / 5 sits on a zero of mode 5's curvature, so K_5 stays a
        # root: its guide midpoint, of sign 0, is a zero-width bracket, which
        # takes none.
        calls = self._count(monkeypatch)
        _, evals = self._solve(make_problem(eta=1.0, alpha=0.4, theta=0.8))
        assert calls == [42]
        assert evals == 17

    def test_cracked_batch_of_three(self, monkeypatch):
        # The problem above and two more, solved in turn and then again: each
        # solve makes one scan of its own and refines each bracket, with the
        # same counts and roots both times.
        problems = [
            make_problem(eta=1.0, alpha=0.4, theta=0.8),
            make_problem(beta=2.5, eta=0.0, alpha=0.7, theta=5.0),
            make_problem(beta=0.8, eta=3.0, alpha=0.6, theta=0.05),
        ]
        calls = self._count(monkeypatch)
        alone = []
        for problem, scanned, expected in zip(problems, (42, 33, 41), (17, 25, 14)):
            spectrum, evals = self._solve(problem)
            alone.append(spectrum)
            assert (calls, evals) == ([scanned], expected)
            calls.clear()
        again = []
        for problem in problems:
            spectrum, evals = self._solve(problem)
            again.append((spectrum, evals))
        assert again == list(zip(alone, (17, 25, 14)))
        assert calls == [42, 33, 41]

    def test_cracked_five_modes_in_the_benchmark_ranges(self):
        # Cracked problems drawn as the benchmark's cracked workload draws
        # them, the compliance scaled by the armchair geometry: 19.5 one-K
        # evaluations a solve, at most 25.
        rng = np.random.default_rng(2015)
        evals = []
        for _ in range(50):
            beta, eta = rng.uniform(0.5, 3.0), rng.uniform(0.0, 4.0)
            alpha = beta * rng.uniform(0.1, 0.9)
            problem = ArchProblem(beta, eta, CrackJoint(alpha, _armchair_theta(rng.uniform(0.1, 0.8))))
            evals.append(self._solve(problem, SearchConfig(max_modes=5))[1])
        assert sum(evals) / len(evals) <= 20.0 and max(evals) <= 26

    def test_wide_bracket(self):
        # A bracket [1.000001, 5.6e6] where F is far from linear: bisection
        # needed 31 levels, Brent's method takes 8 evaluations.
        problem = ArchProblem(0.06454, 0.0, CrackJoint(0.030614, 0.15648))
        cfg = SearchConfig(max_modes=1, refine_tol=4.66e-9)
        spectrum, evals = self._solve(problem, cfg)
        assert evals == 8
        assert spectrum.K_values == (953745.4126992151,)
        (lo, hi), = _pairs(_scan(problem, cfg))
        assert lo == 1.000001
        assert _straddles_a_true_root(problem, lo, hi, spectrum.K_values[0], cfg.refine_tol)

    def test_guide_pairs_end_near_their_midpoints(self, monkeypatch):
        # The guide pairs around the first five uncracked K_n, whose midpoints
        # have sign 0, take two one-K evaluations each and no scan, and end
        # within the tolerance of their midpoints. The scan holds those
        # midpoints as nodes and hands them on as zero-width brackets, which
        # take no evaluation; its walk ends at the fifth.
        problem = _zero_crack(eta=1.0)
        pairs = [
            (k * (1.0 - 1e-6), k * (1.0 + 1e-6))
            for k in (uncracked_K_closed_form(n, 1.0, 1.0) for n in range(1, 6))
        ]
        scan = _scan(problem)
        calls = self._count(monkeypatch)
        brackets = [_bracket(problem, pair) for pair in pairs]
        with _one_k_calls() as one_k:
            roots = refine_root(problem, brackets, 1e-10)
        assert calls == [] and one_k.call_count == 10
        midpoints = [0.5 * (lo + hi) for lo, hi in pairs]
        for k, mid in zip(roots, midpoints):
            assert abs(k - mid) <= 0.5e-10 * mid
        assert _pairs(scan) == tuple((k, k) for k in midpoints)
        with _one_k_calls() as one_k:
            roots = refine_root(problem, scan, 1e-10)
        assert calls == [] and one_k.call_count == 0
        assert roots == midpoints

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
        solves, original = [], solver.find_frequencies
        monkeypatch.setattr(
            solver,
            "find_frequencies",
            lambda problem, cfg: solves.append((problem, cfg)) or original(problem, cfg),
        )
        for param in ("beta", "eta", "radius"):
            with mock.patch("sys.stdout"):
                assert main(["sweep", "--param", param]) == 0
        assert len(solves) == 3 * (59 + 41 + 41)
        calls = self._count(monkeypatch)
        for problem, cfg in solves:
            original(problem, cfg)
        assert calls == []

    def test_first_block_sized_to_the_requested_modes(self, monkeypatch):
        # The walk ends at the last requested candidate; the crack of zero
        # compliance shows it against known K_n.
        calls = self._count(monkeypatch)
        # beta = 2 pi, eta = 4: the fundamental, K_3 = 0.15625 (lam = 1.5),
        # is a node of the whole grid, K_1 = 0.28125 (lam = 0.5) is the
        # second mode, and K_2 = 0 lies below k_min, so the default k_max is
        # ten times K_6, not K_5: 5 values through the midpoint of K_3's guides.
        problem = _zero_crack(beta=2 * math.pi, eta=4.0)
        scan = _scan(problem, SearchConfig(max_modes=1))
        k6 = uncracked_K_closed_form(6, 2 * math.pi, 4.0)
        assert solver._k_max(problem, SearchConfig()) == 10.0 * k6
        assert calls == [5]
        k3 = uncracked_K_closed_form(3, 2 * math.pi, 4.0)
        assert _pairs(scan) == ((k3, k3),)
        calls.clear()
        _scan(_zero_crack(eta=1.0), SearchConfig(max_modes=5))
        assert calls == [42]


def _closed_form_ks(beta, eta, k_min, k_max):
    """Uncracked eigenvalues K_n in (k_min, k_max], ascending, by enumerating the closed form."""
    ks, n = [], 1
    while True:
        k_n = uncracked_K_closed_form(n, beta, eta)
        if n * math.pi / beta > 1.0 and k_n > k_max:
            return sorted(ks)
        if k_min < k_n:
            ks.append(k_n)
        n += 1


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
            problem = _zero_crack(beta=beta, eta=eta)
            n = solver._count_below(problem, K)
            assert n == _closed_form_count(beta, eta, K), (beta, eta, K)
            sign, _ = reduced_det(problem, K)
            assert sign in (0, (-1) ** n)

    def test_none_below_zero_at_the_largest_eta(self):
        # 4*eta overflows near eta = 4.5e307, and 0*inf would be NaN.
        assert solver._count_below(ArchProblem(1.0, 1e308), 0.0) == 0

    def test_double_root_twice(self):
        # K_1 = K_2 = 0.36 (to rounding) is modes 1 and 2, listed as one
        # float twice, from the closed form with no kernel call.
        problem = make_problem(beta=DOUBLE_BETA)
        for modes in (1, 2, 3):
            with _one_k_calls() as one_k:
                spectrum = find_frequencies(problem, SearchConfig(max_modes=modes))
            assert one_k.call_count == 0
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

    @pytest.mark.parametrize("eta", [0.0, 4.0])
    @pytest.mark.parametrize("theta", [0.0, 1e-14])
    def test_cracked_double_root_has_no_shape(self, eta, theta):
        # The falling mode 1 meets the rising mode 2 where
        # (1 - x)^2 (1 + 4 eta x) = (4x - 1)^2 (1 + eta x), x = (pi/beta)^2.
        # A crack of compliance 0 or 1e-14 leaves that root double to its
        # precision: the matching matrix has rank 2 there, so no shape.
        lo, hi = 0.25, 1.0
        for _ in range(100):
            x = 0.5 * (lo + hi)
            lo, hi = (x, hi) if (1 - x) ** 2 * (1 + 4 * eta * x) > (4 * x - 1) ** 2 * (1 + eta * x) else (lo, x)
        beta = DOUBLE_BETA if eta == 0.0 else math.pi / math.sqrt(x)
        for alpha in (beta / 3, 1.6557, 0.77 * beta):
            problem = ArchProblem(beta, eta, CrackJoint(alpha, theta))
            root = find_frequencies(problem, SearchConfig(max_modes=1)).roots[0]
            assert rel_err(root.K, uncracked_K_closed_form(1, beta, eta)) < 1e-9
            with pytest.raises(DoubleRoot, match=f"K = {root.K!r} is a double root"):
                mode_shape(problem, root, samples=5)

    def test_cracked_close_pair_has_shapes(self):
        # A crack of compliance 1e-3 splits the double root by about 1e-3 K:
        # two simple roots, each with its own shape.
        problem = ArchProblem(DOUBLE_BETA, 0.0, CrackJoint(1.6557, 1e-3))
        roots = find_frequencies(problem, SearchConfig(max_modes=2)).roots
        assert 0.0 < roots[1].K - roots[0].K < 1e-3
        shapes = [np.asarray(mode_shape(problem, root, samples=41))[:, 1] for root in roots]
        assert all(shape.max() == 1.0 for shape in shapes)
        assert np.abs(np.abs(shapes[0]) - np.abs(shapes[1])).max() > 0.1

    def test_close_roots_above_one_are_distinct(self):
        # Only a falling and a rising K_n, both below 1, can coincide: above
        # 1, K_n closer than the double-root window are distinct roots, each
        # listed, and a mode shape is asked of one of them. Mode n + 2 is a
        # multiple of 4, so its 5 samples all lie on nodes and read +0.0; at
        # 6 samples it peaks at +1.
        problem = make_problem()
        cfg = SearchConfig(k_min=1e60, k_max=1e61, max_modes=3)
        n = solver._count_below(problem, 1e60)
        assert (n + 2) % 4 == 0
        expected = tuple(uncracked_K_closed_form(n + i, 1.0, 0.0) for i in (1, 2, 3))
        assert rel_err(expected[2], expected[0]) < 1e-12
        spectrum = find_frequencies(problem, cfg)
        assert spectrum.K_values == expected
        shape = np.asarray(mode_shape(problem, spectrum.roots[1], samples=5))[:, 1]
        assert shape.tolist() == [0.0] * 5 and not np.signbit(shape).any()
        assert max(x for _, x in mode_shape(problem, spectrum.roots[1], samples=6)) == 1.0

    def test_guides_at_a_large_k_min(self):
        # Mode 31831 is the first above K = 1e20; each K_n of the range has its
        # guide pair, however far up the mode numbers start.
        problem = make_problem()
        cfg = SearchConfig(k_min=1e20, k_max=1.001e20)
        limit = [math.inf]
        grid = set(solver._grid_nodes(problem, cfg, cfg.k_max, limit))
        first = solver._count_below(problem, cfg.k_min) + 1
        kns = [uncracked_K_closed_form(n, 1.0, 0.0) for n in range(first, first + 9)]
        inside = [k for k in kns if k < cfg.k_max]
        assert first == 31831 and len(inside) == 8 and limit == [math.inf]
        for k in inside:
            assert {k * (1.0 - 1e-6), k * (1.0 + 1e-6)} <= grid

    @pytest.mark.parametrize("k_max", [None, 1e21, 1.001e20])
    def test_modes_closer_than_the_guides_fail_a_cracked_scan(self, k_max):
        # At eta = 1 adjacent K_n near 1e20 lie about 6e10 apart, under 2e-6
        # of K: guides no longer tell the modes apart, and a scan that took
        # the uniform grid's sign changes for the first modes skipped almost
        # every root in between.
        problem = make_problem(eta=1.0, alpha=0.3, theta=0.5)
        cfg = SearchConfig(k_min=1e20, k_max=k_max)
        with pytest.raises(NoRootsInRange) as info:
            find_frequencies(problem, cfg)
        assert str(info.value) == (
            f"K range [{cfg.k_min}, {solver._k_max(problem, cfg)}] holds modes closer than the grid tells apart"
        )

    def test_modes_below_the_grid_limit_are_found(self):
        # From mode 10**6 on, the guides of adjacent K_n (beta = 1, eta = 1)
        # overlap: the grid resolves the modes up to the upper guide of
        # K_(10**6). With k_min between K_n0 and K_(n0 + 1), n0 = 10**6 - 9,
        # the nine roots below that limit each lie nearest their own K_n, and
        # a tenth is past it.
        def kn(n):
            return uncracked_K_closed_form(n, 1.0, 1.0)

        onset = 10**6
        assert kn(onset + 1) * (1 - 1e-6) <= kn(onset) * (1 + 1e-6)
        assert kn(onset) * (1 - 1e-6) > kn(onset - 1) * (1 + 1e-6)
        problem = make_problem(eta=1.0, alpha=0.3, theta=0.5)
        cfg = SearchConfig(k_min=0.5 * (kn(onset - 9) + kn(onset - 8)), k_max=kn(onset + 50))
        limit = [math.inf]
        list(solver._grid_nodes(problem, cfg, cfg.k_max, limit))
        assert limit == [kn(onset) * (1 + 1e-6)]
        ks = find_frequencies(problem, replace(cfg, max_modes=9)).K_values
        for i, k in enumerate(ks):
            n = onset - 8 + i
            assert abs(k - kn(n)) < 0.5 * min(kn(n) - kn(n - 1), kn(n + 1) - kn(n))
        with pytest.raises(NoRootsInRange, match="closer than the grid tells apart"):
            find_frequencies(problem, replace(cfg, max_modes=10))

    def test_limit_is_set_before_a_node_above_it(self):
        # The grid of test_modes_below_the_grid_limit_are_found: the rising
        # guides stop where they overlap, and the merge takes that stop before
        # it yields a node above the last upper guide, so a walk that passes
        # the limit knows it.
        def kn(n):
            return uncracked_K_closed_form(n, 1.0, 1.0)

        onset = 10**6
        cfg = SearchConfig(k_min=0.5 * (kn(onset - 9) + kn(onset - 8)), k_max=kn(onset + 50))
        limit = [math.inf]
        seen = [(k, limit[0]) for k in solver._grid_nodes(make_problem(eta=1.0), cfg, cfg.k_max, limit)]
        top = kn(onset) * (1 + 1e-6)
        assert limit == [top] and top in [k for k, _ in seen]
        assert {at for k, at in seen if k > top} == {top}

    def test_k_max_defaults_above_a_large_k_min(self):
        # Ten times K_5 lies below k_min, so the modes count on from N(k_min).
        for eta in (0.0, 1.0):
            problem = make_problem(eta=eta)
            k_max = solver._k_max(problem, SearchConfig(k_min=1e20))
            n = solver._count_below(problem, 1e20) + 5
            assert k_max == 10.0 * uncracked_K_closed_form(n, 1.0, eta)
            assert k_max > 1e20
        assert solver._k_max(make_problem(eta=1.0), SearchConfig(k_min=1e300)) == sys.float_info.max

    @pytest.mark.parametrize("psi", [None, 0.3])
    def test_default_k_max_counts_from_the_modes_below_a_raised_k_min(self, psi, capsys, tmp_path):
        # At beta = 4.6003, eta = 0 the uncracked K_5..K_9 are 113.6, 249.3,
        # 477.5, 832.2 and 1352.5, and K_1..K_4 lie below k_min = 93.55. Ten
        # times K_5 left four roots in range, and freq exited 1; counted on
        # from those four, the default is ten times K_9, and five rows print.
        beta, k_min = 4.600296888500213, 93.55
        config = tmp_path / "k.ini"
        config.write_text(f"[search]\nk-min = {k_min}\n")
        crack = [] if psi is None else ["--crack-psi", str(psi)]
        argv = ["freq", "--beta", repr(beta), "--eta", "0", *crack, "--config", str(config), "--format", "csv"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        theta = None if psi is None else compliance(PowerLawCompliance(), psi)
        problem = ArchProblem(beta, 0.0, None if psi is None else CrackJoint(0.5 * beta, theta))
        cfg = SearchConfig(k_min=k_min)
        n = solver._count_below(problem, k_min)
        assert n == 4 and solver._k_max(problem, cfg) == 10.0 * uncracked_K_closed_form(9, beta, 0.0)
        ks = find_frequencies(problem, cfg).K_values
        if psi is None:
            assert ks == tuple(uncracked_K_closed_form(i, beta, 0.0) for i in range(5, 10))
        else:
            for k in ks:
                assert k > k_min and _near_a_true_root(problem, k, cfg.refine_tol), k

    def test_uniform_node_inside_a_guide_pair(self):
        # With 16 grid points and this k_max, uniform node 1 lies between the
        # guides of K_1, so their midpoint is not a node: the scan's bracket is
        # [lower guide, uniform node], refined to within the tolerance of K_1.
        problem = _zero_crack()
        k1 = uncracked_K_closed_form(1, 1.0, 0.0)
        k_min = 1e-6
        cfg = SearchConfig(max_modes=1, grid_points=16, k_max=k_min + (k1 * (1 + 5e-7) - k_min) * 15)
        grid = solver._grid_nodes(problem, cfg, cfg.k_max)
        lo, hi = k1 * (1 - 1e-6), k1 * (1 + 1e-6)
        inside = [k for k in grid if lo < k < hi]
        assert len(inside) == 1 and inside[0] != 0.5 * (lo + hi)
        scan = _scan(problem, cfg)
        assert _pairs(scan) == ((lo, inside[0]),)
        k = refine_root(problem, scan, cfg.refine_tol)[0]
        assert abs(k - k1) <= 0.5 * cfg.refine_tol * k1


class TestDefaultGrid:
    """The default grid of 256 points against the 2000 it had before: the same
    roots, in number and within refine_tol * max(1, K) or both in the band
    of sign 0 (:func:`_same_root`), on seeded surveys, on close low roots
    either side of K = 1 and on a close pair."""

    @staticmethod
    def _agree(problem, modes):
        cfg = SearchConfig(max_modes=modes)
        assert cfg.grid_points == 256
        ks = _alone(problem, cfg)
        dense = _alone(problem, replace(cfg, grid_points=2000))
        if isinstance(dense, NoRootsInRange):
            assert str(ks) == str(dense)
            return None
        assert len(ks) == len(dense), (problem, ks, dense)
        for k, d in zip(ks.K_values, dense.K_values):
            assert _same_root(problem, k, d, cfg.refine_tol), (problem, k, d)
        return ks.K_values

    @pytest.mark.parametrize("family", ["all-angles", "near-supports", "benchmark", "twelve-modes"])
    def test_seeded_survey(self, family):
        # "near-supports" puts the crack within 1% of a support, with
        # compliances 1e-12 to 1e6 and eta up to 1000.
        rng = np.random.default_rng(256)
        for _ in range(40):
            if family == "benchmark":
                problem, modes = _draw("benchmark", rng)
            elif family == "near-supports":
                beta = 10.0 ** rng.uniform(math.log10(BETA_MIN), math.log10(2 * math.pi))
                side = rng.uniform(0.001, 0.01)
                alpha = beta * (side if rng.random() < 0.5 else 1.0 - side)
                eta = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3.0, 3.0)
                problem = ArchProblem(beta, eta, CrackJoint(alpha, 10.0 ** rng.uniform(-12.0, 6.0)))
                modes = int(rng.integers(1, 9))
            else:
                problem, _ = _draw("all-angles", rng)
                modes = 12 if family == "twelve-modes" else int(rng.integers(1, 9))
            self._agree(problem, modes)

    @pytest.mark.parametrize(
        "beta, alpha_frac, theta", [(4.25, 0.4375, 10.0), (3.0, 0.875, 100.0), (3.5, 0.25, 100.0)]
    )
    def test_close_low_roots_either_side_of_one(self, beta, alpha_frac, theta):
        # tests/test_shooting_oracle.py's stiff cracks at eta = 0, whose first
        # two roots straddle K = 1.
        ks = self._agree(ArchProblem(beta, 0.0, CrackJoint(alpha_frac * beta, theta)), 2)
        assert ks[0] < 1.0 < ks[1]

    @pytest.mark.parametrize("theta", [1e-6, 1e-4])
    def test_close_pair_at_a_double_root(self, theta):
        # A crack of compliance theta at alpha = 1.6557 splits the double root
        # K_1 = K_2 = 0.36 of beta = pi/sqrt(0.4), eta = 0 by about theta*0.36:
        # one root stays at 0.36, the guides' midpoint (the crack sits on a
        # node of that mode), and the other lies at or above the upper guide,
        # so both grids hold the pair apart. At 1e-4 F is flat there, and
        # both solves end in its band of sign 0, 1.5e-10 apart and each
        # within 8e-11 of the 60-digit root.
        ks = self._agree(ArchProblem(DOUBLE_BETA, 0.0, CrackJoint(1.6557, theta)), 3)
        assert 0.0 < ks[1] - ks[0] <= 2.0 * theta * 0.36 and rel_err(ks[2], 6.76) < 1e-6
