"""Frequency spectrum search as determinant root finding over K.

The boundary determinant is scanned on a K grid (augmented with guide nodes
around K = 1 and the closed-form uncracked eigenvalues), evaluated in closed form as the
reduced characteristic function (:func:`kernel.det_sign_logmag`, no matrix)
in fixed-size blocks of K values, one kernel call per block, and only until the
blocks evaluated so far hold the candidates of the requested modes. Sign
changes and dips are found with array operations over the grid, and each
candidate is one root. The candidates of the requested modes are bisected
together to the requested tolerance. Each kernel call evaluates, for every
open bracket, the midpoints of plain bisection along the path toward the
secant estimate of its root (from the signed function values at its ends,
which the scan hands on), all the way down to the tolerance; bisection's
own rules walk that path until a midpoint's sign disagrees with the
prediction, and the kept half there is the next call's bracket. A
five-mode cracked solve takes about three bisection calls this way. A
spectrum holds eigenvalues and flags only: :func:`mode_shape` is the one
place that extracts a null vector, the coefficients of the shape, from the
near-singular matching matrix.

:func:`find_frequencies` also takes a sequence of problems, all cracked or
all uncracked, as a sweep or the validation table has, and solves them in
lockstep, ``_BATCH`` at a time: each scan call evaluates the next block of
every problem still scanning, and one :func:`refine_root` call bisects the
brackets of all of them, each K against its own problem's parameters. It
returns one entry per problem: its :class:`Spectrum`, or the
:class:`NoRootsInRange` its own solve would raise.

Everything is deterministic: the same problem and configuration produce
bit-identical spectra, whatever the block size, the estimates that set how
far each bisection call goes, or the other problems of a batch, because
bisection keeps its own midpoints and the kernel evaluates each K of a stack
independently.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import kernel
from .errors import NoRootsInRange
from .model import ArchProblem, CrackJoint

logger = logging.getLogger(__name__)

# Log-magnitude drop (natural log) that flags a suspected even-multiplicity root.
_DIP_DECADES = 6.0
_DIP_THRESHOLD = _DIP_DECADES * math.log(10.0)
# Relative offset of the guide nodes inserted around K = 1 and each K_n.
_GUIDE_OFFSET = 1e-6
# Bisection levels per bracket; the cap counts levels, not kernel calls.
_MAX_BISECTIONS = 200
# K values per kernel call in the grid scan. Blocks bound the kernel's arrays
# and let the scan stop early: with the default k_max the requested roots
# almost always lie in the first block.
_BLOCK = 256
# Problems per lockstep search (find_frequencies): a scan call holds at most
# _BATCH * _BLOCK K values, so a long sweep's stacks stay as small as a short
# one's.
_BATCH = 16


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the determinant scan.

    ``k_max=None`` defaults to ten times the closed-form eigenvalue of the
    uncracked problem at mode max(5, max_modes), which leaves ample room for
    the roots a crack shifts.
    """

    k_min: float = 1e-6
    k_max: float | None = None
    grid_points: int = 2000
    refine_tol: float = 1e-10
    max_modes: int = 5

    def __post_init__(self):
        for name in ("k_min", "k_max", "refine_tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.k_min < 0:
            raise ValueError("k_min must be nonnegative")
        if self.k_max is not None and self.k_max <= self.k_min:
            raise ValueError("k_max must exceed k_min")
        if self.grid_points < 16:
            raise ValueError("grid_points must be at least 16")
        if not 0.0 < self.refine_tol < 1e-3:
            raise ValueError("refine_tol must lie in (0, 1e-3)")
        if self.max_modes < 1:
            raise ValueError("max_modes must be at least 1")


class RootFlag(enum.Enum):
    BRACKETED = "Bracketed"
    SUSPECTED_DOUBLE = "SuspectedDouble"


@dataclass(frozen=True)
class Root:
    """One spectrum entry: eigenvalue and quality flag.

    A root carries no mode coefficients: :func:`mode_shape` computes them, as
    the null vector (:func:`kernel.null_vector`) of the support-adapted
    matching matrix (:func:`boundary_matrix`) at the polished root.
    """

    K: float
    flag: RootFlag


@dataclass(frozen=True)
class Spectrum:
    roots: tuple[Root, ...]

    @property
    def K_values(self) -> tuple[float, ...]:
        return tuple(r.K for r in self.roots)

    def __len__(self) -> int:
        return len(self.roots)


@dataclass(frozen=True)
class ScanResult:
    """Sign-change brackets plus dip locations without a sign change.

    ``end_values`` holds the determinant's sign and log-magnitude at each
    bracket's ends, ((s_lo, m_lo), (s_hi, m_hi)), so refinement need not
    evaluate the ends again and can aim at the secant estimate of the root.
    """

    brackets: tuple[tuple[float, float], ...]
    suspects: tuple[float, ...]
    end_values: tuple[tuple[tuple[int, float], tuple[int, float]], ...]


def _matching_crack(problem: ArchProblem) -> CrackJoint:
    """The problem's crack, or for an uncracked arch the crack of zero compliance at beta/2."""
    if problem.crack is None:
        return CrackJoint(alpha=0.5 * problem.beta, theta_c=0.0)
    return problem.crack


def boundary_matrix(problem: ArchProblem, K) -> np.ndarray:
    """Support-adapted 4x4 matching system of the problem at trial K values.

    A scalar K gives one matrix, a K array a stack of them
    (:func:`kernel.assemble_cracked`). An uncracked arch is assembled as the
    crack of zero compliance at beta/2: its rows enforce C3 continuity, so
    its zero set in K and its null vectors are those of the uncracked arch.
    """
    crack = _matching_crack(problem)
    basis = kernel.quartic_roots(kernel.characteristic_coefficients(K, problem.eta_nd))
    return kernel.assemble_cracked(basis, problem.beta, crack.alpha, crack.theta_c)


@dataclass(frozen=True)
class _Stack:
    """The parameters of several problems as arrays, one entry per problem.

    ``alpha`` is None for uncracked problems. :meth:`take` lines the entries
    up with the K values of one kernel call.
    """

    eta_nd: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray | None
    theta_c: np.ndarray | float

    @classmethod
    def of(cls, problems) -> _Stack:
        eta_nd = np.array([p.eta_nd for p in problems])
        beta = np.array([p.beta for p in problems])
        if not _all_cracked(problems):
            return cls(eta_nd, beta, None, 0.0)
        cracks = [p.crack for p in problems]
        alpha = np.array([c.alpha for c in cracks])
        return cls(eta_nd, beta, alpha, np.array([c.theta_c for c in cracks]))

    def take(self, index) -> _Stack:
        if self.alpha is None:
            return _Stack(self.eta_nd[index], self.beta[index], None, 0.0)
        return _Stack(*(v[index] for v in (self.eta_nd, self.beta, self.alpha, self.theta_c)))


def _all_cracked(problems) -> bool:
    """Whether every problem is cracked; a mix of cracked and uncracked raises."""
    cracked = {p.crack is not None for p in problems}
    if len(cracked) > 1:
        raise ValueError("a batch of problems must be all cracked or all uncracked")
    return cracked == {True}


class _Tally(threading.local):
    """Kernel calls and K values evaluated through boundary_determinant.

    ``scan_calls`` counts the calls of the grid scan among them, and
    ``levels`` the bisection levels refine_root's calls advanced its
    brackets by, summed over the brackets: the midpoints that plain
    bisection uses among the K values evaluated. Per thread, so that
    concurrent solves do not mix their counts; read around each
    find_frequencies call for its debug line.
    """

    calls = 0
    scan_calls = 0
    values = 0
    levels = 0


_tally = _Tally()


def boundary_determinant(problem, K):
    """Sign and log-magnitude of the problem's reduced characteristic function.

    One K gives (int, float), a K array two arrays of its shape; no matrix is
    assembled (:func:`kernel.det_sign_logmag`). ``problem`` is an
    :class:`ArchProblem`, or the solver's :class:`_Stack` of several problems'
    parameters, broadcast against K.
    """
    _tally.calls += 1
    _tally.values += K.size if isinstance(K, np.ndarray) else 1
    if isinstance(problem, _Stack):
        return kernel.det_sign_logmag(
            K, problem.eta_nd, problem.beta, problem.alpha, problem.theta_c
        )
    crack = problem.crack
    if crack is None:
        return kernel.det_sign_logmag(K, problem.eta_nd, problem.beta)
    return kernel.det_sign_logmag(K, problem.eta_nd, problem.beta, crack.alpha, crack.theta_c)


def _resolved(problem: ArchProblem, cfg: SearchConfig | None) -> SearchConfig:
    cfg = cfg if cfg is not None else SearchConfig()
    if cfg.k_max is None:
        n = max(5, cfg.max_modes)
        estimate = kernel.uncracked_K_closed_form(n, problem.beta, problem.eta_nd)
        cfg = replace(cfg, k_max=10.0 * max(estimate, 1.0e-3))
    return cfg


def _grid_nodes(problem: ArchProblem, cfg: SearchConfig, count: int | None = None) -> np.ndarray:
    """Uniform K grid plus guide nodes straddling K = 1 and each closed-form K_n.

    The uncracked closed-form values are used even for cracked problems:
    tight nodes around each K_n either bracket the uncracked root directly or
    add resolution near it. A crack does not shift every root downward (at
    beta = pi/sqrt(0.4) + 1e-4, eta = 0, alpha = beta/3, theta_c = 0.5 the
    fundamental rises), so the guides are an aid, not a bound.

    At K = 1 the constant term 1 - K of the characteristic quartic changes
    sign, and a crack at eta = 0 often puts one root below it and the next
    above it, both far below the first uniform node past 1 (k_max is ten
    times K_5 or more, so the uniform spacing there can exceed 1). Without
    the nodes at 1 -+ 1e-6 the two sign changes share an interval and
    cancel: at beta = 4.25, eta = 0, alpha = 0.4375 beta, theta_c = 10 the
    roots 0.825 and 1.31 both lay in [0.80, 1.41] and 9.83 came back as mode 1.

    With ``count`` only the first ``count`` nodes of the whole grid are
    built, from the first count + 1 uniform nodes and the guides below the
    last of them. Every node of the whole grid below that uniform node is one
    of those, and they are at least count + 1 even after the near-duplicates
    are dropped, since uniform nodes are never near-duplicates of each other;
    and K_n grows with n once lam > 1, so the guides stop there. The scan
    builds its grids a block at a time this way: with the default range a
    solve evaluates only the first of the eight blocks of the whole grid.
    """
    k_min, k_max, points = cfg.k_min, cfg.k_max, cfg.grid_points
    size = points if count is None or count >= points - 1 else count + 1
    uniform = k_min + (k_max - k_min) * np.arange(size) / (points - 1)
    bound = k_max if size == points else uniform[-1]
    guides = [g for g in (1.0 - _GUIDE_OFFSET, 1.0 + _GUIDE_OFFSET) if k_min < g < bound]
    n = 1
    while n <= 10000:
        kn = kernel.uncracked_K_closed_form(n, problem.beta, problem.eta_nd)
        lam = n * math.pi / problem.beta
        if lam > 1.0 and (kn > k_max or kn * (1.0 - _GUIDE_OFFSET) >= bound):
            break
        for guide in (kn * (1.0 - _GUIDE_OFFSET), kn * (1.0 + _GUIDE_OFFSET)):
            if k_min < guide < bound:
                guides.append(guide)
        n += 1
    nodes = np.sort(np.concatenate([uniform, guides]))
    # Near-duplicates come at most in pairs: the two guides of K = 1 or of a
    # K_n sit 2e-6 apart, so comparing neighbours equals comparing with the
    # last kept node.
    keep = np.diff(nodes) > 1e-15 * np.maximum(1.0, nodes[1:])
    nodes = nodes[np.concatenate([[True], keep])]
    return nodes if count is None else nodes[:count]


def _candidates(nodes, signs, logs):
    """Brackets (lower and upper node indices) and dip nodes of a scanned prefix.

    A node with sign 0 is a bracket of its own; a sign change between two
    nonzero nodes brackets the gap. Both are keyed by their lower node. A
    sign change needs its upper node and a dip its right-hand neighbour, so
    every candidate of a prefix of the grid is also one of the whole grid.
    """
    zero = signs == 0
    change = np.append(signs[:-1] * signs[1:] < 0, False)
    lower = np.flatnonzero(zero | change)
    upper = np.where(zero[lower], lower, lower + 1)

    inner, left, right = signs[1:-1], signs[:-2], signs[2:]
    dip = (inner != 0) & (left == inner) & (inner == right)
    dip &= logs[1:-1] <= np.minimum(logs[:-2], logs[2:]) - _DIP_THRESHOLD
    return lower, upper, nodes[1 : signs.size - 1][dip]


def scan_and_bracket(problem, cfg: SearchConfig | None = None, *, wanted: int | None = None):
    """Locate determinant sign changes (and dips) over the configured K range.

    The grid is evaluated in blocks of ``_BLOCK`` K values, one kernel call
    each, which keeps the kernel's arrays small; brackets and dips are found
    with array operations over the evaluated nodes. With ``wanted`` the scan
    stops after the first block that leaves at least that many brackets and
    dips in hand; since the grid is scanned in ascending K, those are the
    first candidates of the whole grid, in the same order. ``wanted=None``
    scans the whole grid. Raises :class:`NoRootsInRange` when the scan yields
    neither a bracket nor a suspected-double candidate.

    ``problem`` is one :class:`ArchProblem`, giving its :class:`ScanResult`,
    or a sequence of problems, all cracked or all uncracked, giving one entry
    per problem: its ScanResult or its own NoRootsInRange. A sequence is
    scanned in lockstep: each kernel call evaluates the next block of every
    problem still scanning. Each problem keeps its own ``cfg`` range, grid and
    early stop, so its entry is the one a scan of it alone gives.
    """
    single = isinstance(problem, ArchProblem)
    problems = [problem] if single else list(problem)
    stack = _Stack.of(problems) if len(problems) > 1 else None
    cfgs = [_resolved(p, cfg) for p in problems]
    # With ``wanted``, each grid is built through the next block and one node
    # more, which tells whether it goes on.
    count = None if wanted is None else _BLOCK + 1
    grids = [_grid_nodes(p, c, count) for p, c in zip(problems, cfgs)]
    scanned = [(None, None)] * len(problems)  # signs and logs of each prefix
    results = [None] * len(problems)
    active, start = list(range(len(problems))), 0
    while active:
        if start and count is not None:
            for i in active:
                grids[i] = _grid_nodes(problems[i], cfgs[i], start + count)
        chunks = [grids[i][start : start + _BLOCK] for i in active]
        _tally.scan_calls += 1
        if stack is None:
            ends = (0, chunks[0].size)
            new_signs, new_logs = boundary_determinant(problems[0], chunks[0])
        else:
            sizes = [c.size for c in chunks]
            ends = (0, *itertools.accumulate(sizes))
            owner = stack.take(np.repeat(active, sizes))
            new_signs, new_logs = boundary_determinant(owner, np.concatenate(chunks))
        scanning = []
        for i, lo, hi in zip(active, ends, ends[1:]):
            signs, logs = new_signs[lo:hi], new_logs[lo:hi]
            if start:
                signs = np.concatenate([scanned[i][0], signs])
                logs = np.concatenate([scanned[i][1], logs])
            scanned[i] = signs, logs
            lower, upper, suspects = _candidates(grids[i], signs, logs)
            more = start + _BLOCK < grids[i].size
            if more and (wanted is None or lower.size + suspects.size < wanted):
                scanning.append(i)
            elif not lower.size and not suspects.size:
                results[i] = NoRootsInRange(
                    f"no determinant roots in K range [{cfgs[i].k_min}, {cfgs[i].k_max}]"
                )
            else:
                nodes = grids[i]
                results[i] = ScanResult(
                    brackets=tuple(zip(nodes[lower].tolist(), nodes[upper].tolist())),
                    suspects=tuple(suspects.tolist()),
                    end_values=tuple(
                        zip(
                            zip(signs[lower].tolist(), logs[lower].tolist()),
                            zip(signs[upper].tolist(), logs[upper].tolist()),
                        )
                    ),
                )
        active, start = scanning, start + _BLOCK
    if not single:
        return results
    if isinstance(results[0], NoRootsInRange):
        raise results[0]
    return results[0]


def refine_root(
    bracket,
    problem,
    cfg: SearchConfig | None = None,
    end_values=None,
):
    """Bisect sign-change brackets down to refine_tol * max(1, K).

    ``bracket`` is one (lo, hi) pair, giving a float, or a sequence of M
    pairs, giving an array of M roots (an empty one for no pairs); all pairs
    are bisected together. ``problem`` is one :class:`ArchProblem` for every
    pair, or a sequence of M problems, one per pair, all cracked or all
    uncracked. ``end_values`` are the determinant's (sign, log-magnitude) at
    each bracket's ends, ((s_lo, m_lo), (s_hi, m_hi)) per pair (one such
    entry for one pair; ignored for a zero-width pair), when the caller
    already has them, as the scan does; otherwise both ends are evaluated.
    A zero-width bracket is its own root, an end of sign 0 is the root, and
    the other brackets must straddle a sign change.

    Each kernel call evaluates, for every open bracket, the midpoints of
    plain bisection along the path toward the secant estimate of its root,
    the zero of the line through its signed end values s * exp(m), down to
    the tolerance (``_predicted_path``). Bisection's own rules then walk the
    path: a midpoint keeps the upper half when its sign equals the lower
    end's, and the bracket ends at a midpoint of sign 0 or at an interval
    narrow enough. The walk stops at the first midpoint whose sign
    disagrees with the prediction; that node's kept half, with its two
    evaluated ends, is the bracket of the next call. So every midpoint the
    walk uses is one that one-level-per-call bisection evaluates, and the
    roots are those of plain bisection, bit for bit, whatever the estimate
    or the other brackets of the batch; a poor estimate costs calls only,
    and each call advances every open bracket at least one level.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    pairs = np.array(bracket, dtype=float)
    single = pairs.shape == (2,)
    lows, highs = pairs.reshape(-1, 2).T.tolist()
    stack = None
    if not isinstance(problem, ArchProblem):
        if len(problem) != len(lows):
            raise ValueError("give one problem per bracket")
        stack = _Stack.of(problem)
    roots = list(lows)
    live = [i for i, (lo, hi) in enumerate(zip(lows, highs)) if lo != hi]
    if end_values is not None:
        given = [end_values] if single else end_values
        values = [given[i] for i in live]
    elif live:
        owner = problem if stack is None else stack.take(np.array(live * 2))
        K = np.array([lows[i] for i in live] + [highs[i] for i in live])
        ends = list(zip(*(v.tolist() for v in boundary_determinant(owner, K))))
        values = list(zip(ends, ends[len(live) :]))
    else:
        values = []
    # Open brackets as (index, lo, hi, s_lo, m_lo, m_hi, levels bisected).
    open_ = []
    for i, ((s_lo, m_lo), (s_hi, m_hi)) in zip(live, values):
        if s_lo == 0:
            continue
        if s_hi == 0:
            roots[i] = highs[i]
        elif s_lo == s_hi:
            raise ValueError(f"bracket {bracket} does not straddle a sign change")
        else:
            open_.append((i, lows[i], highs[i], s_lo, m_lo, m_hi, 0))

    while open_:
        paths = []
        for b in open_:
            mids, predicted, end = _predicted_path(*b[1:], cfg.refine_tol)
            if mids:
                paths.append((b, mids, predicted, end))
            else:
                roots[b[0]] = end
        if not paths:
            break
        sizes = [len(mids) for _, mids, _, _ in paths]
        K = np.array([k for _, mids, _, _ in paths for k in mids])
        owner = problem
        if stack is not None:
            owner = stack.take(np.repeat([b[0] for b, *_ in paths], sizes))
        signs, logs = (v.tolist() for v in boundary_determinant(owner, K))
        open_, start = [], 0
        for (b, mids, predicted, end), size in zip(paths, sizes):
            got, m = signs[start : start + size], logs[start : start + size]
            start += size
            # The first midpoint whose sign is not the predicted one, or the
            # path's end.
            j = next((j for j, (s, p) in enumerate(zip(got, predicted)) if s != p), size)
            _tally.levels += min(j + 1, size)
            i, lo, hi, s_lo, m_lo, m_hi, level = b
            if j == size or got[j] == 0:
                roots[i] = end if j == size else mids[j]
                continue
            # Node j's kept half: replay the path's halves through it.
            for k in range(j + 1):
                if got[k] == s_lo:
                    lo, m_lo = mids[k], m[k]
                else:
                    hi, m_hi = mids[k], m[k]
            open_.append((i, lo, hi, s_lo, m_lo, m_hi, level + j + 1))
    return roots[0] if single else np.array(roots, dtype=float)


def _secant_estimate(lo: float, hi: float, m_lo: float, m_hi: float) -> float:
    """Where the line through a bracket's signed end values crosses zero.

    The ends have opposite signs and log-magnitudes m_lo and m_hi, so the
    zero is lo + (hi - lo) / (1 + exp(m_hi - m_lo)), written with tanh so
    that no magnitude overflows.
    """
    return lo + (hi - lo) * (0.5 - 0.5 * math.tanh(0.5 * (m_hi - m_lo)))


def _predicted_path(lo, hi, s_lo, m_lo, m_hi, level, tol):
    """Bisection's midpoints from [lo, hi] toward the bracket's secant estimate.

    Returns the midpoints that bisection evaluates if every one of them
    keeps the half holding the estimate (:func:`_secant_estimate`), the sign
    each must then have (``s_lo`` for the upper half), and the root where
    that path ends: the midpoint of the first interval no wider than
    tol * max(1, mid), or of the interval reached after ``_MAX_BISECTIONS``
    levels in all, ``level`` of them already bisected.
    """
    estimate = _secant_estimate(lo, hi, m_lo, m_hi)
    mids, predicted = [], []
    for _ in range(level, _MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        # max(1.0, mid) without the call, which costs as much as the rest.
        if hi - lo <= tol * (mid if mid > 1.0 else 1.0):
            break
        mids.append(mid)
        if estimate > mid:
            lo = mid
            predicted.append(s_lo)
        else:
            hi = mid
            predicted.append(-s_lo)
    return mids, predicted, 0.5 * (lo + hi)


def find_frequencies(problem, cfg: SearchConfig | None = None):
    """First ``max_modes`` eigenvalues in ascending order with their flags.

    The K = 0 inextensional artifact is excluded by ``k_min``; suspected
    even-multiplicity roots are reported with their dip location and flag
    rather than silently dropped. The scan stops once it holds ``max_modes``
    candidates, and the first ``max_modes`` brackets and suspects in
    ascending order are refined in one batch, so the refinement covers the
    returned roots only, and no null vector is computed (:func:`mode_shape`
    does that for the one root it samples). Each candidate is one root: the
    candidates sit in disjoint grid intervals, so two that refine to nearly
    the same K are a near-double root split by a grid node, and both are
    reported. Raises :class:`NoRootsInRange` when the range holds fewer than
    ``max_modes`` candidates.

    ``problem`` is one :class:`ArchProblem`, giving its :class:`Spectrum`, or
    a sequence of problems, all cracked or all uncracked, giving one entry
    per problem, in order: its Spectrum, or the NoRootsInRange its own solve
    would raise. The problems are solved in lockstep, ``_BATCH`` at a time:
    one :func:`scan_and_bracket` and one :func:`refine_root` call for each
    group, each problem with its own range, grid and early stop, so every
    entry is bit-identical to the problem's solve alone. One problem is the
    batch of one. Logs one debug line per call, which splits the kernel
    calls into scan and bisection calls and gives the bisection levels those
    calls advanced the brackets by, summed over the brackets.
    """
    single = isinstance(problem, ArchProblem)
    problems = [problem] if single else list(problem)
    cfg = cfg if cfg is not None else SearchConfig()
    _all_cracked(problems)
    calls, scan_calls, values, levels = (
        _tally.calls, _tally.scan_calls, _tally.values, _tally.levels
    )
    entries = []
    for start in range(0, len(problems), _BATCH):
        entries += _solve_group(problems[start : start + _BATCH], cfg)
    if logger.isEnabledFor(logging.DEBUG):
        calls, scans = _tally.calls - calls, _tally.scan_calls - scan_calls
        logger.debug(
            "find_frequencies: %d problems, %d kernel calls (%d scan, %d bisection), "
            "%d K values, %d bisection levels, %d brackets refined, %d short",
            len(problems), calls, scans, calls - scans, _tally.values - values,
            _tally.levels - levels,
            sum(len(e) for e in entries if isinstance(e, Spectrum)),
            sum(isinstance(e, NoRootsInRange) for e in entries),
        )
    if not single:
        return entries
    if isinstance(entries[0], NoRootsInRange):
        raise entries[0]
    return entries[0]


def _solve_group(problems: list[ArchProblem], cfg: SearchConfig) -> list:
    """Spectra (or NoRootsInRange) of a few problems: one scan, one refinement."""
    scans = scan_and_bracket(problems, cfg, wanted=cfg.max_modes)
    entries, brackets, values, owners = [], [], [], []
    for p, scan in zip(problems, scans):
        if isinstance(scan, NoRootsInRange):
            entries.append(scan)
            continue
        # A suspect is a zero-width candidate, which refine_root returns as is.
        bracketed = zip(scan.brackets, scan.end_values)
        candidates = sorted(
            [(lo, hi, ends, RootFlag.BRACKETED) for (lo, hi), ends in bracketed]
            + [(k, k, None, RootFlag.SUSPECTED_DOUBLE) for k in scan.suspects],
            key=lambda c: c[0],
        )[: cfg.max_modes]
        if len(candidates) < cfg.max_modes:
            k_range = _resolved(p, cfg)
            message = (
                f"{len(candidates)} of {cfg.max_modes} requested roots in K range "
                f"[{k_range.k_min}, {k_range.k_max}]"
            )
            entries.append(NoRootsInRange(message))
            continue
        entries.append([c[3] for c in candidates])
        brackets += [c[:2] for c in candidates]
        values += [c[2] for c in candidates]
        owners += [p] * len(candidates)
    if not brackets:
        return entries
    owner = problems[0] if len(problems) == 1 else owners
    ks = iter(refine_root(brackets, owner, cfg, end_values=values).tolist())
    return [
        e if isinstance(e, NoRootsInRange)
        else Spectrum(roots=tuple(Root(K=next(ks), flag=flag) for flag in e))
        for e in entries
    ]


def _polish(problem: ArchProblem, root: Root) -> float:
    """Re-tighten a bracketed root to ~1e-13 relative before shape sampling.

    The stored eigenvalue honors the search tolerance; boundary values of the
    sampled shape improve with a sharper root, so a short local bisection is
    run first, inside the narrowest of a widening ladder of intervals around
    the root that straddles a sign change (the whole ladder is evaluated in
    one kernel call). Falls back to the stored value, with one debug log
    line, for a suspected double or when no sign change is found nearby.
    """
    k = root.K
    reason = "suspected double root"
    if root.flag is RootFlag.BRACKETED:
        reason = "no sign change within 1e-6 max(1, K)"
        deltas = np.array([1e-10, 1e-9, 1e-8, 1e-7, 1e-6]) * max(1.0, k)
        lows, highs = k - deltas, k + deltas
        ladder = lows > 0
        lows, highs = lows[ladder], highs[ladder]
        if lows.size:
            signs, logs = boundary_determinant(problem, np.concatenate([lows, highs]))
            ends = list(zip(signs.tolist(), logs.tolist()))
            for lo, hi, at_lo, at_hi in zip(lows.tolist(), highs.tolist(), ends, ends[lows.size :]):
                if at_lo[0] == 0:
                    return lo
                if at_hi[0] == 0:
                    return hi
                if at_lo[0] * at_hi[0] == -1:
                    tight = SearchConfig(refine_tol=1e-13)
                    return refine_root((lo, hi), problem, tight, end_values=(at_lo, at_hi))
    logger.debug("mode shape at the unpolished root K = %r: %s", k, reason)
    return k


def mode_shape(problem: ArchProblem, root: Root, samples: int = 201) -> np.ndarray:
    """Sample the spatial mode X on a uniform grid over [0, beta].

    Returns an array of shape (samples, 2) with columns (phi, X). The root is
    polished first (:func:`_polish`), and the coefficients (c1, c2, d1, d2)
    are the null vector of :func:`boundary_matrix` there: X is
    c1*u1(phi) + c2*u2(phi) left of the crack and
    d1*u1(beta - phi) + d2*u2(beta - phi) right of it, in the support-adapted
    columns of :meth:`kernel.ModeBasis.support_rows`, with the crack of zero
    compliance at beta/2 for an uncracked arch; a compliant crack shows up as
    a slope discontinuity. Guaranteed: X is exactly 0 at both supports, the
    sample of largest |X| is exactly +1, every sample lies in [-1, 1], and a
    zero sample is +0.0. When the largest + and - extrema tie, as in an
    antisymmetric mode, rounding decides which one is +1, and with it the
    overall sign.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    k = _polish(problem, root)
    vec = kernel.null_vector(boundary_matrix(problem, k))
    basis = kernel.quartic_roots(kernel.characteristic_coefficients(k, problem.eta_nd))

    phis = problem.beta * np.arange(samples) / (samples - 1)
    alpha = _matching_crack(problem).alpha
    left = phis < alpha
    x, ref = (np.where(left, v, problem.beta - v) for v in (phis, alpha))
    rows = basis.support_rows(x, ref, nrows=1)[:, 0, :]
    c = np.where(left[:, None], vec[:2], vec[2:])
    # Summed from +0.0, so an exact zero is +0.0.
    values = 0.0 + c[:, 0] * rows[:, 0] + c[:, 1] * rows[:, 1]
    values = values / values[np.argmax(np.abs(values))] + 0.0
    return np.column_stack([phis, values])
