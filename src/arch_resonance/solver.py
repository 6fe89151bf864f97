"""Frequency spectrum search as determinant root finding over K.

An uncracked arch's spectrum is its closed form, the K_n of the modes
sin(n*pi*phi/beta) (:func:`model.uncracked_K_closed_form`), listed with no
kernel call. A cracked arch's boundary determinant, the reduced
characteristic function in closed form (:func:`kernel.det_sign_logmag`, no
matrix), is scanned on a K grid of uniform nodes and guides around K = 1 and
around each uncracked eigenvalue K_n, with their midpoint, in blocks of at
most 256 K values, one kernel call each, until the blocks hold the
candidates of the requested modes: sign changes, each one root, and dips. A
dip is a node far below both neighbours of its sign, around which an even
number of roots may lie unbracketed, so a dip among them fails the solve.
The brackets are bisected together: each kernel call evaluates, for every
open bracket, bisection's midpoints down the path toward an estimate of its
root (the secant one from its ends' signed values, then an inverse cubic
interpolant), and bisection's rules walk the path until a midpoint's sign
disagrees with the prediction, whose kept half is the next call's bracket. A
five-mode cracked solve takes two or three bisection calls. A spectrum holds
roots only: :func:`mode_shape` samples an uncracked root's shape as its sine
and a cracked one's from the null vector of its crack's matching matrix.

:func:`find_frequencies` also takes a sequence of problems, as a sweep or
the validation table has. Each uncracked one is its closed form; the cracked
ones are solved in lockstep, ``_BATCH`` at a time: each scan call evaluates
the next block of every problem still scanning, and one :func:`refine_root`
call bisects the brackets of all of them, each K against its own problem's
parameters. It returns one entry per problem: its :class:`Spectrum`, or the
:class:`NoRootsInRange` its own solve would raise. Every kernel call goes
through :func:`boundary_determinant`, which takes cracked problems only (a
crack of zero compliance is one) and passes one problem's parameters as
scalars, several as a stack with one column per K.

Everything is deterministic: the same problem and configuration produce
bit-identical spectra, whatever the block size, the estimates that set how
far each bisection call goes, or the other problems of a batch, because
bisection keeps its own midpoints and the kernel evaluates each K of a stack
independently.

An uncracked solve imports neither numpy nor :mod:`kernel`: each function
that works on arrays or calls the kernel imports them itself, so numpy loads
with the first cracked search or mode shape, the kernel with a cracked one.
"""

from __future__ import annotations

import itertools
import logging
import math
import sys
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from . import model
from .errors import DoubleRoot, NoRootsInRange
from .model import ArchProblem

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

# Log-magnitude drop (natural log) below both same-sign neighbours that makes
# a node a dip, which fails the solve when among the requested modes' candidates.
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
# A mode shape whose largest sample is at or below _NOISE times its amplitude,
# its largest |X| at 64 cell midpoints of [0, beta], reads +0.0 throughout.
_NOISE = 1e-8
# Relative window of an uncracked double root (the closed form and mode_shape),
# below K = 1 only: a falling K_n (lam <= 1, so K_n < 1) meets a rising one.
_DOUBLE_ROOT = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    """The K range and number of modes of a solve, and the cracked search's knobs.

    ``grid_points`` and ``refine_tol`` tune only the scan and bisection; an
    uncracked spectrum is its closed form. ``k_max=None`` defaults to ten
    times the closed-form eigenvalue of the uncracked problem at mode
    max(5, max_modes), which leaves ample room for the roots a crack shifts;
    where that does not exceed k_min, the modes are counted from the
    eigenvalues below k_min (:func:`_resolved`).
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
        if self.k_max is None and self.k_min >= sys.float_info.max:
            raise ValueError("k_min must leave room for a default k_max")
        if self.grid_points < 16:
            raise ValueError("grid_points must be at least 16")
        if not 0.0 < self.refine_tol < 1e-3:
            raise ValueError("refine_tol must lie in (0, 1e-3)")
        if self.max_modes < 1:
            raise ValueError("max_modes must be at least 1")


@dataclass(frozen=True)
class Root:
    """One spectrum entry: an eigenvalue, a closed-form K_n or a refined root.

    A root carries no mode shape: :func:`mode_shape` samples it.
    """

    K: float


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
    """Sign-change brackets of one problem's scan, in ascending order.

    ``end_values`` holds the determinant's sign and log-magnitude at each
    bracket's ends, ((s_lo, m_lo), (s_hi, m_hi)), so refinement need not
    evaluate the ends again and can aim at the secant estimate of the root.
    """

    brackets: tuple[tuple[float, float], ...]
    end_values: tuple[tuple[tuple[int, float], tuple[int, float]], ...]


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


def boundary_determinant(problems, K, runs=()):
    """Sign and log-magnitude of cracked problems' reduced characteristic function.

    ``problems`` is a sequence of cracked problems (a crack of zero
    compliance is one), and ``runs`` gives each K's index into it, as
    (index, length) pairs of consecutive K values covering all of K, which
    one problem need not give. One K gives (int, float), a K array two
    arrays of its shape; no matrix is assembled
    (:func:`kernel.det_sign_logmag`). One problem's parameters are passed as
    scalars, several as a (4, N) stack with one column per K: the scalar
    call costs less, and each value is bit-identical either way.
    """
    import numpy as np
    from . import kernel
    size = K.size if isinstance(K, np.ndarray) else 1
    _tally.calls += 1
    _tally.values += size
    if len(problems) == 1:
        p = problems[0]
        return kernel.det_sign_logmag(K, p.eta_nd, p.beta, p.crack.alpha, p.crack.theta_c)
    index = np.repeat(*zip(*runs)) if runs else ()
    if len(index) != size:
        raise ValueError("runs must give the problem of every K value")
    cracks = [p.crack for p in problems]
    stack = np.array([
        [p.eta_nd for p in problems], [p.beta for p in problems],
        [c.alpha for c in cracks], [c.theta_c for c in cracks],
    ])
    return kernel.det_sign_logmag(K, *stack[:, index])


def _resolved(problem: ArchProblem, cfg: SearchConfig) -> SearchConfig:
    """``cfg`` with its default k_max (:class:`SearchConfig`) where it has none.

    Where ten times K_n at n = max(5, max_modes) does not exceed k_min, n
    counts on from N(k_min) (:func:`_count_below`), so K_n lies above k_min;
    a default beyond the largest float is that float.
    """
    if cfg.k_max is not None:
        return cfg
    n = max(5, cfg.max_modes)
    k_max = 10.0 * max(model.uncracked_K_closed_form(n, problem.beta, problem.eta_nd), 1.0e-3)
    if k_max <= cfg.k_min:
        try:
            n += _count_below(problem, cfg.k_min)
            k_max = 10.0 * model.uncracked_K_closed_form(n, problem.beta, problem.eta_nd)
        except OverflowError:  # N(k_min) or K_n beyond the largest float
            k_max = math.inf
    return replace(cfg, k_max=min(k_max, sys.float_info.max))


def _grid_nodes(problem: ArchProblem, cfg: SearchConfig, count: int, kns=None):
    """First ``count`` nodes of the uniform K grid plus guides around K = 1 and each K_n.

    The uncracked closed-form values are used even for cracked problems:
    tight nodes around each K_n either bracket the uncracked root directly or
    add resolution near it. A crack does not shift every root downward (at
    beta = pi/sqrt(0.4) + 1e-4, eta = 0, alpha = beta/3, theta_c = 0.5 the
    fundamental rises), so the guides are an aid, not a bound. A pair with
    no uniform node between its guides (to rounding) gets their midpoint,
    bisection's first, which resolves a close cracked pair there.
    ``kns``, a list if given, receives the K_n above k_min the loop computed.

    At K = 1 the constant term 1 - K of the characteristic quartic changes
    sign, and a crack at eta = 0 often puts one root below it and the next
    above it, both far below the first uniform node past 1 (k_max is ten
    times K_5 or more, so the uniform spacing there can exceed 1). Without
    the nodes at 1 -+ 1e-6 the two sign changes share an interval and
    cancel: at beta = 4.25, eta = 0, alpha = 0.4375 beta, theta_c = 10 the
    roots 0.825 and 1.31 both lay in [0.80, 1.41] and 9.83 came back as mode 1.

    Only the first ``count`` nodes of the whole grid are built, from the
    first count + 1 uniform nodes and the guides below the last of them.
    Every node of the whole grid below that uniform node is one of those,
    and they are at least count + 1 even after the near-duplicates are
    dropped, since uniform nodes are never near-duplicates of each other.
    The guides come from the falling modes (lam <= 1) and then the rising
    ones, whose K_n grows with n: from N(k_min (1 - 2e-6)) on
    (:func:`_count_below`), below which no guide reaches past k_min, to the
    first past that bound or k_max, the first after count + 1 lower guides
    above k_min, which every later guide lies above, or the first whose lower
    guide is not above the upper one before it: where adjacent K_n lie within
    2e-6 of each other, guides no longer tell the modes apart. The scan
    builds its grids a block at a time this way.
    Returns the nodes and the last upper guide before such a pair, above
    which the grid does not resolve the modes, or inf.
    """
    import numpy as np
    k_min, k_max, points = cfg.k_min, cfg.k_max, cfg.grid_points
    size = min(count + 1, points)
    uniform = k_min + (k_max - k_min) * np.arange(size) / (points - 1)
    bound = k_max if size == points else uniform[-1]
    guides = [g for g in (1.0 - _GUIDE_OFFSET, 1.0 + _GUIDE_OFFSET) if k_min < g < bound]
    step = (k_max - k_min) / (points - 1)
    c = math.floor(problem.beta / math.pi)
    first = max(c + 1, _count_below(problem, k_min * (1.0 - 2.0 * _GUIDE_OFFSET)))
    above, last, limit = 0, -1.0, math.inf  # limit: where guides stop telling modes apart
    for n in itertools.chain(range(1, c + 1), itertools.count(first)):
        kn = model.uncracked_K_closed_form(n, problem.beta, problem.eta_nd)
        lo, hi = kn * (1.0 - _GUIDE_OFFSET), kn * (1.0 + _GUIDE_OFFSET)
        if n > c:
            if kn > k_max or lo >= bound or above > count:
                break
            if lo <= last:
                limit = last
                break
            above, last = above + (k_min < lo), hi
        guides += [g for g in (lo, hi) if k_min < g < bound]
        if k_min < lo and hi < bound and (lo - k_min) // step == (hi - k_min) // step:
            guides.append(0.5 * (lo + hi))
        if kns is not None and kn > k_min:
            kns.append(kn)
    nodes = np.sort(np.concatenate([uniform, guides]))
    # Near-duplicates come at most in pairs: the guides of K = 1 and the
    # nodes of a K_n's pair sit 1e-6 apart or more, so comparing neighbours
    # equals comparing with the last kept node.
    keep = np.diff(nodes) > 1e-15 * np.maximum(1.0, nodes[1:])
    nodes = nodes[np.concatenate([[True], keep])]
    return nodes[:count], limit


def _candidates(nodes, signs, logs):
    """Brackets (lower and upper node indices) and dip nodes of a scanned prefix.

    A node with sign 0 is a bracket of its own; a sign change between two
    nonzero nodes brackets the gap. Both are keyed by their lower node. A
    sign change needs its upper node and a dip its right-hand neighbour, so
    every candidate of a prefix of the grid is also one of the whole grid.
    """
    import numpy as np
    zero = signs == 0
    change = np.append(signs[:-1] * signs[1:] < 0, False)
    lower = np.flatnonzero(zero | change)
    upper = np.where(zero[lower], lower, lower + 1)

    inner, left, right = signs[1:-1], signs[:-2], signs[2:]
    dip = (inner != 0) & (left == inner) & (inner == right)
    dip &= logs[1:-1] <= np.minimum(logs[:-2], logs[2:]) - _DIP_THRESHOLD
    return lower, upper, nodes[1 : signs.size - 1][dip]


def _mode_numbers(problem: ArchProblem, K: float) -> tuple[float, float]:
    """a1*beta/pi and a2*beta/pi at K: the real n, rising and falling, whose K_n is K."""
    eta = problem.eta_nd
    x1 = 1.0 + 0.5 * K * eta + 0.5 * math.sqrt(K * (4.0 + 4.0 * eta + K * eta * eta))
    c = problem.beta / math.pi
    return math.sqrt(x1) * c, math.sqrt(max(1.0 - K, 0.0) / x1) * c


def _count_below(problem: ArchProblem, K: float) -> int:
    """N(K), the uncracked eigenvalues below K with multiplicity; F has the sign (-1)**N.

    F = S1*S2, S_i = sin(a_i*beta)/a_i (mu_i = -a_i^2): a1 grows from 1 with K,
    a2 falls from 1 to 0 at K = 1, above which S2 > 0, so
    N = floor(a1*beta/pi) - floor(a2*beta/pi) (:func:`_mode_numbers`).
    """
    rising, falling = _mode_numbers(problem, K)
    return math.floor(rising) - math.floor(falling)


def scan_and_bracket(problems, cfg: SearchConfig) -> list:
    """Locate determinant sign changes of each problem over its K range.

    ``problems`` is a sequence of cracked problems scanned in lockstep: each
    kernel call evaluates the next block of every problem still scanning, at
    most ``_BLOCK`` K values, and a first block ends at the upper guide of
    the (max_modes + 1)-th smallest K_n above k_min, one mode to spare for a
    crack's shift. A scan stops after the first block that leaves
    ``max_modes`` candidates, brackets and dips, in hand: the first
    candidates of the whole grid, in order. A node of sign 0 is one
    zero-width bracket, even at a double root. Each problem keeps its own
    ``cfg`` range, grid, blocks and early stop, so its entry is the one a
    scan of it alone gives.

    Returns one entry per problem: its :class:`ScanResult`, or a
    :class:`NoRootsInRange` when its scan yields no bracket, a dip among its
    first ``max_modes`` candidates (named by its K; a dip above is ignored),
    fewer than ``max_modes`` candidates below the limit past which its grid's
    guides do not tell the modes apart (:func:`_grid_nodes`), once the scan
    passes it, or N(k_max) (:func:`_count_below`) overflows, a range beyond
    doubles.
    """
    import numpy as np
    cfgs = [_resolved(p, cfg) for p in problems]
    grids = [None] * len(problems)
    scanned = [(None, None)] * len(problems)  # signs and logs of each prefix
    results = [None] * len(problems)
    ends = [0] * len(problems)  # the end of each problem's scanned prefix
    limits = [math.inf] * len(problems)  # where each grid stops resolving the modes
    active = []
    for i, (p, k_range) in enumerate(zip(problems, cfgs)):
        try:
            _count_below(p, k_range.k_max)
            active.append(i)
        except OverflowError:
            results[i] = _beyond(k_range)
    while active:
        # Each grid is built through the next block and one node more, which
        # tells whether it goes on.
        chunks = []
        for i in active:
            start, kns = ends[i], []
            grids[i], limits[i] = _grid_nodes(problems[i], cfgs[i], start + _BLOCK + 1, kns)
            ends[i] = start + _BLOCK
            if not start and len(kns) > cfg.max_modes:
                top = sorted(kns)[cfg.max_modes] * (1.0 + _GUIDE_OFFSET)
                ends[i] = min(_BLOCK, int(np.searchsorted(grids[i], top, "right")))
            chunks.append(grids[i][start : ends[i]])
        _tally.scan_calls += 1
        sizes = [c.size for c in chunks]
        offsets = (0, *itertools.accumulate(sizes))
        new_signs, new_logs = boundary_determinant(
            problems, np.concatenate(chunks), list(zip(active, sizes))
        )
        scanning = []
        for i, lo, hi in zip(active, offsets, offsets[1:]):
            signs, logs = new_signs[lo:hi], new_logs[lo:hi]
            if scanned[i][0] is not None:
                signs = np.concatenate([scanned[i][0], signs])
                logs = np.concatenate([scanned[i][1], logs])
            scanned[i] = signs, logs
            nodes = grids[i]
            lower, upper, dips = _candidates(nodes, signs, logs)
            more, limit = ends[i] < nodes.size, limits[i]
            if limit < nodes[signs.size - 1] and cfg.max_modes > (
                np.searchsorted(nodes[upper], limit, "right") + np.searchsorted(dips, limit)
            ):
                results[i] = _beyond(cfgs[i], "holds modes closer than the grid tells apart")
            elif more and lower.size + dips.size < cfg.max_modes:
                scanning.append(i)
            elif dips.size and np.searchsorted(nodes[lower], dips[0]) < cfg.max_modes:
                results[i] = NoRootsInRange(
                    f"the determinant dips without a sign change at K = {dips.tolist()[0]!r}:"
                    " an even number of roots may lie there unbracketed"
                )
            elif not lower.size:
                results[i] = _short(0, cfgs[i])
            else:
                results[i] = ScanResult(
                    brackets=tuple(zip(nodes[lower].tolist(), nodes[upper].tolist())),
                    end_values=tuple(
                        zip(
                            zip(signs[lower].tolist(), logs[lower].tolist()),
                            zip(signs[upper].tolist(), logs[upper].tolist()),
                        )
                    ),
                )
        active = scanning
    return results


def refine_root(brackets, problems, cfg: SearchConfig, end_values) -> np.ndarray:
    """Bisect sign-change brackets down to refine_tol * max(1, K).

    ``brackets`` is a sequence of M (lo, hi) pairs, all bisected together,
    giving an array of M roots (an empty one for no pairs). ``problems``
    holds the cracked problem of each pair. ``end_values`` are the
    determinant's (sign, log-magnitude) at each bracket's ends,
    ((s_lo, m_lo), (s_hi, m_hi)) per pair (ignored for a zero-width pair), as
    the scan hands them on. A zero-width bracket is its own root, an end of
    sign 0 is the root, and the other brackets must straddle a sign change.

    Each kernel call evaluates, for every open bracket, the midpoints of
    plain bisection along the path toward an estimate of its root, down to
    the tolerance (``_path``): first the zero of the line through its
    signed end values s * exp(m), then the inverse cubic interpolant
    through its ends and the two nearest points the walk evaluated
    (``_root_estimate``). Bisection's own rules then walk the path once: a
    midpoint keeps the upper half when its sign equals the lower end's, and
    the bracket ends at a midpoint of sign 0 or at an interval narrow
    enough. The walk stops at the first midpoint whose kept half does not
    hold the estimate; that half, with its two evaluated ends, is the
    bracket of the next call. So every midpoint the walk uses is one that
    one-level-per-call bisection evaluates, and the roots are those of
    plain bisection, bit for bit, whatever the estimate or the other
    brackets of the batch; a poor estimate costs calls only, and each call
    advances every open bracket at least one level. Each kernel call takes
    the distinct problems and the index among them of each bracket's path
    (:func:`boundary_determinant`).
    """
    import numpy as np
    lows, highs = np.array(brackets, dtype=float).reshape(-1, 2).T.tolist()
    if len(end_values) != len(lows):
        raise ValueError("give one pair of end values per bracket")
    if len(problems) != len(lows):
        raise ValueError("give one problem per bracket")
    index = {}  # each distinct problem's index, in order of first appearance
    slots = [index.setdefault(p, len(index)) for p in problems]
    distinct = list(index)
    roots = list(lows)
    # Open brackets as (index, lo, hi, s_lo, m_lo, m_hi, near, levels bisected).
    open_ = []
    for i, (lo, hi, ends) in enumerate(zip(lows, highs, end_values)):
        if lo == hi:
            continue
        (s_lo, m_lo), (s_hi, m_hi) = ends
        if s_lo == 0:
            continue
        if s_hi == 0:
            roots[i] = hi
        elif s_lo == s_hi:
            raise ValueError(f"bracket {(lo, hi)} does not straddle a sign change")
        else:
            open_.append((i, lo, hi, s_lo, m_lo, m_hi, (), 0))

    tol = cfg.refine_tol
    while open_:
        # Each path as (bracket, estimate, its first and last index in K, end).
        paths, K = [], []
        for b in open_:
            estimate = _root_estimate(*b[1:7])
            mids, end = _path(b[1], b[2], estimate, b[7], tol)
            if mids:
                paths.append((b, estimate, len(K), len(K) + len(mids), end))
                K += mids
            else:
                roots[b[0]] = end
        if not paths:
            break
        runs = [(slots[p[0][0]], p[3] - p[2]) for p in paths]
        signs, logs = (v.tolist() for v in boundary_determinant(distinct, np.array(K), runs))
        open_ = []
        for b, estimate, first, last, end in paths:
            i, lo, hi, s_lo, m_lo, m_hi, _, level = b
            # Bisection's rules along the path: a midpoint of sign s_lo keeps
            # the upper half. The walk stops at a midpoint of sign 0, the
            # root, or at the first one whose kept half does not hold the
            # estimate, or else passes the last midpoint to the path's end.
            for j in range(first, last):
                s, mid = signs[j], K[j]
                if s == s_lo:
                    lo, m_lo = mid, logs[j]
                    if estimate > mid:
                        continue
                elif s:
                    hi, m_hi = mid, logs[j]
                    if not estimate > mid:
                        continue
                break
            else:
                j = last
            _tally.levels += min(j + 1, last) - first
            if j == last or not signs[j]:
                roots[i] = end if j == last else K[j]
                continue
            # The points nearest node j's kept half outside it, among this
            # call's bracket ends and the midpoints around node j.
            others = [(b[1], s_lo, b[4]), (b[2], -s_lo, b[5])]
            around = [k for k in (j - 1, j + 1, j + 2) if first <= k < last]
            others += [(K[k], signs[k], logs[k]) for k in around]
            gaps = sorted([(lo - p[0] if p[0] < lo else p[0] - hi, p) for p in others])
            near = [p for gap, p in gaps if gap > 0][:2]
            open_.append((i, lo, hi, s_lo, m_lo, m_hi, near, level + j + 1 - first))
    return np.array(roots, dtype=float)


def _root_estimate(lo, hi, s_lo, m_lo, m_hi, near) -> float:
    """The root in [lo, hi] that a bisection call's path aims at.

    ``near`` holds up to two evaluated points (K, sign, log-magnitude) outside
    the bracket. Through them and the ends, K as a polynomial in the signed
    value s * exp(m - max m) is taken at 0 (inverse cubic interpolation).
    Without them, or if two values coincide or this leaves the bracket, it
    is the secant estimate lo + (hi - lo) / (1 + exp(m_hi - m_lo)), where the
    line through the ends' signed values crosses zero (tanh avoids overflow).
    """
    if near:
        top = max(m_lo, m_hi, *[p[2] for p in near])
        ks, ys = [lo, hi], [s_lo * math.exp(m_lo - top), -s_lo * math.exp(m_hi - top)]
        for k, s, m in near:
            ks.append(k)
            ys.append(s * math.exp(m - top))
        if len(set(ys)) == len(ys):
            estimate = 0.0  # Lagrange's form at 0
            for k, z in zip(ks, ys):
                for y in ys:
                    if y != z:
                        k *= y / (y - z)
                estimate += k
            if lo < estimate < hi:
                return estimate
    return lo + (hi - lo) * (0.5 - 0.5 * math.tanh(0.5 * (m_hi - m_lo)))


def _path(lo, hi, estimate, level, tol):
    """Bisection's midpoints from [lo, hi] toward ``estimate``, and the path's end.

    The midpoints are those bisection evaluates if every one of them keeps
    the half holding the estimate (:func:`_root_estimate`); the end, the root
    if they all do, is the midpoint of the first interval no wider than
    tol * max(1, mid), or of the interval reached after ``_MAX_BISECTIONS``
    levels in all, ``level`` of them already bisected.
    """
    mids = []
    for _ in range(level, _MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        # max(1.0, mid) without the call, which costs as much as the rest.
        if hi - lo <= tol * (mid if mid > 1.0 else 1.0):
            break
        mids.append(mid)
        if estimate > mid:
            lo = mid
        else:
            hi = mid
    return mids, 0.5 * (lo + hi)


def find_frequencies(problem, cfg: SearchConfig | None = None):
    """First ``max_modes`` eigenvalues in (k_min, k_max), in ascending order.

    The K = 0 inextensional artifact is excluded by ``k_min``. An uncracked
    spectrum is its closed form (:func:`_closed_form_spectrum`), with no
    kernel call. A cracked scan stops once it holds ``max_modes``
    candidates, and only the first ``max_modes`` brackets are refined; no
    null vector is computed (:func:`mode_shape` does that). Each bracket is
    one root: the brackets sit in disjoint grid intervals, so two that
    refine to nearly the same K are a near-double root split by a grid node,
    and both are reported. Raises :class:`NoRootsInRange` when the range
    holds fewer than ``max_modes`` roots, or when a dip is among the first
    ``max_modes`` candidates.

    ``problem`` is one :class:`ArchProblem`, giving its :class:`Spectrum`, or
    a sequence of problems, cracked or not, giving one entry per problem, in
    order: its Spectrum, or the NoRootsInRange its own solve would raise,
    bit for bit (cracked ones are searched in lockstep, as the module
    docstring says). Logs one debug line per call: the problems, the
    kernel calls split into scan and bisection calls, the K values, the
    bisection levels summed over the brackets, the brackets refined (the
    searched roots) and the short solves.
    """
    single = isinstance(problem, ArchProblem)
    problems = [problem] if single else list(problem)
    cfg = cfg if cfg is not None else SearchConfig()
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
            sum(len(e) for p, e in zip(problems, entries) if p.crack and isinstance(e, Spectrum)),
            sum(isinstance(e, NoRootsInRange) for e in entries),
        )
    if not single:
        return entries
    if isinstance(entries[0], NoRootsInRange):
        raise entries[0]
    return entries[0]


def _solve_group(problems: list[ArchProblem], cfg: SearchConfig) -> list:
    """Spectra (or NoRootsInRange) of a few problems: closed forms, and one search of the cracked."""
    cracked = [p for p in problems if p.crack is not None]
    scans = iter(scan_and_bracket(cracked, cfg) if cracked else ())
    entries, brackets, values, owners = [], [], [], []
    for p in problems:
        if p.crack is None:
            entries.append(_closed_form_spectrum(p, cfg))
            continue
        scan = next(scans)
        if isinstance(scan, NoRootsInRange):
            entries.append(scan)
            continue
        found = scan.brackets[: cfg.max_modes]
        if len(found) < cfg.max_modes:
            entries.append(_short(len(found), _resolved(p, cfg)))
            continue
        entries.append(None)
        brackets += found
        values += scan.end_values[: cfg.max_modes]
        owners += [p] * len(found)
    if not brackets:
        return entries
    ks = iter(refine_root(brackets, owners, cfg, values).tolist())
    return [
        Spectrum(roots=tuple(Root(K=next(ks)) for _ in range(cfg.max_modes)))
        if e is None else e
        for e in entries
    ]


def _closed_form_spectrum(problem: ArchProblem, cfg: SearchConfig):
    """The uncracked spectrum: the closed-form K_n of the modes sin(n*pi*phi/beta).

    The first ``max_modes`` K_n in (k_min, k_max), ascending, or the
    :class:`NoRootsInRange` a scan of a short range gives. K_n falls as n
    grows while lam = n*pi/beta <= 1 and rises after. Rising modes are tried
    from N(k_min) (:func:`_count_below`) on, at most floor(beta/pi) + 2 below
    the first above k_min, rounding included, to max_modes in range or one
    past the first at or above k_max. Where N or a K_n overflows or two rising
    K_n are one float, the range is beyond double precision. A K_n below 1
    within ``_DOUBLE_ROOT`` of the one listed before it, a double root, is
    listed as that value again.
    """
    k_range = _resolved(problem, cfg)
    k_min, k_max = k_range.k_min, k_range.k_max
    c = problem.beta / math.pi
    falling = (model.uncracked_K_closed_form(n, problem.beta, problem.eta_nd)
               for n in range(1, math.floor(c) + 1))
    ks = [k for k in falling if k_min < k < k_max]
    rising = [-1.0]  # the K_n tried, after a value below them all
    try:
        start = max(math.floor(c) + 1, _count_below(problem, k_min))
        for n in range(start, start + math.floor(c) + cfg.max_modes + 3):
            rising.append(model.uncracked_K_closed_form(n, problem.beta, problem.eta_nd))
            if rising[-2] >= k_max:
                break
        resolved = all(a < b for a, b in zip(rising, rising[1:]))
    except OverflowError:  # N(k_min) or a K_n beyond the largest float
        resolved = False
    if not resolved:
        return _beyond(k_range)
    ks += [k for k in rising if k_min < k < k_max]
    ks = sorted(ks)[: cfg.max_modes]
    for i in range(1, len(ks)):
        if ks[i] < 1.0 and ks[i] - ks[i - 1] <= _DOUBLE_ROOT * ks[i]:
            ks[i] = ks[i - 1]
    if len(ks) < cfg.max_modes:
        return _short(len(ks), k_range)
    return Spectrum(roots=tuple(Root(K=k) for k in ks))


def _short(found: int, cfg: SearchConfig) -> NoRootsInRange:
    """The error of a resolved K range that holds ``found`` < max_modes roots."""
    count = f"{found} of {cfg.max_modes} requested" if found else "no determinant"
    return NoRootsInRange(f"{count} roots in K range [{cfg.k_min}, {cfg.k_max}]")


def _beyond(cfg: SearchConfig, why="is beyond what double precision resolves") -> NoRootsInRange:
    """The error of a resolved K range whose roots cannot be told apart, and why."""
    return NoRootsInRange(f"K range [{cfg.k_min}, {cfg.k_max}] {why}")


def _polish(problem: ArchProblem, k: float) -> float:
    """Re-tighten a searched (cracked) root to ~1e-13 relative before shape sampling.

    The stored eigenvalue honors the search tolerance. The support-adapted
    basis makes X and X'' exactly 0 at both supports for any K, but the null
    vector, which sets the matching at the crack, sharpens with the root, so a
    short local bisection is run first, inside the narrowest of a widening
    ladder of intervals around the root that straddles a sign change (the
    whole ladder is evaluated in one kernel call). Falls back to the stored
    value, with one debug log line, when no sign change is found nearby.
    """
    import numpy as np
    deltas = np.array([1e-10, 1e-9, 1e-8, 1e-7, 1e-6]) * max(1.0, k)
    lows, highs = k - deltas, k + deltas
    ladder = lows > 0
    lows, highs = lows[ladder], highs[ladder]
    if lows.size:
        signs, logs = boundary_determinant([problem], np.concatenate([lows, highs]))
        ends = list(zip(signs.tolist(), logs.tolist()))
        for lo, hi, at_lo, at_hi in zip(lows.tolist(), highs.tolist(), ends, ends[lows.size :]):
            if at_lo[0] == 0:
                return lo
            if at_hi[0] == 0:
                return hi
            if at_lo[0] * at_hi[0] == -1:
                tight = SearchConfig(refine_tol=1e-13)
                return refine_root([(lo, hi)], [problem], tight, [(at_lo, at_hi)]).item()
    logger.debug(
        "mode shape at the unpolished root K = %r: no sign change within 1e-6 max(1, K)", k
    )
    return k


def mode_shape(problem: ArchProblem, root: Root, samples: int = 201) -> np.ndarray:
    """Sample the spatial mode X on a uniform grid over [0, beta].

    Returns an array of shape (samples, 2) with columns (phi, X). An uncracked
    root is sin(n*pi*phi/beta), for the one n whose closed-form K_n is its K,
    with n*i reduced modulo 2*(samples - 1) in integers at sample i, so a node
    reads exactly 0; a K that is no K_n raises ValueError, and a double root
    (two n at one K below 1) :class:`DoubleRoot`. A cracked root is polished
    (:func:`_polish`), and X is c1*u1(phi) + c2*u2(phi) left of the crack and
    d1*u1(beta - phi) + d2*u2(beta - phi) right of it
    (:meth:`kernel.ModeBasis.support_rows`), (c1, c2, d1, d2) the null vector
    of the crack's matching matrix there (:func:`kernel.assemble_cracked`); a
    double root is not detected.
    Guaranteed: X is exactly 0 at both supports, the sample of largest |X|
    is exactly +1, every sample lies in [-1, 1], and a zero sample is +0.0.
    When every sample lies on a node, as with 2 samples or mode 2 at 3,
    every X is +0.0: the largest sampled |X| is at or below 1e-8 times the
    largest at 64 cell midpoints of [0, beta]. When the largest + and -
    extrema tie, rounding decides which one is +1.
    """
    import numpy as np
    if samples < 2:
        raise ValueError("samples must be at least 2")
    phis = problem.beta * np.arange(samples) / (samples - 1)
    K = root.K
    if problem.crack is None:
        # n lies within 1 + 2**-49 n of a mode number below 2**55: K_n is rounded by a few ulps.
        near = {}
        for v in _mode_numbers(problem, K) if K >= 0.0 else ():
            if v < 2.0**55:
                w = 1 + int(v * 2.0**-49)
                for n in range(max(1, round(v) - w), round(v) + w + 1):
                    near[n] = model.uncracked_K_closed_form(n, problem.beta, problem.eta_nd)
        exact = [n for n, k in near.items() if k == K]
        if exact and K < 1.0 and sum(abs(k - K) <= _DOUBLE_ROOT * K for k in near.values()) > 1:
            raise DoubleRoot(f"K = {K!r} is a double root: its mode shapes span a plane")
        if len(exact) != 1:
            raise ValueError(f"K = {K!r} is not the closed-form K_n of one uncracked mode n")
        # sin(n*pi*num/den) at the samples, num/den = i/(samples - 1), then the
        # cells, (2j + 1)/128, with n*num reduced modulo 2*den in integers.
        num = np.concatenate([np.arange(samples), 2 * np.arange(64) + 1])
        den = np.repeat(np.array([samples - 1, 128], dtype=np.int64), [samples, 64])
        m = exact[0] % (2 * den) * num % (2 * den)
        values = np.sin(np.pi * (m % den) / den) * np.where(m < den, 1.0, -1.0)
    else:
        from . import kernel
        crack = problem.crack
        basis = kernel.quartic_roots(_polish(problem, K), problem.eta_nd)
        matrix = kernel.assemble_cracked(basis, problem.beta, crack.alpha, crack.theta_c)
        at = np.concatenate([phis, problem.beta * ((np.arange(64) + 0.5) / 64)])  # samples, cells
        left = at < crack.alpha
        x, ref = (np.where(left, v, problem.beta - v) for v in (at, crack.alpha))
        rows = basis.support_rows(x, ref, nrows=1)[:, 0, :]
        c = np.where(left[:, None], *kernel.null_vector(matrix).reshape(2, 2))  # (c1, c2), (d1, d2)
        # Summed from +0.0, so an exact zero is +0.0.
        values = 0.0 + c[:, 0] * rows[:, 0] + c[:, 1] * rows[:, 1]
    peak = values[np.argmax(np.abs(values[:samples]))]
    if abs(peak) > _NOISE * np.abs(values[samples:]).max():
        values = values[:samples] / peak + 0.0
    else:
        values = np.zeros(samples)
    return np.column_stack([phis, values])
