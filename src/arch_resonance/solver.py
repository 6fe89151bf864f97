"""Frequency spectrum search as determinant root finding over K.

An uncracked arch's spectrum is its closed form, the K_n of the modes
sin(n*pi*phi/beta) (:func:`model.uncracked_K_closed_form`), listed with no
kernel call. A cracked arch's boundary determinant, the reduced
characteristic function F in closed form (:func:`kernel.det_sign_logmag_at`,
no matrix), is scanned one K at a time on a grid of uniform nodes and guides
around K = 1 and around each uncracked eigenvalue K_n, with their midpoint,
for the candidates of the requested modes: sign changes, each one root, and
dips. The scan walks the grid once, in ascending order, and stops at the
last requested candidate. A dip is a node far below both neighbours of its
sign, around which an even number of roots may lie unbracketed, so a dip
among them fails the solve.
Each bracket is then refined on its own by Brent's method with the same
one-K form (:func:`refine_root`), about four evaluations a root. A spectrum
holds roots only: :func:`mode_shape` samples an uncracked root's shape as
its sine and a cracked one's from the null vector of its crack's matching
matrix.

Everything is deterministic: the same problem and configuration produce
bit-identical spectra, because F is evaluated at each K alone and each
bracket is refined alone.

Everything runs on Python floats and lists, with ``math``. An uncracked
solve or shape imports no :mod:`kernel`: a cracked one imports it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys

from . import model
from ._record import record
from .errors import DoubleRoot, NoRootsInRange
from .model import ArchProblem

# Log-magnitude drop (natural log) below both same-sign neighbours that makes
# a node a dip, which fails the solve when among the requested modes' candidates.
_DIP_DECADES = 6.0
_DIP_THRESHOLD = _DIP_DECADES * math.log(10.0)
# Relative offset of the guide nodes inserted around K = 1 and each K_n.
_GUIDE_OFFSET = 1e-6
# One-K evaluations per refined bracket (refine_root).
_MAX_EVALUATIONS = 200
# A cracked mode shape whose largest sample is at or below _NOISE times its
# amplitude, its largest |X| at 64 cell midpoints of [0, beta], reads +0.0
# throughout: its nodes read rounding noise, where an uncracked node reads 0.
_NOISE = 1e-8
# Relative window of an uncracked double root (the closed form and mode_shape),
# below K = 1 only: a falling K_n (lam <= 1, so K_n < 1) meets a rising one.
_DOUBLE_ROOT = 1e-12
# The most modes a solve and the most samples a mode shape give, so that what a
# request allocates is bounded: at both bounds, a cracked JSON mode shape takes
# about 3.5 s and 370 MB (2-core x86-64 VM), where 10**20 samples or modes run
# out of memory.
MAX_MODES = 10**5
MAX_SAMPLES = 10**6


@record
class SearchConfig:
    """The K range and number of modes of a solve, and the cracked search's knobs.

    ``grid_points`` and ``refine_tol`` tune only the scan and refinement; an
    uncracked spectrum is its closed form. ``max_modes`` lies in [1,
    :data:`MAX_MODES`]. ``k_max=None`` defaults to ten
    times the closed-form eigenvalue of the uncracked problem at mode
    max(5, max_modes), counted on from the eigenvalues below k_min
    (:func:`_k_max`), which leaves ample room for the roots a crack shifts.
    """

    k_min: float = 1e-6
    k_max: float | None = None
    grid_points: int = 256
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
        if self.max_modes > MAX_MODES:
            raise ValueError(f"max_modes must be at most {MAX_MODES}")


@record
class Root:
    """One spectrum entry: an eigenvalue, a closed-form K_n or a refined root.

    A root carries no mode shape: :func:`mode_shape` samples it.
    """

    K: float


@record
class Spectrum:
    roots: tuple[Root, ...]

    @property
    def K_values(self) -> tuple[float, ...]:
        return tuple(r.K for r in self.roots)

    def __len__(self) -> int:
        return len(self.roots)


def _k_max(problem: ArchProblem, cfg: SearchConfig) -> float:
    """``cfg.k_max``, or its default (:class:`SearchConfig`) where it has none.

    The default is ten times K_n at n = max(5, max_modes) + N(k_min)
    (:func:`_count_below`), so the range holds max(5, max_modes) uncracked
    K_n whatever k_min is; a default beyond the largest float is that float.
    """
    if cfg.k_max is not None:
        return cfg.k_max
    try:
        n = max(5, cfg.max_modes) + _count_below(problem, cfg.k_min)
        k_max = 10.0 * max(model.uncracked_K_closed_form(n, problem.beta, problem.eta_nd), 1.0e-3)
    except OverflowError:  # N(k_min) or K_n beyond the largest float
        return sys.float_info.max
    return min(k_max, sys.float_info.max)


def _grid_nodes(problem: ArchProblem, cfg: SearchConfig, k_max: float, limit=None):
    """The uniform K grid up to the resolved ``k_max`` (:func:`_k_max`) plus
    guides around K = 1 and each K_n, ascending and lazily.

    The uncracked closed-form values are used even for cracked problems:
    tight nodes around each K_n either bracket the uncracked root directly or
    add resolution near it. A crack does not shift every root downward (at
    beta = pi/sqrt(0.4) + 1e-4, eta = 0, alpha = beta/3, theta_c = 0.5 the
    fundamental rises), so the guides are an aid, not a bound. A pair with
    no uniform node between its guides (to rounding) gets their midpoint,
    bisection's first, which resolves a close cracked pair there.

    At K = 1 the constant term 1 - K of the characteristic quartic changes
    sign, and a crack at eta = 0 often puts one root below it and the next
    above it, both far below the first uniform node past 1 (k_max is ten
    times K_5 or more, so the uniform spacing there can exceed 1). Without
    the nodes at 1 -+ 1e-6 the two sign changes share an interval and
    cancel: at beta = 4.25, eta = 0, alpha = 0.4375 beta, theta_c = 10 the
    roots 0.825 and 1.31 both lay in [0.80, 1.41] and 9.83 came back as mode 1.

    The nodes merge three ascending streams: the uniform nodes, the guides
    of K = 1 and of the falling modes (lam <= 1), and the guides of the
    rising ones, whose K_n grows with n: from N(k_min (1 - 2e-6)) on
    (:func:`_count_below`), below which no guide reaches past k_min, to the
    first past k_max or the first whose lower guide is not above the upper
    one before it: where adjacent K_n lie within 2e-6 of each other, guides
    no longer tell the modes apart. There the rising guides stop and, where
    a one-item list ``limit`` is given, set ``limit[0]`` to the last upper
    guide, above which the grid does not resolve the modes; the merge takes
    that stop before it yields a node above that guide. Every node is
    finite and nonnegative, as the kernel requires of K: where i*span
    overflows (a range near the largest float, which the scan fails first
    unless eta is 0 or nearly), a uniform node is
    k_max - (1 - i/(points - 1))*span instead.
    """
    k_min, points = cfg.k_min, cfg.grid_points
    span, den = k_max - k_min, points - 1
    step = span / den
    closed_form, beta, eta = model.uncracked_K_closed_form, problem.beta, problem.eta_nd
    c = math.floor(beta / math.pi)
    first = max(c + 1, _count_below(problem, k_min * (1.0 - 2.0 * _GUIDE_OFFSET)))

    def guides(kn):
        """K_n's guides in the range, ascending, with their midpoint where no uniform node parts them."""
        lo, hi = kn * (1.0 - _GUIDE_OFFSET), kn * (1.0 + _GUIDE_OFFSET)
        if k_min < lo and hi < k_max and (lo - k_min) // step == (hi - k_min) // step:
            return lo, 0.5 * (lo + hi), hi
        return [g for g in (lo, hi) if k_min < g < k_max]

    def rising():
        last = -1.0
        for n in itertools.count(first):
            kn = closed_form(n, beta, eta)
            lo = kn * (1.0 - _GUIDE_OFFSET)
            if kn > k_max:
                return
            if lo <= last:
                if limit is not None:
                    limit[0] = last
                return
            last = kn * (1.0 + _GUIDE_OFFSET)
            yield from guides(kn)

    low = [g for g in (1.0 - _GUIDE_OFFSET, 1.0 + _GUIDE_OFFSET) if k_min < g < k_max]
    low += [g for n in range(1, c + 1) for g in guides(closed_form(n, beta, eta))]
    low.sort()
    # The uniform nodes k_min + span*i/(points - 1), i = 0 .. points - 1.
    uniform = (i * span / den + k_min for i in range(points))
    if den * span / den + k_min == math.inf:  # i*span overflows, so those nodes count down from k_max
        uniform = (x if x < math.inf else k_max - (1.0 - i / den) * span for i, x in enumerate(uniform))
    # A node within 1e-15*max(1, K) above its neighbour is dropped. Such pairs
    # never chain: the nodes of K = 1 and of a K_n sit 1e-6 apart or more.
    nodes = heapq.merge(uniform, low, rising())
    a = next(nodes)
    yield a
    for b in nodes:
        if b - a > 1e-15 * (b if b > 1.0 else 1.0):
            yield b
        a = b


def _mode_numbers(problem: ArchProblem, K: float) -> tuple[float, float]:
    """a1*beta/pi and a2*beta/pi at K: the real n, rising and falling, whose K_n is K."""
    eta = problem.eta_nd
    root = math.sqrt(K * (4.0 + 4.0 * eta + K * eta * eta)) if K else 0.0  # 0*inf is NaN
    x1 = 1.0 + 0.5 * K * eta + 0.5 * root
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


def scan_and_bracket(problem: ArchProblem, cfg: SearchConfig, counts=None) -> tuple:
    """Bracket the first ``max_modes`` determinant roots of a cracked problem.

    One walk of the grid (:func:`_grid_nodes`), ascending, evaluates each
    node alone by :func:`kernel.det_sign_logmag_at` and stops once it holds
    ``max_modes`` candidates, brackets and dips, or the grid ends. A node of
    sign 0 is one zero-width bracket, even at a double root; a sign change
    between two nonzero nodes brackets the gap. Returns the brackets in
    ascending order, each one record of its two ends with F's (sign,
    log-magnitude) at each, ((lo, (s_lo, m_lo)), (hi, (s_hi, m_hi))), so
    refinement (:func:`refine_root`) need not evaluate the ends again. Where
    a list ``counts`` is given, the walk adds its evaluations to ``counts[0]``,
    also when it raises.

    Raises :class:`NoRootsInRange` when N(k_max) (:func:`_count_below`)
    overflows, a range beyond doubles; when the walk passes the limit above
    which the grid's guides do not tell the modes apart with fewer than
    ``max_modes`` candidates below it; when a dip is among the candidates
    (named by its K); and when the grid holds fewer than ``max_modes``
    brackets, in that order.
    """
    from . import kernel
    counts = [0, 0] if counts is None else counts
    k_max = _k_max(problem, cfg)
    try:
        _count_below(problem, k_max)
    except OverflowError:
        raise _beyond(cfg, k_max) from None
    # Looked up here, not bound at import, so a wrapper set on the module sees each value.
    evaluate = kernel.det_sign_logmag_at
    crack = problem.crack
    eta, beta, alpha, theta = problem.eta_nd, problem.beta, crack.alpha, crack.theta_c
    needed, limit_at = cfg.max_modes, [math.inf]
    brackets, dips = [], []
    # The values (sign, log-magnitude) of the previous node k0 and of the one
    # before it, of sign 0 before the grid: no candidate ends there.
    v0 = v00 = (0, 0.0)
    # The grid is never empty: it holds 16 uniform nodes or more.
    for count, k in enumerate(_grid_nodes(problem, cfg, k_max, limit_at), 1):
        v = evaluate(k, eta, beta, alpha, theta)
        s = v[0]
        if not s:
            brackets.append(((k, v), (k, v)))
        elif s * v0[0] < 0:
            brackets.append(((k0, v0), (k, v)))
        # A dip: k0 far below both neighbours, all three of one sign.
        elif s == v0[0] == v00[0] and v0[1] <= (v00[1] if v00[1] < v[1] else v[1]) - _DIP_THRESHOLD:
            dips.append(k0)
        k0, v0, v00 = k, v, v0
        if len(brackets) + len(dips) >= needed:
            break
    counts[0] += count
    limit = limit_at[0]
    if limit < k0 and needed > sum(hi <= limit for _, (hi, _) in brackets) + sum(d < limit for d in dips):
        raise _beyond(cfg, k_max, "holds modes closer than the grid tells apart")
    # The walk stops at max_modes candidates, so a dip always has fewer brackets below it.
    if dips:
        raise NoRootsInRange(
            f"the determinant dips without a sign change at K = {dips[0]!r}:"
            " an even number of roots may lie there unbracketed"
        )
    if len(brackets) < needed:
        raise _short(len(brackets), cfg, k_max)
    return tuple(brackets)


def refine_root(problem: ArchProblem, brackets, tol: float, counts=None) -> list[float]:
    """Refine sign-change brackets down to tol * max(1, K), one at a time.

    ``brackets`` is a sequence of M bracket records of the cracked
    ``problem``, ((lo, (s_lo, m_lo)), (hi, (s_hi, m_hi))) with the
    determinant's sign and log-magnitude at each end, as
    :func:`scan_and_bracket` returns them; it gives a list of M roots. An end
    of sign 0 is the root, so a zero-width bracket of the scan is its own
    root, and the other brackets must straddle a sign change and lie in
    [0, inf).

    Each bracket runs Brent's method (zeroin; Brent, *Algorithms for
    Minimization without Derivatives*, 1973) on s * exp(m - m_ref), m_ref
    the larger log-magnitude of its ends, so every value shares one scale,
    with one-K evaluations (:func:`kernel.det_sign_logmag_at`). An inverse
    quadratic or secant step is taken when it stays well inside the bracket
    and shrinks it fast enough, a bisection step otherwise, and no step is
    shorter than half the tolerance. The bracket ends when it is no wider
    than tol * max(1, mid), at its midpoint, at an evaluated K of sign 0, or
    after ``_MAX_EVALUATIONS`` evaluations, at its midpoint. Where a list
    ``counts`` is given, each bracket adds its evaluations to ``counts[1]``.
    """
    from . import kernel
    counts = [0, 0] if counts is None else counts
    return [_brent(problem, bracket, tol, kernel.det_sign_logmag_at, counts) for bracket in brackets]


def _brent(problem: ArchProblem, bracket, tol: float, evaluate, counts) -> float:
    """The root of one bracket record (:func:`refine_root`); ``evaluate`` is
    :func:`kernel.det_sign_logmag_at`, which the caller imports once, and
    ``counts[1]`` takes the evaluations."""
    (lo, (s_lo, m_lo)), (hi, (s_hi, m_hi)) = bracket
    if s_lo == 0:
        return lo
    if s_hi == 0:
        return hi
    if s_lo == s_hi:
        raise ValueError(f"bracket {(lo, hi)} does not straddle a sign change")
    if not 0.0 <= lo < hi < math.inf:
        raise ValueError(f"bracket {(lo, hi)} must lie in [0, inf) with lo < hi")
    eta, beta, alpha, theta = problem.eta_nd, problem.beta, problem.crack.alpha, problem.crack.theta_c
    exp, ref = math.exp, max(m_lo, m_hi)
    # b is the end of smaller |f|, c the other end, a the b before this one;
    # d is the last step and e the one before it.
    b, fb = hi, s_hi * exp(m_hi - ref)
    a = c = lo
    fa = fc = s_lo * exp(m_lo - ref)
    d = e = b - a
    # counts[1] is updated once, on the way out.
    for evals in range(_MAX_EVALUATIONS):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        mid = 0.5 * (b + c)
        # max(1.0, mid) without the call, which costs as much as the test.
        if abs(c - b) <= tol * (mid if mid > 1.0 else 1.0):
            counts[1] += evals
            return mid
        half = 0.5 * (c - b)
        least = 0.5 * tol * (b if b > 1.0 else 1.0)
        if abs(e) >= least and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(least * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > least else math.copysign(least, half)
        sign, logmag = evaluate(b, eta, beta, alpha, theta)
        if not sign:
            counts[1] += evals + 1
            return b
        # Clamped so that exp neither overflows nor underflows to 0: the
        # bracket is kept by the sign alone, which the clamp leaves as it is.
        x = logmag - ref
        fb = sign * exp(-700.0 if x < -700.0 else 700.0 if x > 700.0 else x)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    counts[1] += _MAX_EVALUATIONS
    return 0.5 * (b + c)


def _debug_log():
    """The solver's logger where it logs debug lines, else None, read from logging's
    registry with no lock. The solver never imports logging: until something has,
    no record was asked for."""
    logging = sys.modules.get("logging")
    log = logging and logging.Logger.manager.loggerDict.get(__name__)
    if logging and not isinstance(log, logging.Logger):  # not made, or a child's placeholder
        log = logging.getLogger(__name__)
    return log if log and log.isEnabledFor(10) else None  # logging.DEBUG


def find_frequencies(problem: ArchProblem, cfg: SearchConfig | None = None) -> Spectrum:
    """First ``max_modes`` eigenvalues in (k_min, k_max), in ascending order.

    The K = 0 inextensional artifact is excluded by ``k_min``. An uncracked
    spectrum is its closed form (:func:`_closed_form_spectrum`), with no
    kernel call. A cracked scan stops at its ``max_modes``-th candidate, and
    its brackets are refined; no null vector is computed (:func:`mode_shape`
    does that). Each bracket is one root: the brackets sit in disjoint grid
    intervals, so two that refine to nearly the same K are a near-double
    root split by a grid node, and both are reported. Raises :class:`NoRootsInRange` when the range
    holds fewer than ``max_modes`` roots, or when a dip is among the first
    ``max_modes`` candidates.

    Logs one debug line per call, also when it raises: the scan's
    evaluations, the refinement's evaluations and the brackets refined (the
    searched roots), counted for this call alone, so that solves in
    concurrent threads each log their own.
    """
    cfg = cfg if cfg is not None else SearchConfig()
    counts, refined = [0, 0], 0  # this solve's scan and refinement evaluations
    try:
        if problem.crack is None:
            return _closed_form_spectrum(problem, cfg)
        ks = refine_root(problem, scan_and_bracket(problem, cfg, counts), cfg.refine_tol, counts)
        refined = len(ks)
        return Spectrum(tuple(map(Root, ks)))
    finally:
        if log := _debug_log():
            log.debug(
                "find_frequencies: %d scan evaluations, %d refinement evaluations, "
                "%d brackets refined",
                *counts, refined,
            )


def _closed_form_spectrum(problem: ArchProblem, cfg: SearchConfig) -> Spectrum:
    """The uncracked spectrum: the closed-form K_n of the modes sin(n*pi*phi/beta).

    The first ``max_modes`` K_n in (k_min, k_max), ascending; a short range
    raises :class:`NoRootsInRange` as a scan of it does. K_n falls as n
    grows while lam = n*pi/beta <= 1 and rises after. Rising modes are tried
    from N(k_min) (:func:`_count_below`) on, at most floor(beta/pi) + 2 below
    the first above k_min, rounding included, to max_modes in range or one
    past the first at or above k_max. Where N or a K_n overflows or two rising
    K_n are one float, the range is beyond double precision. A K_n below 1
    within ``_DOUBLE_ROOT`` of the one listed before it, a double root, is
    listed as that value again.
    """
    k_min, k_max = cfg.k_min, _k_max(problem, cfg)
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
        raise _beyond(cfg, k_max)
    ks += [k for k in rising if k_min < k < k_max]
    ks = sorted(ks)[: cfg.max_modes]
    for i in range(1, len(ks)):
        if ks[i] < 1.0 and ks[i] - ks[i - 1] <= _DOUBLE_ROOT * ks[i]:
            ks[i] = ks[i - 1]
    if len(ks) < cfg.max_modes:
        raise _short(len(ks), cfg, k_max)
    return Spectrum(roots=tuple(Root(K=k) for k in ks))


def _short(found: int, cfg: SearchConfig, k_max: float) -> NoRootsInRange:
    """The error of a K range up to the resolved ``k_max`` that holds ``found`` < max_modes roots."""
    count = f"{found} of {cfg.max_modes} requested" if found else "no determinant"
    return NoRootsInRange(f"{count} roots in K range [{cfg.k_min}, {k_max}]")


def _beyond(cfg: SearchConfig, k_max: float,
            why="is beyond what double precision resolves") -> NoRootsInRange:
    """The error of a K range up to the resolved ``k_max`` whose roots cannot be told apart, and why."""
    return NoRootsInRange(f"K range [{cfg.k_min}, {k_max}] {why}")


def _polish(problem: ArchProblem, k: float) -> float:
    """Re-tighten a searched (cracked) root to ~1e-13 relative before shape sampling.

    The stored eigenvalue honors the search tolerance. The support-adapted
    basis makes X and X'' exactly 0 at both supports for any K, but the null
    vector, which sets the matching at the crack, sharpens with the root, so
    the root is refined again first (:func:`refine_root`'s method), inside
    the narrowest of a widening ladder of intervals around it that straddles
    a sign change or ends at a sign 0, walked outward with one-K
    evaluations. Falls back to the stored value, with one debug log line,
    when no sign change is found nearby.
    """
    from . import kernel
    evaluate = kernel.det_sign_logmag_at
    crack = problem.crack
    args = (problem.eta_nd, problem.beta, crack.alpha, crack.theta_c)
    scale = max(1.0, k)
    for delta in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        lo, hi = k - delta * scale, k + delta * scale
        if not 0.0 < lo < hi < math.inf:
            break
        bracket = (lo, evaluate(lo, *args)), (hi, evaluate(hi, *args))
        if bracket[0][1][0] * bracket[1][1][0] != 1:
            return _brent(problem, bracket, 1e-13, evaluate, [0, 0])
    if log := _debug_log():
        log.debug(
            "mode shape at the unpolished root K = %r: no sign change within 1e-6 max(1, K)", k
        )
    return k


def mode_shape(problem: ArchProblem, root: Root, samples: int = 201) -> tuple:
    """Sample the spatial mode X on a uniform grid over [0, beta].

    Returns a tuple of ``samples`` float pairs (phi, X), ``samples`` in [2,
    :data:`MAX_SAMPLES`] (else ValueError). An uncracked
    root is sin(n*pi*phi/beta), for the one n whose closed-form K_n is its K,
    with n*i reduced modulo 2*(samples - 1) in integers at sample i, so a node
    reads exactly 0; a K that is no K_n raises ValueError, and a double root
    (two n at one K below 1) :class:`DoubleRoot`. A cracked root's K must be
    finite, nonnegative and leave the kernel's roots finite up to K + 1e-6
    max(1, K) (else ValueError); it is polished (:func:`_polish`), and X is
    c1*u1(phi) + c2*u2(phi) left of the crack and d1*u1(beta - phi) +
    d2*u2(beta - phi) right of it (:meth:`kernel.ModeBasis.support_rows`),
    (c1, c2, d1, d2) the null vector of the crack's matching matrix there
    (:func:`kernel.assemble_cracked`); a matrix of rank below 3 there
    (:func:`kernel.null_vector`), a double root or a pair of roots too close to
    tell apart, raises :class:`DoubleRoot`. Guaranteed: X is exactly 0 at both
    supports, the sample of largest |X| is exactly +1, every sample lies in
    [-1, 1], and a zero sample is +0.0. When every sample lies on a node, as
    with 2 samples or mode 2 at 3, every X is +0.0: uncracked, exactly when
    samples - 1 divides n (a node reads exactly 0); cracked, when the largest
    sampled |X| is at or below 1e-8 times the largest at 64 cell midpoints of
    [0, beta]. When the largest + and - extrema tie, rounding decides which
    one is +1.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}")
    beta, K, last = problem.beta, root.K, samples - 1
    phis = [beta * i / last for i in range(samples)]
    if problem.crack is None:
        # n lies within 1 + 2**-49 n of a mode number below 2**55: K_n is rounded by a few ulps.
        near = {}
        for v in _mode_numbers(problem, K) if K >= 0.0 else ():
            if v < 2.0**55:
                w = 1 + int(v * 2.0**-49)
                for n in range(max(1, round(v) - w), round(v) + w + 1):
                    near[n] = model.uncracked_K_closed_form(n, beta, problem.eta_nd)
        exact = [n for n, k in near.items() if k == K]
        if exact and K < 1.0 and sum(abs(k - K) <= _DOUBLE_ROOT * K for k in near.values()) > 1:
            raise DoubleRoot(f"K = {K!r} is a double root: its mode shapes span a plane")
        if len(exact) != 1:
            raise ValueError(f"K = {K!r} is not the closed-form K_n of one uncracked mode n")
        # sin(n*pi*i/(samples - 1)), with n*i reduced modulo 2*(samples - 1) in integers.
        sin, pi, reduced = math.sin, math.pi, exact[0] % (2 * last)
        ms = [reduced * i % (2 * last) for i in range(samples)]
        values = [sin(pi * (m % last) / last) * (1.0 if m < last else -1.0) for m in ms]
    else:
        # The kernel takes K on trust, so a caller's root is checked here, as far as _polish reaches.
        if not math.isfinite(K):
            raise ValueError("trial eigenvalue and nonlocal parameter must be finite")
        if K < 0:
            raise ValueError("trial eigenvalue K must be nonnegative")
        from . import kernel
        if not math.isfinite(kernel.quartic_roots(K + 1e-6 * max(1.0, K), problem.eta_nd).mu1):
            raise ValueError(f"K = {K!r} is beyond the kernel's range: its roots overflow")
        alpha, theta = problem.crack.alpha, problem.crack.theta_c
        basis = kernel.quartic_roots(_polish(problem, K), problem.eta_nd)
        try:
            c1, c2, d1, d2 = kernel.null_vector(kernel.assemble_cracked(basis, beta, alpha, theta))
        except DoubleRoot:
            raise DoubleRoot(f"K = {K!r} is a double root: its mode shapes span a plane") from None
        from bisect import bisect_left
        # The samples and the cells each ascend: those left of the crack come first.
        cells = [beta * ((j + 0.5) / 64) for j in range(64)]
        cut, cell_cut = bisect_left(phis, alpha), bisect_left(cells, alpha)
        left, = basis.support_rows(phis[:cut] + cells[:cell_cut], alpha, nrows=1)
        right, = basis.support_rows(
            [beta - x for x in phis[cut:] + cells[cell_cut:]], beta - alpha, nrows=1)
        # Summed from +0.0, so an exact zero is +0.0.
        xl = [0.0 + c1 * u1 + c2 * u2 for u1, u2 in left]
        xr = [0.0 + d1 * u1 + d2 * u2 for u1, u2 in right]
        values, cell_values = xl[:cut] + xr[:samples - cut], xl[cut:] + xr[samples - cut:]
    peak = max(values, key=abs)
    if abs(peak) > (0.0 if problem.crack is None else _NOISE * max(map(abs, cell_values))):
        values = [x / peak + 0.0 for x in values]
    else:
        values = [0.0] * samples
    return tuple(zip(phis, values))
