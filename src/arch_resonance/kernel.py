"""Characteristic roots, mode-shape basis and boundary determinant.

The transverse vibration of the arch reduces to the fourth-order equation

    X'''' + (2 + K*eta) X'' + (1 - K) X = 0,       K = omega^2 mu R^4 / (E I),

whose exponential ansatz gives the bi-quadratic lam^4 + p2 lam^2 + p0 = 0 with
p2 = 2 + K*eta and p0 = 1 - K. This module builds the support-adapted
fundamental solutions at a trial K, evaluates their derivatives
analytically, assembles the crack matching matrix whose null vector gives the
mode shape, and evaluates the boundary determinant in closed form, as the
reduced characteristic function whose sign changes bracket the eigenvalues.

Stacks
------
:func:`det_sign_logmag`, which the root search evaluates, takes either one
trial K or an array of N of them, giving N signs and log-magnitudes of the
reduced characteristic function; a scalar K is the N = 1 case of the same
code. The matching path (:func:`quartic_roots`, :class:`ModeBasis` and
:func:`assemble_cracked`) samples one mode shape at its root and takes one
K. A :func:`det_sign_logmag` call costs mostly a fixed part: 1 and
256 K values of a cracked problem take about 32 and 58 us in a tight loop
(48 us for 256 values all above K = 1; numpy 2.4, shared 2-core x86-64 VM),
so the solver evaluates its K grid in fixed-size blocks and each bisection
call's midpoints as one stack. To keep that part small, a call takes the
branch of mu2 from its K range when the range lies on one side of K = 1,
and builds the degeneracy masks of :func:`_lam2_roots` only when a K may
lie in their windows.

:func:`det_sign_logmag` also takes its problem parameters (eta_nd, beta,
alpha, theta_c) as arrays that broadcast to K's shape, so one call evaluates
the K values of several problems, each against its own parameters; the
solver scans and bisects the problems of a sweep this way. Every parameter
check applies to each element, and since every operation is elementwise,
each value is bit-identical to a call with that problem's scalar
parameters. Scalar parameters take the scalar path, with no broadcast.

Basis conventions
-----------------
For each root mu of the quadratic in lam^2 the even/odd solution pair is

    e(mu, phi) = cos(a*phi)   or cosh(a*phi),   a = sqrt(|mu|)
    o(mu, phi) = sin(a*phi)/a or sinh(a*phi)/a

which are entire in mu (o -> phi, e -> 1 as mu -> 0), so the determinant is a
continuous function of K across branch switches. mu1 is the always-negative
(trigonometric) root and mu2 carries the branch dependence; at a repeated
root the mu-derivatives of the first pair stand in for the second.

The matching system is 4x4 in the support-adapted basis of
:meth:`ModeBasis.support_rows`: the odd functions of the distance from a
support vanish there with X'', so one pair per segment leaves only the four
matching conditions at the crack. An uncracked arch is the crack of zero
compliance at any angle, whose rows enforce C3 continuity. A hyperbolic
column is divided by cosh of its argument at the crack, so every entry stays
bounded at any wavenumber.

Reduced characteristic function
-------------------------------
The root search needs only the sign and size of the determinant, and it
factorizes. In the support-adapted basis the X and X'' conditions at the
crack split per pair (o'' = mu*o), and the addition theorem
o(alpha)*e(gamma) + e(alpha)*o(gamma) = o(beta), gamma = beta - alpha, turns
the X''' and slope-jump rows into a 2x2 whose determinant over mu1 - mu2 is

    F = S1*S2 + theta_c*mu1*mu2*(S1*A2 - S2*A1)/(mu1 - mu2),
    S_i = o(mu_i, beta),  A_i = o(mu_i, alpha)*o(mu_i, gamma);

at theta_c = 0, F = S1*S2: an uncracked arch is that crack, as the solver
passes it (at beta/2). :func:`det_sign_logmag` evaluates F with no matrix. Its
sign is that of the determinant of the matching matrix, so both change sign
at the same K. A mode shape's coefficients are the null vector of the
matching matrix at its root (:func:`null_vector`). The uncracked K_n need
none of this: their closed form, :func:`model.uncracked_K_closed_form`,
lives in numpy-free ``model`` and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SEGMENT_TOL, DegenerateSegment
from .model import uncracked_K_closed_form  # noqa: F401 (re-exported)

# Degeneracy window for branch switching (see _lam2_roots).
DEGENERACY_TOL = 1e-10
# |F| at or below this fraction of its scale zeroes the sign (det_sign_logmag).
PIVOT_ZERO_TOL = 1e-13


def _checked(K, eta_nd):
    """Checked K (a float array if it has dimensions), its extremes, and eta's largest value."""
    if np.ndim(K):
        K = np.asarray(K, dtype=float)
        k_lo, k_hi = (K.min(), K.max()) if K.size else (0.0, 0.0)
    else:
        k_lo = k_hi = K
    eta = (eta_nd.min(), eta_nd.max()) if isinstance(eta_nd, np.ndarray) else (eta_nd,)
    if not all(math.isfinite(v) for v in (k_lo, k_hi, *eta)):
        raise ValueError("trial eigenvalue and nonlocal parameter must be finite")
    if k_lo < 0:
        raise ValueError("trial eigenvalue K must be nonnegative")
    if eta[0] < 0:
        raise ValueError("nonlocal parameter must be nonnegative")
    return K, k_lo, k_hi, eta[-1]


def _any(mask) -> bool:
    """Whether a parameter check fails: a Python bool, or any element of an array."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _lam2_roots(p2, p0, masks=True):
    """Roots mu1 <= mu2 of mu^2 + p2 mu + p0 and the repeated-root mask, as arrays.

    With tol = ``DEGENERACY_TOL``, a root within about tol of zero,
    |p0| <= tol*max(1, |p2|), is snapped to exactly 0, and a pair whose
    discriminant is within tol*max(1, p2^2) of zero to -p2/2. The zero-root
    window scales with |p2|, not p2^2: mu2 is about -p0/p2, and at large
    K*eta a window in p2^2 would snap an O(1) hyperbolic root to 0.
    ``masks=False`` says no value lies in a window: no mask is built.
    """
    p2, p0 = np.asarray(p2), np.asarray(p0)
    square = p2 * p2
    disc = square - 4.0 * p0
    scale = np.maximum(1.0, square) if masks or disc.min(initial=0.0) < 0.0 else None
    if scale is not None and np.any(disc < -DEGENERACY_TOL * scale):
        # Not reachable for K >= 0, eta >= 0; kept as a hard guard.
        raise ValueError(f"negative discriminant for coefficients p2={p2}, p0={p0}")
    # Without ``scale`` no disc is below 0.
    mu1 = -0.5 * (p2 + np.sqrt(disc if scale is None else np.maximum(disc, 0.0)))
    mu2 = p0 / mu1  # Vieta; avoids cancellation in (-p2 + sq)/2
    if not masks:
        return mu1, mu2, None
    zero_root = np.abs(p0) <= DEGENERACY_TOL * np.maximum(1.0, np.abs(p2))
    repeated = ~zero_root & (np.abs(disc) <= DEGENERACY_TOL * scale)
    if zero_root.any() or repeated.any():
        mu1 = np.where(zero_root, -p2, np.where(repeated, -0.5 * p2, mu1))
        mu2 = np.where(zero_root, 0.0, np.where(repeated, mu1, mu2))
    return mu1, mu2, repeated


@dataclass(frozen=True)
class ModeBasis:
    """Roots of the quadratic in lam^2 at one trial K, for the solution basis.

    ``repeated`` marks a repeated root, where the support-adapted columns
    take their mu-derivative limit.
    """

    mu1: float  # always <= -1: trigonometric pair
    mu2: float  # > 0 hyperbolic, 0 polynomial, < 0 trigonometric
    repeated: bool = False

    def support_rows(self, x, ref, nrows: int = 4) -> np.ndarray:
        """Derivatives in ``x`` of the two support-adapted columns, shape (..., nrows, 2).

        ``x`` is the distance from a support, ``ref`` the segment's length;
        the leading shape is theirs, broadcast against each other. Column 1
        is o(mu1, x). Column 2 is o(mu2, x)/cosh(a2*ref) where mu2 > 0 (at
        x = ref: tanh(a2*ref)/a2 and 1), else the divided difference
        (o(mu2, x) - o(mu1, x))/(mu2 - mu1), d o/d mu at the repeated root.
        Both keep the sign of the determinant of (o(mu1), o(mu2)), vanish
        with their second derivative at x = 0 and are bounded for x <= ref.
        """
        if not 1 <= nrows <= 4:
            raise ValueError("nrows must be between 1 and 4")
        x, ref = np.broadcast_arrays(x, ref)
        mu1, mu2 = self.mu1, self.mu2
        a1 = math.sqrt(-mu1)
        e1, o1 = np.cos(a1 * x), np.sin(a1 * x) / a1
        if mu2 > 0.0:
            a = math.sqrt(mu2)
            # cosh(a*x) and sinh(a*x)/a over cosh(a*ref): bounded for x <= ref,
            # and exact (expm1) where a*x is small.
            decay = np.exp(a * (x - ref)) / (1.0 + np.exp(-2.0 * a * ref))
            e, o = (1.0 + np.exp(-2.0 * a * x)) * decay, -np.expm1(-2.0 * a * x) * decay / a
            second = _odd_derivatives(mu2, e, o, nrows)
        else:
            # Divided differences D[f] = (f(mu2) - f(mu1)) / (mu2 - mu1), which
            # are d f/d mu at a repeated root; D[mu*f] = f(mu2) + mu1*D[f].
            e2, o2 = _trig_pair(mu2, x)
            if self.repeated:
                de, do = _repeated_pair(mu1, x, e1, o1)
            else:
                de, do = (e2 - e1) / (mu2 - mu1), (o2 - o1) / (mu2 - mu1)
            second = [do, de, o2 + mu1 * do, e2 + mu1 * de][:nrows]
        table = np.array([_odd_derivatives(mu1, e1, o1, nrows), second])
        return np.moveaxis(table, (0, 1), (-1, -2))


def quartic_roots(K: float, eta_nd: float) -> ModeBasis:
    """Solve lam^4 + p2 lam^2 + p0 = 0, p2 = 2 + K*eta_nd and p0 = 1 - K, at one K.

    The branch follows the sign of the lam^2 roots; :func:`_lam2_roots`
    resolves the zero-root and repeated-root degeneracies, as for
    :func:`det_sign_logmag`. Raises ValueError for an array K or eta_nd.
    """
    if np.ndim(K) or np.ndim(eta_nd):
        raise ValueError("quartic_roots takes one trial eigenvalue K and one eta_nd")
    K = _checked(K, eta_nd)[0]
    mu1, mu2, repeated = _lam2_roots(2.0 + K * eta_nd, 1.0 - K)
    return ModeBasis(mu1=float(mu1), mu2=float(mu2), repeated=bool(repeated))


def _odd_derivatives(mu, e, o, nrows: int) -> list:
    """Derivatives 0..nrows-1 of the odd function o of a pair with o' = e and e' = mu*o."""
    return [o, e, mu * o, mu * e][:nrows]


def _trig_pair(mu: float, phi) -> tuple:
    """The pair (e, o) of a root mu <= 0: cos(a*phi) and sin(a*phi)/a, or 1 and phi at 0."""
    a = math.sqrt(-mu)
    t = a * phi
    return np.cos(t), phi if mu == 0.0 else np.sin(t) / a


def _repeated_pair(mu, phi, e, o) -> tuple:
    """(g, h) = (d e/d mu, d o/d mu) at a repeated root, given e and o there."""
    g = 0.5 * phi * o
    # Series for h; direct (phi*e - o)/(2 mu) cancels at small arguments.
    p2_ = phi * phi
    series = phi * p2_ / 6.0
    mupow = 1.0
    for k, fact in ((2, 120.0), (3, 5040.0), (4, 362880.0), (5, 39916800.0)):
        mupow = mupow * mu
        series = series + k * mupow * phi * p2_**k / fact
    h = np.where(np.abs(mu) * phi * phi < 0.01, series, (phi * e - o) / (2.0 * mu))
    return g, h


def assemble_cracked(
    basis: ModeBasis, beta: float, alpha: float, theta_c: float
) -> np.ndarray:
    """4x4 crack matching system in the support-adapted basis at the basis's K.

    Unknowns (c1, c2, d1, d2): X = c1*u1(phi) + c2*u2(phi) left of the crack
    and X = d1*u1(beta - phi) + d2*u2(beta - phi) right of it, where u1, u2
    are the columns of :meth:`ModeBasis.support_rows` with ref alpha on the
    left and beta - alpha on the right, so both supports hold by
    construction. Row order: X, X'' and X''' continuous at alpha, then
    X'(alpha+) - X'(alpha-) - theta_c*X''(alpha). At theta_c = 0 the rows
    enforce C3 continuity, so at any alpha the zero set in K and the null
    vectors are the uncracked arch's.
    """
    if theta_c < 0:
        raise ValueError("crack compliance must be nonnegative")
    if alpha <= SEGMENT_TOL or beta - alpha <= SEGMENT_TOL:
        raise DegenerateSegment(
            f"crack at alpha={alpha} leaves a vanishing segment of beta={beta}"
        )
    # Both segments in one evaluation.
    x = np.array([alpha, beta - alpha])
    left, right = basis.support_rows(x, x)
    # d/dphi = -d/dx right of the crack: odd derivatives change sign there.
    m = np.empty((4, 4))
    m[0, :2], m[0, 2:] = left[0], -right[0]
    m[1, :2], m[1, 2:] = left[2], -right[2]
    m[2, :2], m[2, 2:] = left[3], right[3]
    m[3, :2], m[3, 2:] = -left[1] - theta_c * left[2], -right[1]
    return m


def det_sign_logmag(K, eta_nd, beta, alpha, theta_c):
    """Sign and log-magnitude of the reduced characteristic function at trial K.

    Takes one K, giving (int, float), or an array of them, giving two arrays
    of its shape. The crack sits at ``alpha`` with compliance ``theta_c``;
    an uncracked arch is the crack of zero compliance at any alpha.
    ``eta_nd``, ``beta``, ``alpha`` and ``theta_c`` may also be arrays that
    broadcast to K's shape, which evaluates several problems in one call,
    each K with its own parameters. F is the function of the module
    docstring, with a hyperbolic pair divided by
    cosh(a2*alpha)*cosh(a2*(beta - alpha)), so it enters as tanh(a2*x)/a2
    and F stays bounded; at the repeated root the divided difference is
    S'*A - S*A', ' = d/d mu. The sign is 0 where |F| is at or below
    PIVOT_ZERO_TOL of B1*B2 + |theta_c*mu1*mu2*(divided difference)|, B
    being 1/a for a trigonometric pair, beta for mu2 = 0 and the scaled S2
    for a hyperbolic pair: at theta_c = 0 with two trigonometric pairs,
    |sin(a1*beta)*sin(a2*beta)| <= PIVOT_ZERO_TOL.
    """
    stacked = (
        isinstance(eta_nd, np.ndarray)
        or isinstance(beta, np.ndarray)
        or isinstance(alpha, np.ndarray)
        or isinstance(theta_c, np.ndarray)
    )
    if _any(beta <= 0):
        raise ValueError("central angle must be positive")
    if _any(theta_c < 0):
        raise ValueError("crack compliance must be nonnegative")
    degenerate = (alpha <= SEGMENT_TOL) | (beta - alpha <= SEGMENT_TOL)
    if _any(degenerate):
        if stacked:  # the first offending problem
            alpha, beta, degenerate = np.broadcast_arrays(alpha, beta, degenerate)
            alpha, beta = float(alpha[degenerate][0]), float(beta[degenerate][0])
        raise DegenerateSegment(
            f"crack at alpha={alpha} leaves a vanishing segment of beta={beta}"
        )
    K, k_lo, k_hi, eta_hi = _checked(K, eta_nd)
    # _lam2_roots builds its masks only if a K may lie in a window, for eta's
    # largest value in a stack; ``wide`` (2 tol) covers rounding. Zero root:
    # |1 - K| <= tol*(2 + K*eta), as p2 >= 2, and the ratio grows with |1 - K| on
    # both sides of 1 and falls with eta, so it is >= d/(2 + (1 + d)*eta_hi) for d
    # the least |1 - K|. Repeated root: |disc| <= tol*p2^2, but disc - tol*p2^2 >=
    # 4*(K - tol) as disc = K*(4 + 4 eta + K eta^2).
    p0, wide = 1.0 - np.atleast_1d(K), 2.0 * DEGENERACY_TOL
    masks = k_lo <= wide
    if not masks:
        d = k_lo - 1.0 if k_lo > 1.0 else 1.0 - k_hi if k_hi < 1.0 else np.abs(p0).min()
        masks = d <= wide * (2.0 + (1.0 + d) * eta_hi)
    mu1, mu2, repeated = _lam2_roots(2.0 + K * eta_nd, p0, masks)
    # The branch of mu2, decided once. Outside the windows mu2 = p0/mu1 is
    # nonzero with the sign of -p0 (mu1 < 0): hyperbolic (True) for every K
    # above 1, trigonometric (False) for every K below it, else per value. Only
    # a window snaps a mu2 to 0 (``zero``).
    if masks:
        hyp, zero = mu2 > 0.0, mu2 == 0.0
    else:
        hyp, zero = True if k_lo > 1.0 else False if k_hi < 1.0 else p0 < 0.0, None
    per_value = isinstance(hyp, np.ndarray)
    a1 = np.sqrt(-mu1)
    if per_value:
        a2 = np.sqrt(np.abs(mu2) if zero is None else np.where(zero, 1.0, np.abs(mu2)))
    else:
        a2 = np.sqrt(mu2 if hyp else -mu2)

    def o2(x):
        # tanh(a2*x)/a2 is o(mu2, x)/cosh(a2*x); x itself at mu2 = 0.
        t = a2 * x
        if not per_value:
            return (np.tanh(t) if hyp else np.sin(t)) / a2
        o = np.tanh(t)
        np.sin(t, out=o, where=~hyp)  # at the trigonometric values only
        o /= a2
        return o if zero is None else np.where(zero, x, o)

    # beta, alpha and gamma as the rows of one array, so each function of
    # them runs once; o2 at beta is needed only where mu2 <= 0.
    if stacked:
        x = np.empty((3, *np.broadcast(beta, alpha, mu1).shape))
        x[0], x[1], x[2] = beta, alpha, beta - alpha
    else:
        x = np.array([[beta], [alpha], [beta - alpha]])
    s1, o_a, o_g = np.sin(a1 * x) / a1
    *s_b, t_a, t_g = o2(x[1:] if hyp is True else x)
    if per_value:
        s2 = np.where(hyp, t_a + t_g, s_b[0])
    else:
        s2 = t_a + t_g if hyp else s_b[0]
    # In a stack, a problem with theta_c = 0 gets a zero term here, which
    # leaves its F and sign as those of the scalar call.
    extra = 0.0
    if _any(theta_c > 0.0):
        r = repeated if repeated is not None and repeated.any() else None
        gap = mu1 - mu2 if r is None else np.where(r, 1.0, mu1 - mu2)
        dd = (s1 * t_a * t_g - s2 * o_a * o_g) / gap
        if r is not None:
            # S'*A - S*A' with h = d o/d mu at beta, alpha and gamma.
            xr = x[:, r] if stacked else x
            t = a1[r] * xr
            _, h = _repeated_pair(mu1[r], xr, np.cos(t), np.sin(t) / a1[r])
            o_a, o_g = o_a[r], o_g[r]
            dd[r] = h[0] * o_a * o_g - s1[r] * (h[1] * o_g + o_a * h[2])
        extra = theta_c * mu1 * mu2 * dd
    f = s1 * s2 + extra
    if per_value:
        b2 = np.where(hyp, s2, 1.0 / a2 if zero is None else np.where(zero, beta, 1.0 / a2))
    else:
        b2 = s2 if hyp else 1.0 / a2
    size = np.abs(f)
    sign = np.where(size <= PIVOT_ZERO_TOL * (b2 / a1 + np.abs(extra)), 0, np.sign(f).astype(int))
    with np.errstate(divide="ignore"):
        logmag = np.log(size)
    if np.ndim(K) == 0 and not stacked:
        return int(sign[0]), float(logmag[0])
    return sign, logmag


# _KEEP[i] lists the indices other than i: the rows or columns of a 3x3 minor.
_KEEP = np.array([[j for j in range(4) if j != i] for i in range(4)])
_COFACTOR_SIGN = (-1.0) ** np.add.outer(np.arange(4), np.arange(4))


def null_vector(matrix) -> np.ndarray:
    """Null vector of one 4x4 matrix of rank 3, its largest component exactly 1.

    The rows are scaled to unit max norm, and the vector is the row of
    cofactors (a column of the adjugate) with the largest max-abs: A times
    the cofactors of its row i is det(A) in entry i and 0 elsewhere, so at
    rank 3 every nonzero row of cofactors spans the null space. The
    3x3 minors are elementwise float products and sums, not LAPACK or
    matmul, so their bits do not depend on the BLAS build. Raises ValueError
    for non-finite entries and for rank below 3, where every cofactor is 0.
    """
    a = np.array(matrix, dtype=float)
    if a.shape != (4, 4):
        raise ValueError(f"null_vector takes one 4x4 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    scale = np.abs(a).max(axis=1)
    a = a / np.where(scale == 0.0, 1.0, scale)[:, None]
    m = a[_KEEP[:, None, :, None], _KEEP[None, :, None, :]]  # minor (i, j) at [i, j]
    minors = (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )
    cofactors = _COFACTOR_SIGN * minors
    row = cofactors[np.abs(cofactors).max(axis=1).argmax()]
    largest = row[np.abs(row).argmax()]
    if largest == 0.0:
        raise ValueError("matrix rank is below 3: every cofactor is 0, no unique null vector")
    return row / largest
