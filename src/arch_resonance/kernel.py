"""Characteristic roots, mode-shape basis and boundary determinant.

The transverse vibration of the arch reduces to the fourth-order equation

    X'''' + (2 + K*eta) X'' + (1 - K) X = 0,       K = omega^2 mu R^4 / (E I),

whose exponential ansatz gives the bi-quadratic lam^4 + p2 lam^2 + p0 = 0 with
p2 = 2 + K*eta and p0 = 1 - K. This module builds the support-adapted
fundamental solutions at a trial K, evaluates their derivatives analytically,
assembles the crack matching matrix whose null vector gives a cracked mode
shape, and evaluates the boundary determinant in closed form, as the reduced
characteristic function whose sign changes bracket the eigenvalues.

One form of F
-------------
:func:`det_sign_logmag_at` evaluates the reduced characteristic function at
one float K with ``math`` on floats, in about 2 us (Python 3.11, shared
2-core x86-64 VM). It serves every value the root search takes: the grid
scan's nodes, one at a time, Brent refinement and a mode shape's polish. It
alone holds F's degenerate cases: a zero root, a repeated root and a crack
term past the float range. The matching path (:func:`quartic_roots`,
:class:`ModeBasis`, :func:`assemble_cracked`, :func:`null_vector`) shapes
one cracked mode at its K, and it alone imports numpy: a search loads none.

The kernel checks none of its input: callers pass valid problems, which
:class:`model.ArchProblem` checks, and finite K >= 0 (the solver's own grid
nodes and brackets, or a root :func:`solver.mode_shape` checks). Only
:func:`null_vector` checks what it computes: a non-finite matrix or one of
rank below 3.

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

at theta_c = 0, F = S1*S2, the uncracked arch's function at any alpha.
:func:`det_sign_logmag_at` evaluates F with no matrix. Its sign is that of
the determinant of the matching matrix, so both change sign at the same K.
A cracked mode shape's coefficients are the null vector of the matching
matrix at its root (:func:`null_vector`). The solver
needs none of this for an uncracked arch: its K_n and shapes
sin(n*pi*phi/beta) are closed forms (:func:`model.uncracked_K_closed_form`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Degeneracy window for branch switching (see _lam2_roots_at).
DEGENERACY_TOL = 1e-10
# |F| at or below this fraction of its scale zeroes the sign (det_sign_logmag_at).
PIVOT_ZERO_TOL = 1e-13


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
        import numpy as np
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
                de, series, direct, small = _repeated_pair(mu1, x, e1, o1)
                do = np.where(small, series, direct)
            else:
                de, do = (e2 - e1) / (mu2 - mu1), (o2 - o1) / (mu2 - mu1)
            second = [do, de, o2 + mu1 * do, e2 + mu1 * de][:nrows]
        table = np.array([_odd_derivatives(mu1, e1, o1, nrows), second])
        return np.moveaxis(table, (0, 1), (-1, -2))


def quartic_roots(K: float, eta_nd: float) -> ModeBasis:
    """Solve lam^4 + p2 lam^2 + p0 = 0, p2 = 2 + K*eta_nd and p0 = 1 - K, at one K.

    The branch follows the sign of the lam^2 roots; :func:`_lam2_roots_at`
    resolves the zero-root and repeated-root degeneracies, as for
    :func:`det_sign_logmag_at`.
    """
    return ModeBasis(*_lam2_roots_at(float(K), float(eta_nd)))


def _lam2_roots_at(K: float, eta_nd: float) -> tuple:
    """Roots mu1 <= mu2 of mu^2 + p2 mu + p0 at one K >= 0 and eta_nd >= 0: (mu1, mu2, repeated).

    p2 = 2 + K*eta_nd and p0 = 1 - K. With tol = ``DEGENERACY_TOL``, a root
    within about tol of zero, |p0| <= tol*p2, is snapped to exactly 0, and a
    pair whose discriminant is within tol*p2^2 of zero to -p2/2, ``repeated``
    then True. The zero-root window scales with p2, not p2^2: mu2 is about
    -p0/p2, and at large K*eta a window in p2^2 would snap an O(1)
    hyperbolic root to 0. For K >= 0 and eta >= 0, p2 >= 2, so
    disc = fl(p2^2) - 4 fl(1 - K) >= 4 - 4 = 0 in floating point too.
    """
    p2, p0 = 2.0 + K * eta_nd, 1.0 - K
    square = p2 * p2
    disc = square - 4.0 * p0
    if abs(p0) <= DEGENERACY_TOL * p2:
        return -p2, 0.0, False
    if abs(disc) <= DEGENERACY_TOL * square:
        return -0.5 * p2, -0.5 * p2, True
    mu1 = -0.5 * (p2 + math.sqrt(disc))
    return mu1, p0 / mu1, False


def _odd_derivatives(mu, e, o, nrows: int) -> list:
    """Derivatives 0..nrows-1 of the odd function o of a pair with o' = e and e' = mu*o."""
    return [o, e, mu * o, mu * e][:nrows]


def _trig_pair(mu: float, phi) -> tuple:
    """The pair (e, o) of a root mu <= 0: cos(a*phi) and sin(a*phi)/a, or 1 and phi at 0."""
    import numpy as np
    a = math.sqrt(-mu)
    return np.cos(a * phi), phi if mu == 0.0 else np.sin(a * phi) / a


def _repeated_pair(mu, phi, e, o) -> tuple:
    """(g, series, direct, small) at a repeated root, given e and o there: g = d e/d mu, and
    h = d o/d mu is series where small, else direct, as the caller selects (np.where or if)."""
    g = 0.5 * phi * o
    # Series for h; direct (phi*e - o)/(2 mu) cancels at small arguments.
    p2_ = phi * phi
    series = phi * p2_ / 6.0
    mupow = 1.0
    for k, fact in ((2, 120.0), (3, 5040.0), (4, 362880.0), (5, 39916800.0)):
        mupow = mupow * mu
        series = series + k * mupow * phi * p2_**k / fact
    return g, series, (phi * e - o) / (2.0 * mu), abs(mu) * phi * phi < 0.01


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
    import numpy as np
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


def det_sign_logmag_at(K: float, eta_nd: float, beta: float, alpha: float, theta_c: float):
    """Sign and log-magnitude of the reduced characteristic function at one float K.

    The crack sits at ``alpha`` with compliance ``theta_c``; an uncracked
    arch is the crack of zero compliance at any alpha. F is the module
    docstring's, a hyperbolic pair divided by cosh(a2*alpha)*cosh(a2*gamma),
    so it enters as tanh(a2*x)/a2 and F stays bounded. The sign is 0 where
    |F| is at or below PIVOT_ZERO_TOL of B1*B2 + |theta_c*mu1*mu2*(divided
    difference)|, B being 1/a for a trigonometric pair, beta for mu2 = 0 and
    the scaled S2 for a hyperbolic pair: at theta_c = 0 with two
    trigonometric pairs, |sin(a1*beta)*sin(a2*beta)| <= PIVOT_ZERO_TOL.
    F's degenerate cases are a zero or repeated root (:func:`_lam2_roots_at`;
    at the latter the divided difference is S'*A - S*A', ' = d/d mu) and a
    crack term past the float range, kept as its log.
    """
    mu1, mu2, repeated = _lam2_roots_at(K, eta_nd)
    a1 = math.sqrt(-mu1)
    gamma = beta - alpha
    s1 = math.sin(a1 * beta) / a1
    o_a, o_g = math.sin(a1 * alpha) / a1, math.sin(a1 * gamma) / a1
    if mu2 > 0.0:  # over cosh(a2*alpha)*cosh(a2*gamma)
        a2 = math.sqrt(mu2)
        t_a, t_g = math.tanh(a2 * alpha) / a2, math.tanh(a2 * gamma) / a2
        s2 = b2 = t_a + t_g
    elif mu2 == 0.0:
        t_a, t_g, s2, b2 = alpha, gamma, beta, beta
    else:
        a2 = math.sqrt(-mu2)
        t_a, t_g = math.sin(a2 * alpha) / a2, math.sin(a2 * gamma) / a2
        s2, b2 = math.sin(a2 * beta) / a2, 1.0 / a2
    extra = 0.0
    if theta_c > 0.0:
        if repeated:
            h_b, h_a, h_g = (series if small else direct for _, series, direct, small in (
                _repeated_pair(mu1, beta, math.cos(a1 * beta), s1),
                _repeated_pair(mu1, alpha, math.cos(a1 * alpha), o_a),
                _repeated_pair(mu1, gamma, math.cos(a1 * gamma), o_g)))
            num, gap = h_b * o_a * o_g - s1 * (h_a * o_g + o_a * h_g), 1.0
        else:
            num, gap = s1 * t_a * t_g - s2 * o_a * o_g, mu1 - mu2
        # The zero-root window's mu2 of 0 would zero the crack term, whose root
        # a large theta_c puts there: its factor mu2 is (1 - K)/mu1 (Vieta).
        if not mu2:
            mu2 = (1.0 - K) / mu1
        # theta_c*mu1*mu2 may overflow while num/gap underflows to 0, and inf*0
        # is NaN: there the factors are regrouped, theta_c*num and mu1/gap*mu2
        # = q each in range. A NaN left is inf*0 at q = 0, a crack term of 0;
        # past the float range even so, F is the crack term, kept as its log.
        extra = theta_c * mu1 * mu2 * (num / gap)
        if not abs(extra) < math.inf:
            q = mu1 / gap * mu2
            extra = theta_c * num * q
            if extra != extra:
                extra = 0.0
            elif abs(extra) == math.inf:
                log = math.log(theta_c) + math.log(abs(num)) + math.log(abs(q))
                return (1 if (num > 0.0) == (q > 0.0) else -1), log
    f = s1 * s2 + extra
    size = abs(f)
    if size <= PIVOT_ZERO_TOL * (b2 / a1 + abs(extra)):
        return 0, math.log(size) if size else -math.inf
    return (1 if f > 0.0 else -1), math.log(size)


# Largest |cofactor| of a row-scaled matrix at or below which null_vector
# takes its rank as below 3. At a polished cracked root, 9300 seeded simple
# roots read 0.069 or more, and double roots about 2.5e-10, up to 1.4e-8 at
# eta = 10.
_RANK_TOL = 1e-6
# _KEEP[i] lists the indices other than i: the rows or columns of a 3x3 minor.
_KEEP = [[j for j in range(4) if j != i] for i in range(4)]
_COFACTOR_SIGN = [[(-1.0) ** (i + j) for j in range(4)] for i in range(4)]


def null_vector(matrix) -> np.ndarray:
    """Null vector of one 4x4 matrix of rank 3, its largest component exactly 1.

    The rows are scaled to unit max norm, and the vector is the row of
    cofactors (a column of the adjugate) with the largest max-abs: A times
    the cofactors of its row i is det(A) in entry i and 0 elsewhere, so at
    rank 3 every nonzero row of cofactors spans the null space. The
    3x3 minors are elementwise float products and sums, not LAPACK or
    matmul, so their bits do not depend on the BLAS build. Raises ValueError
    for non-finite entries, and its subclass ``numpy.linalg.LinAlgError`` for
    rank below 3: no cofactor larger than ``_RANK_TOL`` in magnitude, where a
    vector picked from the rounding of a null plane would be arbitrary.
    """
    import numpy as np
    keep = np.array(_KEEP)
    a = np.array(matrix, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    scale = np.abs(a).max(axis=1)
    a = a / np.where(scale == 0.0, 1.0, scale)[:, None]
    m = a[keep[:, None, :, None], keep[None, :, None, :]]  # minor (i, j) at [i, j]
    minors = (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )
    cofactors = np.array(_COFACTOR_SIGN) * minors
    row = cofactors[np.abs(cofactors).max(axis=1).argmax()]
    largest = row[np.abs(row).argmax()]
    if abs(largest) <= _RANK_TOL:
        raise np.linalg.LinAlgError(
            f"matrix rank is below 3: no cofactor exceeds {_RANK_TOL:g}, no unique null vector"
        )
    return row / largest
