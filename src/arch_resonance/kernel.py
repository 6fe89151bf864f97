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
one cracked mode at its K, on floats too: the module uses ``math`` alone.

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

from ._record import record
from .errors import DoubleRoot

# Degeneracy window for branch switching (see _lam2_roots_at).
DEGENERACY_TOL = 1e-10
# |F| at or below this fraction of its scale zeroes the sign (det_sign_logmag_at).
PIVOT_ZERO_TOL = 1e-13


@record
class ModeBasis:
    """Roots of the quadratic in lam^2 at one trial K, for the solution basis.

    ``repeated`` marks a repeated root, where the support-adapted columns
    take their mu-derivative limit.
    """

    mu1: float  # always <= -1: trigonometric pair
    mu2: float  # > 0 hyperbolic, 0 polynomial, < 0 trigonometric
    repeated: bool = False

    def support_rows(self, xs, ref: float, nrows: int = 4) -> list:
        """Derivatives 0..nrows-1 in x of the two support-adapted columns at the distances ``xs``.

        Row k lists, for each x of ``xs``, the pair (column 1, column 2) of
        k-th derivatives. ``x`` is the distance from a support and ``ref`` the
        segment's length. Column 1 is o(mu1, x). Column 2 is o(mu2,
        x)/cosh(a2*ref) where mu2 > 0 (at x = ref: tanh(a2*ref)/a2 and 1),
        else the divided difference (o(mu2, x) - o(mu1, x))/(mu2 - mu1), d o/d
        mu at the repeated root. Both keep the sign of the determinant of
        (o(mu1), o(mu2)), vanish with their second derivative at x = 0 and are
        bounded for x <= ref. Only the rows asked for are evaluated.
        """
        mu1, mu2 = self.mu1, self.mu2
        sin, cos, exp = math.sin, math.cos, math.exp
        a1 = math.sqrt(-mu1)
        # Rows 1 and 3 take the even functions e, and so does h at a repeated root.
        evens = nrows > 1 or self.repeated
        if mu2 > 0.0:
            a = math.sqrt(mu2)
            # cosh(a*x) and sinh(a*x)/a over cosh(a*ref): bounded for x <= ref,
            # and exact (expm1) where a*x is small.
            m, scale, expm1 = -2.0 * a, 1.0 + exp(-2.0 * a * ref), math.expm1
            odd = [(sin(a1 * x) / a1, -expm1(m * x) * (exp(a * (x - ref)) / scale) / a)
                   for x in xs]
            even = [(cos(a1 * x), (1.0 + exp(m * x)) * (exp(a * (x - ref)) / scale))
                    for x in xs] if evens else []
            rows = [odd, even, ((mu1 * u, mu2 * v) for u, v in odd),
                    ((mu1 * u, mu2 * v) for u, v in even)]
        else:
            # Divided differences D[f] = (f(mu2) - f(mu1)) / (mu2 - mu1), which
            # are d f/d mu at a repeated root; D[mu*f] = f(mu2) + mu1*D[f].
            a2 = math.sqrt(-mu2)
            o1 = [sin(a1 * x) / a1 for x in xs]
            e1 = [cos(a1 * x) for x in xs] if evens else []
            o2 = xs if mu2 == 0.0 else [sin(a2 * x) / a2 for x in xs]
            e2 = [cos(a2 * x) for x in xs] if evens else []
            if self.repeated:
                pairs = [_repeated_pair(mu1, x, e, o) for x, e, o in zip(xs, e1, o1)]
                de, do = [g for g, _ in pairs], [h for _, h in pairs]
            else:
                gap = mu2 - mu1
                de = [(u - v) / gap for u, v in zip(e2, e1)]
                do = [(u - v) / gap for u, v in zip(o2, o1)]
            rows = [zip(o1, do), zip(e1, de),
                    ((mu1 * u, w + mu1 * v) for u, v, w in zip(o1, do, o2)),
                    ((mu1 * u, w + mu1 * v) for u, v, w in zip(e1, de, e2))]
        return [list(row) for row in rows[:nrows]]


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
    disc = fl(p2^2) - 4 fl(1 - K) >= 4 - 4 = 0 in floating point too. Where
    p2^2 overflows, so does disc, and the pair is distinct: mu1 is -inf,
    beyond the kernel's range.
    """
    p2, p0 = 2.0 + K * eta_nd, 1.0 - K
    square = p2 * p2
    disc = square - 4.0 * p0
    if abs(p0) <= DEGENERACY_TOL * p2:
        return -p2, 0.0, False
    if abs(disc) <= DEGENERACY_TOL * square < math.inf:
        return -0.5 * p2, -0.5 * p2, True
    mu1 = -0.5 * (p2 + math.sqrt(disc))
    return mu1, p0 / mu1, False


def _repeated_pair(mu: float, phi: float, e: float, o: float) -> tuple:
    """(g, h) = (d e/d mu, d o/d mu) at a repeated root mu, given e and o there."""
    g = 0.5 * phi * o
    if not abs(mu) * phi * phi < 0.01:
        return g, (phi * e - o) / (2.0 * mu)
    # Series for h, where the direct (phi*e - o)/(2 mu) cancels.
    p2_ = phi * phi
    h = phi * p2_ / 6.0
    mupow = 1.0
    for k, fact in ((2, 120.0), (3, 5040.0), (4, 362880.0), (5, 39916800.0)):
        mupow = mupow * mu
        h = h + k * mupow * phi * p2_**k / fact
    return g, h


def assemble_cracked(basis: ModeBasis, beta: float, alpha: float, theta_c: float) -> list:
    """4x4 crack matching system in the support-adapted basis at the basis's K: 4 rows of floats.

    Unknowns (c1, c2, d1, d2): X = c1*u1(phi) + c2*u2(phi) left of the crack
    and X = d1*u1(beta - phi) + d2*u2(beta - phi) right of it, where u1, u2
    are the columns of :meth:`ModeBasis.support_rows` with ref alpha on the
    left and beta - alpha on the right, so both supports hold by
    construction. Row order: X, X'' and X''' continuous at alpha, then
    X'(alpha+) - X'(alpha-) - theta_c*X''(alpha). At theta_c = 0 the rows
    enforce C3 continuity, so at any alpha the zero set in K and the null
    vectors are the uncracked arch's.
    """
    # Each segment at the crack, its own ref: derivatives 0-3, each (u1, u2).
    ((l0,), (l1,), (l2,), (l3,)), ((r0,), (r1,), (r2,), (r3,)) = (
        basis.support_rows((x,), x) for x in (alpha, beta - alpha)
    )
    # d/dphi = -d/dx right of the crack: odd derivatives change sign there.
    return [
        [*l0, -r0[0], -r0[1]],
        [*l2, -r2[0], -r2[1]],
        [*l3, *r3],
        [-l1[0] - theta_c * l2[0], -l1[1] - theta_c * l2[1], -r1[0], -r1[1]],
    ]


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
            # Three plain calls: a generator naming mu1 and a1 would make them
            # closure cells, slower to read everywhere in this function.
            h_b = _repeated_pair(mu1, beta, math.cos(a1 * beta), s1)[1]
            h_a = _repeated_pair(mu1, alpha, math.cos(a1 * alpha), o_a)[1]
            h_g = _repeated_pair(mu1, gamma, math.cos(a1 * gamma), o_g)[1]
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


def null_vector(matrix) -> list:
    """Null vector of one 4x4 matrix of rank 3, its largest component exactly 1.

    The rows are scaled to unit max norm, and the vector is the row of
    cofactors (a column of the adjugate) with the largest max-abs: A times
    the cofactors of its row i is det(A) in entry i and 0 elsewhere, so at
    rank 3 every nonzero row of cofactors spans the null space. The 3x3
    minors are float products and sums in one fixed order. Raises ValueError
    for non-finite entries, and :class:`DoubleRoot` for rank below 3: no
    cofactor larger than ``_RANK_TOL`` in magnitude, where a vector picked
    from the rounding of a null plane would be arbitrary.
    """
    rows = [[float(v) for v in row] for row in matrix]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("matrix entries must be finite")
    a = []
    for row in rows:
        scale = max(map(abs, row)) or 1.0
        a.append([v / scale for v in row])
    cofactors = []
    for (i0, i1, i2), signs in zip(_KEEP, _COFACTOR_SIGN):
        r0, r1, r2 = a[i0], a[i1], a[i2]
        cofactors.append([
            sign * (
                r0[j0] * (r1[j1] * r2[j2] - r1[j2] * r2[j1])
                - r0[j1] * (r1[j0] * r2[j2] - r1[j2] * r2[j0])
                + r0[j2] * (r1[j0] * r2[j1] - r1[j1] * r2[j0])
            )
            for (j0, j1, j2), sign in zip(_KEEP, signs)
        ])
    row = max(cofactors, key=lambda r: max(map(abs, r)))
    largest = max(row, key=abs)
    if abs(largest) <= _RANK_TOL:
        raise DoubleRoot(
            f"matrix rank is below 3: no cofactor exceeds {_RANK_TOL:g}, no unique null vector"
        )
    return [v / largest for v in row]
