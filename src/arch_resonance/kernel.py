"""Characteristic roots, mode-shape basis and boundary determinant.

The transverse vibration of the arch reduces to the fourth-order equation

    X'''' + (2 + K*eta) X'' + (1 - K) X = 0,       K = omega^2 mu R^4 / (E I),

whose exponential ansatz gives the bi-quadratic lam^4 + p2 lam^2 + p0 = 0 with
p2 = 2 + K*eta and p0 = 1 - K. This module builds the fundamental solutions
for trial K values, evaluates their derivatives analytically, assembles the
simply supported boundary (and crack matching) matrices whose null vectors
give the mode shapes, and evaluates the boundary determinant in closed form,
as the reduced characteristic function whose sign changes bracket the
eigenvalues.

Stacks
------
Every function takes either one trial K or a 1-D array of N of them. An array
gives arrays: a basis whose fields have shape (N,), boundary matrices of
shape (N, 4, 4), and N signs and log-magnitudes of the reduced characteristic
function. A scalar K is the N = 1 case of the same code. The solver evaluates
its K grid in fixed-size blocks of such stacks.

:func:`det_sign_logmag` also takes its problem parameters (eta_nd, beta,
alpha, theta_c) as arrays that broadcast to K's shape, so one call evaluates
the K values of several problems, each against its own parameters; the
solver scans and bisects the problems of a sweep this way. Every parameter
check applies to each element, and since every operation is elementwise,
each value is bit-identical to a call with that problem's scalar
parameters. Such a stack is all uncracked (``alpha=None``) or all cracked.
Scalar parameters take the scalar path, with no broadcast.

Basis conventions
-----------------
For each root mu of the quadratic in lam^2 the even/odd solution pair is

    e(mu, phi) = cos(a*phi)   or cosh(a*phi),   a = sqrt(|mu|)
    o(mu, phi) = sin(a*phi)/a or sinh(a*phi)/a

which are entire in mu (o -> phi, e -> 1 as mu -> 0), so the determinant is a
continuous function of K across branch switches. Once a hyperbolic argument
exceeds a couple of units, cosh and sinh coincide to exponential accuracy and
their columns would make the boundary matrix artificially rank-deficient;
there the pair is represented instead by the bounded decaying exponentials

    exp(-a*phi)  and  exp(a*(phi - phi_max)),

a change of basis with positive determinant (+2a*exp(-a*phi_max)), so
determinant sign changes are unaffected, every entry stays within [0, 1], and
the root signal survives at any wavenumber.

The uncracked basis is [e(mu1), o(mu1), e(mu2), o(mu2)] where mu1 is the
always-negative (trigonometric) root and mu2 carries the branch dependence.
For a repeated root the second pair is replaced by the mu-derivatives of the
first, which span the classical phi*cos/phi*sin solutions. The cracked system
is 4x4 in the support-adapted basis of :meth:`ModeBasis.support_rows`: the
odd functions of the distance from a support vanish there with X'', so one
pair per segment leaves only the four matching conditions at the crack.

Reduced characteristic function
-------------------------------
The root search needs only the sign and size of the determinant, and it
factorizes. In the support-adapted basis the X and X'' conditions at the
crack split per pair (o'' = mu*o), and the addition theorem
o(alpha)*e(gamma) + e(alpha)*o(gamma) = o(beta), gamma = beta - alpha, turns
the X''' and slope-jump rows into a 2x2 whose determinant over mu1 - mu2 is

    F = S1*S2 + theta_c*mu1*mu2*(S1*A2 - S2*A1)/(mu1 - mu2),
    S_i = o(mu_i, beta),  A_i = o(mu_i, alpha)*o(mu_i, gamma);

uncracked, F = S1*S2. :func:`det_sign_logmag` evaluates F with no matrix. Its
sign is that of the 4x4 determinant times a fixed factor (-1 uncracked, +1
cracked), so both change sign at the same K. Mode shapes still come from the
4x4 matrices through :func:`null_vector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSegment

# Degeneracy window for branch switching (see _lam2_roots).
DEGENERACY_TOL = 1e-10
# |F| at or below this fraction of its scale zeroes the sign (det_sign_logmag).
PIVOT_ZERO_TOL = 1e-13
# Minimum admissible crack segment length, rad.
SEGMENT_TOL = 1e-9
# Hyperbolic pairs switch to the decaying-exponential representation here.
_EXP_SWITCH = 2.0


@dataclass(frozen=True)
class CharCoeffs:
    """Coefficients of the characteristic bi-quadratic at trial eigenvalues.

    ``p2`` and ``p0`` are floats for a scalar K and arrays of shape (N,) for
    a K array.
    """

    p2: float | np.ndarray  # = 2 + K * eta_nd
    p0: float | np.ndarray  # = 1 - K


def characteristic_coefficients(K, eta_nd: float) -> CharCoeffs:
    """Validated p2 and p0 at one K or a K array (see :class:`CharCoeffs`)."""
    return _coefficients(K, eta_nd)


def _coefficients(K, eta_nd) -> CharCoeffs:
    if np.ndim(K):
        K = np.asarray(K, dtype=float)
    if isinstance(eta_nd, np.ndarray):
        finite = np.isfinite(eta_nd).all()
    else:
        finite = math.isfinite(eta_nd)
    if not (finite and np.isfinite(K).all()):
        raise ValueError("trial eigenvalue and nonlocal parameter must be finite")
    if np.any(K < 0):
        raise ValueError("trial eigenvalue K must be nonnegative")
    if _any(eta_nd < 0):
        raise ValueError("nonlocal parameter must be nonnegative")
    return CharCoeffs(p2=2.0 + K * eta_nd, p0=1.0 - K)


def _any(mask) -> bool:
    """Whether a parameter check fails: a Python bool, or any element of an array."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _lam2_roots(coeffs: CharCoeffs, tol: float = DEGENERACY_TOL):
    """Roots mu1 <= mu2 of mu^2 + p2 mu + p0 and the repeated-root mask, as arrays.

    A root within about ``tol`` of zero, |p0| <= tol*max(1, |p2|), is snapped
    to exactly 0, and a pair whose discriminant is within tol*max(1, p2^2) of
    zero to -p2/2. The zero-root window scales with |p2|, not p2^2: mu2 is
    about -p0/p2, and at large K*eta a window in p2^2 would snap an O(1)
    hyperbolic root to 0.
    """
    p2, p0 = np.asarray(coeffs.p2), np.asarray(coeffs.p0)
    scale = np.maximum(1.0, p2 * p2)
    disc = p2 * p2 - 4.0 * p0
    if np.any(disc < -tol * scale):
        # Not reachable for K >= 0, eta >= 0; kept as a hard guard.
        raise ValueError(f"negative discriminant for coefficients {coeffs}")

    zero_root = np.abs(p0) <= tol * np.maximum(1.0, np.abs(p2))
    repeated = ~zero_root & (np.abs(disc) <= tol * scale)
    mu1 = -0.5 * (p2 + np.sqrt(np.maximum(disc, 0.0)))
    mu2 = p0 / mu1  # Vieta; avoids cancellation in (-p2 + sq)/2
    if zero_root.any() or repeated.any():
        mu1 = np.where(zero_root, -p2, np.where(repeated, -0.5 * p2, mu1))
        mu2 = np.where(zero_root, 0.0, np.where(repeated, mu1, mu2))
    return mu1, mu2, repeated


@dataclass(frozen=True)
class ModeBasis:
    """Four fundamental solutions at trial K values with analytic derivatives.

    ``mu1``, ``mu2``, ``repeated`` and ``exp_pair`` are scalars for a scalar K
    and arrays of shape (N,) for a K array. ``repeated`` marks the
    repeated-root basis; when ``exp_pair`` is set, the hyperbolic pair is
    represented by the bounded exponentials exp(-a*phi) and
    exp(a*(phi - phi_max)).
    """

    mu1: float | np.ndarray  # always <= -1: trigonometric pair
    mu2: float | np.ndarray  # > 0 hyperbolic, 0 polynomial, < 0 trigonometric
    repeated: bool | np.ndarray = False
    exp_pair: bool | np.ndarray = False
    phi_max: float | None = None

    def derivative_rows(self, phi, nrows: int = 4) -> np.ndarray:
        """Basis-function derivatives at ``phi``, shape (..., nrows, 4).

        Row k holds the k-th derivative of each of the four functions. The
        leading shape broadcasts the K values of the basis against ``phi``:
        (nrows, 4) for a scalar K and a scalar phi.
        """
        if not 1 <= nrows <= 5:
            raise ValueError("nrows must be between 1 and 5")
        shape = np.broadcast_shapes(np.shape(self.mu1), np.shape(phi))
        return _stack_first(_derivative_table(self, phi, nrows), shape)

    def support_rows(self, x, ref, nrows: int = 4) -> np.ndarray:
        """Derivatives in ``x`` of the two support-adapted columns, shape (..., nrows, 2).

        ``x`` is the distance from a support, ``ref`` the segment's length;
        the leading shape broadcasts the K values against both. Column 1 is
        o(mu1, x). Column 2 is o(mu2, x)/cosh(a2*ref) where mu2 > 0 (at x =
        ref: tanh(a2*ref)/a2 and 1), else the divided difference
        (o(mu2, x) - o(mu1, x))/(mu2 - mu1), d o/d mu at the repeated root.
        Both keep the sign of the determinant of (o(mu1), o(mu2)), vanish
        with their second derivative at x = 0 and are bounded for x <= ref.
        """
        if not 1 <= nrows <= 4:
            raise ValueError("nrows must be between 1 and 4")
        table = _support_table(self, *np.broadcast_arrays(x, ref), nrows)
        return np.moveaxis(table, (0, 1), (-2, -1))


def quartic_roots(
    coeffs: CharCoeffs,
    tol: float = DEGENERACY_TOL,
    phi_max: float | None = None,
) -> ModeBasis:
    """Solve lam^4 + p2 lam^2 + p0 = 0 and build the solution basis.

    The branch follows the sign of the lam^2 roots; ``tol`` resolves the
    zero-root and repeated-root degeneracies (see :func:`_lam2_roots`).
    ``phi_max`` bounds the evaluation interval; pass the central angle when
    assembling boundary matrices so that large hyperbolic arguments switch to
    the well-conditioned exponential representation.
    """
    mu1, mu2, repeated = _lam2_roots(coeffs, tol)
    exp_pair = np.zeros(mu2.shape, dtype=bool)
    if phi_max is not None:
        exp_pair = np.sqrt(np.maximum(mu2, 0.0)) * phi_max > _EXP_SWITCH
    if not mu2.ndim:
        mu1, mu2 = float(mu1), float(mu2)
        repeated, exp_pair = bool(repeated), bool(exp_pair)
    return ModeBasis(
        mu1=mu1,
        mu2=mu2,
        repeated=repeated,
        exp_pair=exp_pair,
        phi_max=phi_max,
    )


def _libm(f, t) -> np.ndarray:
    """``f`` (np.cosh, np.sinh or np.exp) of real ``t``, rounded as libm rounds.

    numpy's real loops for these functions use SIMD approximations that can
    differ from the C library in the last bit; its complex loops call the C
    library, and the real part of f(x + 0j) is f(x). The last bit shows in
    outputs that cancel to rounding level, such as a mode shape's value at
    the far support.
    """
    return f(np.asarray(t, dtype=complex)).real


def _pair_rows(mu, e, o, nrows: int) -> tuple[list, list]:
    """Derivatives 0..nrows-1 of a pair with e' = mu*o and o' = e."""
    de = [e, mu * o, mu * e]
    if nrows > 3:
        mm = mu * mu
        de += [mm * o, mm * e]
    return de[:nrows], ([o] + de)[:nrows]


def _second_pair(mu, phi, nrows: int) -> tuple[list, list]:
    """Rows of the (e, o) pair of a root mu of any sign, no exponential form."""
    a = np.sqrt(np.abs(mu))
    t = a * phi
    hyp = mu > 0.0
    with np.errstate(over="ignore"):
        e, o = _libm(np.cosh, t), _libm(np.sinh, t)
    if hyp.all():
        o = o / a
    else:
        e = np.where(hyp, e, np.cos(t))
        o = np.where(hyp, o, np.sin(t)) / np.where(a == 0.0, 1.0, a)
        o = np.where(mu == 0.0, phi, o)
    return _pair_rows(mu, e, o, nrows)


def _exp_pair_rows(mu, phi, phi_max: float, nrows: int) -> tuple[list, list]:
    """Rows of the bounded exponentials exp(-a*phi), exp(a*(phi - phi_max))."""
    a = np.sqrt(mu)
    f3 = _libm(np.exp, -a * phi)
    f4 = _libm(np.exp, a * (phi - phi_max))
    d3, d4 = [f3, -a * f3, mu * f3], [f4, a * f4, mu * f4]
    if nrows > 3:
        mm = mu * mu
        d3 += [-a * mu * f3, mm * f3]
        d4 += [a * mu * f4, mm * f4]
    return d3[:nrows], d4[:nrows]


def _repeated_rows(mu, phi, e, o, nrows: int) -> tuple[list, list]:
    """Rows of (g, h) = (d e/d mu, d o/d mu) for the repeated-root basis."""
    g = 0.5 * phi * o
    # Series for h; direct (phi*e - o)/(2 mu) cancels at small arguments.
    p2_ = phi * phi
    series = phi * p2_ / 6.0
    mupow = 1.0
    for k, fact in ((2, 120.0), (3, 5040.0), (4, 362880.0), (5, 39916800.0)):
        mupow = mupow * mu
        series = series + k * mupow * phi * p2_**k / fact
    h = np.where(np.abs(mu) * phi * phi < 0.01, series, (phi * e - o) / (2.0 * mu))
    mm = mu * mu
    dg = [g, o + mu * h, e + mu * g, 2.0 * mu * o + mm * h, 2.0 * mu * e + mm * g]
    return dg[:nrows], ([h] + dg)[:nrows]


def _stack_first(table: np.ndarray, shape: tuple) -> np.ndarray:
    """View of a stack-last (r, c, M) array as (*shape, r, c)."""
    return np.moveaxis(table, -1, 0).reshape(shape + table.shape[:-1])


def _derivative_table(basis: ModeBasis, phi, nrows: int) -> np.ndarray:
    """Derivative rows as an (nrows, 4, M) array, the M broadcast K/phi last."""
    shape = np.broadcast_shapes(np.shape(basis.mu1), np.shape(phi))
    mu1, mu2, repeated, exp_pair = (
        x if np.shape(x) == shape != () else np.broadcast_to(x, shape).ravel()
        for x in (basis.mu1, basis.mu2, basis.repeated, basis.exp_pair)
    )
    phi = np.ravel(phi) if np.ndim(phi) else phi
    a1 = np.sqrt(-mu1)
    t1 = a1 * phi
    e1, o1 = np.cos(t1), np.sin(t1) / a1
    columns = list(_pair_rows(mu1, e1, o1, nrows))

    generic = ~(repeated | exp_pair)
    if generic.all():
        columns += _second_pair(mu2, phi, nrows)
    else:
        third, fourth = np.empty((2, nrows, mu2.size))
        g, x, r = generic, exp_pair, repeated
        at = (lambda m: phi[m]) if np.ndim(phi) else (lambda m: phi)
        if g.any():
            third[:, g], fourth[:, g] = _second_pair(mu2[g], at(g), nrows)
        if x.any():
            third[:, x], fourth[:, x] = _exp_pair_rows(mu2[x], at(x), basis.phi_max, nrows)
        if r.any():
            third[:, r], fourth[:, r] = _repeated_rows(mu1[r], at(r), e1[r], o1[r], nrows)
        columns += [third, fourth]
    return np.array([[c[k] for c in columns] for k in range(nrows)])


def _support_table(basis: ModeBasis, x, ref, nrows: int) -> np.ndarray:
    """Support-adapted rows as an (nrows, 2, ...) array, the broadcast K/x/ref last."""
    mu1, mu2, repeated = basis.mu1, basis.mu2, basis.repeated
    a1 = np.sqrt(-mu1)
    e1, o1 = np.cos(a1 * x), np.sin(a1 * x) / a1
    hyp = mu2 > 0.0
    a = np.sqrt(np.where(hyp, mu2, 1.0))
    # cosh(a*x) and sinh(a*x)/a over cosh(a*ref): bounded for x <= ref, and
    # exact (expm1) where a*x is small.
    decay = np.exp(a * (x - ref)) / (1.0 + np.exp(-2.0 * a * ref))
    e, o = (1.0 + np.exp(-2.0 * a * x)) * decay, -np.expm1(-2.0 * a * x) * decay / a
    second = _pair_rows(mu2, e, o, nrows)[1]
    if not np.all(hyp):
        # Divided differences D[f] = (f(mu2) - f(mu1)) / (mu2 - mu1), which
        # are d f/d mu at a repeated root; D[mu*f] = f(mu2) + mu1*D[f].
        (e2,), (o2,) = _second_pair(np.where(hyp, -1.0, mu2), x, 1)
        gap = np.where(repeated, 1.0, mu2 - mu1)
        de, do = (e2 - e1) / gap, (o2 - o1) / gap
        if np.any(repeated):
            (g,), (h,) = _repeated_rows(mu1, x, e1, o1, 1)
            de, do = np.where(repeated, g, de), np.where(repeated, h, do)
        divided = [do, de, o2 + mu1 * do, e2 + mu1 * de]
        second = [np.where(hyp, s, d) for s, d in zip(second, divided)]
    return np.array([_pair_rows(mu1, e1, o1, nrows)[1], second]).swapaxes(0, 1)


def uncracked_K_closed_form(n: int, beta: float, eta_nd: float) -> float:
    """Exact eigenvalue of the simply supported uncracked arch for mode n.

    Substituting X = sin(n*pi*phi/beta) gives
    K_n = (lam^2 - 1)^2 / (1 + eta*lam^2) with lam = n*pi/beta.
    """
    if n < 1:
        raise ValueError("mode index must be >= 1")
    if beta <= 0:
        raise ValueError("central angle must be positive")
    if eta_nd < 0:
        raise ValueError("nonlocal parameter must be nonnegative")
    lam2 = (n * math.pi / beta) ** 2
    return (lam2 - 1.0) ** 2 / (1.0 + eta_nd * lam2)


def assemble_uncracked(basis: ModeBasis, beta: float) -> np.ndarray:
    """4x4 simply supported boundary system, shape (..., 4, 4).

    Entry [..., i, j] applies boundary condition i to basis function j; the
    leading axis, when present, runs over the K values of the basis. Row
    order: [X(0), X''(0), X(beta), X''(beta)], realizing zero transverse
    displacement and zero bending moment at both supports. Where the basis
    uses the bounded exponential pair, the columns differ from the cosh/sinh
    ones by a change of basis with positive determinant, so the determinant's
    sign, and with it every sign change in K, is that of the cosh/sinh
    system.
    """
    if beta <= 0:
        raise ValueError("central angle must be positive")
    at0 = _derivative_table(basis, 0.0, 3)
    atb = _derivative_table(basis, beta, 3)
    m = np.concatenate([at0[0::2], atb[0::2]])
    return _stack_first(m, np.shape(basis.mu2))


def assemble_cracked(
    basis: ModeBasis, beta: float, alpha: float, theta_c: float
) -> np.ndarray:
    """4x4 crack matching system in the support-adapted basis, shape (..., 4, 4).

    Unknowns (c1, c2, d1, d2): X = c1*u1(phi) + c2*u2(phi) left of the crack
    and X = d1*u1(beta - phi) + d2*u2(beta - phi) right of it, where u1, u2
    are the columns of :meth:`ModeBasis.support_rows` with ref alpha on the
    left and beta - alpha on the right, so both supports hold by
    construction. Row order: X, X'' and X''' continuous at alpha, then
    X'(alpha+) - X'(alpha-) - theta_c*X''(alpha). At theta_c = 0 the rows
    enforce C3 continuity, so the zero set in K coincides with the uncracked
    system's.
    """
    if theta_c < 0:
        raise ValueError("crack compliance must be nonnegative")
    if alpha <= SEGMENT_TOL or beta - alpha <= SEGMENT_TOL:
        raise DegenerateSegment(
            f"crack at alpha={alpha} leaves a vanishing segment of beta={beta}"
        )
    # Both segments in one evaluation, the K values last.
    x = np.array([[alpha], [beta - alpha]])
    rows = _support_table(basis, x, x, 4)
    left, right = rows[:, :, 0], rows[:, :, 1]
    # d/dphi = -d/dx right of the crack: odd derivatives change sign there.
    m = np.empty((4, 4) + left.shape[2:])
    m[0, :2], m[0, 2:] = left[0], -right[0]
    m[1, :2], m[1, 2:] = left[2], -right[2]
    m[2, :2], m[2, 2:] = left[3], right[3]
    m[3, :2], m[3, 2:] = -left[1] - theta_c * left[2], -right[1]
    return _stack_first(m, np.shape(basis.mu2))


def det_sign_logmag(
    K, eta_nd: float, beta: float, alpha: float | None = None, theta_c: float = 0.0
):
    """Sign and log-magnitude of the reduced characteristic function at trial K.

    Takes one K, giving (int, float), or an array of them, giving two arrays
    of its shape. ``alpha=None`` is the uncracked arch; otherwise the crack
    sits at ``alpha`` with compliance ``theta_c``. ``eta_nd``, ``beta``,
    ``alpha`` and ``theta_c`` may also be arrays that broadcast to K's
    shape, which evaluates several problems in one call, each K with its own
    parameters; such a stack is all uncracked or all cracked. F is the function
    of the module docstring, with a hyperbolic pair divided by
    cosh(a2*alpha)*cosh(a2*(beta - alpha)) (uncracked: cosh(a2*beta)), so it
    enters as tanh(a2*x)/a2 and F stays bounded; at the repeated root the
    divided difference is S'*A - S*A', ' = d/d mu. The sign is 0 where |F|
    is at or below PIVOT_ZERO_TOL of B1*B2 + |theta_c*mu1*mu2*(divided
    difference)|, B being 1/a for a trigonometric pair, beta for mu2 = 0 and
    the scaled S2 for a hyperbolic pair: uncracked with two trigonometric
    pairs, |sin(a1*beta)*sin(a2*beta)| <= PIVOT_ZERO_TOL.
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
    if alpha is not None:
        degenerate = (alpha <= SEGMENT_TOL) | (beta - alpha <= SEGMENT_TOL)
        if _any(degenerate):
            if stacked:  # the first offending problem
                alpha, beta, degenerate = np.broadcast_arrays(alpha, beta, degenerate)
                alpha, beta = float(alpha[degenerate][0]), float(beta[degenerate][0])
            raise DegenerateSegment(
                f"crack at alpha={alpha} leaves a vanishing segment of beta={beta}"
            )
    mu1, mu2, repeated = (np.atleast_1d(v) for v in _lam2_roots(_coefficients(K, eta_nd)))
    a1 = np.sqrt(-mu1)
    hyp, zero = mu2 > 0.0, mu2 == 0.0
    all_hyp = hyp.all()
    a2 = np.sqrt(np.where(zero, 1.0, np.abs(mu2)))

    def o1(x):
        return np.sin(a1 * x) / a1

    def o2(x):
        # tanh(a2*x)/a2 is o(mu2, x)/cosh(a2*x); x itself at mu2 = 0.
        if all_hyp:
            return np.tanh(a2 * x) / a2
        return np.where(zero, x, np.where(hyp, np.tanh(a2 * x), np.sin(a2 * x)) / a2)

    s1, extra = o1(beta), 0.0
    if alpha is None:
        s2 = o2(beta)
    else:
        gamma = beta - alpha
        t_a, t_g = o2(alpha), o2(gamma)
        s2 = np.where(hyp, t_a + t_g, o2(beta))
        # In a stack, a problem with theta_c = 0 gets a zero term here, which
        # leaves its F and sign as those of the scalar call.
        if _any(theta_c > 0.0):
            o_a, o_g = o1(alpha), o1(gamma)
            dd = (s1 * t_a * t_g - s2 * o_a * o_g) / np.where(repeated, 1.0, mu1 - mu2)
            if repeated.any():
                # S'*A - S*A' with h = d o/d mu at beta, alpha and gamma.
                r = repeated
                if stacked:
                    x = np.array(np.broadcast_arrays(beta, alpha, gamma, r)[:3])[:, r]
                else:
                    x = np.array([[beta], [alpha], [gamma]])
                t = a1[r] * x
                (_,), (h,) = _repeated_rows(mu1[r], x, np.cos(t), np.sin(t) / a1[r], 1)
                o_a, o_g = o_a[r], o_g[r]
                dd[r] = h[0] * o_a * o_g - s1[r] * (h[1] * o_g + o_a * h[2])
            extra = theta_c * mu1 * mu2 * dd
    f = s1 * s2 + extra
    b2 = np.where(hyp, s2, np.where(zero, beta, 1.0 / a2))
    bound = PIVOT_ZERO_TOL * (b2 / a1 + np.abs(extra))
    sign = np.where(np.abs(f) <= bound, 0, np.sign(f).astype(int))
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(f))
    if np.ndim(K) == 0 and not stacked:
        return int(sign[0]), float(logmag[0])
    return sign, logmag


@dataclass(frozen=True)
class _Factors:
    """Row-equilibrated LU factors of a stack of N square matrices, stack last.

    ``lu[:, :, s]`` holds matrix s's unit lower factor (multipliers below the
    diagonal) and upper factor (on and above it). Step k exchanged rows k
    and ``pivot_rows[k, s]``, as in LAPACK's ipiv.
    """

    lu: np.ndarray  # (n, n, N)
    pivot_rows: np.ndarray  # (n, N)
    min_pivot: np.ndarray  # (N,) smallest scaled pivot magnitude


def _factor(matrix) -> tuple[_Factors, bool]:
    """LU with partial pivoting, vectorized over a stack, after row scaling.

    Rows are scaled to unit max norm, so pivot magnitudes are directly
    comparable to 1. The elimination loops over the columns, works on all
    matrices at once, and multiplies by the reciprocal pivot. Returns the
    factors and whether the input was a single matrix.
    """
    a = np.asarray(matrix, dtype=float)
    single = a.ndim == 2
    a = np.moveaxis(a[None] if single else a, 0, -1).copy()
    n, count = a.shape[1:]

    scale = np.abs(a).max(axis=1)  # NaN where a row holds one
    if not np.isfinite(scale).all():
        raise ValueError("matrix entries must be finite")
    a *= (1.0 / np.where(scale == 0.0, 1.0, scale))[:, None]

    rows = a.reshape(n, n * count)
    row_index = np.arange(n * count).reshape(n, count)
    pivot_rows = np.empty((n, count), dtype=int)
    pivot_rows[-1] = n - 1
    for k in range(n - 1):
        p = k + np.abs(a[k:, k]).argmax(axis=0)
        pivot_rows[k] = p
        if (p != k).any():
            row_k = a[k].copy()
            a[k] = rows[p, row_index]
            rows[p, row_index] = row_k
        piv = a[k, k]
        f = a[k + 1 :, k] * (1.0 / np.where(piv == 0.0, 1.0, piv))
        a[k + 1 :, k] = f
        a[k + 1 :, k + 1 :] -= f[:, None] * a[k, k + 1 :]

    diag = np.abs(a[np.arange(n), np.arange(n)])
    return _Factors(lu=a, pivot_rows=pivot_rows, min_pivot=diag.min(axis=0)), single


def _safe(d: np.ndarray) -> np.ndarray:
    """Pivots with magnitudes below 1e-30 replaced by +-1e-30 (+ for zero)."""
    return np.where(np.abs(d) < 1e-30, np.where(d < 0.0, -1e-30, 1e-30), d)


def null_vector(matrix):
    """Approximate null vectors of (nearly) rank-deficient matrices.

    Back-substitutes through the smallest-pivot column of the row-normalized
    LU, then applies one inverse-iteration step through the same factors and
    normalizes so the largest component is exactly 1. Returns (vector,
    smallest scaled pivot) for one matrix, or an (N, n) array of vectors and
    N pivots for a stack.
    """
    fac, single = _factor(matrix)
    lu, (n, count) = fac.lu, fac.pivot_rows.shape
    stack = np.arange(count)
    diag = lu[np.arange(n), np.arange(n)]
    pivots = _safe(diag)
    k_star = np.abs(diag).argmin(axis=0)

    # Sums run term by term in index order, not through matmul: the last bits
    # of the vector show in mode-shape values that cancel to rounding level.
    x = np.zeros((n, count))
    x[k_star, stack] = 1.0
    for i in range(n - 2, -1, -1):
        acc = np.zeros(count)
        for j in range(i + 1, n):
            acc = acc + lu[i, j] * x[j]
        x[i] = np.where(i < k_star, -acc / pivots[i], x[i])

    # One inverse-iteration step: solve (LU) z = P x.
    z = x
    for k, p in enumerate(fac.pivot_rows):
        z[k], z[p, stack] = z[p, stack], z[k].copy()
    for i in range(n):
        for j in range(i):
            z[i] -= lu[i, j] * z[j]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            z[i] -= lu[i, j] * z[j]
        z[i] /= pivots[i]

    z = (z / z[np.abs(z).argmax(axis=0), stack]).T
    if single:
        return z[0].tolist(), float(fac.min_pivot[0])
    return z, fac.min_pivot
