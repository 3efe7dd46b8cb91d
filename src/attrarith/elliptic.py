"""Weierstrass models, analytic torsion points, and the Weber function.

The curve attached to tau is y^2 = x^3 + Ax + B with A = -g2/4, B = -g3/4,
and every field and point comes from one value, lam = 2 pi i/mu, mu the
covariance factor of the fundamental-domain frame (modular._frame, the one
j uses), and from integers of the modular theta kernel at the reduced point
tau':

    A = -lam^4 E4/48,   B = lam^6 E6/864,   delta = lam^12 Delta,
    x = lam^2 X,        y = lam^3 Y/2,

with X = p/(2 pi i)^2 and Y = p'/(2 pi i)^3 at tau' (lam times the twist
scale for a twisted model).  _Frame.lam takes lam from mu's exact integers
in fixed point; its powers and their products with the kernel's integers
are exact, and each component is rounded to the model's precision once, on
the integers (modular._to_mpf), to nearest with ties to even: the bits of
mpmath's round_nearest.  The model holds the frame it was built with, so its
torsion points, Weber values and twists do not frame the point again.
delta and j = E4^3/Delta come from the kernel's Delta, as j_value does, so
neither is a difference of large terms; j is the kernel's fixed-point
quotient that j_value_with_bound forms; Jacobi's identity checks them.
Torsion points come from the Lambert form of the q-series for the
Weierstrass functions at the reduced point, taken at the model's source
point, the input exactly as the model was built from it.  Every input of
the series is a product of powers of two values, e^(2 pi i tau'/n), taken
by the frame straight from the exact integers of tau', and e^(2 pi i/n),
both in fixed point.  The Lambert sums depend on a point only through its
reduced row and, by a power of e^(2 pi i/n), through m mod n: each row sums
its terms once into n buckets, and each pair +-P folds the buckets with its
powers of e^(2 pi i/n) and adds its leading term, all on fixed-point
integers.
Quadratic twists scale (A, B, x, y) by powers of u, and the Weber function
cancels exactly that freedom: its case k comes from the reduced point's
integers, its constant is an exact quotient of the fields' integers, and
constant * x^k is formed exactly and rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import mpc_neg, to_fixed

from .errors import OutOfRange, ZeroTwist
from .modular import _cos_sin_pi, _frame, _j_pair, _mul, _quotient_pair, _sqr, _theta, _to_mpf

__all__ = [
    "WeierstrassModel",
    "TorsionPoint",
    "model_from_tau",
    "torsion_points",
    "weber_function",
    "twist_model",
]


@dataclass(frozen=True)
class WeierstrassModel:
    """y^2 = x^3 + Ax + B with its discriminant, j, source point and twist scale.

    source_tau is the input point as modular._frame took it: a QuadraticSurd,
    a BinaryQuadraticForm or an mpc exactly as given, any other value the mpc
    made of it at precision_bits.  The torsion points are taken at it.  The
    model holds the frame model_from_tau made of it (_frame, left out of
    equality and repr), so weber_case and torsion_points do not frame the
    point again and twist_model hands the frame on.
    """

    A: mp.mpc
    B: mp.mpc
    delta: mp.mpc
    j: mp.mpc
    source_tau: object
    scale: mp.mpc
    precision_bits: int
    jacobi: tuple | None = None   # Jacobi's identity: (residual, bound), see model_from_tau
    _frame: object = field(default=None, compare=False, repr=False)

    @cached_property
    def frame(self):
        """The modular._frame of source_tau at precision_bits: the one the
        model was built with, or, for a model built by hand, framed here."""
        if self._frame is not None:
            return self._frame
        return _frame(self.source_tau, self.precision_bits)

    @cached_property
    def weber_case(self):
        """(constant, k) of the Weber function constant * x^k, the constant as
        integers ((re, im), e) with value (re + im i) 2^e.

        k is the order of the stabiliser of the reduced point tau' in
        SL2(Z) over +-1, read off the exact integers (r, s, n) and disc of
        tau' = (r + s sqrt(disc))/n that modular._frame gives for source_tau:
        k = 2 at tau' = i (r = 0 and s^2 |disc| = n^2), k = 3 at rho or
        rho + 1 (2|r| = n and 4 s^2 |disc| = 3 n^2), and k = 1 otherwise.
        Aut(E) is mu_2k, so constant * x^k, with constant AB/delta, A^2/delta
        and B/delta for k = 1, 2 and 3, is the coordinate it leaves invariant.
        An mpc has Re and Im in Q, so its reduced point is never rho.  The
        constant is the exact quotient of the fields' integers floored to
        within relative 2^-(prec+32).
        """
        frame = self.frame
        r, s, n = frame.red
        ss, nn = s * s * -frame.disc, n * n
        a, b, delta = _man_exp(self.A), _man_exp(self.B), _man_exp(self.delta)
        if r == 0 and ss == nn:
            num, k = _exact_product(a, a), 2
        elif 2 * abs(r) == n and 4 * ss == 3 * nn:
            num, k = b, 3
        else:
            num, k = _exact_product(a, b), 1
        return _quotient(num, delta, max(self.precision_bits, 53) + 32), k


@dataclass(frozen=True)
class TorsionPoint:
    """Point z = (a*tau + b)/n with x = p(z), y = p'(z)/2."""

    lattice_coords: tuple
    x: mp.mpc
    y: mp.mpc


def model_from_tau(tau, prec: int = 256) -> WeierstrassModel:
    """Curve y^2 = x^3 + Ax + B of the lattice Z + Z tau, at prec bits.

    With tau' = (a tau + b)/mu the reduced point, mu = c tau + d, E4, E6 and
    Delta the theta kernel's values at tau' and lam = 2 pi i/mu:

        A = -g2/4 = -lam^4 E4/48,   B = -g3/4 = lam^6 E6/864,
        delta = -16 (4A^3 + 27B^2) = lam^12 Delta,   j = E4^3/Delta,

    as lam^4 = 16 pi^4/mu^4, lam^6 = -64 pi^6/mu^6 and
    lam^12 = (2 pi)^12/mu^12.  Neither delta nor j is formed from the
    cancelling expressions on the left, which lose about mag bits,
    2^mag = 1/|q| at tau'.  The kernel runs on the exact tau' at
    wp = prec + 104 bits at any height, and lam comes from mu's exact
    integers (_Frame.lam) within relative 2^-(wp+1), so lam^k is within relative
    e_k = (1 + 2^-(wp+1))^k - 1 < 0.51 k 2^-wp, and no point is rendered:
    source_tau is the frame's input point, so the torsion points are taken
    at the tau that A, B and j belong to.  The powers of lam and their
    products with the kernel's integers are exact, and each component of A,
    B and delta is rounded to prec bits once (A and B with their division by
    48 and 864).  Delta = q U and j = E4^3/Delta are the kernel's relative
    Delta and quotient (modular._j_pair, the pair j_value_with_bound
    certifies), and j is rounded to prec bits once; their certified bounds
    are not formed here, as the ones below hold for them.

    Bounds before that rounding, with u = 2^-F the kernel's unit:
    - delta.  The kernel's Delta = q U is within relative 370 2^-wp
      (derived for j_value_with_bound), and with e_12 < 6.2 2^-wp delta is
      within relative 2^(8.6-wp) <= 2^-(prec+95).
    - A.  E4 errs by d4 u < 55 2^-wp, so A is within
      (1 + e_4) 55 2^-wp |lam|^4/48 + e_4 |A| <= 2^-(prec+90) (|A| + L4),
      L4 = |lam|^4/48 = pi^4/(3 |mu|^4), however small E4 is.
    - B.  E6 errs by 27 err u < 297 2^-wp, so B is within
      2^-(prec+87) (|B| + L6), L6 = |lam|^6/864 = 2 pi^6/(27 |mu|^6).
    - j.  j is within 2^(10.3-wp) (1 + |j|) however high the point (derived
      for j_value_with_bound), so within 2^-(prec+93) (1 + |j|).
    Rounding each component to nearest then moves a field z by at most
    2^-prec of its modulus.  A reduced point whose mag passes 10^7 bits
    raises PrecisionExhausted (from _frame) before any computing.

    Jacobi's identity E4^3 - E6^2 = 1728 Delta checks E4, E6 and Delta = q U
    on the kernel's own integers with no second run, and is the one check on
    E6 (so on B); homogeneous and free of lam, it cannot see a wrong lam,
    power of mu or point.  The pairs e4, e6 and U' at F bits are within
    d4 = 5 err, d6 = 27 err and du = 30 err units of u, q' within 6 units of
    2^-e (q_fixed); a4, a6 and aU, |re| + |im| of each pair plus its error,
    lie above the pairs' and the exact moduli, Q = |re| + |im| of q'.  By
    x^3 - y^3 = (x - y)(x^2 + xy + y^2), x^2 - y^2 = (x - y)(x + y) and
    q'U' - qU = q'(U' - U) + (q' - q)U, R = e4^3 - e6^2 - 1728 q'U' is within
    3 a4^2 d4 2^-2F + 2 a6 d6 2^-F + 1728 (Q du + 6 aU) 2^-e + 14 units of u
    of 0, each term rounded up; the floors take 6.4 for the cube (|E4| < 3.5),
    1.5 for the square, 2.4 for q'U' (e - F >= 10) and 1.5 for its shift.
    jacobi is |R| rounded up to 2^-(F+64) and that bound, both at E4's scale.
    """
    if prec < 64:
        raise OutOfRange(f"precision must be at least 64 bits, got {prec}")
    frame = _frame(tau, prec)
    wp = prec + 104
    lam, e = frame.lam(wp)
    th = _theta(frame, wp)
    F = th.F
    (e4, d4), (e6, d6), (u, du) = th.e4_fixed(), th.e6_fixed(), th.u_fixed()
    q, de = th.q_fixed()
    dk = _mul(q, u, F)
    cube = _mul(_sqr(e4, F), e4, F)
    r0, r1 = (c - s - (1728 * d >> de - F) for c, s, d in zip(cube, _sqr(e6, F), dk))
    root = math.isqrt(n := r0 * r0 + r1 * r1 << 128)   # |R| 2^(F+64), floored
    a4, a6, au, aq = (abs(z[0]) + abs(z[1]) + d for z, d in ((e4, d4), (e6, d6), (u, du), (q, 0)))
    bound = (-(-3 * a4 * a4 * d4 >> 2 * F) - (-2 * a6 * d6 >> F)
             - (-1728 * (aq * du + 6 * au) >> de) + 14)
    l2 = _mul(lam, lam, 0)
    l4 = _mul(l2, l2, 0)
    l6 = _mul(l4, l2, 0)
    with mp.workprec(prec):
        return WeierstrassModel(
            A=_rounded(_mul(l4, e4, 0), 4 * e - F, prec, -48),
            B=_rounded(_mul(l6, e6, 0), 6 * e - F, prec, 864),
            delta=_rounded(_mul(_mul(l6, l6, 0), dk, 0), 12 * e - de, prec),
            j=_rounded(_j_pair(cube, dk, de), -F, prec),
            source_tau=frame.tau,
            scale=mp.mpc(1), precision_bits=prec,
            jacobi=(mp.make_mpf(_to_mpf(root + (root * root < n), -F - 64)),
                    mp.make_mpf(_to_mpf(bound, -F))),
            _frame=frame,
        )


def _lambert_count(ratio_bits: float, wp: int) -> int:
    """Smallest M >= 1 with 2.01 (M+1)^2 rho^(M+1) <= 2^-(wp+3), rho = 2^-ratio_bits."""
    m = max(1, math.ceil((wp + 3) / ratio_bits) - 1)   # a lower bound for M
    while 1.01 + 2 * math.log2(m + 1) - (m + 1) * ratio_bits > -(wp + 3):
        m += 1
    return m


def _lambert_table(q, count: int, F: int):
    """d_m = m/(1 - q^m) for 1 <= m <= count (d[0] unused) and T = sum (d_m - m).

    q and the results are fixed-point complex pairs with F fractional bits;
    d_m - m = m q^m/(1 - q^m), so T = sum d_m q^m.  Once q^m floors to zero
    every later power does too, and d_m = m exactly, with no division.
    """
    one = 1 << F
    qr, qi = q
    pr, pi = one, 0
    d, t0, t1 = [None], 0, 0
    for m in range(1, count + 1):
        pr, pi = (pr * qr - pi * qi) >> F, (pr * qi + pi * qr) >> F
        if not (pr or pi):
            d += [(k << F, 0) for k in range(m, count + 1)]
            break
        cr, ci = one - pr, -pi
        nrm = (cr * cr + ci * ci) >> F
        dr, di = m * ((cr << F) // nrm), m * ((-ci << F) // nrm)
        d.append((dr, di))
        t0 += dr - (m << F)
        t1 += di
    return d, (t0, t1)


def _bucket_sums(b, d, count: int, n: int, F: int):
    """Buckets k < n of sum d_m b^m and of sum m d_m b^m over 1 <= m <= count,
    bucket k holding the terms with m = k (mod n): four lists (re and im of
    each), on integers scaled by 2^(2F); b^m is floored to 2^-F, the products
    with d_m are exact."""
    br, bi = b
    pr, pi = 1 << F, 0
    s0, s1, t0, t1 = [0] * n, [0] * n, [0] * n, [0] * n
    for m in range(1, count + 1):
        pr, pi = (pr * br - pi * bi) >> F, (pr * bi + pi * br) >> F
        dr, di = d[m]
        tr, ti = dr * pr - di * pi, dr * pi + di * pr
        k = m % n
        s0[k] += tr
        s1[k] += ti
        t0[k] += m * tr
        t1[k] += m * ti
    return s0, s1, t0, t1


def _man_exp(z):
    """An mpc z as integers ((re, im), e) with z = (re + im i) 2^e."""
    (s0, m0, e0, _), (s1, m1, e1, _) = z._mpc_
    if s0:
        m0 = -m0
    if s1:
        m1 = -m1
    if not m1:
        return (m0, 0), e0
    if not m0:
        return (0, m1), e1
    e = min(e0, e1)
    return (m0 << (e0 - e), m1 << (e1 - e)), e


def _exact_product(x, y):
    """The exact product of two values ((re, im), e) held as integers."""
    return _mul(x[0], y[0], 0), x[1] + y[1]


def _quotient(x, y, bits: int):
    """x/y for values ((re, im), e) held as integers, y nonzero, as such a
    value within relative 2^-bits: x conj(y) over the norm of y."""
    ((xr, xi), ex), ((yr, yi), ey) = x, y
    q, e = _quotient_pair((xr * yr + xi * yi, xi * yr - xr * yi), yr * yr + yi * yi, bits)
    return q, e + ex - ey


def _rounded(z, e: int, prec: int, d: int = 1):
    """The mpc (re + im i) 2^e/d for an integer pair z = (re, im) and a
    nonzero integer d, each component rounded to nearest at prec bits once,
    ties to even, on the integers (modular._to_mpf): the bits of mpmath's
    round_nearest.  For d != 1 the quotient |v| 2^k // |d| is taken with
    k = prec + 3 + bits(d) - bits(v), so it has at least prec + 3 bits, and
    a nonzero remainder sets its last bit, below the guard bit: that bit
    then stands for the rest of the exact quotient, which is never a tie,
    and one rounding gives the bits of mpmath's division at round_nearest."""
    if d == 1:
        return mp.make_mpc(tuple(_to_mpf(v, e, prec) for v in z))
    out = []
    for v in z:
        k = prec + 3 + d.bit_length() - v.bit_length()
        q, r = divmod(abs(v) << k, abs(d)) if k >= 0 else divmod(abs(v), abs(d) << -k)
        if r:
            q |= 1
        out.append(_to_mpf(q if (v < 0) == (d < 0) else -q, e - k, prec))
    return mp.make_mpc(tuple(out))


def _powers(z, count: int, F: int):
    """[1, z, z^2, ..., z^count] for a fixed-point complex pair z, by products."""
    out = [(1 << F, 0), z]
    for _ in range(count - 1):
        out.append(_mul(out[-1], z, F))
    return out


class _TorsionKernel(NamedTuple):
    """The per-call tables of torsion_points, on integers scaled by 2^F: the
    powers alpha^k for k <= 3n/2 and zeta^k for k < n, the Lambert table d
    of q = alpha^n and T = sum d_m q^m."""

    n: int
    F: int
    apow: list
    zpow: list
    d: list
    t: tuple

    def row(self, ar: int, cv: int, cw: int) -> _Row:
        """The buckets of reduced row ar, with cv terms of the v sums and cw
        of the w sums: G_k = V_k + W_(-k mod n) and H_k = V'_k - W'_(-k mod n),
        floored to 2^-F, with 1/12 - 2T added to G_0."""
        n, F, apow = self.n, self.F, self.apow
        v = _bucket_sums(apow[n + ar], self.d, cv, n, F)
        # in row 0 the w sums have the v sums' base, q, and their length
        w = v if ar == 0 and cv == cw else _bucket_sums(apow[n - ar], self.d, cw, n, F)
        (v0, v1, dv0, dv1), (w0, w1, dw0, dw1) = v, w

        def fold(a, b, sign):
            return [(a[k] + sign * b[-k % n]) >> F for k in range(n)]

        g0, g1, h0, h1 = fold(v0, w0, 1), fold(v1, w1, 1), fold(dv0, dw0, -1), fold(dv1, dw1, -1)
        t0, t1 = self.t
        g0[0] += (1 << F) // 12 - 2 * t0
        g1[0] -= 2 * t1
        return _Row(self, ar, [(k, g0[k], g1[k], h0[k], h1[k]) for k in range(n)
                               if g0[k] or g1[k] or h0[k] or h1[k]])


class _Row(NamedTuple):
    """Reduced row ar of a _TorsionKernel, with (k, G_k, H_k) for every
    bucket k that is not zero, each of G_k and H_k split into re and im."""

    kernel: _TorsionKernel
    ar: int
    terms: list

    def at(self, br: int):
        """(X, Y) = (p/(2 pi i)^2, p'/(2 pi i)^3) at reduced coordinates (ar, br):
        the leading terms at u = alpha^ar zeta^br, plus sum_k zeta^(br k) G_k
        and sum_k zeta^(br k) H_k, the products summed exactly and floored once."""
        n, F, zpow = self.kernel.n, self.kernel.F, self.kernel.zpow
        x0 = x1 = y0 = y1 = 0
        for k, g0, g1, h0, h1 in self.terms:
            zr, zi = zpow[br * k % n]
            x0 += zr * g0 - zi * g1
            x1 += zr * g1 + zi * g0
            y0 += zr * h0 - zi * h1
            y1 += zr * h1 + zi * h0
        one = 1 << F
        u = _mul(self.kernel.apow[self.ar], zpow[br], F)
        cr, ci = one - u[0], -u[1]
        nrm = (cr * cr + ci * ci) >> F
        r = (cr << F) // nrm, (-ci << F) // nrm
        ur2 = _mul(u, _sqr(r, F), F)
        yr, yi = _mul(ur2, _mul((one + u[0], u[1]), r, F), F)
        return (ur2[0] + (x0 >> F), ur2[1] + (x1 >> F)), (yr + (y0 >> F), yi + (y1 >> F))


def _torsion_kernel(frame, n: int, m_max: int, wp: int) -> _TorsionKernel:
    """The tables for order n at the frame's reduced point, m_max the longest
    sum, with the fractional bits F that the torsion_points rounding bound
    sets.  alpha comes from the frame's exact integers and zeta from
    modular._cos_sin_pi at F + 8 bits, each floored to F bits from within
    0.03 units."""
    F = wp + max(3 * math.ceil(math.log2(m_max + 1)), 5 * math.ceil(math.log2(n))) + 8
    alpha = frame.expjpi(Fraction(2, n), F)
    zeta = tuple(to_fixed(v, F) for v in _cos_sin_pi(2, n, F + 8))
    apow = _powers(alpha, n + n // 2, F)
    d, t = _lambert_table(apow[n], m_max, F)
    return _TorsionKernel(n, F, apow, _powers(zeta, n - 1, F), d, t)


def torsion_points(model: WeierstrassModel, n: int) -> list[TorsionPoint]:
    """The n^2 - 1 nonzero n-torsion points, ordered by lattice coordinates.

    Coordinates (a/n, b/n) refer to the lattice of source_tau, which
    modular._frame takes exactly, as model_from_tau did: so the frame, tau'
    and mu are the ones the model's A and B came from.  Internally the
    point is moved to the reduced lattice of tau' by the unimodular change of
    basis, to reduced coordinates (ar, br) in [0, n), and evaluated there,
    then scaled back by lam = 2 pi i scale/mu: x = lam^2 X and y = lam^3 Y/2,
    X = p/(2 pi i)^2 and Y = p'/(2 pi i)^3 on the reduced lattice.

    Parity.  p is even and p' is odd, so only one point of each pair +-P is
    evaluated: the one with ar <= n/2, and br <= n/2 when ar is 0 or n/2.
    Its partner gets the same x and the negated y.  Points of order 2 are
    their own partners and are evaluated themselves.

    Lambert form.  With q = e^(2 pi i tau'), u = e^(2 pi i (ar tau' + br)/n),
    v = q u, w = q/u and d_m = m/(1 - q^m), expanding the q-product of p in
    x/(1-x)^2 = sum_m m x^m gives

        X = p/(2 pi i)^2  = 1/12 + u/(1-u)^2 + sum_{m>=1} d_m (v^m + w^m - 2 q^m),
        Y = p'/(2 pi i)^3 = u(1+u)/(1-u)^3   + sum_{m>=1} m d_m (v^m - w^m).

    Row buckets.  alpha = e^(2 pi i tau'/n), from the frame's exact
    integers, and zeta = e^(2 pi i/n) are formed once per call in fixed
    point, and every other quantity is a product of their powers: q = alpha^n,
    u = alpha^ar zeta^br, v = alpha^(n+ar) zeta^br and
    w = alpha^(n-ar) zeta^(-br).  As zeta^n = 1, each sum regroups by
    m mod n: sum d_m v^m = sum_k zeta^(br k) V_k with
    V_k = sum_{m = k mod n} d_m alpha^((n+ar) m), and likewise for the
    m-weighted sum (V'_k) and the w sums (W_k, W'_k, with zeta^(-br k)).  So
    with the row's buckets

        G_k = V_k + W_(-k mod n), plus 1/12 - 2T at k = 0,   H_k = V'_k - W'_(-k mod n),

    X = u/(1-u)^2 + sum_k zeta^(br k mod n) G_k and
    Y = u(1+u)/(1-u)^3 + sum_k zeta^(br k mod n) H_k.  The table d_m and
    T = sum d_m q^m are built once per call, the buckets once per reduced
    row ar, by one walk over the powers of alpha^(n+ar) and one over those
    of alpha^(n-ar) (in row 0 both bases are q, with the same count, and one
    walk serves both), and each point adds to its leading terms two products
    per nonzero bucket, of which there are at most min(n, cv + cw + 1), cv
    and cw the lengths of the v and w sums.  X and Y
    are formed whole on fixed-point integers and are scaled back on integers.
    After reduction |q| = x0 <= e^(-pi sqrt 3) < 0.0044, and with ar <= n/2,
    |v| = x0^(1 + ar/n) <= x0 and |w| = x0^(1 - ar/n) <= x0^(1/2) < 0.066,
    so every power stays below 1 in modulus.

    Tail.  |d_m| <= m/(1 - x0) < 1.005 m, so the m-th terms of
    sum d_m b^m and sum m d_m b^m with |b| = rho are below 1.005 m rho^m and
    1.005 m^2 rho^m.  For m >= 2 consecutive bounds shrink by a factor of at
    most (1 + 1/m)^2 rho < 1/2, so after M >= 1 terms both tails are below
    2.01 (M+1)^2 rho^(M+1).  The v sums, the w sums and T each take the
    smallest M that makes this 2^-(wp+3), with rho = |v|, |w| and x0; T is
    summed to the largest count, which only shrinks its tail.

    Rounding.  Everything runs on (re, im) integers scaled by 2^F, and is
    measured against the series at the exact alpha and zeta.  With
    eps = 2^-F, each input is floored from within 0.03 eps of exact
    (_Frame.expjpi derives it for alpha; for zeta, modular._cos_sin_pi
    floors the reduced angle to F + 8 fractional bits, which moves cos and
    sin by less than pi 2^-(F+8), and each is within one ulp, 2^-(F+8), of
    the floored angle's), so it errs by at most (sqrt(2) + 0.03) eps, and
    each truncated complex product by at most sqrt(2) eps; the bases have
    modulus at most 1, so the k-th power errs by less than
    (2 sqrt(2) + 0.03) k eps < 3k eps.  Powers up to 3n/2 of alpha and n - 1
    of zeta put u within e_u = 4.5n eps, alpha^(n+ar) within 4.5n eps and
    alpha^(n-ar) and q within 3n eps.

    The leading term needs the most, near its pole.  |1 - u| >= 2 sin(pi/n)
    >= 4/n when ar = 0, and otherwise 1 - x0^(ar/n) >= 1 - e^(-pi sqrt3 ar/n)
    >= 1.86 ar/n, as 1 - e^-s is concave on [0, pi sqrt3/2]; so
    |r| <= n/1.8 for r = 1/(1 - u).  r is the conjugate over the floored
    norm, floor-divided: the norm costs eps |r|^3, u's error e_u |r|^2 and
    the division sqrt(2) eps, so r errs by less than 1.8 n^3 eps, u r^2 by
    less than 3 n^4 eps and u r^2 (1 + u) r by less than 5 n^5 eps.

    In the sums, the reciprocal 1/(1 - q^m), formed from the conjugate and
    the truncated norm (above 0.99) by floor division, errs by less than
    6.5 eps, so d_m by less than 6.5 m eps and each product d_m b^m, taken
    exactly from the floored power b^m, by less than 5.1 m eps.  Summed over
    m <= M, M the largest count, that is at most 2.6 (M+1)^2 eps for the
    terms of d_m b^m, 1.7 (M+1)^3 eps for those of m d_m b^m and
    3.3 (M+1)^2 eps for T, however they fall into buckets.  A base that errs
    by e moves b^m by at most m |b|^(m-1) e, which with |d_m| < 1.005 m and
    |b| < 0.07 adds at most 1.4 e to the terms of d_m b^m and 1.8 e to those
    of m d_m b^m; q's error adds 1.1 e to T and 0.1 e to the other sums.
    Each bucket of G and H is floored once, sqrt(2) eps, at most n of them.
    The fold multiplies bucket k by the table's zeta^j, j = br k mod n,
    which errs by less than 3n eps (zeta^0 = 1 is exact); with
    sum_{k>=1} |G_k| <= sum_m 1.005 m (|v|^m + |w|^m) < 0.081 and
    sum_{k>=1} |H_k| < 0.092 that adds less than 0.3n eps, and the products
    are summed exactly and floored once, sqrt(2) eps.  With 1/12 (floored)
    and the leading terms, X errs by less than
    3 n^4 + 21n + 5.9 (M+1)^3 and Y by less than 5 n^5 + 17n + 3.4 (M+1)^3
    units of eps, both below (7 n^5 + 6 (M+1)^3) eps for n >= 2, so
    F = wp + max(3 ceil(log2(M+1)), 5 ceil(log2 n)) + 8 keeps both within
    13 2^-(wp+8) < 2^-(wp+4) of the truncated series; with the tails (four
    units of 2^-(wp+3) in X, two in Y) they are within 2^-wp of the exact
    series.  The 96 bits between wp and the returned precision absorb that
    and the scaling: lam is 2 pi i/mu from mu's exact integers (_Frame.lam,
    within relative 2^-(wp+1)) times the exact integers of scale, so lam^2
    and lam^3/2, exact integer products, are within relative 1.01 2^-wp and
    1.51 2^-wp of (2 pi i scale/mu)^2 and (2 pi i scale/mu)^3/2; the
    products with X and Y are exact too, and each component of x and y is
    rounded to prec once, once per pair +-P.  Rounding to nearest is
    symmetric, so the partner's -y has the bits that rounding -y itself
    would give.
    """
    if n < 2:
        raise OutOfRange(f"torsion order must be >= 2, got {n}")
    prec = model.precision_bits
    wp = prec + 96
    frame = model.frame
    lam, e = _exact_product(frame.lam(wp), _man_exp(model.scale))
    (ma, mb), (mc, md) = frame.mat
    layout = []   # (source coords, representative, sign of y)
    rows = {}     # reduced row ar -> the br of its representatives
    for a_z in range(n):
        for b_z in range(n):
            if a_z == 0 and b_z == 0:
                continue
            # row vector (a,b) times the inverse basis-change matrix
            ar = (a_z * md - b_z * mc) % n
            br = (-a_z * mb + b_z * ma) % n
            if 2 * ar > n or ((ar == 0 or 2 * ar == n) and 2 * br > n):
                rep, sign = ((-ar) % n, (-br) % n), -1
            else:
                rep, sign = (ar, br), 1
            layout.append(((a_z, b_z), rep, sign))
            rows.setdefault(rep[0], set()).add(rep[1])
    # terms of the v sums and of the w sums of each row
    counts = {ar: (_lambert_count((1 + ar / n) * frame.mag, wp),
                   _lambert_count((1 - ar / n) * frame.mag, wp)) for ar in rows}
    kernel = _torsion_kernel(frame, n, max(cw for _, cw in counts.values()), wp)
    cx = _mul(lam, lam, 0)
    cy = _mul(cx, lam, 0)
    ex, ey = 2 * e - kernel.F, 3 * e - 1 - kernel.F
    values = {}
    for ar, brs in rows.items():
        row = kernel.row(ar, *counts[ar])
        for br in brs:
            xs, ys = row.at(br)
            x, y = _rounded(_mul(cx, xs, 0), ex, prec), _rounded(_mul(cy, ys, 0), ey, prec)
            values[(ar, br)] = x, y, mp.make_mpc(mpc_neg(y._mpc_))
    fr = [Fraction(k, n) for k in range(n)]
    out = []
    for (a_z, b_z), rep, sign in layout:
        x, y, neg_y = values[rep]
        out.append(TorsionPoint(lattice_coords=(fr[a_z], fr[b_z]),
                                x=x, y=y if sign > 0 else neg_y))
    return out


def weber_function(model: WeierstrassModel, point: TorsionPoint):
    """Twist-invariant coordinate of a torsion point: constant * x^k, with the
    constant and k chosen once per model (WeierstrassModel.weber_case), the
    product formed exactly on the integers of the constant and of x and each
    component rounded to prec once."""
    (c, e), k = model.weber_case
    x, ex = _man_exp(point.x)
    for _ in range(k):
        c = _mul(c, x, 0)
    return _rounded(c, e + k * ex, max(model.precision_bits, 53))


def twist_model(model: WeierstrassModel, u) -> WeierstrassModel:
    """Quadratic-twist isomorphism (x,y) -> (u^2 x, u^3 y): A, B, delta rescale.

    The twisted model keeps the source point and its frame.  u = 0 raises
    ZeroTwist, and a u with an infinite or NaN component raises OutOfRange.
    """
    prec = model.precision_bits
    with mp.workprec(prec + 32):
        uu = mp.mpc(u)
        if not mp.isfinite(uu):
            raise OutOfRange(f"twist scale must be finite, got {uu}")
        if uu == 0:
            raise ZeroTwist("twist scale must be nonzero")
        a = model.A * uu**4
        b = model.B * uu**6
        delta = model.delta * uu**12
        scale = mp.mpc(model.scale) * uu
    with mp.workprec(prec):
        return WeierstrassModel(
            A=+a, B=+b, delta=+delta, j=model.j,
            source_tau=model.source_tau, scale=+scale, precision_bits=prec, jacobi=model.jacobi,
            _frame=model._frame,
        )
