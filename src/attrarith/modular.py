"""Arbitrary-precision modular forms: E4, E6, Delta, j, class polynomials.

E4, E6 and Delta are evaluated in one place, the Jacobi theta kernel: after
the argument is reduced to the fundamental domain (by _frame, which the
Weierstrass models and torsion points in elliptic share, and which takes
every tau exactly: the matrix comes from arith.reduce_form on the integer
form whose root is tau, and the reduced point tau' and its covariance
factor are exact integers), three sparse theta sums of O(sqrt(bits)) terms
give all three forms, each sum with a proven geometric tail bound and a
rounding bound, inside a working precision chosen from the reduced height.
Only r = e^(pi i tau') comes from mpmath, through mpmath.libmp straight from
the integers of tau', which is never rendered; it is taken at relative
precision, and its angle is reduced exactly on those integers to at most
pi/4 and rotated back by a power of i (_cos_sin_pi, which also gives
e^(2 pi i/n) to the torsion kernel), so mpmath's cos and sin run at the
precision asked for.  The sums, their fourth powers and E4, E6 and
U = Delta/q = (S2^4 theta_3^4 theta_4^4)^2, about 1 on the fundamental
domain, run on fixed-point Python integers (the products _mul and _sqr also
serve the torsion kernel in elliptic; a square takes two integer
multiplications), each power r^n carried only to the bits that can still
reach the result.  Delta = q U with q = r^2 is then relative, and so is the
one quotient j = E4^3/(q U) (_j_pair, with its bound from _j_quotient): the
bound is 2^(10.3-wp) (1 + |j|) at any height, so one rule,
wp = p + ceil(mag) + 14 (_j_precision), puts j within 2^-p; j_value_with_bound,
the class-polynomial roots and the jval and certify gates read it, and the
Weierstrass models, bounded relative to each field, take p + 104 at any height.
The frame, which refuses a reduced point past 10^7 bits of mag, also gives
lam = 2 pi i/mu on integers (_Frame.lam), from which elliptic scales the
kernel's integers into Weierstrass models and torsion points; E4, E6 and Delta
reach users only there, as the model's A, B and Delta.  On top of j sit
Hilbert class polynomials, with one evaluation per pair of complex-conjugate
roots, each asked of j_value_with_bound with
the reduced form itself for ceil(mag) - 2 bits below its relative target
(_root_j), and the product formed on integers; and the algebraic-integer
certificate for attractor points, and the check of a cached class
polynomial, which take j at a reduced form from _root_j in the same way and
evaluate H(j) by Horner on its integers, with the bound and the verdict on
integers too (_root_residual).  Their working precision comes from Enge's
proven bound on the class-polynomial coefficients (A. Enge, Math. Comp. 78
(2009)): with |j(tau) - 1/q| <= 2079 on the fundamental domain, every
coefficient of H_D is at most C(h, h//2) * prod_forms (e^(pi sqrt|D|/a) + 2079),
so the working precision always rounds to the exact coefficients and the
rounding-residual gate stays a safety check that the bound keeps unreachable.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import (mpf_add, mpf_cos_sin_pi, mpf_exp, mpf_lt, mpf_mul,
                          mpf_neg, pi_fixed, round_nearest, to_fixed)

from .arith import BinaryQuadraticForm, QuadraticSurd, class_group_forms, reduce_form
from .attractor import AttractorPoint, ChargeData, attractor_point
from .errors import (
    InvalidDiscriminant,
    NotUpperHalfPlane,
    OutOfRange,
    PrecisionExhausted,
    RoundingFailed,
)

__all__ = [
    "JEvaluation",
    "HCPResult",
    "CMCertificate",
    "j_value",
    "j_value_with_bound",
    "hilbert_class_polynomial",
    "certify_attractor_cm",
    "hcp_record_valid",
    "load_hcp_cache",
    "store_hcp_cache",
]


def _to_mpf(v: int, e: int, prec: int | None = None):
    """The integer v times 2^e as a normalized mpf tuple (sign, man, exp, bc),
    exactly when prec is None, else rounded to nearest at prec bits with
    ties to even: the bits that mpmath gives v 2^e at prec and round_nearest.

    The rounding runs on the integers: with n = bc - prec bits to drop, the
    kept bits are v >> n, the guard bit is bit n - 1, and a set guard bit
    rounds up when the kept bits are odd or any lower bit is set (a tie
    otherwise).  Trailing zeros are then stripped, so a carry to 2^prec
    ends as the mantissa 1.
    """
    if not v:
        return 0, 0, 0, 0
    sign = 0
    if v < 0:
        sign, v = 1, -v
    if prec is not None and (n := v.bit_length() - prec) > 0:
        t = v >> (n - 1)
        up = t & 1 and (t & 2 or (v & -v).bit_length() < n)
        v = (t >> 1) + 1 if up else t >> 1
        e += n
    z = (v & -v).bit_length() - 1
    v >>= z
    return sign, v, e + z, v.bit_length()


def _from_fixed(s, F: int):
    """The fixed-point pair s as an mpc, exactly."""
    return mp.make_mpc((_to_mpf(s[0], -F), _to_mpf(s[1], -F)))


def _mul(x, y, F: int):
    """Product of two fixed-point complex pairs, each component floored to 2^-F."""
    (xr, xi), (yr, yi) = x, y
    return (xr * yr - xi * yi) >> F, (xr * yi + xi * yr) >> F


def _sqr(z, F: int):
    """z^2 in fixed point from two integer products: the same integers as
    _mul(z, z, F), since x_r^2 - x_i^2 = (x_r + x_i)(x_r - x_i) and the
    floor of 2 x_r x_i 2^-F is that of x_r x_i 2^-(F-1)."""
    xr, xi = z
    return ((xr + xi) * (xr - xi)) >> F, (xr * xi) >> (F - 1)


def _quotient_pair(num, den: int, bits: int):
    """num/den for an integer pair num and an integer den > 0, as (pair, e)
    with value pair 2^e: one floor division, after a shift that makes the
    quotient at least 2^(bits+1) in modulus (or zero), so it errs by at
    most sqrt(2) 2^-(bits+1) of its modulus."""
    k = bits + 2 + den.bit_length() - max(abs(v).bit_length() for v in num)
    if k >= 0:
        return tuple((v << k) // den for v in num), -k
    return tuple(v // (den << -k) for v in num), -k


def _fourth(z, F: int):
    """z^4 as a square squared, in fixed point."""
    return _sqr(_sqr(z, F), F)


def _cos_sin_pi(a: int, b: int, p: int):
    """cos and sin of pi a/b for integers a and b > 0, as mpfs at p bits.

    With k = floor((4a + b)/(2b)), a/b = k/2 + d and -1/4 <= d < 1/4.  d is
    floored to p fractional bits on integers, which errs by less than 2^-p,
    as flooring a/b itself would; mpmath takes cos and sin of pi d, each
    within one ulp, and the rotation by i^k that gives those of pi a/b is
    exact.  mpmath is handed d alone, never more than 1/4 in modulus: given
    an angle whose nearest half-integer lies above it, mpf_cos_sin_pi
    subtracts that half-integer into a negative mantissa, which the
    pure-Python backend's bitcount counts as 0 bits, and then works at about
    twice the precision asked for.  Do not hand it a/b unreduced.
    """
    k = (4 * a + b) // (2 * b)
    d = ((2 * a - k * b) << p) // (2 * b)
    c, s = mpf_cos_sin_pi(_to_mpf(d, -p), p, round_nearest)
    k %= 4
    if k == 1:
        return mpf_neg(s), c
    if k == 2:
        return mpf_neg(c), mpf_neg(s)
    if k == 3:
        return s, mpf_neg(c)
    return c, s


class _Theta(NamedTuple):
    """The theta kernel at a reduced point: r = e^(pi i tau') at relative
    precision, and the fourth powers behind E4, E6 and U = Delta/q, with one
    error bound.

    r is an (re, im) integer pair scaled by 2^rbits, within sqrt(2) + 0.03
    units of exact and above 2^(F+2) units in modulus (see _theta).  The
    fourth powers are (re, im) integers scaled by 2^F and err is in units of
    2^-F.  With |S2^4| < 1.018, |theta_2^4| < 1.08 and |theta_3^4|,
    |theta_4^4| < 1.7 on the fundamental domain, err >= 64 covers the products
    below, and each form's bound is first order in err with that slack,
    rounded up.
    """

    r: tuple      # r = e^(pi i tau'), scaled by 2^rbits
    rbits: int
    s2: tuple     # S2^4
    t2: tuple     # theta_2^4 = 16 r S2^4
    t3: tuple     # theta_3^4 = (1 + 2 S3)^4
    t4: tuple     # theta_4^4 = (1 + 2 S4)^4
    F: int
    terms: int
    err: int      # bounds each |computed - exact|, plus slack for combining them

    def e4_fixed(self):
        """E4 = (theta_2^8 + theta_3^8 + theta_4^8)/2 and its bound, in fixed point."""
        F = self.F
        (ar, ai), (br, bi), (cr, ci) = (_sqr(t, F) for t in (self.t2, self.t3, self.t4))
        return ((ar + br + cr) >> 1, (ai + bi + ci) >> 1), 5 * self.err

    def e6_fixed(self):
        """E6 = (theta_2^4 + theta_3^4)(theta_3^4 + theta_4^4)(theta_4^4 - theta_2^4)/2
        and its bound, in fixed point."""
        F = self.F
        (ar, ai), (br, bi), (cr, ci) = self.t2, self.t3, self.t4
        er, ei = _mul(_mul((ar + br, ai + bi), (br + cr, bi + ci), F), (cr - ar, ci - ai), F)
        return (er >> 1, ei >> 1), 27 * self.err

    def u_fixed(self):
        """U = (S2^4 theta_3^4 theta_4^4)^2 = Delta/q and its bound, in fixed point.

        Delta = (theta_2 theta_3 theta_4)^8/256 and theta_2^4 = 16 r S2^4, so
        Delta = r^2 U = q U exactly.  S2^4 is within err/2 (4.1 E + 5 in the
        terms of _theta), the other two within err, so S2^4 theta_3^4 is
        within 1.87 err + sqrt(2) and below 1.73, the triple product within
        4.91 err + 3.9 and below 2.94, and its floored square within
        28.9 err + 25 < 30 err.
        """
        F = self.F
        return _sqr(_mul(_mul(self.s2, self.t3, F), self.t4, F), F), 30 * self.err

    def q_fixed(self):
        """q = r^2 at relative precision, as (pair, e): q 2^e is within 6
        units of the integer pair, whose modulus lies between 2^(F+1) and
        2^(F+4) + 6.

        r at rbits bits is squared and floored to e = 2 rbits - F - 4
        fractional bits.  Its pair is below 2^(F+4) + 2 in modulus, as
        |r| <= 2^-h, and within 1.45 units, so that error reaches r^2 as
        1.45 (2|r| + 1.45) < 3 (|r| + 2) units of 2^-(2 rbits), less than
        3 (2^(F+4) + 4) 2^-(F+4) + sqrt(2) < 6 units of 2^-e in all.
        """
        return _sqr(self.r, self.F + 4), 2 * self.rbits - self.F - 4

    def delta(self):
        """Delta = q U at relative precision, as (pair, e, err): Delta 2^e
        is within err units of the integer pair, whose modulus lies between
        |U| 2^(F+1) and |U| 2^(F+5).

        The product of q (q_fixed, within 6 units) with U (u_fixed, within
        du units of 2^-F), floored to q's scale, errs by |q| du 2^-F for U's
        error, 6 (|U| + du 2^-F) for q's, and sqrt(2) for the floor.  |q| is
        bounded above from the integers; |U| < 8.65 on the fundamental
        domain (u_fixed), so the second part is below 52 + 12 du 2^-F.  The
        sum is rounded up.
        """
        F = self.F
        q, e = self.q_fixed()
        u, du = self.u_fixed()
        return _mul(q, u, F), e, -(-(_modulus_bounds(q)[1] + 12) * du >> F) + 56


def _modulus_bounds(z):
    """Integers at most and above the modulus of the integer pair z, each
    within a factor 1 -+ 2^-29 of it: from the top 32 bits of z's components.

    With a and b those bits, |z| 2^-k lies in [sqrt(a^2 + b^2),
    sqrt((a + 1)^2 + (b + 1)^2)], and the upper end is below
    sqrt(a^2 + b^2) + sqrt(2) < isqrt(a^2 + b^2) + 3, so one integer square
    root gives both."""
    a, b = abs(z[0]), abs(z[1])
    k = max(0, max(a, b).bit_length() - 32)
    a, b = a >> k, b >> k
    low = math.isqrt(a * a + b * b)
    return low << k, low + 3 << k


def _theta(frame: _Frame, wp: int) -> _Theta:
    """Theta kernel: the sparse sums behind E4, E6 and Delta at a reduced point.

    With r = e^(pi i tau'), S2 = sum_{n>=0} r^(n(n+1)), S3 = sum_{n>=1} r^(n^2)
    and S4 = sum_{n>=1} (-1)^n r^(n^2) are summed over n < M.  For n = 1,
    r^n and r^(n^2) are r itself and one complex product forms r^2; for each
    n >= 2, three form r^n = r^(n-1) r, r^(n^2) = r^(n(n-1)) r^n and
    r^(n(n+1)) = r^(n^2) r^n.  Every omitted term is r^k for a distinct
    k >= M^2, and M is the first count with |r|^(M^2) <= 2^-(wp+1), so each
    tail is at most |r|^(M^2)/(1-|r|).  On the fundamental domain
    Im tau' >= sqrt(3)/2 gives |r| < 0.0659, so the tail is below
    1.071 * 2^-(M^2 log2(1/|r|)), computed in floats and rounded up to whole
    ulps plus one: their relative error in the exponent is below 1e-8, and
    the factor 1.071 exceeds 1/(1 - 0.0659) by more than that.

    Rounding, in ulps u = 2^-F.  r comes from the frame's exact integers
    (_Frame.expjpi), floored once to rbits = F + 4 + h fractional bits from a
    value within 0.03 units of 2^-rbits of r at the exact tau'.  As
    |r| = 2^-L with h <= L < h + 1.01 (up to the 10^7-bit cap on mag, where
    h's margin is 0.005 bits), that pair is r at relative precision, above
    2^(F+2) units in modulus, and _Theta keeps it for Delta = r^2 U.
    Shifted down by h bits (a floor of a floor is one floor) it is 16 r at F
    bits, and further down r at any coarser scale, in each case within
    sqrt(2) + 0.03 < 1.6 units of that scale.  No other value depends on
    tau', so the kernel's bounds hold against the forms at the exact point.
    Everything else runs on (re, im) Python integers, and each floored
    product errs by at most sqrt(2) units of its own scale.  The loop's
    products take three integer multiplications each, k = y_r (x_r + x_i),
    re = k - x_i (y_r + y_i), im = k + x_r (y_i - y_r): the same integers as
    x_r y_r - x_i y_i and x_r y_i + x_i y_r, so they change no bound.

    Term n has modulus |r|^(n^2), so only its top F - n^2 L bits can reach
    u, L = log2(1/|r|), and the loop carries each power of r only that far.
    h is a whole number of bits at most L: the float L less a 10^-9 relative
    margin, far above its rounding error, floored; L > 3.92 on the domain,
    so h >= 3.  r^n is held at g_n = F + 2 - n(n-1)h fractional bits, and r
    at the same g_n.  For n >= 2, r^(n-1) sits on the finer scale
    g_(n-1) = g_n + 2(n-1)h, so its error reaches r^n in units of 2^-g_n
    shrunk by |r| 2^-6, and r^n stays within |r| 1.6 + 0.005 + sqrt(2)
    < 1.6 of exact, as r^1 = r is.  The terms r^(n^2) and r^(n(n+1)) and the
    sums stay at F bits.  By the choice of M, (M-1)^2 L < wp + 1 unless M = 2,
    so for 2 <= n < M, n(n-1)h < wp + 1 - L and g_n >= 10.  The first factor
    t of each term's product has |t| <= |r|^(n(n-1)) + 2u <= 2^-(n(n-1)h) + 2u,
    so the error of r^n reaches the product as at most 1.6 |t| 2^-g_n < 0.41 u,
    and |t| <= |r|^(n^2) + 2u makes it below 0.03 u for r^(n(n+1)).  A factor t
    within e u then gives a product within (|r|^n e + 0.41 + sqrt(2)) u.
    Starting from r^(1^2) = r within 1.6: r^(n^2) is within 2|r| + 0.41 +
    sqrt(2) < 1.96, r^(n(n+1)) within 1.96|r| + 0.03 + sqrt(2) < 1.58, so every
    power stays within 2, as it would at F bits throughout, and each sum of
    at most M terms within 2M.  The two guard bits in g_n are what keep it
    there: without them r^n's error would reach a product as up to 1.6 u.

    With E = tail + 2M the error of each sum, 1 + 2 S3 is within 2E and
    below 1.1414 in modulus, so its square squared is within
    8 (1.1414)^3 E + (2 (1.1414)^2 + 1) sqrt(2) < 12 E + 6, and the same
    holds for theta_4^4.  S2^4 is within 4.1 E + 5, and
    theta_2^4 = (16 r) S2^4 with |S2| < 1.0044 within 4.3 E + 8.
    err = 12 E + 64 covers all of them, S2^4 twice over, and the remaining
    slack covers the products that combine them into E4, E6 and U (at most
    4 ulps each).  F = wp + ceil(log2 M) + 4 keeps the rounding part of err,
    (24 M + 64) 2^-F, below (1.5 + 4/M) 2^-wp.
    """
    half_mag = frame.mag / 2   # bits in 1/|r|
    M = max(2, math.ceil(math.sqrt((wp + 1) / half_mag)))
    F = wp + (M - 1).bit_length() + 4
    h = math.floor(half_mag * (1 - 1e-9))   # whole bits, at most log2(1/|r|)
    r = frame.expjpi(1, F + 4 + h)   # r at F + 4 + h bits: F + 4 bits relative
    r16r, r16i = r16 = r[0] >> h, r[1] >> h   # 16 r at F bits, and r at F + 4
    one = 1 << F
    # n = 1: r^1 at g_1 = F + 2 bits and r^(1^2) at F bits are shifts of the one floor
    g = F + 2   # fractional bits of r^(n-1)
    nr, ni, tr, ti = r16r >> 2, r16i >> 2, r16r >> 4, r16i >> 4
    s3r, s3i, s4r, s4i = tr, ti, -tr, -ti
    k = nr * (tr + ti)
    tr, ti = (k - ti * (nr + ni)) >> g, (k + tr * (ni - nr)) >> g   # r^(1*2)
    s2r, s2i = one + tr, ti
    for n in range(2, M):
        gn = F + 2 - n * (n - 1) * h
        rr, ri = r16r >> (F + 4 - gn), r16i >> (F + 4 - gn)
        k = rr * (nr + ni)
        nr, ni = (k - ni * (rr + ri)) >> g, (k + nr * (ri - rr)) >> g   # r^n, gn bits
        g = gn
        ys, yd = nr + ni, ni - nr
        k = nr * (tr + ti)
        tr, ti = (k - ti * ys) >> g, (k + tr * yd) >> g   # r^(n^2)
        s3r += tr
        s3i += ti
        if n % 2:
            s4r -= tr
            s4i -= ti
        else:
            s4r += tr
            s4i += ti
        k = nr * (tr + ti)
        tr, ti = (k - ti * ys) >> g, (k + tr * yd) >> g   # r^(n(n+1))
        s2r += tr
        s2i += ti
    tail = math.ceil(1.071 * 2.0 ** (F - M * M * half_mag)) + 1
    s2 = _fourth((s2r, s2i), F)
    return _Theta(
        r=r,
        rbits=F + 4 + h,
        s2=s2,
        t2=_mul(r16, s2, F),
        t3=_fourth((one + 2 * s3r, 2 * s3i), F),
        t4=_fourth((one + 2 * s4r, 2 * s4i), F),
        F=F,
        terms=M,
        err=12 * (tail + 2 * M) + 64,
    )


class JEvaluation(NamedTuple):
    """j(tau) from one theta-kernel evaluation, with a certified bound on its
    absolute error and the kernel's working precision and terms per sum."""

    j: mp.mpc
    error_bound: mp.mpf
    truncation_order: int  # terms of each theta sum
    working_prec: int


# most bits from the lowest to the highest set bit of an input mpc: the exact
# frame squares integers of this size, about 0.04 s each at 2^20 bits in
# CPython 3.11, so j at a dense 2^20-bit point takes about 0.4 s in the
# fundamental domain and 1.3 s where the point needs reducing
_MAX_EXACT_BITS = 1 << 20
# most bits of mag a frame admits, and at which it evaluates anything
_MAX_FRAME_BITS = 10_000_000


def _dyadic(z):
    """A finite mpc z as integers (r, s, n) with z = (r + s i)/n, n a power of two."""
    if not mp.isfinite(z):
        raise OutOfRange(f"tau must be finite, got {z}")
    (rsign, rman, rexp, rbc), (isign, iman, iexp, ibc) = z._mpc_
    low = min(rexp, iexp, 0)
    bits = max(rexp + rbc, iexp + ibc, 1) - low
    if bits > _MAX_EXACT_BITS:
        raise PrecisionExhausted(f"tau spans {bits} bits, more than {_MAX_EXACT_BITS}")
    return ((-rman if rsign else rman) << (rexp - low),
            (-iman if isign else iman) << (iexp - low), 1 << -low)


def _require_tractable(bits: int):
    if bits > _MAX_FRAME_BITS:
        raise PrecisionExhausted(f"required working precision {bits} bits is intractable")


_IDENTITY = ((1, 0), (0, 1))


class _Frame(NamedTuple):
    """Fundamental-domain frame of an input tau, shared by j, the Weierstrass
    model and the torsion points: the reduction matrix ((a,b),(c,d)), the
    bits mag of 1/|q| at the reduced point, at most 10^7, and the reduced
    point tau' = (r + s sqrt(disc))/n as the exact integers red = (r, s, n);
    unless the matrix is the identity, also mu = c tau + d as such a triple.
    tau is the input as _frame took it: a QuadraticSurd, BinaryQuadraticForm
    or mpc exactly as given, any other value the mpc _frame made of it.

    No point is rendered: expjpi takes e^(pi i m tau') straight from red,
    and lam takes 2 pi i/mu straight from mu."""

    tau: object
    mat: tuple
    mag: float
    disc: int
    red: tuple
    mu: tuple | None

    def expjpi(self, m, bits: int):
        """e^(pi i m tau') for a rational 0 < m <= 1 (an int or a Fraction) as
        a pair of integers scaled by 2^bits, each component floored from a
        value within 0.03 units of 2^-bits of exact: within 1.03 units, and
        the pair within sqrt(2) + 0.03 in modulus.

        With tau' = (r + s sqrt(disc))/n, e^(pi i m tau') = e^(-y) (cos pi x,
        sin pi x) for x = m r/n and y = pi t, t = m s sqrt|disc|/n.  The
        modulus e^(-y) is below 2^-k, k = floor(m mag/2) less a 10^-9
        relative margin (far above the float error of mag), so each factor
        needs only p = bits + 9 - k bits, at least 16, for the product to
        reach 2^-(bits+9).  t is floored to p fractional bits from the exact
        integers, by one floor division and an integer square root of the
        quotient, which together floor once (floor(sqrt(z)) = isqrt(floor(z))
        for z >= 0): the root is taken of an integer the size of t^2 2^(2p),
        not of the input's long integers.  y = pi t takes pi with enough
        guard bits that it errs by less than 4.7 2^-p in all: that moves
        e^(-y) by less than 4.8 2^-p relative, and mpmath's exponential at
        p bits adds one ulp, 2^-(p-1).  The angle goes through _cos_sin_pi: x is split
        exactly on the integers into k/2 + d with |d| <= 1/4, d is floored
        to p fractional bits, and cos and sin of pi d are rotated by i^k,
        exactly.  That errs by pi 2^-p in the angle, as flooring x itself
        would, and mpmath's cos and sin by one ulp each, at most 2^-p, so
        the unit vector is within 4.6 2^-p.  (Handed x unreduced, mpmath
        works at about 2p bits for about half of all tau'; see _cos_sin_pi.)
        The products with the unit vector are exact, so before the floor the
        pair is within
        2^-k (6.8 + 4.6 + 10^-3) 2^-p < 12 2^-(bits+9) < 0.024 units of
        2^-bits.  Absolute error in y is what counts, so y's guard bits
        are the only ones that grow with the height.

        Raises PrecisionExhausted, before any evaluation, when bits passes
        10^7.
        """
        _require_tractable(bits)
        r, s, n = self.red
        num, den = m.numerator, m.denominator * n
        p = max(16, bits + 9 - math.floor(float(m) * self.mag / 2 * (1 - 1e-9)))
        t = math.isqrt(((num * s) ** 2 * -self.disc << 2 * p) // (den * den))
        w = max(p, t.bit_length()) + 2
        e = mpf_exp(_to_mpf(-(t * pi_fixed(w) >> w), -p), p, round_nearest)
        # not mpf_cos_sin_pi(x): for about half of all x, mpmath's pure-Python
        # cos/sin reduces x into a negative mantissa and then runs at ~2p bits
        c, sn = _cos_sin_pi(num * r, den, p)
        return to_fixed(mpf_mul(e, c), bits), to_fixed(mpf_mul(e, sn), bits)

    def lam(self, bits: int):
        """lambda = 2 pi i/mu as integers ((re, im), e), lambda = (re + im i) 2^e,
        within relative 2^-(bits+1) of exact; 2 pi i for the identity.

        With mu = (a + b sqrt(disc))/c and N = a^2 - b^2 disc = c^2 |mu|^2,
        lambda = 2 pi c (b sqrt|disc| + a i)/N.  With w = bits + 3, pi_fixed
        gives pi 2^w within 2 units and an integer square root floors
        |b| sqrt|disc| 2^w, so the numerator c (b sqrt|disc| + a i) pi 2^(2w),
        formed exactly from those two integers, errs by at most
        c 2^w (pi + 1 + 2 sqrt N) < 1.96 2^-w of its modulus, as N >= 1.  One
        floor division by N (_quotient_pair at w bits) adds at most
        sqrt(2) 2^-(w+1) relative: 2.67 2^-w < 2^-(bits+1) in all.

        Raises PrecisionExhausted, before any computing, when bits passes 10^7.
        """
        _require_tractable(bits)
        a, b, c = (1, 0, 1) if self.mu is None else self.mu
        w = bits + 3
        pi = pi_fixed(w)
        root = math.isqrt(b * b * -self.disc << 2 * w)
        num = c * pi * (root if b >= 0 else -root), c * pi * a << w
        lam, e = _quotient_pair(num, a * a - b * b * self.disc, w)
        return lam, e + 1 - 2 * w


def _frame(tau, prec: int) -> _Frame:
    """The frame of tau; the caller then picks its working precision from mag.
    A _Frame is returned as it is, so a caller that framed tau to choose its
    precision hands on the frame and tau is not framed twice.

    Every input is taken exactly as tau = (r + s sqrt(disc))/n on integers:
    a QuadraticSurd as it is, a positive definite BinaryQuadraticForm
    (a, b, c) as its root (-b + sqrt(disc))/(2a) with no surd formed (any
    other form raises NotUpperHalfPlane), an mpc as the dyadic rationals of
    its components (disc = -1), whatever its precision, and any other value
    as the mpc it makes at prec bits: prec picks no point but that one.  An
    exact rational point, such as a decimal, comes as a surd of disc -1.
    Non-finite input raises OutOfRange, an mpc spanning more than 2^20 bits
    raises PrecisionExhausted before any integer of that size is formed, and
    Im tau <= 0 raises NotUpperHalfPlane.  A point in the closed fundamental
    domain (|r| <= n/2 and r^2 - s^2 disc >= n^2) is its own reduced point,
    with the identity matrix.  Any other point is the root of the form
    f = (n^2, -2rn, r^2 - s^2 disc), of discriminant 4 n^2 s^2 disc, and
    reduce_form finds M with g = f(M) reduced.  The root
    (-g.b + 2ns sqrt(disc))/(2 g.a) of g is tau' = M^-1 tau, so the matrix
    is M^-1, and mu = c tau + d follows exactly.  A reduced point whose mag
    passes 10^7 bits, a height of about 1.1e6, raises PrecisionExhausted
    before any evaluation, and before a height of 10^7 or more turns float.
    """
    if isinstance(tau, _Frame):
        return tau
    if isinstance(tau, BinaryQuadraticForm):
        if not tau.is_positive_definite():
            raise NotUpperHalfPlane(f"form {tau} has no root in the upper half plane")
        r, s, n, disc = -tau.b, 1, 2 * tau.a, tau.disc
    elif isinstance(tau, QuadraticSurd):
        x, y, disc = tau.x, tau.y, tau.disc
        n = math.lcm(x.denominator, y.denominator)
        r, s = x.numerator * (n // x.denominator), y.numerator * (n // y.denominator)
    else:
        if not isinstance(tau, mp.mpc):
            with mp.workprec(prec):
                tau = mp.mpc(tau)
        (r, s, n), disc = _dyadic(tau), -1
    if s <= 0:
        raise NotUpperHalfPlane(f"Im tau <= 0 at tau = {tau}")
    ss, nn = s * s * -disc, n * n
    if 2 * abs(r) <= n and r * r + ss >= nn:
        mat, mu = _IDENTITY, None
    else:
        form, ((p, q), (u, v)) = reduce_form(BinaryQuadraticForm(nn, -2 * r * n, r * r + ss))
        mat, mu = ((v, -q), (-u, p)), (p * n - u * r, -u * s, n)
        r, s, n = -form.b, 2 * n * s, 2 * form.a
        ss, nn = 4 * nn * ss, n * n   # (2ns)^2 |disc| and the new n^2
    return _Frame(tau, mat, _mag(ss, nn), disc, (r, s, n), mu)


def _mag(num: int, den: int) -> float:
    """Bits of 1/|q| at the height sqrt(num/den), num = s^2 |disc| and
    den = n^2 for tau' = (r + s sqrt(disc))/n, refusing more than 10^7 bits.

    A height of 10^7 or more, num >= 10^14 den, is refused on the integers,
    so no float is formed from a huge s/n or disc; below it the height is
    the square root of one correctly rounded integer quotient."""
    if num >= 10**14 * den:
        raise PrecisionExhausted("reduced height of 10^7 or more is intractable")
    height = math.sqrt(num / den)
    if (mag := 2 * math.pi * height * math.log2(math.e)) > _MAX_FRAME_BITS:
        raise PrecisionExhausted(f"reduced height {height:g} is intractable")
    return mag


def _j_precision(frame: _Frame, prec: int) -> int:
    """The theta kernel's working precision for j within 2^-prec, from the
    frame alone; j_value_with_bound derives the ceil(mag) + 14 guard bits."""
    return prec + math.ceil(frame.mag) + 14


def _j_pair(cube, d, e: int):
    """j = E4^3/Delta as an integer pair at the scale of cube, E4^3's pair
    (two floored products of E4's, _j_quotient), from Delta's pair d at e bits
    (_Theta.delta): E4^3 conj(d)/|d|^2 times 2^e by one floor division.  A
    Delta that floored to zero raises PrecisionExhausted."""
    dr, di = d
    norm = dr * dr + di * di
    if not norm:
        raise PrecisionExhausted("cannot certify Delta away from zero")
    cr, ci = cube
    return ((cr * dr + ci * di) << e) // norm, ((ci * dr - cr * di) << e) // norm


def _j_quotient(e4, delta, F: int):
    """j = E4^3/Delta from one theta kernel's E4 (_Theta.e4_fixed) and
    Delta = q U at relative precision (_Theta.delta), F its fractional
    bits: (j, dj), j the pair of _j_pair and dj a bound on its error in
    units of 2^-F.

    E4^3 comes from two floored products at F bits, within
    d43 = 3 (A + d4)^2 d4 2^-2F + 8 units of 2^-F, A above |E4| and d4 its
    bound; the 8 covers the two floors on |E4| < 3.5.  With low = D - err
    below |Delta| 2^e, D a lower bound on the pair's modulus, and
    |a/b - A/B| <= (|a - A| + |a/b| |b - B|)/|B|:

        dj = ceil((d43 2^e + (J + 2) err)/low) + 2,

    J above the modulus of the floored j, the + 2 inside covering that
    floor, the + 2 outside it again.  The bound is computed on integers,
    every step rounded up.  low must be positive, which certifies that
    Delta does not vanish; otherwise PrecisionExhausted is raised before any
    quotient is formed.
    """
    e4, d4 = e4
    d, e, err = delta
    low = _modulus_bounds(d)[0] - err
    if not low > 0:
        raise PrecisionExhausted("cannot certify Delta away from zero")
    jr, ji = _j_pair(_mul(_sqr(e4, F), e4, F), d, e)
    # in units of 2^-F, each -(-x // y) and -(-x >> k) a ceiling
    d43 = -(-3 * (_modulus_bounds(e4)[1] + d4) ** 2 * d4 >> 2 * F) + 8
    dj = -(-((d43 << e) + (_modulus_bounds((jr, ji))[1] + 2) * err) // low) + 2
    return (jr, ji), dj


def j_value_with_bound(tau, prec: int = 256) -> JEvaluation:
    """j(tau) = E4^3/Delta plus a certified bound on its absolute error,
    below 2^-prec.

    tau is an mpc-compatible value, a QuadraticSurd, a positive definite
    BinaryQuadraticForm standing for its root (-b + sqrt(disc))/(2a), or the
    _Frame that _frame made of one of them.  _frame takes it exactly and
    fixes the matrix and the magnitude 2^mag of 1/q at the reduced point,
    with no reduction at all for a point already in the closed fundamental
    domain, such as the root of a reduced form.  The theta kernel works at
    wp = prec + ceil(mag) + 14 bits (_j_precision) and takes r straight from
    the frame's exact integers, so no point is rendered.  j is the kernel's
    quotient E4^3/(q U) at F fractional bits, with its bound (_j_quotient),
    and converts to mpc exactly.

    The bound is relative in all but E4's error.  With |q| = 2^-mag and
    u = 2^-F, the kernel's err u is below 11 2^-wp (12 tail u <= 6.5 2^-wp
    and the rounding part below 4.25 2^-wp; the kernel carries r^n at fewer
    bits than F, but keeps every power of r within 2 u, so err is what it
    would be at F bits throughout).  So E4 errs by d4 u < 55 2^-wp and U by
    du u < 330 2^-wp; with |U| > 0.9 on the fundamental domain
    (|Delta| > 0.9 |q|), Delta is within relative 370 2^-wp < 2^-(wp-9),
    less than 2^-wp of it from q's error and the floors (the 56 units of
    _Theta.delta over a pair above 1.8 2^F, with F >= wp + 5).  The cube's
    error, 3 |E4|^2 d4 u + 8 u, over |Delta| is at most
    (13.15 d4 + 569 8) u (1 + |j|) < 865 2^-wp (1 + |j|), since
    |Delta| (1 + |j|) = |q U| + |E4|^3: where |E4| >= 0.3 that is above
    0.027 and |E4|^2/(|q U| + |E4|^3) below 1/|E4| < 3.34, and |E4| < 0.3
    needs |q| > 2^-9 (below it |E4 - 1| < 0.48), where |q U| > 2^-9.2 and
    |E4|^2/(|q U| + |E4|^3) < 2^(2/3)/(3 |q U|^(1/3)) < 4.39.  In all, j
    errs by less than 2^(10.3-wp) (1 + |j|), however high the point, which
    lets a caller that needs a relative bound ask for fewer bits than an
    absolute one would take (hilbert_class_polynomial does).  With
    |j| <= 2^mag + 2079 < 10.3 2^mag on the fundamental domain (Enge 2009;
    mag >= 7.85 there), the ceil(mag) + 14 guard bits of _j_precision put
    that below 2^(-3.7-prec) (10.3 + 2^-8) < 2^-(prec+0.3).  The kernel's
    bounds hold against the forms at the exact reduced point (its r is within
    1.45 units of e^(pi i tau') at the exact tau'), so no term for the input
    is needed, for any matrix.

    The sum must lie below 2^-prec, or PrecisionExhausted is raised.  The
    quotient needs Delta certified away from zero; otherwise
    PrecisionExhausted is raised before any bound is formed.
    """
    if prec < 64:
        raise OutOfRange(f"precision must be at least 64 bits, got {prec}")
    frame = _frame(tau, prec)
    wp = _j_precision(frame, prec)
    th = _theta(frame, wp)
    F = th.F
    j, dj = _j_quotient(th.e4_fixed(), th.delta(), F)
    if not dj < 1 << (F - prec):
        raise PrecisionExhausted(
            f"j error bound {mp.nstr(mp.ldexp(dj, -F), 5)} misses 2^-{prec} target")
    return JEvaluation(
        j=_from_fixed(j, F),
        error_bound=mp.make_mpf(_to_mpf(dj, -F)),
        truncation_order=th.terms,
        working_prec=wp,
    )


def j_value(tau, prec: int = 256):
    """The modular j-invariant at tau, rounded to prec bits: within
    2^-prec (1 + |j|), the certified 2^-prec plus the final rounding."""
    ev = j_value_with_bound(tau, prec)
    with mp.workprec(prec):
        return +ev.j


def _log2_root_bound(disc: int, a: int) -> float:
    """log2(e^(pi sqrt|disc|/a) + 2079), an upper bound on log2 |j(tau)| for
    tau the root of a reduced form (a, b, c) of discriminant disc.

    Im tau = sqrt|disc|/(2a) puts 1/|q| at e^(pi sqrt|disc|/a), and Enge's
    |j - 1/q| <= 2079 holds on the whole fundamental domain.
    """
    x = math.pi * math.sqrt(-disc) / a
    return x / math.log(2) + math.log2(1 + 2079 * math.exp(-x))


def _hcp_precision(disc: int, forms) -> tuple[int, int]:
    """(coefficient bits, working precision) of the class polynomial of disc.

    B = sum_forms log2(e^(pi sqrt|D|/a) + 2079) + log2 C(h, h//2) bounds
    log2 of every coefficient (Enge 2009): the coefficient of x^(h-k) is the
    k-th elementary symmetric function of the roots, at most C(h, k) times
    the product of the root bounds, each of them >= 1.  The coefficient bits
    are ceil(B + log2(h+1)); the working precision adds 2h + 64 guard bits,
    which also absorb the floating-point error in computing B.
    """
    h = len(forms)
    bound = sum(_log2_root_bound(disc, f.a) for f in forms) + math.log2(math.comb(h, h // 2))
    coeff_bits = math.ceil(bound + math.log2(h + 1))
    return coeff_bits, coeff_bits + 2 * h + 64


@dataclass(frozen=True)
class HCPResult:
    """Class polynomial with the rounding residual that certifies it."""

    disc: int
    coeffs: tuple          # ascending degree, exact integers, monic
    residual: float
    class_number: int
    precision_bits: int


def _root_j(f, disc: int, prec: int, G: int):
    """j at the root of the reduced form f of discriminant disc, within
    2^-prec (1 + |j|), floored to an integer pair with G fractional bits.

    j_value_with_bound takes the form's integers as they are (the root
    (-b + sqrt(disc))/(2a) lies in the closed fundamental domain) and, asked
    for p' bits, works at wp = p' + ceil(mag) + 14 (_j_precision), where j
    errs by less than 2^(10.3-wp) (1 + |j|) at any height.  So p' is
    prec + 2 - ceil(mag): wp is then prec + 16 and the bound below
    2^(-5.7-prec) (1 + |j|), or 78 + ceil(mag) where p' would fall below the
    64 bits it accepts.  The certified bound b it returns must satisfy
    b (2^prec + 1) <= 1 + J 2^-G, J a lower bound on the modulus of j before
    the floor to G bits: then b <= 2^-prec (1 + |j|) for the exact j, as
    |j| >= J 2^-G - b.  Otherwise PrecisionExhausted is raised.  The check
    runs on the integers of b and of the floored pair (jr, ji), with
    J = max(|jr|, |ji|) - 1.
    """
    ev = j_value_with_bound(f, max(64, prec + 2 - math.ceil(_mag(-disc, 4 * f.a * f.a))))
    re, im = ev.j._mpc_
    jr, ji = to_fixed(re, G), to_fixed(im, G)
    man, exp = ev.error_bound.man_exp
    k = exp + G
    if man * ((1 << prec) + 1) << max(k, 0) > \
            (1 << G) + max(abs(jr), abs(ji)) - 1 << max(-k, 0):
        raise PrecisionExhausted(
            f"j error bound misses 2^-{prec} (1 + |j|) at the form ({f.a}, {f.b}, {f.c})")
    return jr, ji


def hilbert_class_polynomial(disc: int) -> HCPResult:
    """Monic integer polynomial whose roots are j of the reduced forms of disc.

    j is evaluated once per pair of complex-conjugate roots: only at forms
    with b >= 0, since (a, -b, c) has the root -conj(tau) and j(-conj(tau))
    = conj(j(tau)).  An ambiguous form (b = 0, a = b or a = c) is its own
    partner with real j and contributes x - Re J; every other form
    contributes x^2 - 2 Re J x + |J|^2 for itself and (a, -b, c).  The
    factors are multiplied on integers with G = wp + 32 fractional bits, and
    the coefficients are recovered by rounding, with the maximum rounding
    residual required below 0.25.  wp and the coefficient bits
    c = ceil(B + log2(h+1)) come from _hcp_precision.  Every root is
    evaluated by _root_j at relative precision: j_value_with_bound is handed
    the reduced form itself, so no surd is formed, and J_i is certified
    within eps (1 + |J_i|), eps = 2^-p, p = max(64, c + 24), then floored to
    G bits.  The kernel works at p + 16 bits (78 + ceil(mag) where
    j_value_with_bound's 64-bit floor on the request binds, at high roots of
    small c), where j errs by less than 2^-5.7 eps (1 + |J_i|) however high
    the root (see j_value_with_bound), so the check in _root_j, which
    raises PrecisionExhausted, is not reached; the guard needs no term for
    the height.  The argument below puts every coefficient within 2^-23 of
    its integer; eps = 2^-(c+8) would already keep it within 2^-7, so the
    rounding gate at 0.25 is unreachable.

    - Root errors.  The conjugate of J_i is within delta_i of the conjugate
      root, and Re J_i of a real root within delta_i of it, so every one of
      the h roots is known within delta_i <= eps (1 + |J_i|) + sqrt(2) 2^-G,
      the second term for the floor to G bits; as G >= c + 96 that is below
      eps' (1 + |J_i|) with eps' = 1.01 eps.  Coefficient k of
      prod(x + J_i + delta_i) - prod(x + J_i) is at most that of the
      majorant prod(x + |J_i| + delta_i) - prod(x + |J_i|), and the
      majorant's coefficients sum to its value at x = 1,
      prod(1 + |J_i| + delta_i) - prod(1 + |J_i|)
      <= prod(1 + |J_i|) ((1 + eps')^h - 1).  Each |J_i| is at most its root
      bound A_i >= 2079, so prod(1 + |J_i|) <= prod A_i e^(h/2079)
      <= 1.001 2^B (for h >= 2 the binomial in B exceeds the exponential),
      and h eps' < 2^-8 gives (1 + eps')^h - 1 < 1.01 h eps'.  With
      2^c >= (h + 1) 2^B, every coefficient is therefore off by less than
      1.001 2^B 1.01^2 h 2^-(c+24) < 2^-23.95.
    - Product rounding.  |J|^2 is floored once, and each pass floors at most
      two products per coefficient; an error of 2^-G in one factor or one
      partial product reaches the result multiplied by the remaining
      factors, whose coefficients sum to at most 2^(B+1).  So the rounding
      adds less than 3h 2^(B+2) 2^-G < 2^-90.

    The product is real, so every coefficient lies within 2^-23 of its
    integer.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise InvalidDiscriminant(f"need disc < 0 and disc = 0,1 mod 4, got {disc}")
    forms = class_group_forms(disc)
    h = len(forms)
    coeff_bits, wp = _hcp_precision(disc, forms)
    root_prec = max(64, coeff_bits + 24)
    G = wp + 32
    poly = [1 << G]   # ascending coefficients, G fractional bits
    for f in forms:
        if f.b < 0:
            continue   # the partner of (a, -b, c), which carries both roots
        jr, ji = _root_j(f, disc, root_prec, G)
        if f.b == 0 or f.b == f.a or f.a == f.c:
            low = (-jr,)
        else:
            low = ((jr * jr + ji * ji) >> G, -2 * jr)
        nxt = [0] * len(low) + poly
        for i, pv in enumerate(poly):
            for k, cv in enumerate(low):
                nxt[i + k] += (cv * pv) >> G
        poly = nxt
    half = 1 << (G - 1)
    coeffs = [(v + half) >> G for v in poly]
    worst = max(abs(v - (cv << G)) for v, cv in zip(poly, coeffs))
    residual = worst / (1 << G)
    if not 4 * worst < 1 << G:
        raise RoundingFailed(
            f"rounding residual {residual:.5g} >= 0.25 for disc {disc} at {wp} bits")
    assert coeffs[-1] == 1 and len(coeffs) == h + 1
    return HCPResult(
        disc=disc,
        coeffs=tuple(coeffs),
        residual=residual,
        class_number=h,
        precision_bits=wp,
    )


@dataclass(frozen=True)
class CMCertificate:
    """Numeric witness that j of an attractor point is an algebraic integer.

    The class polynomial of the form discriminant 4D, evaluated on integers
    at j of the attractor's reduced form (_root_residual), must vanish to
    within tolerance 2^-(prec//4): value bounds the computed |H_4D(j)| from
    above and error_bound its distance from H_4D at the exact j, and all
    three are exact dyadic mpfs, compared exactly.  Conductor and field
    label record which class field the value generates.
    """

    charge: ChargeData
    point: AttractorPoint
    disc: int
    field_disc: int
    conductor: int
    field_label: str
    class_number: int
    j: mp.mpc
    hcp: HCPResult
    value: mp.mpf          # |H_4D(j)| as computed, rounded up
    error_bound: mp.mpf    # its distance from H_4D(j(tau)), rounded up
    tolerance: mp.mpf      # 2^-(prec//4)
    precision_bits: int

    @property
    def passed(self) -> bool:
        return mpf_lt(mpf_add(self.value._mpf_, self.error_bound._mpf_), self.tolerance._mpf_)


def _residual_precision(h: int, disc: int, a: int, hcp_bits: int, prec: int) -> int:
    """The relative precision p at which _root_residual asks _root_j for j;
    the kernel then works at p + 16 bits."""
    return max(prec, hcp_bits + math.ceil(h * _log2_root_bound(disc, a)) + prec // 4) + 64


def _root_residual(coeffs, f, disc: int, hcp_bits: int, prec: int):
    """H(j) on integers at j of the root of the reduced form f of
    discriminant disc, for H the integer polynomial coeffs (ascending):
    (j^, value, err, G), j^ the pair of _root_j at G fractional bits, value
    at least the modulus of H(j^) as computed and err at least its distance
    from H at the exact j, both integers in units of 2^-G.

    j is asked of _root_j within 2^-p (1 + |j|), p = _residual_precision,
    and floored to G = p + 32 bits; as p >= ceil(h L) + 64 >= ceil(mag) + 64
    (L below), the request is never raised to j_value_with_bound's 64-bit
    floor, so the kernel works at p + 16 bits.  With J above |j^| 2^G (_modulus_bounds), j^'s error d
    satisfies d <= 2^-p (1 + |j^| + d) + sqrt(2) 2^-G, so
    d 2^G <= dj = ceil((2^G + J) 2^-p) + 2, since 2^G + J < 2^(2p-2); and
    R = J + dj is above both |j| and |j^| in units of 2^-G.

    Horner runs on the integers: acc = c_h, then acc = floor(acc j^) + c_k
    (_mul, both components floored, within sqrt(2) units).  Each floor
    reaches the result times |j^| per later step, so the computed value is
    within sqrt(2) sum_(i<h) |j^|^i units of H(j^).  At the exact j,
    H(j) - H(j^) = (j - j^) sum_k c_k sum_(i<k) j^i j^^(k-1-i), at most
    d sum_k k |c_k| R^(k-1).  So

        err = sum_(k=1..h) (k |c_k| dj + 2) R^(k-1),

    formed by Horner with R rounded up to 64 fractional bits and every step
    rounded up; value is the ceiling of the computed modulus, so
    value + err bounds |H(j)| from above.

    When H = H_disc, so that H(j) = 0, value <= err and
    value + err < 2^-(prec//4 + 128) 2^G.  With
    L = _log2_root_bound(disc, f.a), |j| <= 2^L (Enge 2009, L > 11), so
    dj 2^-G < 1.01 2^(L-p) and R^(k-1) < 1.01 2^((h-1)L); the coefficients
    are below 2^B, and hcp_bits >= B + log2(h + 1) + 2h + 64 (_hcp_precision).
    So err 2^-G < 1.03 2^(hL+B-p) h(h+1)/2 + 3.1 h 2^((h-1)L-G), and
    p >= hcp_bits + hL + prec//4 + 64 puts the first part below
    0.52 h 2^-(2h+128+prec//4) and the second far below it.  p >= prec + 64
    also puts j within 2^-(prec+64) (1 + |j|), below the prec bits at which
    it is reported.
    """
    h = len(coeffs) - 1
    p = _residual_precision(h, disc, f.a, hcp_bits, prec)
    G = p + 32
    j = _root_j(f, disc, p, G)
    acc = (coeffs[-1] << G, 0)
    for cn in reversed(coeffs[:-1]):
        ar, ai = _mul(acc, j, G)
        acc = (ar + (cn << G), ai)
    J = _modulus_bounds(j)[1]
    dj = -(-((1 << G) + J) >> p) + 2
    R = -(-(J + dj) >> (G - 64))   # above |j| and |j^| in units of 2^-64
    err = 0
    for k in range(h, 0, -1):
        err = -(-err * R >> 64) + k * abs(coeffs[k]) * dj + 2
    n = acc[0] ** 2 + acc[1] ** 2
    return j, math.isqrt(n - 1) + 1 if n else 0, err, G


def certify_attractor_cm(c: ChargeData, prec: int = 256) -> CMCertificate:
    """Certify |H_4D(j(tau_pq))| < 2^-(prec//4) for the attractor point of c.

    j is taken at the attractor's reduced form, whose root is tau's reduced
    point, and _root_residual chooses the precision from the class
    polynomial's coefficient bound and the bound on |j| at that root.
    """
    if prec < 64:
        raise OutOfRange(f"precision must be at least 64 bits, got {prec}")
    at = attractor_point(c)
    disc = 4 * at.D
    hcp = hilbert_class_polynomial(disc)
    j, value, err, G = _root_residual(hcp.coeffs, at.form, disc, hcp.precision_bits, prec)
    core = at.tau.disc   # the squarefree part of D, kept by the surd
    field_disc = core if core % 4 == 1 else 4 * core
    f2 = disc // field_disc
    conductor = math.isqrt(f2)
    assert conductor * conductor == f2
    with mp.workprec(prec):
        j_out = +_from_fixed(j, G)
    return CMCertificate(
        charge=c,
        point=at,
        disc=disc,
        field_disc=field_disc,
        conductor=conductor,
        field_label="Hilbert class field" if conductor == 1 else "ring class field",
        class_number=hcp.class_number,
        j=j_out,
        hcp=hcp,
        value=mp.make_mpf(_to_mpf(value, -G)),
        error_bound=mp.make_mpf(_to_mpf(err, -G)),
        tolerance=mp.make_mpf(_to_mpf(1, -(prec // 4))),
        precision_bits=prec,
    )


_LN_CACHE_J_FLOOR = math.log(2079 + 2**17)


def hcp_record_valid(disc: int, coeffs) -> bool:
    """True when a cached class polynomial of disc has degree h and, as in a
    64-bit CM certificate, vanishes within 2^-16 at j of one root.

    The root is that of the form with the largest a for which
    pi sqrt|disc| / a >= ln(2079 + 2^17), so that |j| >= 1/|q| - 2079 >=
    2^17 by Enge's bound; the precision needed grows with a bound on |j|,
    so this is the cheapest root that keeps |j| large.  A record Q that
    differs from the true H by at most 2^16 in every coefficient then fails:
    Q - H is nonzero with integer coefficients and top degree m, so
    |Q(j)| = |(Q - H)(j)| >= |j|^m - 2^16 (|j|^m - 1)/(|j| - 1) >= 1, and
    value + err bounds |Q(j)| from above.  At a root near rho |j| can be
    below 1, where a change to a high coefficient would pass.  Only for
    |disc| < 15 does no form qualify, and the principal form is used: there
    h = 1, or h = 2 at disc = -12 with j = 54000 at the principal root, so a
    change of one coefficient by 1 still moves H(j) by at least 1.
    """
    forms = class_group_forms(disc)
    if len(coeffs) != len(forms) + 1:
        return False
    far = [f for f in forms if math.pi * math.sqrt(-disc) / f.a >= _LN_CACHE_J_FLOOR]
    f = max(far, key=lambda form: form.a, default=forms[0])
    _, value, err, G = _root_residual(coeffs, f, disc, _hcp_precision(disc, forms)[1], 64)
    return value + err < 1 << (G - 16)


def load_hcp_cache(path) -> dict[int, tuple]:
    """Read the class-polynomial cache; any corruption voids the whole file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        out = {}
        for rec in raw:
            disc = int(rec["disc"])
            coeffs = tuple(int(s) for s in rec["coeffs"])
            if not coeffs or coeffs[-1] != 1:
                raise ValueError(f"cache record for {disc} is not monic")
            out[disc] = coeffs
        return out
    except FileNotFoundError:
        return {}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"warning: ignoring unreadable hcp cache {path}: {exc}", file=sys.stderr)
        return {}


def store_hcp_cache(path, cache: dict[int, tuple]):
    """Atomically rewrite the cache file (temp file + rename)."""
    records = [
        {"disc": str(disc), "coeffs": [str(c) for c in cache[disc]]}
        for disc in sorted(cache, reverse=True)
    ]
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
