"""Weierstrass models, analytic torsion points, and the Weber function.

The curve attached to tau is y^2 = x^3 + Ax + B with A = -g2/4, B = -g3/4
built from E4 and E6 of the modular theta kernel, and its discriminant and j
come from the same kernel's Delta, as j_value does, so neither is a
difference of large terms.  The fundamental-domain frame (reduction matrix,
reduced point and covariance factor mu) is modular._frame, the one j uses.
Torsion points come from the Lambert form of the q-series for the
Weierstrass functions, one series per pair +-P summed on fixed-point
integers, evaluated at the reduced point and scaled back through mu.
Quadratic twists scale (A, B, x, y) by powers of u, and the Weber function
is the case selection that cancels exactly that freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath as mp

from .errors import AmbiguousCase, OutOfRange, ZeroTwist
from .modular import _frame, _from_fixed, _theta, _to_fixed

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
    """y^2 = x^3 + Ax + B with its discriminant, j, source point and twist scale."""

    A: mp.mpc
    B: mp.mpc
    delta: mp.mpc
    j: mp.mpc
    source_tau: mp.mpc
    scale: mp.mpc
    precision_bits: int

    @cached_property
    def weber_case(self):
        """(constant, k) of the Weber function constant * x^k.

        Generic curves use (AB/delta, 1); j = 1728 uses (A^2/delta, 2); j = 0
        uses (B/delta, 3), each decided within 2^-(prec/4).  Both
        degeneracies at once is impossible, so that signals the model's
        precision is broken.
        """
        tol = mp.mpf(2) ** (-(self.precision_bits // 4))
        j_is_zero = abs(self.j) < tol
        j_is_1728 = abs(self.j - 1728) < tol
        if j_is_zero and j_is_1728:
            raise AmbiguousCase(
                "model j is within tolerance of both 0 and 1728; raise precision")
        with mp.workprec(max(self.precision_bits, 53) + 32):
            if j_is_1728:
                return self.A**2 / self.delta, 2
            if j_is_zero:
                return self.B / self.delta, 3
            return self.A * self.B / self.delta, 1


@dataclass(frozen=True)
class TorsionPoint:
    """Point z = (a*tau + b)/n with x = p(z), y = p'(z)/2."""

    lattice_coords: tuple
    x: mp.mpc
    y: mp.mpc


def model_from_tau(tau, prec: int = 256) -> WeierstrassModel:
    """Curve y^2 = x^3 + Ax + B of the lattice Z + Z tau, at prec bits.

    With tau' = (a tau + b)/mu the reduced point, mu = c tau + d and E4, E6,
    Delta the theta kernel's values at tau':

        A = -g2/4 = -(pi^4/3) E4/mu^4,   B = -g3/4 = -(2 pi^6/27) E6/mu^6,
        delta = -16 (4A^3 + 27B^2) = (2 pi)^12 Delta/mu^12,   j = E4^3/Delta.

    Neither delta nor j is formed from the cancelling expressions on the
    left, which lose about mag bits, 2^mag = 1/|q| at tau'.  The kernel runs
    at wp = prec + ceil(mag) + 96 bits.  Its bound on Delta is
    dd u < 2.8 2^-wp (derived for j_value_with_bound), and |Delta| > 0.9 |q|
    on the fundamental domain, so the kernel's Delta has relative error
    below 3.2 2^(mag-wp) <= 2^-(prec+94); mu^12, (2 pi)^12 and the quotient,
    a few roundings at wp each, keep delta within relative 2^-(prec+90) at
    every height.  In j the kernel's E4 error d4 u < 55 2^-wp, with
    |E4| < 2.1, adds at most 3 (2.1)^2 55 2^-wp/(0.89 |q|) < 820 2^(mag-wp)
    <= 2^-(prec+86), so j is within 2^-(prec+86) (1 + |j|).  A height that
    would need more than 10^7 bits raises PrecisionExhausted before any
    computing.
    """
    if prec < 64:
        raise OutOfRange(f"precision must be at least 64 bits, got {prec}")
    frame = _frame(tau, prec)
    wp = prec + math.ceil(frame.mag) + 96
    z, zred, mu = frame.point(wp)
    th = _theta(zred, wp)
    with mp.workprec(wp):
        (e4, _), (e6, _), (dk, _) = th.e4(), th.e6(), th.delta()
        a = -mp.pi**4 / 3 * e4 / mu**4
        b = -2 * mp.pi**6 / 27 * e6 / mu**6
        delta = (2 * mp.pi) ** 12 * dk / mu**12
        jv = e4**3 / dk
    with mp.workprec(prec):
        return WeierstrassModel(
            A=+a, B=+b, delta=+delta, j=+jv,
            source_tau=+z, scale=mp.mpc(1), precision_bits=prec,
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
    d_m - m = m q^m/(1 - q^m), so T = sum d_m q^m.
    """
    one = 1 << F
    qr, qi = q
    pr, pi = one, 0
    d, t0, t1 = [None], 0, 0
    for m in range(1, count + 1):
        pr, pi = (pr * qr - pi * qi) >> F, (pr * qi + pi * qr) >> F
        cr, ci = one - pr, -pi
        nrm = (cr * cr + ci * ci) >> F
        dr, di = m * ((cr << F) // nrm), m * ((-ci << F) // nrm)
        d.append((dr, di))
        t0 += dr - (m << F)
        t1 += di
    return d, (t0, t1)


def _lambert_sums(b, d, count: int, F: int):
    """sum d_m b^m and sum m d_m b^m over 1 <= m <= count, in fixed point."""
    br, bi = b
    pr, pi = 1 << F, 0
    s0 = s1 = t0 = t1 = 0
    for m in range(1, count + 1):
        pr, pi = (pr * br - pi * bi) >> F, (pr * bi + pi * br) >> F
        dr, di = d[m]
        tr, ti = (dr * pr - di * pi) >> F, (dr * pi + di * pr) >> F
        s0 += tr
        s1 += ti
        t0 += m * tr
        t1 += m * ti
    return (s0, s1), (t0, t1)


def torsion_points(model: WeierstrassModel, n: int) -> list[TorsionPoint]:
    """The n^2 - 1 nonzero n-torsion points, ordered by lattice coordinates.

    Coordinates (a/n, b/n) refer to the lattice of source_tau; internally the
    point is moved to the reduced lattice of tau' by the unimodular change of
    basis, to reduced coordinates (ar, br) in [0, n), and evaluated there,
    then scaled back by lam = scale/mu: x = lam^2 p(z), y = lam^3 p'(z)/2.

    Parity.  p is even and p' is odd, so only one point of each pair +-P is
    evaluated: the one with ar <= n/2, and br <= n/2 when ar is 0 or n/2.
    Its partner gets the same x and the negated y.  Points of order 2 are
    their own partners and are evaluated themselves.

    Lambert form.  With q = e^(2 pi i tau'), u = e^(2 pi i (ar tau' + br)/n),
    v = q u, w = q/u and d_m = m/(1 - q^m), expanding the q-product of p in
    x/(1-x)^2 = sum_m m x^m gives

        p/(2 pi i)^2  = 1/12 + u/(1-u)^2 + sum_{m>=1} d_m (v^m + w^m - 2 q^m),
        p'/(2 pi i)^3 = u(1+u)/(1-u)^3   + sum_{m>=1} m d_m (v^m - w^m).

    The table d_m and T = sum d_m q^m are built once per call, so the sums
    over m have no division; the leading term and the scaling stay in mpc.
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

    Rounding.  The sums run on (re, im) integers scaled by 2^F.  With
    eps = 2^-F, converting v, w or q and each truncated complex product errs
    by at most sqrt(2) eps; as the bases are below 0.07 in modulus, every
    power errs by less than 2 sqrt(2) eps/(1 - 0.07) < 3.1 eps.  The
    reciprocal 1/(1 - q^m), formed from the conjugate and the truncated norm
    (above 0.99) by floor division, errs by less than 6.5 eps, so d_m by less
    than 6.5 m eps and each product d_m b^m by less than 5.1 m eps.  Summed
    over m <= M that is at most 2.6 (M+1)^2 eps and 1.7 (M+1)^3 eps, and T,
    a sum of the d_m - m, errs by at most 3.3 (M+1)^2 eps.  With M the
    largest count, F = wp + 3 ceil(log2(M+1)) + 5 keeps all three below
    2^-(wp+3).  So p, built from four units of sum (v, w and 2T), and p',
    from two, are within 2^-wp of the series at the inputs v, w and q,
    which carry relative errors of a few 2^-wp from the frame; the 96 bits
    between wp and the returned precision absorb those and the mpc steps.
    """
    if n < 2:
        raise OutOfRange(f"torsion order must be >= 2, got {n}")
    prec = model.precision_bits
    wp = prec + 96
    frame = _frame(model.source_tau, prec)
    _, zred, mu = frame.point(wp)
    (ma, mb), (mc, md) = frame.mat
    layout = []   # (source coords, representative, sign of y)
    counts = {}   # representative -> terms of its v sum and of its w sum
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
            if rep not in counts:
                counts[rep] = (_lambert_count((1 + rep[0] / n) * frame.mag, wp),
                               _lambert_count((1 - rep[0] / n) * frame.mag, wp))
    m_max = max(cw for _, cw in counts.values())
    F = wp + 3 * math.ceil(math.log2(m_max + 1)) + 5
    with mp.workprec(wp):
        q = mp.expjpi(2 * zred)
        d, (t0, t1) = _lambert_table(_to_fixed(q, F), m_max, F)
        tp = 2j * mp.pi * mp.mpc(model.scale) / mu
        cx = tp * tp
        cy = cx * tp / 2
        values = {}
        for (ar, br), (cv, cw) in counts.items():
            u = mp.expjpi(2 * (ar * zred + br) / n)
            (sv0, sv1), (dv0, dv1) = _lambert_sums(_to_fixed(q * u, F), d, cv, F)
            (sw0, sw1), (dw0, dw1) = _lambert_sums(_to_fixed(q / u, F), d, cw, F)
            sx = _from_fixed((sv0 + sw0 - 2 * t0, sv1 + sw1 - 2 * t1), F)
            sy = _from_fixed((dv0 - dw0, dv1 - dw1), F)
            r = 1 / (1 - u)
            ur2 = u * r * r
            xv = cx * (mp.mpf(1) / 12 + ur2 + sx)
            yv = cy * (ur2 * (1 + u) * r + sy)
            values[(ar, br)] = (xv, yv)
    fr = [Fraction(k, n) for k in range(n)]
    out = []
    with mp.workprec(prec):
        for (a_z, b_z), rep, sign in layout:
            xv, yv = values[rep]
            out.append(TorsionPoint(lattice_coords=(fr[a_z], fr[b_z]),
                                    x=+xv, y=+yv if sign > 0 else -yv))
    return out


def weber_function(model: WeierstrassModel, point: TorsionPoint):
    """Twist-invariant coordinate of a torsion point: constant * x^k, with the
    constant and k chosen once per model (WeierstrassModel.weber_case)."""
    const, k = model.weber_case
    with mp.workprec(max(model.precision_bits, 53) + 32):
        x = mp.mpc(point.x)
        val = const * x**k
    with mp.workprec(max(model.precision_bits, 53)):
        return +val


def twist_model(model: WeierstrassModel, u) -> WeierstrassModel:
    """Quadratic-twist isomorphism (x,y) -> (u^2 x, u^3 y): A, B, delta rescale."""
    prec = model.precision_bits
    with mp.workprec(prec + 32):
        uu = mp.mpc(u)
        if uu == 0:
            raise ZeroTwist("twist scale must be nonzero")
        a = model.A * uu**4
        b = model.B * uu**6
        delta = model.delta * uu**12
        scale = mp.mpc(model.scale) * uu
    with mp.workprec(prec):
        return WeierstrassModel(
            A=+a, B=+b, delta=+delta, j=model.j,
            source_tau=model.source_tau, scale=+scale, precision_bits=prec,
        )
