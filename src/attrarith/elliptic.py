"""Weierstrass models, analytic torsion points, and the Weber function.

The curve attached to tau is y^2 = x^3 + Ax + B with A = -g2/4, B = -g3/4
built from E4 and E6 of the modular theta kernel; torsion points come from
the exponentially convergent q-series for the Weierstrass functions,
evaluated with respect to the fundamental-domain representative of tau and
scaled back through the lattice covariance factor.  Quadratic twists scale
(A, B, x, y) by powers of u, and the Weber function is the case selection
that cancels exactly that freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import AmbiguousCase, OutOfRange, ZeroTwist
from .modular import _render, _theta, _truncation_order, reduce_to_fundamental

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


@dataclass(frozen=True)
class TorsionPoint:
    """Point z = (a*tau + b)/n with x = p(z), y = p'(z)/2."""

    lattice_coords: tuple
    x: mp.mpc
    y: mp.mpc


def _reduced_frame(tau, prec: int):
    """Reduce tau; returns (tau, tau_red, matrix, mu) with mu = c*tau + d."""
    z = _render(tau, prec + 64)
    zred, mat = reduce_to_fundamental(z, prec + 48)
    (_, _), (c, d) = mat
    with mp.workprec(prec + 48):
        mu = c * z + d
    return z, zred, mat, mu


def model_from_tau(tau, prec: int = 256) -> WeierstrassModel:
    """Curve y^2 = x^3 + Ax + B from g2 = (4pi^4/3)E4, g3 = (8pi^6/27)E6 at tau."""
    if prec < 64:
        raise OutOfRange(f"precision must be at least 64 bits, got {prec}")
    wp = prec + 96
    z, zred, mat, mu = _reduced_frame(tau, wp)
    with mp.workprec(wp):
        th = _theta(zred, wp)
        (e4, _), (e6, _) = th.e4(), th.e6()
        g2 = 4 * mp.pi**4 / 3 * e4 / mu**4
        g3 = 8 * mp.pi**6 / 27 * e6 / mu**6
        a = -g2 / 4
        b = -g3 / 4
        delta = -16 * (4 * a**3 + 27 * b**2)
        jv = 1728 * g2**3 / (g2**3 - 27 * g3**2)
    with mp.workprec(prec):
        return WeierstrassModel(
            A=+a, B=+b, delta=+delta, j=+jv,
            source_tau=+z, scale=mp.mpc(1), precision_bits=prec,
        )


def _wp_series(coords, n: int, zred, q, N: int):
    """Weierstrass p and p' at z = (a*tau' + b)/n over the lattice of tau'."""
    ap, bp = coords
    u = mp.expjpi(2 * (ap * zred + bp) / n)
    p_acc = mp.mpf(1) / 12 + u / (1 - u) ** 2
    dp_acc = u * (1 + u) / (1 - u) ** 3
    qn = mp.mpc(1)
    for _ in range(1, N + 1):
        qn *= q
        t1 = qn * u
        t2 = qn / u
        p_acc += t1 / (1 - t1) ** 2 + t2 / (1 - t2) ** 2 - 2 * qn / (1 - qn) ** 2
        dp_acc += t1 * (1 + t1) / (1 - t1) ** 3 - t2 * (1 + t2) / (1 - t2) ** 3
    tp = 2j * mp.pi
    return tp**2 * p_acc, tp**3 * dp_acc


def torsion_points(model: WeierstrassModel, n: int) -> list[TorsionPoint]:
    """The n^2 - 1 nonzero n-torsion points, ordered by lattice coordinates.

    Coordinates (a/n, b/n) refer to the lattice of source_tau; internally the
    point is moved to the reduced lattice by the unimodular change of basis
    and evaluated there, then scaled back by mu (and the twist scale).
    """
    if n < 2:
        raise OutOfRange(f"torsion order must be >= 2, got {n}")
    prec = model.precision_bits
    wp = prec + 96
    z, zred, mat, mu = _reduced_frame(model.source_tau, wp)
    (ma, mb), (mc, md) = mat
    with mp.workprec(wp):
        y = float(mp.im(zred))
        mag = 2 * math.pi * y * math.log2(math.e)
        N = _truncation_order(mag, prec + 64) + 2
        q = mp.expjpi(2 * zred)
        lam = mp.mpc(model.scale) / mu
        out = []
        for a_z in range(n):
            for b_z in range(n):
                if a_z == 0 and b_z == 0:
                    continue
                # row vector (a,b) times the inverse basis-change matrix
                ar = (a_z * md - b_z * mc) % n
                br = (-a_z * mb + b_z * ma) % n
                pv, dpv = _wp_series((ar, br), n, zred, q, N)
                xv = lam**2 * pv
                yv = lam**3 * dpv / 2
                with mp.workprec(prec):
                    out.append(TorsionPoint(
                        lattice_coords=(Fraction(a_z, n), Fraction(b_z, n)),
                        x=+xv, y=+yv,
                    ))
        return out


def weber_function(model: WeierstrassModel, point: TorsionPoint):
    """Twist-invariant coordinate of a torsion point.

    Generic curves use (AB/delta)x; j = 1728 uses (A^2/delta)x^2; j = 0 uses
    (B/delta)x^3.  Both degeneracies at once is impossible, so that signals
    the model's precision is broken.
    """
    prec = model.precision_bits
    tol = mp.mpf(2) ** (-(prec // 4))
    j_is_zero = abs(model.j) < tol
    j_is_1728 = abs(model.j - 1728) < tol
    if j_is_zero and j_is_1728:
        raise AmbiguousCase(
            "model j is within tolerance of both 0 and 1728; raise precision")
    with mp.workprec(max(prec, 53) + 32):
        x = mp.mpc(point.x)
        if j_is_1728:
            val = model.A**2 / model.delta * x**2
        elif j_is_zero:
            val = model.B / model.delta * x**3
        else:
            val = model.A * model.B / model.delta * x
    with mp.workprec(max(prec, 53)):
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
