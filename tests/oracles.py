"""Independent reference implementations used to cross-check library results.

These deliberately use different algorithms from the package (exact Fraction
Moebius maps instead of form reduction, sieves instead of factorization,
brute-force enumeration, convolution powers and triple loops instead of
closed forms, dense integer q-series instead of theta sums, RK4 integration
instead of the closed-form flow) so agreement is meaningful.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from attrarith.arith import QuadraticSurd


def phi_sieve(limit: int) -> list[int]:
    """Totient table phi[0..limit] via the standard sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def reduce_root_exact(tau: QuadraticSurd):
    """Canonicalize an upper-half-plane surd into the fundamental domain.

    Uses exact Fraction Moebius steps (T shifts and S inversions) with the
    boundary convention Re = -1/2 on vertical edges and Re <= 0 on the unit
    arc, matching roots of reduced quadratic forms.  Returns (tau', M) with M
    in SL(2,Z) and tau' = M tau.
    """
    assert tau.is_upper_half_plane()
    t = tau
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10_000):
        # shift Re into [-1/2, 1/2)
        n = math.floor(t.real + Fraction(1, 2))
        if n != 0:
            t = t - n
            a, b = a - n * c, b - n * d
        nrm = t.norm_squared()
        if nrm < 1 or (nrm == 1 and t.real > 0):
            t = QuadraticSurd.from_rational(-1) / t
            a, b, c, d = -c, -d, a, b
            continue
        return t, ((a, b), (c, d))
    raise RuntimeError("fundamental-domain reduction did not terminate")


def dyadic_surd(z) -> QuadraticSurd:
    """The value of an mpc as an exact surd of disc -1, from each component's
    mantissa and exponent."""
    def fraction(x):
        man, exp = x.man_exp   # |x| = man 2^exp
        return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp

    i = QuadraticSurd(0, 1, 1, -1)
    return QuadraticSurd.from_rational(fraction(z.real)) + fraction(z.imag) * i


def squarefree_brute(n: int) -> tuple[int, int]:
    """(s, m) with n = s^2 m and m squarefree: s is the largest k with k^2 | n."""
    s = max(k for k in range(1, math.isqrt(abs(n)) + 1) if n % (k * k) == 0)
    return s, n // (s * s)


def forms_brute(disc: int, bound: int = 64) -> list[tuple[int, int, int]]:
    """Reduced forms of a discriminant by scanning a box of (a, b) pairs."""
    out = []
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if not (abs(b) <= a <= c):
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            out.append((a, b, c))
    return sorted(out)


def random_sl2(rng, size: int = 8):
    """Random SL(2,Z) element as a short word in T^k and S."""
    m = [[1, 0], [0, 1]]

    def mul(x, y):
        return [
            [x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]],
            [x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]],
        ]

    for _ in range(rng.randrange(1, size)):
        if rng.random() < 0.5:
            k = rng.randrange(-3, 4)
            m = mul(m, [[1, k], [0, 1]])
        else:
            m = mul(m, [[0, -1], [1, 0]])
    return ((m[0][0], m[0][1]), (m[1][0], m[1][1]))


def sigma_power(n: int, k: int) -> int:
    """Divisor power sum sigma_k(n) by trial division."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d**k
    return total


@functools.lru_cache(maxsize=None)
def dense_q_coefficients(n_max: int):
    """Exact E4, E6 and Delta coefficients through q^n_max.

    Divisor sums by trial division; Delta = (E4^3 - E6^2)/1728 by dense
    convolution and exact division.
    """
    e4 = [1] + [240 * sigma_power(n, 3) for n in range(1, n_max + 1)]
    e6 = [1] + [-504 * sigma_power(n, 5) for n in range(1, n_max + 1)]

    def mul(p, q):
        out = [0] * (n_max + 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q[: n_max + 1 - i]):
                out[i + j] += pi * qj
        return out

    num = [a - b for a, b in zip(mul(mul(e4, e4), e4), mul(e6, e6))]
    assert all(v % 1728 == 0 for v in num)
    return e4, e6, [v // 1728 for v in num]


def _horner(coeffs, q):
    acc = mp.mpf(0)
    for cn in reversed(coeffs):
        acc = acc * q + cn
    return acc


def eisenstein_dense(zred, wp: int):
    """(E4, E6, Delta, bound, N) at a fundamental-domain point by dense Horner sums.

    Every coefficient is at most 2000*n^7 in absolute value and |q| <= e^(-pi
    sqrt(3)) makes the term ratio at most 0.56, so the tail after q^N is at
    most 6000 (N+1)^7 |q|^(N+1) / 0.36; the Horner rounding is bounded by the
    coefficient sum 2000 (N+1)^8.  bound covers each of the three values.
    Must be called inside mp.workprec(wp).
    """
    mag = 2 * math.pi * float(mp.im(zred)) * math.log2(math.e)
    n = 4
    while 14.2 + 7 * math.log2(n + 1.0) - (n + 1) * mag > -(wp - 64):
        n += 1
    n = -(-n // 256) * 256  # share coefficient tables between nearby orders
    e4c, e6c, dc = dense_q_coefficients(n)
    q = mp.expjpi(2 * zred)
    tail = 6000 * mp.mpf(n + 1) ** 7 * abs(q) ** (n + 1) / mp.mpf("0.36")
    round_err = 12000 * mp.mpf(2) ** (-wp) * mp.mpf(n + 1) ** 8
    return _horner(e4c, q), _horner(e6c, q), _horner(dc, q), tail + round_err, n


def theta_reference(zred, F: int, M: int):
    """(theta_2^4, theta_3^4, theta_4^4) from the sums the theta kernel truncates,
    at 2F bits.

    r = e^(pi i zred) at the exact zred, S2 = sum_{0<=n<M} r^(n(n+1)),
    S3 = sum_{1<=n<M} r^(n^2) and S4 = sum_{1<=n<M} (-1)^n r^(n^2) are formed in
    mpc arithmetic at 2F bits, so they differ from the kernel's fixed-point sums
    by the kernel's rounding alone, that of r included.
    """
    with mp.workprec(2 * F):
        r = mp.expjpi(zred)
        s2, s3, s4, rn, t = mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1), mp.mpc(1)
        for n in range(1, M):
            rn *= r
            t *= rn          # r^(n^2)
            s3 += t
            s4 += -t if n % 2 else t
            t *= rn          # r^(n(n+1))
            s2 += t
        return 16 * r * s2**4, (1 + 2 * s3) ** 4, (1 + 2 * s4) ** 4


def j_dense(tau, prec: int):
    """(j, bound) by dense q-series after an exact integer reduction of tau.

    The reduction matrix is found at low precision and applied once at the
    working precision, a generous rule of the oracle's own: twice the bits
    of 1/|q| at the reduced point above prec, plus 96 guard bits.
    """
    with mp.workprec(prec + 64):
        z = mp.mpc(tau)
        a, b, c, d = 1, 0, 0, 1
        w = z
        while True:
            n = int(mp.floor(mp.re(w) + mp.mpf(1) / 2))
            w -= n
            a, b = a - n * c, b - n * d
            if abs(w) >= 1 - mp.mpf(2) ** (-prec):
                break
            w = -1 / w
            a, b, c, d = -c, -d, a, b
        mag = 2 * math.pi * float(mp.im(w)) * math.log2(math.e)
    wp = prec + 2 * math.ceil(mag) + 96
    with mp.workprec(wp):
        z = mp.mpc(tau)
        zred = (a * z + b) / (c * z + d)
        e4, _, dv, bound, n = eisenstein_dense(zred, wp)
        jv = e4**3 / dv
        d43 = 3 * (abs(e4) + bound) ** 2 * bound
        eps = mp.mpf(2) ** (-wp)
        dj = (d43 + abs(jv) * bound) / (abs(dv) - bound) \
            + abs(jv) * eps * (64 + 4 * n + 8 * int(abs(zred)))
        return jv, dj


def wp_direct(tau, a: int, b: int, n: int, prec: int):
    """(p(z), p'(z)/2) at z = (a tau + b)/n on the lattice Z tau + Z, by the direct series.

    The basis is reduced by reduce_root_exact on the exact value of tau, but
    the point is carried over numerically: z' = z/mu with mu = c tau + d,
    and its coordinates on the reduced basis are read off and rounded to the
    n-grid, so the integer coordinate map of torsion_points is not reused.  On the reduced lattice, with u = e^(2 pi i z'),
    t1 = q^k u and t2 = q^k/u, each term of

        p/(2 pi i)^2  = 1/12 + u/(1-u)^2
                        + sum_k t1/(1-t1)^2 + t2/(1-t2)^2 - 2 q^k/(1-q^k)^2,
        p'/(2 pi i)^3 = u(1+u)/(1-u)^3 + sum_k t1(1+t1)/(1-t1)^3 - t2(1+t2)/(1-t2)^3

    is summed as it stands, six divisions each.  With coordinates in [0, n),
    |t1| <= |q|^k and |t2| <= |q|^(k-1), and |q| < 0.0044 after reduction, so
    for k >= 2 each term is below 1.04 |q|^(k-1) and the tail after N terms
    is below 1.05 |q|^N.  N = (wp + 64)/log2(1/|q|) + 2 leaves it more than
    60 bits under 2^-wp.
    """
    wp = prec + 96
    with mp.workprec(wp):
        tau = mp.mpc(tau)
        red, ((_, _), (c, d)) = reduce_root_exact(dyadic_surd(tau))
        zred = red.to_mpc(wp)
        mu = c * tau + d
        zp = (a * tau + b) / n / mu
        s = mp.im(zp) / mp.im(zred)
        ar = int(mp.nint(n * s)) % n
        br = int(mp.nint(n * (mp.re(zp) - s * mp.re(zred)))) % n
        mag = 2 * math.pi * float(mp.im(zred)) * math.log2(math.e)
        N = math.ceil((wp + 64) / mag) + 2
        q = mp.expjpi(2 * zred)
        u = mp.expjpi(2 * (ar * zred + br) / n)
        p_acc = mp.mpf(1) / 12 + u / (1 - u) ** 2
        dp_acc = u * (1 + u) / (1 - u) ** 3
        qn = mp.mpc(1)
        for _ in range(N):
            qn *= q
            t1 = qn * u
            t2 = qn / u
            p_acc += t1 / (1 - t1) ** 2 + t2 / (1 - t2) ** 2 - 2 * qn / (1 - qn) ** 2
            dp_acc += t1 * (1 + t1) / (1 - t1) ** 3 - t2 * (1 + t2) / (1 - t2) ** 3
        tp = 2j * mp.pi / mu
        return tp**2 * p_acc, tp**3 * dp_acc / 2


def model_mpmath(tau, prec: int):
    """(A, B, delta, j) of the Weierstrass model of Z + Z tau at prec bits, by
    the mpmath formula that elliptic.model_from_tau used before it formed the
    fields from integer powers of 2 pi i/mu: the theta kernel's E4, E6, r
    and U as exact mpc values, Delta = r^2 U, mu rendered at wp bits from
    the frame's integers, and

        A = -(pi^4/3) E4/mu^4,   B = -(2 pi^6/27) E6/mu^6,
        delta = (2 pi)^12 Delta/mu^12,   j = E4^3/Delta,

    each formed at wp = prec + ceil(mag) + 96 and rounded to prec."""
    from attrarith.modular import _frame, _from_fixed, _theta

    frame = _frame(tau, prec)
    wp = prec + math.ceil(frame.mag) + 96
    th = _theta(frame, wp)
    with mp.workprec(wp):
        if frame.mu is None:
            mu = 1
        else:
            r, s, n = frame.mu
            mu = mp.mpc(mp.mpf(r) / n, mp.mpf(s) / n * mp.sqrt(-frame.disc))
        e4, e6, u = (_from_fixed(v, th.F) for v, _ in
                     (th.e4_fixed(), th.e6_fixed(), th.u_fixed()))
        dk = _from_fixed(th.r, th.rbits) ** 2 * u
        a = -mp.pi**4 / 3 * e4 / mu**4
        b = -2 * mp.pi**6 / 27 * e6 / mu**6
        delta = (2 * mp.pi) ** 12 * dk / mu**12
        jv = e4**3 / dk
    with mp.workprec(prec):
        return +a, +b, +delta, +jv


# --------------------------------------------------------------------------
# the attractor flow by explicit float64 RK4 with step halving, the package's
# integrator before the closed form; rows are (rho, U, x, y, Z2) at sigma = n*h0
# while no step is halved

# accepted steps may raise |Z|^2 by a few ulps of rounding, never more
RK4_Z2_SLACK = 1e-14
RK4_MAX_HALVINGS = 60

RK4_CONVERGED = 0
RK4_MAX_STEPS = 1
RK4_UNDERFLOW = 2


def rk4_charge_sq(p2, q2, pq, x, y):
    """|Z|^2 = (q2 - 2 pq x + p2 (x^2 + y^2)) / (2y); caller ensures y > 0."""
    return (q2 - 2.0 * pq * x + p2 * (x * x + y * y)) / (2.0 * y)


def rk4_deriv(p2, q2, pq, u, x, y):
    """(drho, dU, dx, dy) per unit sigma at warp u and tau = x + iy."""
    f = rk4_charge_sq(p2, q2, pq, x, y)
    z = math.sqrt(f)
    dx = -2.0 * y * (p2 * x - pq) / z
    dy = -2.0 * y * (y * p2 - f) / z
    # plain exp raises OverflowError; an inf step gets rejected instead
    dr = math.exp(-u) if -u < 709.0 else math.inf
    return dr, -z, dx, dy


def rk4_try(p2, q2, pq, rho, u, x, y, h):
    """One tentative RK4 step; ok=False when a stage leaves the half-plane."""
    a1, b1, c1, d1 = rk4_deriv(p2, q2, pq, u, x, y)
    y2 = y + 0.5 * h * d1
    if not (y2 > 0.0):
        return False, rho, u, x, y
    a2, b2, c2, d2 = rk4_deriv(p2, q2, pq, u + 0.5 * h * b1, x + 0.5 * h * c1, y2)
    y3 = y + 0.5 * h * d2
    if not (y3 > 0.0):
        return False, rho, u, x, y
    a3, b3, c3, d3 = rk4_deriv(p2, q2, pq, u + 0.5 * h * b2, x + 0.5 * h * c2, y3)
    y4 = y + h * d3
    if not (y4 > 0.0):
        return False, rho, u, x, y
    a4, b4, c4, d4 = rk4_deriv(p2, q2, pq, u + h * b3, x + h * c3, y4)
    s = h / 6.0
    nrho = rho + s * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    nu = u + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    nx = x + s * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    ny = y + s * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    ok = (ny > 0.0 and math.isfinite(nrho) and math.isfinite(nu)
          and math.isfinite(nx) and math.isfinite(ny))
    return ok, nrho, nu, nx, ny


def rk4_step(p2, q2, pq, rho, u, x, y, z2, h0):
    """One accepted RK4 step from (rho, u, x + iy), where |Z|^2 = z2.

    A step is accepted when Im tau stays positive and |Z|^2 does not grow
    beyond rounding slack; otherwise it is halved, up to RK4_MAX_HALVINGS times.
    Returns (rho, u, x, y, z2, h) of the accepted step, or None when the
    halving budget runs out.
    """
    h = h0
    for _ in range(RK4_MAX_HALVINGS + 1):
        ok, nrho, nu, nx, ny = rk4_try(p2, q2, pq, rho, u, x, y, h)
        if ok:
            nz2 = rk4_charge_sq(p2, q2, pq, nx, ny)
            if math.isfinite(nz2) and nz2 <= z2 * (1.0 + RK4_Z2_SLACK):
                return nrho, nu, nx, ny, nz2, h
        h *= 0.5
    return None


def rk4_trajectory(p2, q2, pq, x0, y0, h0, tol, max_steps):
    """Integrate until |dtau| per full step drops below tol.

    Returns (status, n_accepted, traj) with traj rows (rho, U, x, y, Z2);
    row 0 is the start, rows 1..n the accepted steps.
    """
    traj = np.empty((max_steps + 1, 5))
    traj[0] = row = (0.0, 0.0, x0, y0, rk4_charge_sq(p2, q2, pq, x0, y0))
    n = 0
    while n < max_steps:
        nxt = rk4_step(p2, q2, pq, *row, h0)
        if nxt is None:
            return RK4_UNDERFLOW, n, traj
        dtau = math.sqrt((nxt[2] - row[2]) ** 2 + (nxt[3] - row[3]) ** 2)
        row = nxt[:5]
        n += 1
        traj[n] = row
        # scale the displacement test so halved steps do not fake convergence
        if dtau * (h0 / nxt[5]) < tol:
            return RK4_CONVERGED, n, traj
    return RK4_MAX_STEPS, n, traj


def continued_fraction_fractions(steps) -> Fraction:
    """[b1,...,bs] = b1 - 1/(b2 - 1/(...)) by the Fraction recursion, innermost first."""
    val = Fraction(steps[-1])
    for b in reversed(steps[:-1]):
        val = b - 1 / val
    return val


def tuple_counts_conv(d: int, k: int) -> list[int]:
    """counts[j] = #{(a_1..a_k) in [1,d-1]^k : sum = j mod d}, by cyclic convolution."""
    base = [0] + [1] * (d - 1)
    counts = [1] + [0] * (d - 1)  # empty tuple
    for _ in range(k):
        nxt = [0] * d
        for i, ci in enumerate(counts):
            if ci:
                for j, bj in enumerate(base):
                    if bj:
                        nxt[(i + j) % d] += ci
        counts = nxt
    return counts


def hodge_numbers_conv(d: int, n: int) -> tuple[int, ...]:
    """Entry w-1 counts vectors in [1,d-1]^(n+2) with sum exactly w*d, w = 1..n+1,
    read off the plain convolution power (x + ... + x^(d-1))^(n+2)."""
    k = n + 2
    # coefficients of (x + ... + x^(d-1))^k, plain (non-cyclic) convolution
    poly = [1]
    for _ in range(k):
        nxt = [0] * (len(poly) + d - 1)
        for i, ci in enumerate(poly):
            if ci:
                for j in range(1, d):
                    nxt[i + j] += ci
        poly = nxt
    return tuple(poly[w * d] if w * d < len(poly) else 0 for w in range(1, n + 2))


def enumerate_forms_loop(sig) -> list[tuple[int, int, int]]:
    """All (r,s,t) with r+ks+lt = 0 mod d in the weighted ranges, lex order,
    by a triple loop over every (r, s, t)."""
    out = []
    for r in range(1, sig.d):
        for s in range(1, sig.a):
            for t in range(1, sig.b):
                if (r + sig.k * s + sig.l * t) % sig.d == 0:
                    out.append((r, s, t))
    return out


def projective_basis_loop(d: int) -> list[tuple[int, int, int]]:
    """All (r,s,t) with 0 < r,s,t < d and r+s+t = 0 mod d, by a triple loop."""
    return [(r, s, t)
            for r in range(1, d) for s in range(1, d) for t in range(1, d)
            if (r + s + t) % d == 0]


def decompose_jacobian_public(sig):
    """decompose_jacobian's factors through the public, checking star_action and
    cm_set, as (orbit, level, dimension, cm_set) tuples."""
    from attrarith.arith import ResidueSystem, euler_phi
    from attrarith.jacobian import cm_set, enumerate_forms, star_action

    units = ResidueSystem.of(sig.d).units
    covered, factors = set(), []
    for seed in enumerate_forms(sig):
        if seed in covered:
            continue
        orbit = sorted({star_action(a, seed, sig) for a in units})
        covered.update(orbit)
        g = math.gcd(math.gcd(seed.r, sig.k * seed.s), math.gcd(sig.l * seed.t, sig.d))
        level = sig.d // g
        factors.append((tuple(orbit), level, euler_phi(level) // 2, tuple(cm_set(seed, sig))))
    return factors
