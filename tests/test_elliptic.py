"""Tests for Weierstrass models, torsion enumeration, and the Weber function."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from attrarith import elliptic
from attrarith.arith import BinaryQuadraticForm, QuadraticSurd
from attrarith.attractor import ChargeData, attractor_point
from attrarith.elliptic import (
    _lambert_count,
    _torsion_kernel,
    WeierstrassModel,
    model_from_tau,
    torsion_points,
    twist_model,
    weber_function,
)
from attrarith.errors import (
    NotUpperHalfPlane,
    OutOfRange,
    PrecisionExhausted,
    ZeroTwist,
)
from attrarith.modular import _frame, _Frame, j_value, j_value_with_bound
from oracles import dense_q_coefficients, model_mpmath, wp_direct


def random_tau(rng):
    return mp.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5))


class TestModelFromTau:
    def test_square_lattice(self):
        m = model_from_tau(mp.mpc(0, 1), prec=256)
        with mp.workprec(300):
            assert abs(m.B) < mp.mpf(10) ** -25
            assert abs(m.j - 1728) < mp.mpf(10) ** -40
            assert abs(mp.im(m.A)) < mp.mpf(10) ** -40

    def test_precision_below_64_refused(self):
        with pytest.raises(OutOfRange, match="at least 64 bits, got 63"):
            model_from_tau(mp.mpc(0, 1), 63)
        assert model_from_tau(mp.mpc(0, 1), 64).precision_bits == 64

    def test_hexagonal_lattice(self):
        rho = QuadraticSurd(1, 1, 2, -3)
        m = model_from_tau(rho, prec=256)
        with mp.workprec(300):
            assert abs(m.A) < mp.mpf(10) ** -25
            assert abs(m.j) < mp.mpf(10) ** -40

    def test_j_matches_modular_evaluation(self):
        m = model_from_tau(mp.mpc(0, 2), prec=256)
        with mp.workprec(300):
            assert abs(m.j - j_value(mp.mpc(0, 2), 256)) < mp.mpf(10) ** -20

    def test_delta_identity(self):
        rng = random.Random(61)
        with mp.workprec(300):
            for _ in range(8):
                m = model_from_tau(random_tau(rng), prec=192)
                resid = abs(m.delta + 16 * (4 * m.A**3 + 27 * m.B**2))
                assert resid < abs(m.delta) * mp.mpf(2) ** -170
                assert abs(m.delta) > 0

    def test_lower_half_plane_rejected(self):
        with pytest.raises(NotUpperHalfPlane):
            model_from_tau(mp.mpc(1, -1), prec=128)
        with pytest.raises(NotUpperHalfPlane):
            model_from_tau(mp.mpc(2, 0), prec=128)

    def test_reduction_independence(self):
        # the model is a lattice invariant: tau and tau+1 give the same curve
        with mp.workprec(280):
            tau = mp.mpc('0.37', '1.21')
            m1 = model_from_tau(tau, prec=224)
            m2 = model_from_tau(tau + 1, prec=224)
            assert abs(m1.A - m2.A) < mp.mpf(2) ** -200 * abs(m1.A)
            assert abs(m1.B - m2.B) < mp.mpf(2) ** -200 * abs(m1.B)


def model_cases():
    """(tau, prec): 52 seeded tau at 64 to 512 bits.

    Twelve lie in the fundamental domain (identity frames), sixteen far out
    (|Re tau| up to 20, Im tau down to 0.01, so mu != 1), six high up
    (Im tau 5 to 40), and eighteen are SL(2, Z) images of the CM points of
    discriminants -3 and -4 (j = 0 and 1728, and the order of conductor 2 in
    Q(sqrt -3)), where A or B vanishes and every field is real up to the
    frame's rotation.
    """
    rng = random.Random(1701)
    taus = [mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(1, 3)) for _ in range(12)]
    taus += [mp.mpc(rng.choice((-1, 1)) * rng.uniform(1, 20), rng.uniform(0.01, 0.5))
             for _ in range(16)]
    taus += [mp.mpc(rng.uniform(-20, 20), rng.uniform(5, 40)) for _ in range(6)]
    # rho (j = 0), i (j = 1728) and sqrt(-3) (j = 54000)
    for base in (QuadraticSurd(1, 1, 2, -3), QuadraticSurd(0, 1, 1, -1),
                 QuadraticSurd(0, 1, 1, -3)):
        for c in rng.sample(range(2, 40), 6):
            d = rng.choice([d for d in range(-3 * c, 3 * c) if math.gcd(c, d) == 1])
            a = pow(d, -1, c)
            taus.append((a * base + (a * d - 1) // c) / (c * base + d))
    return [(tau, rng.choice((64, 128, 256, 512))) for tau in taus]


class TestModelAgainstMpmathFormula:
    """model_from_tau against oracles.model_mpmath, the mpmath formula that
    formed the fields before the integer powers of lam = 2 pi i/mu."""

    @staticmethod
    def same_bits(got, want, scale, prec):
        # each computation is within 2^-(prec+87) scale of exact, so both
        # round a component alike unless it lies that close to a rounding
        # boundary; a component below 2^-40 scale (the imaginary part of a
        # real field, rotated by the frame) is rounding noise, and only the
        # bound applies to it
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            if abs(w) > scale * mp.mpf(2) ** -40:
                assert g == w, (prec, got, want)

    def test_fields_match_formula_and_bounds(self):
        for tau, prec in model_cases():
            m = model_from_tau(tau, prec)
            a, b, delta, _ = model_mpmath(tau, prec)
            ref = model_mpmath(tau, prec + 256)
            frame = _frame(tau, prec)
            with mp.workprec(prec + 320):
                mu = 1 if frame.mu is None else abs(QuadraticSurd(*frame.mu, frame.disc).to_mpc(
                    prec + 320))
                # the model_from_tau docstring's bounds before rounding, then
                # the rounding, 2^-prec of the modulus; the reference's own
                # error is below 2^-(prec+250) of the same scale
                scales = (abs(ref[0]) + mp.pi**4 / (3 * mu**4),
                          abs(ref[1]) + 2 * mp.pi**6 / (27 * mu**6),
                          abs(ref[2]), 1 + abs(ref[3]))
                pre = (mp.mpf(2) ** -(prec + 90), mp.mpf(2) ** -(prec + 87),
                       mp.mpf(2) ** -(prec + 95), mp.mpf(2) ** -(prec + 93))
                fields = (m.A, m.B, m.delta, m.j)
                for got, want, scale, eps in zip(fields, ref, scales, pre):
                    bound = eps * scale + mp.mpf(2) ** -prec * (abs(want) + eps * scale) \
                        + mp.mpf(2) ** -(prec + 250) * scale
                    assert abs(got - want) <= bound, (tau, prec)
                for got, want, scale in zip(fields, (a, b, delta), scales):
                    self.same_bits(got, want, scale, prec)

    def test_twisted_model_matches_formula(self):
        u = mp.mpc("0.7", "-1.9")
        tau, prec = mp.mpc("0.31", "1.7"), 192
        a, b, delta, j = model_mpmath(tau, prec)
        want = twist_model(WeierstrassModel(a, b, delta, j, tau, mp.mpc(1), prec), u)
        got = twist_model(model_from_tau(tau, prec), u)
        assert (got.A, got.B, got.delta, got.scale) == (want.A, want.B, want.delta, want.scale)


class TestHighLattices:
    """At Im tau = 40 and 100 the discriminant is about (2 pi)^12 q, more than
    360 bits below A^3 and B^2, so it must not be their difference."""

    @pytest.mark.parametrize("height", [40, 100])
    def test_j_matches_certified_j(self, height):
        tau = mp.mpc(0, height)
        m = model_from_tau(tau, prec=256)
        ev = j_value_with_bound(tau, 256)
        with mp.workprec(300):
            assert abs(m.j - ev.j) <= mp.mpf(2) ** -248 * abs(ev.j)

    @pytest.mark.parametrize("height", [40, 100])
    def test_delta_matches_exact_series(self, height):
        m = model_from_tau(mp.mpc(0, height), prec=256)
        with mp.workprec(2048):
            q = mp.exp(-2 * mp.pi * height)
            series = mp.mpf(0)
            for cn in reversed(dense_q_coefficients(8)[2]):  # q^9 < 2^-3000
                series = series * q + cn
            want = (2 * mp.pi) ** 12 * series
            assert abs(m.delta - want) <= mp.mpf(2) ** -200 * abs(want)

    @pytest.mark.parametrize("tau", [QuadraticSurd(1, 1, 2, -3),   # rho + 1
                                     mp.mpc(0, 100), mp.mpc(0, 10**5)])
    def test_kernel_works_at_prec_plus_104(self, monkeypatch, tau):
        import attrarith.elliptic as elliptic
        from attrarith.modular import _theta

        calls = []

        def spy(frame, wp):
            calls.append(wp)
            return _theta(frame, wp)

        monkeypatch.setattr(elliptic, "_theta", spy)
        for prec in (64, 256):
            model_from_tau(tau, prec)
        assert calls == [168, 360]

    @pytest.mark.parametrize("prec", [64, 256])
    def test_j_relative_far_above_the_working_precision(self, prec):
        # mag = 9065 bits, far above the kernel's prec + 104: j is within
        # 2^-(prec+93) (1 + |j|) before its rounding, which adds 2^-prec |j|
        tau = mp.mpc(0.25, 1000)
        m = model_from_tau(tau, prec)
        ev = j_value_with_bound(tau, prec)
        with mp.workprec(prec + 64):
            bound = (mp.mpf(2) ** -(prec + 93) * (1 + abs(ev.j))
                     + mp.mpf(2) ** -prec * abs(m.j) + ev.error_bound)
            assert abs(m.j - ev.j) <= bound

    def test_intractable_height_refused_before_computing(self, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("theta kernel ran")

        monkeypatch.setattr("attrarith.elliptic._theta", no_kernel)
        with pytest.raises(PrecisionExhausted):
            model_from_tau(mp.mpc(0, 1e7))

    def test_surd_height_past_float_range_refused(self):
        # y = 10^400 is too large for a float; the height is refused on integers first
        with pytest.raises(PrecisionExhausted):
            model_from_tau(QuadraticSurd(0, 10**400, 1, -4), 64)

    def test_form_disc_past_float_range_refused(self):
        with pytest.raises(PrecisionExhausted, match="intractable"):
            model_from_tau(BinaryQuadraticForm(1, 1, 10**400), 64)


IDENTITY_POINTS = [
    attractor_point(ChargeData(2, 3, 1)).tau,
    attractor_point(ChargeData(1, 1, 0)).tau,
    attractor_point(ChargeData(1, 1600, 0)).tau,   # no r^4 term is due (M = 2)
    attractor_point(ChargeData(2, 2, 1)).tau,   # rho + 1, where E4 = 0
    mp.mpc("-0.4999", "0.8661"),                # near rho
    mp.mpc("0.31", "1.7"),
]


class TestJacobiIdentity:
    """E4^3 - E6^2 = 1728 Delta on the model's own kernel integers: the residual
    stays within its certified bound, far below 2^-prec."""

    @pytest.mark.parametrize("tau", IDENTITY_POINTS)
    def test_residual_within_bound(self, tau):
        for prec in (64, 256):
            residual, bound = model_from_tau(tau, prec).jacobi
            assert residual <= bound < mp.mpf(2) ** -prec, (tau, prec)

    def test_twist_keeps_the_check(self):
        m = model_from_tau(mp.mpc("0.31", "1.7"), 192)
        t = twist_model(m, mp.mpc("0.7", "-1.9"))
        assert t.jacobi is m.jacobi and t.quartic is m.quartic


class TestThetaQuartic:
    """theta_3(Q)^4 = theta_2(Q)^4 + theta_4(Q)^4 at Q = r^4 on the kernel's
    r^4-level sums: the residual stays within its certified bound, far below
    2^-prec."""

    @pytest.mark.parametrize("tau", IDENTITY_POINTS)
    def test_residual_within_bound(self, tau):
        for prec in (64, 256):
            residual, bound = model_from_tau(tau, prec).quartic
            assert residual <= bound < mp.mpf(2) ** -prec, (tau, prec)


class TestTorsionPoints:
    def test_two_torsion_roots_of_cubic(self):
        m = model_from_tau(mp.mpc('0.3', '1.7'), prec=256)
        pts = torsion_points(m, 2)
        assert len(pts) == 3
        with mp.workprec(300):
            for p in pts:
                assert abs(p.x**3 + m.A * p.x + m.B) < mp.mpf(10) ** -25
                assert abs(p.y) < mp.mpf(10) ** -25
            assert abs(sum(p.x for p in pts)) < mp.mpf(10) ** -25

    def test_two_torsion_matches_polynomial_roots(self):
        # independent oracle: numeric roots of the cubic itself
        m = model_from_tau(mp.mpc('-0.42', '0.9'), prec=256)
        pts = torsion_points(m, 2)
        with mp.workprec(280):
            roots = mp.polyroots([1, 0, m.A, m.B], maxsteps=120, extraprec=80)
            got = sorted((complex(p.x) for p in pts), key=lambda z: (z.real, z.imag))
            want = sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-40

    def test_three_torsion_count_and_ode(self):
        prec = 256
        m = model_from_tau(mp.mpc('0.3', '1.7'), prec=prec)
        pts = torsion_points(m, 3)
        assert len(pts) == 8
        with mp.workprec(320):
            g2 = -4 * m.A
            g3 = -4 * m.B
            bound = mp.mpf(2) ** (-prec // 2 + 10)
            for p in pts:
                resid = abs((2 * p.y) ** 2 - (4 * p.x**3 - g2 * p.x - g3))
                assert resid < bound

    def test_square_lattice_has_vanishing_two_torsion_x(self):
        m = model_from_tau(mp.mpc(0, 1), prec=256)
        xs = [abs(p.x) for p in torsion_points(m, 2)]
        assert min(xs) < mp.mpf(10) ** -25

    def test_coords_and_ordering(self):
        m = model_from_tau(mp.mpc('0.1', '1.3'), prec=128)
        pts = torsion_points(m, 3)
        coords = [p.lattice_coords for p in pts]
        expect = [(Fraction(a, 3), Fraction(b, 3))
                  for a in range(3) for b in range(3) if (a, b) != (0, 0)]
        assert coords == expect

    def test_x_parity(self):
        rng = random.Random(62)
        for n in (2, 3, 4):
            m = model_from_tau(random_tau(rng), prec=192)
            table = {p.lattice_coords: p.x for p in torsion_points(m, n)}
            with mp.workprec(240):
                for (a, b), x in table.items():
                    # coords are reduced fractions; negate mod 1 via the n-grid
                    neg = (Fraction((-int(a * n)) % n, n), Fraction((-int(b * n)) % n, n))
                    assert abs(x - table[neg]) < mp.mpf(2) ** -150 * (1 + abs(x))

    def test_ode_residual_random(self):
        rng = random.Random(63)
        prec = 192
        with mp.workprec(260):
            bound = mp.mpf(2) ** (-prec // 2 + 10)
            for _ in range(6):
                m = model_from_tau(random_tau(rng), prec=prec)
                n = rng.choice((2, 3))
                for p in torsion_points(m, n):
                    resid = abs((2 * p.y) ** 2 - (4 * p.x**3 + 4 * m.A * p.x + 4 * m.B))
                    assert resid < bound

    def test_one_mpmath_exponential_per_call(self, monkeypatch):
        # u, v, w and q are products of powers of alpha and zeta, not one
        # exponential per point; alpha comes from the frame's exact point
        m = model_from_tau(mp.mpc("0.3", "1.7"), prec=128)
        calls = []
        expjpi = _Frame.expjpi
        monkeypatch.setattr(_Frame, "expjpi", lambda *a: calls.append(a) or expjpi(*a))
        monkeypatch.setattr(mp, "expjpi", lambda z: calls.append(z) or 1 / 0)
        torsion_points(m, 7)
        assert len(calls) == 1

    def test_order_too_small(self):
        m = model_from_tau(mp.mpc(0, 1), prec=128)
        with pytest.raises(OutOfRange):
            torsion_points(m, 1)


def oracle_cases():
    """(tau, n, prec, twist): eight seeded tau, every n in 2..7 and every precision,
    then n = 50, 31 and 13 at 64 bits.

    Two tau have Im >= 5, three have |Re| in [10, 20] and Im <= 0.3 (several
    reduction steps), three lie near the fundamental domain; one model is
    twisted.  The costlier (n, prec) pairs go to the larger Im tau, where the
    direct series is short.  The guard bits for the power chains and for
    1/(1 - u)^3 grow with n, so the large orders take a tau near rho, where
    |q| is largest, one with Im tau >= 5 and one far tau.
    """
    rng = random.Random(66)

    def far():
        return mp.mpc(rng.choice((-1, 1)) * rng.uniform(10, 20), rng.uniform(0.02, 0.3))

    def near():
        return mp.mpc(rng.uniform(-0.6, 0.6), rng.uniform(0.8, 1.6))

    def high():
        return mp.mpc(rng.uniform(-20, 20), rng.uniform(5, 8))

    return [
        (high(), 7, 512, None),
        (high(), 6, 256, None),
        (far(), 7, 128, None),
        (far(), 5, 512, None),
        (far(), 4, 256, None),
        (near(), 6, 128, mp.mpc(rng.uniform(0.5, 2), rng.uniform(-2, 2))),
        (near(), 3, 256, None),
        (near(), 2, 512, None),
        (mp.mpc("0.4991", "0.8672"), 50, 64, None),
        (mp.mpc("-3.27", "5.6"), 31, 64, None),
        (mp.mpc("13.14", "0.07"), 13, 64, None),
    ]


class TestTorsionAgainstDirectSeries:
    def test_every_point_matches_direct_series(self):
        rng = random.Random(68)
        for tau, n, prec, twist in oracle_cases():
            m = model_from_tau(tau, prec=prec)
            u = mp.mpc(1) if twist is None else twist
            if twist is not None:
                m = twist_model(m, twist)
            pts = torsion_points(m, n)
            assert len(pts) == n * n - 1
            if n > 7:
                # coordinates 0 or +-1/n (next to the origin for a reduced tau, as near rho,
                # where |1 - u| is smallest) and a sample
                near = [p for p in pts if {int(c * n) for c in p.lattice_coords} <= {0, 1, n - 1}]
                pts = near + rng.sample(pts, 16)
            with mp.workprec(prec + 64):
                tol = mp.mpf(2) ** -(prec - 8)
                for p in pts:
                    a, b = (int(c * n) for c in p.lattice_coords)
                    x, y = wp_direct(tau, a, b, n, prec)
                    x, y = u**2 * x, u**3 * y
                    assert abs(p.x - x) <= tol * max(1, abs(x)), (tau, n, prec, a, b)
                    assert abs(p.y - y) <= tol * max(1, abs(y)), (tau, n, prec, a, b)

    def test_pairs_share_x_and_negate_y(self):
        rng = random.Random(67)
        for n in range(2, 8):
            tau = mp.mpc(rng.uniform(-20, 20), rng.uniform(0.02, 6))
            table = {p.lattice_coords: p for p in torsion_points(model_from_tau(tau, 128), n)}
            for (a, b), p in table.items():
                neg = table[(-a) % 1, (-b) % 1]
                if neg is not p:  # points of order 2 are their own partners
                    assert neg.x == p.x and neg.y + p.y == 0


class TestTorsionAtExactPoint:
    # tau in Q(sqrt -23), Q(sqrt -3) (j real, and j = 0), Q(sqrt -19) (twice) and
    # Q(i) (j = 1728)
    POOL = [(3, 8, 1), (7, 4, -4), (4, 5, -1), (1, 19, 0), (2, 2, 1), (1, 1, 0)]

    def test_surd_kept_as_source_point(self):
        tau = attractor_point(ChargeData(2, 3, 1)).tau
        m = model_from_tau(tau, prec=128)
        assert m.source_tau == tau and twist_model(m, 3).source_tau == tau
        assert isinstance(model_from_tau(mp.mpc(0.5, 1.5), 128).source_tau, mp.mpc)

    @staticmethod
    def cubic_residual(model, n):
        # max over the points of |(2y)^2 - (4x^3 + 4Ax + 4B)| / max(|x|^3, |B|)
        with mp.workprec(model.precision_bits + 64):
            return max(abs((2 * p.y) ** 2 - 4 * (p.x**3 + model.A * p.x + model.B))
                       / max(abs(p.x) ** 3, abs(model.B)) for p in torsion_points(model, n))

    @pytest.mark.parametrize("prec", [128, 256])
    def test_long_mpc_points_on_the_model(self, prec):
        # tau held at 2048 bits: the points are taken at that tau, which A and
        # B come from, not at tau rounded to prec, so they lie on the curve at
        # rounding level
        with mp.workprec(2048):
            tau = mp.mpc(mp.mpf(3) / 7 + mp.mpf(3) ** -50, mp.mpf(1) / 1100)
        m = model_from_tau(tau, prec)
        assert m.source_tau is tau
        assert self.cubic_residual(m, 3) < mp.mpf(2) ** -(prec - 6)

    def test_form_kept_as_source_point(self):
        f = BinaryQuadraticForm(3, 5, 7)   # its root lies outside the fundamental domain
        m = model_from_tau(f, 128)
        assert m.source_tau is f and _frame(f, 128).mu is not None
        assert self.cubic_residual(m, 3) < mp.mpf(2) ** -(128 - 6)

    def test_surd_source_never_rendered(self, monkeypatch):
        # a surd source point reaches the model and the torsion points exactly:
        # only mu is rendered, from its own integers
        def fail(*args):
            raise AssertionError("tau was rendered")

        monkeypatch.setattr(QuadraticSurd, "to_mpc", fail)
        tau = QuadraticSurd(3, 1, 10, -19)
        assert _frame(tau, 128).mu is not None
        m = model_from_tau(tau, 128)
        for n in (2, 3, 5):
            torsion_points(m, n)

    def test_matches_exact_point_256_bits_higher(self):
        # the points are taken at the exact surd that A, B and j belong to, so
        # they agree to within 2^-(prec-1) max(|z|, 1), two roundings to prec,
        # with the same computation 256 bits higher
        prec = 256
        tol = mp.mpf(2) ** -(prec - 1)
        for charge in self.POOL:
            tau = attractor_point(ChargeData(*charge)).tau
            m, ref = model_from_tau(tau, prec), model_from_tau(tau, prec + 256)
            for n in range(2, 8):
                for p, q in zip(torsion_points(m, n), torsion_points(ref, n)):
                    assert p.lattice_coords == q.lattice_coords
                    with mp.workprec(prec + 256):
                        for got, want in ((p.x, q.x), (p.y, q.y)):
                            assert abs(got - want) <= tol * max(abs(want), 1), (charge, n)


class TestWeberFunction:
    def test_j1728_vanishing_point(self):
        m = model_from_tau(mp.mpc(0, 1), prec=256)
        pts = torsion_points(m, 2)
        p0 = min(pts, key=lambda p: abs(p.x))
        with mp.workprec(280):
            assert abs(weber_function(m, p0)) < mp.mpf(10) ** -40

    def test_j0_two_torsion_closed_form(self):
        rho = QuadraticSurd(1, 1, 2, -3)
        m = model_from_tau(rho, prec=256)
        with mp.workprec(280):
            want = -m.B**2 / m.delta
            for p in torsion_points(m, 2):
                assert abs(weber_function(m, p) - want) < mp.mpf(10) ** -40
            # 1/(16*27): delta = -16*27*B^2 when A = 0
            assert abs(want - mp.mpf(1) / 432) < mp.mpf(10) ** -40

    def test_generic_point_finite_and_twist_invariant(self):
        tau = QuadraticSurd(1, 1, 2, -5)
        m = model_from_tau(tau, prec=256)
        pts = torsion_points(m, 2)
        vals = [weber_function(m, p) for p in pts]
        assert all(mp.isfinite(v) and abs(v) > 0 for v in vals)
        mt = twist_model(m, mp.mpc('0.7', '1.9'))
        with mp.workprec(280):
            for p, q, v in zip(pts, torsion_points(mt, 2), vals):
                assert p.lattice_coords == q.lattice_coords
                assert abs(weber_function(mt, q) - v) < mp.mpf(10) ** -40

    def test_constant_per_model_matches_per_point_formula(self):
        # the case and constant are chosen once per model; chosen anew from
        # the fields 256 bits higher they must agree, the constant within
        # its 2^-(prec+32)
        def per_point(model):
            prec = model.precision_bits
            with mp.workprec(prec + 256):
                tol = mp.mpf(2) ** (-(prec // 4))
                if abs(model.j - 1728) < tol:
                    return model.A**2 / model.delta, 2
                if abs(model.j) < tol:
                    return model.B / model.delta, 3
                return model.A * model.B / model.delta, 1

        taus = (mp.mpc(0, 1), QuadraticSurd(1, 1, 2, -3), QuadraticSurd(1, 1, 2, -5),
                mp.mpc("0.31", "1.7"))
        for k, tau in enumerate(taus):
            m = model_from_tau(tau, prec=(128, 256, 256, 192)[k])
            for m_t in (m, twist_model(m, mp.mpc("0.7", "1.9"))):
                ((c0, c1), e), case = m_t.weber_case
                want, want_case = per_point(m_t)
                assert case == want_case == (2, 3, 1, 1)[k]
                with mp.workprec(m.precision_bits + 256):
                    got = mp.mpc(mp.ldexp(c0, e), mp.ldexp(c1, e))
                    assert abs(got - want) <= abs(want) * mp.mpf(2) ** -(m.precision_bits + 32)
            assert m.weber_case is m.weber_case

    def test_value_rounded_once(self):
        # constant * x^k from the constant's integers and x, formed 256 bits
        # higher and rounded to prec once: k = 2 (j = 1728), 3 (j = 0), 1,
        # and 1 on a twisted model
        cases = ((mp.mpc(0, 1), 128, 2, None), (QuadraticSurd(1, 1, 2, -3), 256, 3, None),
                 (QuadraticSurd(1, 1, 2, -5), 256, 1, None),
                 (mp.mpc("0.31", "1.7"), 192, 1, mp.mpc("0.7", "1.9")))
        for tau, prec, k, twist in cases:
            m = model_from_tau(tau, prec)
            if twist is not None:
                m = twist_model(m, twist)
            ((c0, c1), e), case = m.weber_case
            assert case == k
            for n in (2, 3, 5):
                for p in torsion_points(m, n):
                    with mp.workprec(prec + 256):
                        want = mp.mpc(mp.ldexp(c0, e), mp.ldexp(c1, e)) * p.x**k
                    with mp.workprec(prec):
                        assert weber_function(m, p) == +want, (tau, n, p.lattice_coords)

    def test_case_decided_on_integers(self):
        # k is read off the reduced point's integers, never off j: 2 at i, 3 at
        # rho or rho + 1, and 1 at every other point however near them; a
        # twisted model keeps its case
        table = ((mp.mpc(0, 1), 128, 2),
                 (mp.mpc(1, 1), 128, 2),                         # reduces to i
                 (BinaryQuadraticForm(1, 1, 1), 128, 3),
                 (QuadraticSurd(1, 1, 2, -3), 256, 3),           # rho + 1
                 (BinaryQuadraticForm(3, 3, 1), 128, 3),         # reduces to rho
                 (mp.mpc(0, 2), 128, 1),
                 (mp.mpc(0, 1 + mp.mpf(2) ** -40), 256, 1),      # |j - 1728| ~ 2^-65
                 (QuadraticSurd(1, 1, 2, -5), 128, 1))
        for tau, prec, k in table:
            m = model_from_tau(tau, prec)
            assert m.weber_case[1] == k, tau
            assert twist_model(m, mp.mpc("0.7", "1.9")).weber_case[1] == k, tau
        # a model at i has k = 2 whatever its j says
        hand = WeierstrassModel(A=mp.mpc(1), B=mp.mpc(1), delta=mp.mpc(-16 * 31),
                                j=mp.mpc(864), source_tau=mp.mpc(0, 1), scale=mp.mpc(1),
                                precision_bits=128)
        assert hand.weber_case[1] == 2


class TestTwistModel:
    def test_identity_twist(self):
        m = model_from_tau(mp.mpc('0.2', '1.1'), prec=192)
        t = twist_model(m, 1)
        assert t.A == m.A and t.B == m.B and t.delta == m.delta and t.j == m.j

    def test_integer_twist_scaling(self):
        hand = WeierstrassModel(
            A=mp.mpc(1), B=mp.mpc(1), delta=mp.mpc(-16 * 31), j=mp.mpc(1728) * 4 / 31,
            source_tau=mp.mpc(0, 1), scale=mp.mpc(1), precision_bits=128,
        )
        t = twist_model(hand, 2)
        assert t.A == 16 and t.B == 64
        assert t.delta == hand.delta * 4096
        assert t.j == hand.j

    def test_fields_are_exact_products_rounded_once(self):
        # u real, imaginary and complex, on twisted models too (scale != 1);
        # mpmath's products at 16 prec + 512 bits are exact, and each field
        # must be that product rounded once to prec bits
        rng = random.Random(3002)
        for k in range(24):
            prec = (64, 128, 256)[k % 3]
            with mp.workprec(prec):
                tau = mp.mpc(rng.uniform(-1, 1), rng.uniform(0.3, 2))
                u = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                u = (u, mp.mpc(u.real), mp.mpc(0, u.imag))[k % 3]
            m = model_from_tau(tau, prec)
            if k % 2:
                m = twist_model(m, mp.mpc("0.7", "-1.9"))
            t = twist_model(m, u)
            with mp.workprec(16 * prec + 512):
                u2 = u * u
                u4, u6 = u2 * u2, u2 * u2 * u2
                want = (m.A * u4, m.B * u6, m.delta * u6 * u6, m.scale * u)
            with mp.workprec(prec):
                assert (t.A, t.B, t.delta, t.scale) == tuple(+w for w in want), (tau, u, prec)

    def test_zero_twist_rejected(self):
        m = model_from_tau(mp.mpc(0, 1), prec=128)
        with pytest.raises(ZeroTwist):
            twist_model(m, 0)

    @pytest.mark.parametrize("u", [mp.inf, mp.nan, mp.mpc(1, mp.inf)])
    def test_non_finite_twist_rejected(self, u):
        m = model_from_tau(mp.mpc("0.31", "1.7"), prec=128)
        with pytest.raises(OutOfRange, match="finite"):
            twist_model(m, u)

    def test_torsion_coordinates_scale(self):
        m = model_from_tau(mp.mpc('0.25', '1.4'), prec=192)
        u = mp.mpc('1.3', '-0.4')
        mt = twist_model(m, u)
        with mp.workprec(240):
            for p, q in zip(torsion_points(m, 3), torsion_points(mt, 3)):
                assert abs(q.x - u**2 * p.x) < mp.mpf(2) ** -150 * (1 + abs(q.x))
                assert abs(q.y - u**3 * p.y) < mp.mpf(2) ** -150 * (1 + abs(q.y))

    def test_weber_multiset_invariance(self):
        rng = random.Random(64)
        prec = 192
        with mp.workprec(260):
            bound = mp.mpf(2) ** (-prec // 2 + 10)
            for _ in range(20):
                tau = random_tau(rng)
                n = rng.choice((2, 3))
                u = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if abs(u) < 0.1:
                    u += 1
                m = model_from_tau(tau, prec=prec)
                mt = twist_model(m, u)
                base = sorted((weber_function(m, p) for p in torsion_points(m, n)),
                              key=lambda z: (mp.re(z), mp.im(z)))
                twisted = sorted((weber_function(mt, p) for p in torsion_points(mt, n)),
                                 key=lambda z: (mp.re(z), mp.im(z)))
                for a, b in zip(base, twisted):
                    assert abs(a - b) < bound


class TestModelFrame:
    """A model holds the frame model_from_tau made, so its torsion points,
    Weber values and twists do not frame the point again."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        frame = elliptic._frame
        monkeypatch.setattr(elliptic, "_frame", lambda *a: calls.append(a) or frame(*a))
        return calls

    @pytest.mark.parametrize("tau", [attractor_point(ChargeData(8, 8, -3)).tau,
                                     mp.mpc("3.31", "0.17"), mp.mpc(0, 1)])
    def test_point_framed_once(self, monkeypatch, tau):
        calls = self.spy(monkeypatch)
        m = model_from_tau(tau, 128)
        for model in (m, twist_model(m, mp.mpc("0.7", "-1.9"))):
            [weber_function(model, p) for p in torsion_points(model, 3)]
        assert len(calls) == 1

    def test_frame_left_out_of_equality_and_repr(self):
        tau = mp.mpc("3.31", "0.17")
        a, b = model_from_tau(tau, 128), model_from_tau(tau, 128)
        assert a == b and a.frame is not b.frame and a.frame == _frame(tau, 128)
        assert "frame" not in repr(a)

    def test_hand_built_model_frames_its_point(self, monkeypatch):
        tau, prec = mp.mpc("0.31", "1.7"), 192
        a, b, delta, j = model_mpmath(tau, prec)
        hand = WeierstrassModel(a, b, delta, j, tau, mp.mpc(1), prec)   # positional, no frame
        calls = self.spy(monkeypatch)
        [weber_function(hand, p) for p in torsion_points(hand, 2)]
        assert len(calls) == 1 and hand.frame == _frame(tau, prec)


def series_at(alpha, zeta, n, ar, br, counts):
    """X and Y of the torsion_points Lambert form at u = alpha^ar zeta^br,
    v = alpha^(n+ar) zeta^br, w = alpha^(n-ar) zeta^((n-br) mod n) and q = alpha^n,
    truncated as the kernel truncates: counts = (terms of the v sums, of the
    w sums, of T)."""
    u = alpha**ar * zeta**br
    v = alpha ** (n + ar) * zeta**br
    w = alpha ** (n - ar) * zeta ** ((n - br) % n)
    q = alpha**n
    x = mp.mpf(1) / 12 + u / (1 - u) ** 2
    y = u * (1 + u) / (1 - u) ** 3
    cv, cw, ct = counts
    for m in range(1, max(counts) + 1):
        dm = m / (1 - q**m)
        vm = v**m if m <= cv else 0
        wm = w**m if m <= cw else 0
        x += dm * (vm + wm - 2 * q**m * (m <= ct))
        y += m * dm * (vm - wm)
    return x, y


def check_rows(tau, n, prec, reps):
    """Every (ar, br) in reps through _TorsionKernel.row and _Row.at, against
    series_at at the kernel's own alpha and zeta, within the 2^-(wp+4) that
    the torsion_points docstring derives."""
    wp = prec + 96
    frame = _frame(tau, prec)
    counts = {ar: (_lambert_count((1 + ar / n) * frame.mag, wp),
                   _lambert_count((1 - ar / n) * frame.mag, wp)) for ar, _ in reps}
    m_max = max(cw for _, cw in counts.values())
    kernel = _torsion_kernel(frame, n, m_max, wp)
    F = kernel.F
    with mp.workprec(2 * F):
        alpha, zeta = (mp.mpc(*z) / mp.mpf(2) ** F for z in (kernel.apow[1], kernel.zpow[1]))
        for ar, (cv, cw) in counts.items():
            row = kernel.row(ar, cv, cw)
            for br in sorted(br for a, br in reps if a == ar):
                xs, ys = row.at(br)
                x, y = series_at(alpha, zeta, n, ar, br, (cv, cw, m_max))
                for got, want in ((xs, x), (ys, y)):
                    err = abs(mp.mpc(*got) / mp.mpf(2) ** F - want)
                    assert err <= mp.mpf(2) ** -(wp + 4), (n, ar, br, mp.log(err, 2) + wp)


class TestTorsionKernelRounding:
    def test_series_within_rounding_bound(self):
        # n = 200 near rho: |1 - u| is down to 2 sin(pi/200) at (0, 1), so the
        # leading term's guard bits, which grow like 5 log2 n, are what keep
        # the rounding within the 2^-(wp+4) that the torsion_points docstring
        # derives; every sum has fewer than n terms, so most buckets are empty
        n = 200
        check_rows(mp.mpc("0.4991", "0.8672"), n, 64,
                   [(0, 1), (1, 0), (1, n - 1), (0, n // 2), (n // 2, 1), (n // 2, n // 2),
                    (3, 7)])

    @pytest.mark.parametrize("n", [2, 6, 7])
    def test_rows_zero_and_half(self, n):
        # rows ar = 0 and ar = n // 2 at every br: the w sums run to about
        # 20 terms here, so each bucket m mod n holds several, and zeta^(br k)
        # takes every exponent
        reps = [(ar, br) for ar in {0, n // 2} for br in range(n) if (ar, br) != (0, 0)]
        check_rows(mp.mpc("0.4991", "0.8672"), n, 64, reps)
