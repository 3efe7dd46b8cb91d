"""Tests for the theta kernel, j evaluation, class polynomials, CM certificates."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath import libmp

from attrarith import modular
from attrarith.arith import BinaryQuadraticForm, QuadraticSurd, class_group_forms, reduce_form
from attrarith.attractor import ChargeData, attractor_point
from attrarith.cli import run
from attrarith.elliptic import _rounded, model_from_tau, torsion_points
from attrarith.errors import (
    InvalidDiscriminant,
    NotAttractor,
    NotUpperHalfPlane,
    OutOfRange,
    PrecisionExhausted,
    RoundingFailed,
)
from attrarith.modular import (
    _IDENTITY,
    _cos_sin_pi,
    _dyadic,
    _frame,
    _Frame,
    _from_mpc,
    _mul,
    _sqr,
    _theta,
    _to_mpc,
    _to_mpf,
    certify_attractor_cm,
    hcp_record_valid,
    hilbert_class_polynomial,
    j_value,
    j_value_with_bound,
    load_hcp_cache,
    store_hcp_cache,
)

from oracles import (dense_q_coefficients, dyadic_surd, eisenstein_dense, j_dense, random_sl2,
                     reduce_root_exact, sigma_power, theta_reference)


def _q_mul(p, q, n_max):
    """Product of two q-series truncated after q^n_max."""
    out = [0] * (n_max + 1)
    for i, pi in enumerate(p[: n_max + 1]):
        for j, qj in enumerate(q[: n_max + 1 - i]):
            out[i + j] += pi * qj
    return out


# The exact q-expansions live only in the oracle dense_q_coefficients; these
# tests check it against values and identities it does not itself compute.
class TestEisenstein:
    def test_examples(self):
        # E4 and E6 as published (OEIS A004009, A013973), not recomputed from
        # divisor sums, which the oracle uses
        e4, e6, _ = dense_q_coefficients(8)
        assert e4[:6] == [1, 240, 2160, 6720, 17520, 30240]
        assert e6[:5] == [1, -504, -16632, -122976, -532728]

    def test_divisor_sums(self):
        # E4^2 = E8 and E4*E6 = E10: divisor sums of powers the oracle never forms
        N = 30
        e4, e6, _ = dense_q_coefficients(N)
        e8 = [1] + [480 * sigma_power(n, 7) for n in range(1, N + 1)]
        e10 = [1] + [-264 * sigma_power(n, 9) for n in range(1, N + 1)]
        assert _q_mul(e4, e4, N) == e8
        assert _q_mul(e4, e6, N) == e10


class TestDeltaSeries:
    def test_ramanujan_coefficients(self):
        # Ramanujan's tau(n) as published (OEIS A000594)
        _, _, delta = dense_q_coefficients(8)
        assert delta == [0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480]

    def test_exact_identity(self):
        # the oracle's (E4^3 - E6^2)/1728 equals q prod (1 - q^n)^24 exactly
        N = 60
        _, _, delta = dense_q_coefficients(N)
        prod = [1] + [0] * N
        for n in range(1, N + 1):
            factor = [0] * (N + 1)
            factor[0], factor[n] = 1, -1
            for _ in range(24):
                prod = _q_mul(prod, factor, N)
        assert delta == [0] + prod[:N]


def exact_input(tau):
    """The exact value _frame takes for tau."""
    return tau if isinstance(tau, QuadraticSurd) else dyadic_surd(tau)


def assert_lam(frame, mu, bits):
    """_Frame.lam(bits) within relative 2^-(bits+1) of 2 pi i/mu, for mu from
    the exact Moebius oracle: a surd, or 1."""
    (lr, li), e = frame.lam(bits)
    with mp.workprec(bits + 64):
        want = 2j * mp.pi / (mu.to_mpc(bits + 64) if isinstance(mu, QuadraticSurd) else mu)
        got = mp.mpc(mp.ldexp(lr, e), mp.ldexp(li, e))
        assert abs(got - want) <= abs(want) * mp.mpf(2) ** -(bits + 1), (frame.mu, bits)


def exact_reduced(frame, tau):
    """(tau', mu) of a frame as exact surds."""
    red = QuadraticSurd(*frame.red, frame.disc)
    if frame.mu is None:
        assert red == exact_input(tau)
        return red, 1
    return red, QuadraticSurd(*frame.mu, frame.disc)


class TestReduceToFundamental:
    """_frame: the exact reduction of every tau to the fundamental domain."""

    def test_translation(self):
        frame = _frame(mp.mpc(7, 1), 64)
        assert frame.mat == ((1, -7), (0, 1))
        assert exact_reduced(frame, mp.mpc(7, 1)) == (QuadraticSurd(0, 1, 1, -1), 1)

    def test_deep_point(self):
        tau = mp.mpc("0.1", "0.1")
        frame = _frame(tau, 64)
        (a, b), (c, d) = frame.mat
        assert a * d - b * c == 1
        red, mu = exact_reduced(frame, tau)
        assert 2 * abs(red.x) <= 1 and red.norm_squared() >= 1
        assert mu == c * dyadic_surd(tau) + d

    def test_already_reduced(self):
        tau = QuadraticSurd(1, 1, 2, -5)
        frame = _frame(tau, 64)
        assert frame.mat == ((1, 0), (0, 1)) and frame.mu is None
        assert exact_reduced(frame, tau) == (tau, 1)
        assert_lam(frame, 1, 256)
        assert frame.lam(256)[0][0] == 0   # 2 pi i, with no real part

    def test_lam_refused_past_the_precision_cap(self):
        for tau in (mp.mpc(0, 1), QuadraticSurd(3, 1, 10, -19)):
            with pytest.raises(PrecisionExhausted):
                _frame(tau, 64).lam(10_000_001)

    def test_rejects_lower_half_plane(self):
        for tau in (mp.mpc(0, -1), mp.mpc(3, 0), QuadraticSurd(0, -1, 2, -7)):
            with pytest.raises(NotUpperHalfPlane):
                _frame(tau, 64)

    def test_random_points(self):
        # SL(2,Z) images of random surds, and of dyadic points rounded back to
        # dyadic mpc inputs, against the exact Moebius oracle
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(seed=st.integers(0, 2**32), dyadic=st.booleans())
        def check(seed, dyadic):
            rng = random.Random(seed)
            if dyadic:
                base = QuadraticSurd(rng.randrange(-2**12, 2**12), rng.randrange(1, 2**14),
                                     2**12, -1)
            else:
                base = QuadraticSurd(rng.randrange(-30, 31), rng.randrange(1, 5),
                                     rng.randrange(1, 30), -rng.randrange(1, 200))
            (a, b), (c, d) = random_sl2(rng)
            tau = (a * base + b) / (c * base + d)
            if dyadic:
                tau = tau.to_mpc(80)
            t = exact_input(tau)
            frame = _frame(tau, 64)
            (a, b), (c, d) = frame.mat
            assert a * d - b * c == 1
            red, mu = exact_reduced(frame, tau)
            assert red == (a * t + b) / (c * t + d) and mu == c * t + d
            if 2 * abs(t.x) <= 1 and t.norm_squared() >= 1:
                assert frame.mat == ((1, 0), (0, 1)) and frame.mu is None
            else:
                assert red == reduce_root_exact(t)[0]
            assert_lam(frame, c * t + d, rng.choice((64, 192, 1000)))
            with pytest.raises(NotUpperHalfPlane):
                _frame(mp.conj(tau) if dyadic else t.conjugate(), 64)

        check()

    @pytest.mark.parametrize("tau", [mp.mpc(mp.nan, 1), mp.mpc(0, mp.inf),
                                     mp.mpc(mp.inf, 1), mp.mpc(0, mp.nan)])
    def test_non_finite_tau_refused(self, tau):
        with pytest.raises(OutOfRange):
            j_value_with_bound(tau, 64)


class TestFrameExponential:
    """_Frame.expjpi: e^(pi i m tau') from the frame's exact integers."""

    def test_one_small_square_root(self):
        # floor(sqrt(y)) = isqrt(floor(y)) for y >= 0, so t = floor(sqrt(x D 2^2p)/d)
        # comes from the square root of the quotient, not of the numerator
        rng = random.Random(2024)
        for _ in range(10_000):
            x = rng.getrandbits(rng.randrange(1, 400))
            d = rng.getrandbits(rng.randrange(1, 300)) + 1
            y = x * (rng.getrandbits(rng.randrange(1, 60)) + 1) << 2 * rng.randrange(16, 400)
            assert math.isqrt(y) // d == math.isqrt(y // (d * d))

    def test_dense_point_at_the_exact_cap(self):
        # tau = 1/4 + 2^-(2^20 - 4) + 3i/2 spans 2^20 - 3 bits: its frame's
        # integers are that long, and j there is j at 1/4 + 3i/2 to far below
        # the bound
        with mp.workprec(2**20):
            tau = mp.mpc(mp.mpf(0.25) + mp.ldexp(1, 4 - 2**20), 1.5)
        start = time.perf_counter()
        ev = j_value_with_bound(tau, 64)
        assert time.perf_counter() - start < 1
        ref = j_value_with_bound(QuadraticSurd(Fraction(1, 4), Fraction(3, 2)), 128)
        with mp.workprec(256):
            assert abs(ev.j - ref.j) <= ev.error_bound + ref.error_bound + mp.ldexp(1, -1000)

    def test_span_past_the_cap_refused(self):
        # 2^-(2^20) + i spans 2^20 + 1 bits: refused before its integers are
        # formed, though it lies in the fundamental domain at height 1
        tau = mp.mpc(mp.ldexp(1, -2**20), 1)
        for call in (lambda: _dyadic(tau), lambda: j_value_with_bound(tau, 64)):
            with pytest.raises(PrecisionExhausted, match="spans 1048577 bits"):
                call()

    LOW, HIGH = -mp.mpf("1.03"), mp.mpf("0.03")

    @pytest.fixture(autouse=True)
    def angles(self, monkeypatch):
        # every angle handed to mpmath's cos/sin in these tests: given one
        # whose nearest half-integer lies above it, mpmath works at about
        # twice the precision, so each must be reduced to |x| <= 1/4 first
        seen = []
        cos_sin_pi = modular.mpf_cos_sin_pi
        monkeypatch.setattr(modular, "mpf_cos_sin_pi",
                            lambda x, *a: seen.append(mp.make_mpf(x)) or cos_sin_pi(x, *a))
        yield seen
        assert all(abs(x) <= 0.25 for x in seen)

    def check(self, frame, m, bits):
        # floored from within 0.03 units of exact, as the docstring states
        got = frame.expjpi(m, bits)
        r, s, n = frame.red
        with mp.workprec(bits + 256):
            red = mp.mpc(mp.mpf(r * m.numerator) / (n * m.denominator),
                         mp.mpf(s * m.numerator) / (n * m.denominator) * mp.sqrt(-frame.disc))
            ref = mp.expjpi(red)
            for g, want in zip(got, (ref.real, ref.imag)):
                assert self.LOW < g - mp.ldexp(want, bits) <= self.HIGH, (frame.red, m, bits)

    def test_reduced_form_roots(self):
        rng = random.Random(1401)
        for disc in range(-3, -1001, -1):
            if disc % 4 not in (0, 1):
                continue
            for f in class_group_forms(disc):
                frame = _frame(QuadraticSurd(-f.b, 1, 2 * f.a, disc), 64)
                assert frame.mu is None
                bits = rng.choice((64, 128, 400))
                self.check(frame, Fraction(1), bits)
                self.check(frame, Fraction(2, rng.randrange(2, 51)), bits)

    def test_dyadic_points(self):
        # near the domain, deep (Im tau down to 1e-5, so tau' high up, where
        # r floors to zero) and far out (|Re tau| up to 20)
        rng = random.Random(1402)
        for k in range(200):
            x = rng.uniform(-0.5, 0.5) if k % 3 == 0 else rng.uniform(-20, 20)
            y = (rng.uniform(0.85, 3), 10 ** rng.uniform(-5, 0), rng.uniform(0.01, 1))[k % 3]
            with mp.workprec(80):
                tau = mp.mpc(x, y)
            frame = _frame(tau, 80)
            bits = rng.choice((64, 256, 1024))
            self.check(frame, Fraction(1), bits)
            self.check(frame, Fraction(2, rng.randrange(2, 51)), bits)

    def test_rotated_quadrants(self):
        # Re tau' in (-1/2, -1/4) and in (1/4, 1/2), the angles that
        # _cos_sin_pi reduces by -1/2 and by 1/2 and rotates back by i^-1 and i
        rng = random.Random(1601)
        taus = [QuadraticSurd(b, 1, 2 * a, b * b - 4 * a * c) for a, b, c in
                ((3, 2, 5), (3, -2, 5), (4, 3, 5), (4, -3, 5), (7, 6, 9), (7, -6, 9))]
        with mp.workprec(80):
            taus += [mp.mpc(sign * rng.uniform(0.26, 0.49), rng.uniform(1, 3))
                     for sign in (1, -1) for _ in range(4)]
        for tau in taus:
            frame = _frame(tau, 80)
            r, _, n = frame.red
            assert frame.mu is None and 1 < 4 * abs(r) / n < 2
            for bits in (64, 1024, 8192):
                self.check(frame, Fraction(1), bits)

    def test_torsion_angles_reduced(self, angles):
        # alpha and zeta reach mpmath's cos/sin once each per call, through
        # _cos_sin_pi; the fixture checks every angle
        model = model_from_tau(QuadraticSurd(3, 1, 10, -19), 128)
        for n in range(2, 8):
            before = len(angles)
            torsion_points(model, n)
            assert len(angles) == before + 2

    def test_refused_past_the_precision_cap(self):
        frame = _frame(mp.mpc(0, 1), 64)
        with pytest.raises(PrecisionExhausted):
            frame.expjpi(Fraction(1), 10_000_001)

    def test_no_point_rendered_for_j(self, monkeypatch):
        # class-polynomial roots and reduced inputs reach the kernel unrendered
        def fail(*args):
            raise AssertionError("a point was rendered")

        monkeypatch.setattr(QuadraticSurd, "to_mpc", fail)
        for disc in (-3, -4, -23, -479, -1000):
            hilbert_class_polynomial(disc)
        for tau in (QuadraticSurd(3, 1, 2, -7), mp.mpc("-7.3", "0.05")):
            j_value_with_bound(tau, 128)


class TestFixedPointHelpers:
    def test_square_matches_product(self):
        rng = random.Random(1602)
        for _ in range(2000):
            F = rng.randrange(1, 600)
            z = tuple(rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, F + 4))
                      for _ in range(2))
            assert _sqr(z, F) == _mul(z, z, F), (z, F)

    def test_cos_sin_pi_every_quadrant(self):
        # cos and sin of pi a/b within (pi + 1) 2^-p: the reduced angle floored
        # to p fractional bits, then one ulp each; exact at multiples of 1/2
        for p in (16, 64, 300):
            for b in range(1, 13):
                for a in range(-4 * b, 4 * b + 1):
                    c, s = (mp.make_mpf(v) for v in _cos_sin_pi(a, b, p))
                    with mp.workprec(p + 64):
                        x = mp.mpf(a) / b
                        tol = (mp.pi + 1) * mp.mpf(2) ** -p
                        assert abs(c - mp.cospi(x)) <= tol and abs(s - mp.sinpi(x)) <= tol
                    if (2 * a) % b == 0:
                        assert (c, s) == (mp.cospi(x), mp.sinpi(x)), (a, b)


class TestIntegerRounding:
    """_to_mpf and elliptic._rounded give mpmath's bits: from_man_exp at
    round_nearest (ties to even) or exactly, and mpf_div for the divisors of
    A and B."""

    PRECS = (53, 64, 256, 1000)

    def test_random_against_from_man_exp(self):
        rng = random.Random(2604)
        for _ in range(20000):
            v = rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 2001))
            e = rng.randrange(-4000, 4000)
            assert _to_mpf(v, e) == libmp.from_man_exp(v, e), (v, e)
            for prec in self.PRECS:
                want = libmp.from_man_exp(v, e, prec, libmp.round_nearest)
                assert _to_mpf(v, e, prec) == want, (v, e, prec)

    def test_constructed_cases(self):
        cases = [0]
        for prec in self.PRECS:
            for drop in (1, 2, 3, 17, 300):
                half = 1 << drop - 1
                for kept in (1 << prec - 1, (1 << prec - 1) + 1, (1 << prec) - 1, (1 << prec) - 2):
                    # a tie with even and odd kept bits, and just off a tie
                    cases += [(kept << drop) + half, (kept << drop) + half - 1,
                              (kept << drop) + half + 1, kept << drop]
            cases += [(1 << k) - 1 for k in range(prec - 2, prec + 70)]   # carries to 2^prec
            cases += [(1 << prec - 1) | 1, 3, 1]   # bc <= prec: kept exactly
        for v in cases:
            for sign in (1, -1):
                for e in (0, -77, -1100):
                    assert _to_mpf(sign * v, e) == libmp.from_man_exp(sign * v, e), v
                    for prec in self.PRECS:
                        want = libmp.from_man_exp(sign * v, e, prec, libmp.round_nearest)
                        assert _to_mpf(sign * v, e, prec) == want, (sign * v, e, prec)
        assert _to_mpf(0, 5, 53) == libmp.fzero
        assert _to_mpf(-(1 << 60) + 1, 0, 53) == (1, 1, 60, 1)   # rounds up to -2^60

    def test_decoder(self):
        # real-only, imaginary-only and mixed mpcs: (re + im i) 2^e with e the
        # lower exponent of the nonzero components
        cases = [(mp.mpc(0), ((0, 0), 0)), (mp.mpc(12), ((3, 0), 2)),
                 (mp.mpc(0, "-0.375"), ((0, -3), -3)), (mp.mpc(0, 2**70), ((0, 1), 70)),
                 (mp.mpc("-0.5", 6), ((-1, 12), -1)), (mp.mpc(6, "-0.5"), ((12, -1), -1)),
                 (mp.mpc(-(2**80), 3), ((-(2**80), 3), 0))]
        for z, want in cases:
            assert _from_mpc(z) == want, z
        rng = random.Random(3001)
        for _ in range(2000):
            z = tuple(rng.choice((-1, 0, 1)) * rng.getrandbits(rng.randrange(1, 300))
                      for _ in range(2))
            e = rng.randrange(-500, 500)
            (re, im), f = _from_mpc(_to_mpc(z, e))
            assert re % 2 or im % 2 or re == im == 0, (z, e)
            assert [Fraction(v) * Fraction(2) ** f for v in (re, im)] == \
                [Fraction(v) * Fraction(2) ** e for v in z], (z, e)

    def test_division_against_mpf_div(self):
        rng = random.Random(2605)
        for d in (-48, 864):
            den = libmp.from_int(d)
            for _ in range(10000):
                z = tuple(rng.choice((-1, 0, 1)) * rng.getrandbits(rng.randrange(1, 2001))
                          for _ in range(2))
                e = rng.randrange(-3000, 3000)
                prec = rng.choice(self.PRECS)
                want = tuple(libmp.mpf_div(libmp.from_man_exp(v, e), den, prec,
                                           libmp.round_nearest) for v in z)
                assert _rounded(z, e, prec, d)._mpc_ == want, (z, e, prec, d)
            for v in (0, d, 3 * d, 3 << 400, (1 << 1000) - 1):   # exact quotients and long ones
                for prec in self.PRECS:
                    want = libmp.mpf_div(libmp.from_man_exp(v, -7), den, prec, libmp.round_nearest)
                    assert _rounded((v, -v), -7, prec, d)._mpc_ == (want, libmp.mpf_neg(want))


class TestJValue:
    def test_python_complex_is_its_mpc(self):
        # a value that is neither a surd, a form nor an mpc is taken as the
        # mpc it makes at prec bits, which a float's 53 bits fit exactly
        for tau, prec in ((0.31 + 1.7j, 64), (-3.25 + 0.04j, 256), (1j, 128)):
            assert j_value_with_bound(tau, prec) == j_value_with_bound(mp.mpc(tau), prec), tau

    def test_form_stands_for_its_root(self):
        # a reduced form and one that needs reducing, both of disc -23
        for f in (BinaryQuadraticForm(2, 1, 3), BinaryQuadraticForm(3, 5, 4)):
            got, want = j_value_with_bound(f, 128), j_value_with_bound(f.root(), 128)
            assert got == want, f
        with pytest.raises(NotUpperHalfPlane):
            j_value_with_bound(BinaryQuadraticForm(1, 0, -1), 128)

    def test_j_of_i(self):
        assert abs(j_value(mp.mpc(0, 1), 256) - 1728) < mp.mpf("1e-30")

    def test_j_of_rho(self):
        rho = QuadraticSurd(1, 1, 2, -3)
        assert abs(j_value(rho, 256)) < mp.mpf("1e-30")

    def test_j_of_5i_series(self):
        with mp.workprec(400):
            j5 = j_value(mp.mpc(0, 5), 256)
            q = mp.exp(-10 * mp.pi)
            three = 1 / q + 744 + 196884 * q
            assert abs(j5 - three) < mp.mpf("2e-20")
            assert abs(j5 - (three + 21493760 * q * q)) < mp.mpf("1e-30")

    def test_rejects_bad_input(self):
        with pytest.raises(NotUpperHalfPlane):
            j_value(mp.mpc(1, 0), 256)
        with pytest.raises(NotUpperHalfPlane):
            j_value(mp.mpc(0.3, -2), 256)
        with pytest.raises(OutOfRange):
            j_value(mp.mpc(0, 1), 32)

    def test_surd_height_past_float_range_refused(self):
        # y = 10^400 is too large for a float; the height is refused on integers first
        with pytest.raises(PrecisionExhausted):
            j_value_with_bound(QuadraticSurd(0, 10**400, 1, -4), 64)

    def test_form_disc_past_float_range_refused(self):
        # s^2 |disc| >= 10^14 n^2 is decided on integers, so a disc of
        # -4 10^400 - 1 never turns float
        with pytest.raises(PrecisionExhausted, match="intractable"):
            j_value_with_bound(BinaryQuadraticForm(1, 1, 10**400), 64)

    def test_modular_invariance(self):
        rng = random.Random(5005)
        count = 0
        while count < 50:
            mat = random_sl2(rng)
            (a, b), (c, d) = mat
            if max(abs(x) for x in (a, b, c, d)) > 10:
                continue
            count += 1
            tau = mp.mpc(rng.uniform(-2, 2), rng.uniform(0.4, 3))
            with mp.workprec(300):
                gtau = (a * tau + b) / (c * tau + d)
                diff = abs(j_value(gtau, 192) - j_value(tau, 192))
            assert diff < mp.mpf(2) ** (-192 // 2 + 8), (mat, tau, diff)

    def test_bound_holds_against_higher_precision(self):
        # a reference 256 bits higher carries a bound 2^-128 times smaller, so
        # this checks each reported bound nearly on its own, at j = 0 too
        rng = random.Random(1234)
        points = [mp.mpc(0, 1), QuadraticSurd(1, 1, 2, -3), QuadraticSurd(-1, 1, 2, -7)]
        points += [mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 2)) for _ in range(10)]
        # reduced mag >= 1000, where |j| is about 2^mag and the ceil(mag)
        # guard bits of the working precision carry the absolute target:
        # a point in the domain, a surd, i/150 and 7 + i/200 (reduced to 150i
        # and 200i), and an SL(2, Z) image of 0.25 + 300i
        with mp.workprec(4000):
            z = mp.mpc("0.25", 300)
            image = (7 * z + 2) / (3 * z + 1)
        high = [mp.mpc("0.3", 120), QuadraticSurd(1, 1, 2, -75001), mp.mpc(0, mp.mpf(1) / 150),
                mp.mpc(7, mp.mpf(1) / 200), image]
        cases = [(prec, tau) for prec in (64, 256, 1024) for tau in points]
        cases += [(prec, tau) for prec in (64, 256, 1024, 8192) for tau in high]
        for prec, tau in cases:
            ev = j_value_with_bound(tau, prec)
            ref = j_value_with_bound(tau, prec + 256)
            assert ev.error_bound < mp.mpf(2) ** -prec, (tau, prec)
            with mp.workprec(ev.working_prec + 300):
                assert abs(ev.j - ref.j) <= ev.error_bound + ref.error_bound, (tau, prec)
        assert all(_frame(tau, 64).mag >= 1000 for tau in high)

    def test_bound_reported_and_delta_positive(self):
        rng = random.Random(909)
        for _ in range(20):
            tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 6))
            ev = j_value_with_bound(tau, 256)
            assert ev.error_bound < mp.mpf(2) ** -128
            # the kernel's U = Delta/q is certified away from zero: |U| > its bound
            (ur, ui), du = _theta(_frame(tau, 256), ev.working_prec).u_fixed()
            assert math.isqrt(ur * ur + ui * ui) > du > 0

    def test_delta_gate_refuses(self, monkeypatch, capsys):
        # a kernel whose error reaches |Delta| cannot certify Delta != 0, so j
        # is refused before any bound is formed, and jval exits 3
        kernel = modular._theta

        def inflated(frame, wp):
            th = kernel(frame, wp)
            return th._replace(err=4 << th.F)

        monkeypatch.setattr(modular, "_theta", inflated)
        with pytest.raises(PrecisionExhausted, match="cannot certify Delta away from zero"):
            j_value_with_bound(mp.mpc(0.1, 1.2), 256)
        assert run(["jval", "--tau", "0.1,1.2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "attrarith jval: computation failed: cannot certify Delta away from zero\n"


def _reduction_counter(monkeypatch):
    calls = []

    def counting(form):
        calls.append(form)
        return reduce_form(form)

    monkeypatch.setattr("attrarith.modular.reduce_form", counting)
    return calls


class TestJErrorTarget:
    """j_value_with_bound(tau, prec) certifies an absolute error below 2^-prec."""

    # roots of reduced forms (the exact fast path), surds outside the
    # fundamental domain, and mpc points near and far from it
    REDUCED = [QuadraticSurd(0, 1, 1, -1), QuadraticSurd(1, 1, 2, -3),
               QuadraticSurd(-1, 1, 2, -7), QuadraticSurd(7, 1, 22, -479)]
    NOT_REDUCED = [QuadraticSurd(3, 1, 2, -7), QuadraticSurd(-1, 1, 4, -7),
                   QuadraticSurd(5, 1, 3, -2)]
    POINTS = [mp.mpc("0.25", "1.5"), mp.mpc("-7.3", "0.05"), mp.mpc("0.5", "0.8660254")]

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    def test_bound_below_target_and_holds(self, prec):
        for tau in self.REDUCED + self.NOT_REDUCED + self.POINTS:
            ev = j_value_with_bound(tau, prec)
            ref = j_value_with_bound(tau, prec + 256)
            assert ev.error_bound < mp.mpf(2) ** -prec, (tau, prec)
            with mp.workprec(ev.working_prec + 300):
                assert abs(ev.j - ref.j) <= ev.error_bound + ref.error_bound, (tau, prec)

    def test_fast_path_only_inside_the_fundamental_domain(self, monkeypatch):
        # POINTS[0] = 0.25 + 1.5i lies in the fundamental domain as well
        calls = _reduction_counter(monkeypatch)
        for tau in self.REDUCED + self.POINTS[:1]:
            j_value_with_bound(tau, 128)
        assert calls == []
        for tau in self.NOT_REDUCED + self.POINTS[1:]:
            calls.clear()
            j_value_with_bound(tau, 128)
            assert len(calls) == 1, tau

    def test_equivalent_surds_agree(self):
        # (3 + sqrt-7)/2 = T^2 tau and (-1 + sqrt-7)/4 = S T tau, for the reduced
        # tau = (-1 + sqrt-7)/2, reach j through the reduction, tau through the fast path
        base = j_value_with_bound(QuadraticSurd(-1, 1, 2, -7), 256)
        for tau in (QuadraticSurd(3, 1, 2, -7), QuadraticSurd(-1, 1, 4, -7)):
            ev = j_value_with_bound(tau, 256)
            with mp.workprec(ev.working_prec):
                assert abs(ev.j - base.j) <= ev.error_bound + base.error_bound
        with mp.workprec(300):
            assert abs(base.j + 3375) < mp.mpf(2) ** -256

    def test_deep_point_against_exact_reduction(self):
        # 1e-100 + 1e-200 i, reduced by the exact Moebius oracle; mpmath's kleinj
        # at the oracle's reduced point is the reference
        with mp.workprec(288):
            tau = mp.mpc("1e-100", "1e-200")
        ev = j_value_with_bound(tau, 256)
        red, _ = reduce_root_exact(dyadic_surd(tau))
        with mp.workprec(1024):
            ref = 1728 * mp.kleinj(red.to_mpc(1024))
            assert abs(ev.j - ref) <= ev.error_bound + mp.mpf(2) ** -900

    def test_rejects_lower_half_plane_surd(self):
        with pytest.raises(NotUpperHalfPlane):
            j_value_with_bound(QuadraticSurd(0, -1, 1, -1), 128)

    def test_no_reduction_in_class_polynomials(self, monkeypatch):
        calls = _reduction_counter(monkeypatch)
        for disc in range(-3, -401, -1):
            if disc % 4 in (0, 1):
                hilbert_class_polynomial(disc)
        assert calls == []


def kernel_frame(zred):
    """The identity frame of an mpc point taken as reduced, as _frame builds it,
    even where rounding has put the point just outside the fundamental domain."""
    r, s, n = _dyadic(zred)
    return _Frame(zred, _IDENTITY, 2 * math.pi * (s / n) * math.log2(math.e), -1, (r, s, n), None)


class TestThetaKernelAgainstDenseOracle:
    """The theta kernel against dense integer q-series, each with its own bound."""

    def test_eisenstein_and_delta_at_reduced_points(self):
        rng = random.Random(4406)
        points = [mp.mpc(0, 1), mp.mpc("0.5", "0.8660254037844386"), mp.mpc(0, 9)]
        points += [mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 4)) for _ in range(5)]
        cases = [(zred, (256, 1024, 4096, 8192)[k % 4]) for k, zred in enumerate(points)]
        # high points at the top precision, where the powers of r^4 carry the fewest bits
        cases += [(mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(4, 6)), 8192) for _ in range(2)]
        for zred, wp in cases:
            with mp.workprec(wp):
                zred = mp.mpc(zred)
                th = _theta(kernel_frame(zred), wp)
                e4o, e6o, do, bound, _ = eisenstein_dense(zred, wp)
                # U = Delta/q with q 64 bits beyond wp, so that only the
                # dense Delta's bound counts, divided by |q|
                with mp.workprec(wp + 64):
                    q = mp.expjpi(2 * zred)
                    uo, ubound = do / q, bound / abs(q) * (1 + mp.mpf(2) ** -wp)
                for (val, err), ref, refbound in ((th.e4_fixed(), e4o, bound),
                                                  (th.e6_fixed(), e6o, bound),
                                                  (th.u_fixed(), uo, ubound)):
                    assert err < 1 << (th.F - wp + 16)
                    val, err = _to_mpc(val, -th.F), mp.ldexp(err, -th.F)
                    assert abs(val - ref) <= err + refbound, (zred, wp)
                # Delta = r^2 U from the kernel's relative pair, within its own
                # bound, which is relative to |Delta|: about 2^-(wp-9) of it
                val, e, err = th.delta()
                val, err = _to_mpc(val, -e), mp.ldexp(err, -e)
                assert err < abs(val) * mp.mpf(2) ** (9 - wp), (zred, wp)
                assert abs(val - do) <= err + bound, (zred, wp)

    def test_j_at_random_points(self):
        rng = random.Random(8192)
        for prec in (256, 1024, 4096, 8192):
            for _ in range(3):
                with mp.workprec(prec + 64):
                    tau = mp.mpc(rng.uniform(-20, 20), rng.uniform(0.02, 3))
                ev = j_value_with_bound(tau, prec)
                jo, bound = j_dense(tau, prec)
                with mp.workprec(ev.working_prec):
                    assert abs(ev.j - jo) <= ev.error_bound + bound, (tau, prec)

    # (wp, Im tau', M, whether Q = r^4 is formed, whether S2(Q) has its Q^2
    # term): M = 2 forms no r^4 term, M = 3 exactly one in S3(Q), and S2(Q)
    # runs one term further than the odd n < M where |r|^8 > 2^-(wp+1)
    FEW_TERMS = [(256, 15, 2, False, False), (256, 30, 2, False, False),
                 (256, 8, 3, True, False), (256, 12, 3, True, False),
                 (256, 6.5, 3, True, True), (1024, 60, 2, False, False),
                 (1024, 40, 3, True, False), (1024, 26, 3, True, True)]

    @pytest.mark.parametrize("wp, height, m, r4, q2", FEW_TERMS)
    def test_no_or_one_r4_term(self, wp, height, m, r4, q2):
        # the branches that skip r^4 and the products by S2(Q) = 1 and
        # 1 + 2 S3(Q) = 1, against the dense q-series
        with mp.workprec(wp):
            zred = mp.mpc("0.1875", height)
            th = _theta(kernel_frame(zred), wp)
            assert th.terms == m
            assert (th.r4 != (0, 0)) == r4 and (th.s2q != (1 << th.F, 0)) == q2
            e4o, e6o, do, bound, _ = eisenstein_dense(zred, wp)
            with mp.workprec(wp + 64):
                q = mp.expjpi(2 * zred)
                uo, ubound = do / q, bound / abs(q) * (1 + mp.mpf(2) ** -wp)
            for (val, err), ref, refbound in ((th.e4_fixed(), e4o, bound),
                                              (th.e6_fixed(), e6o, bound),
                                              (th.u_fixed(), uo, ubound)):
                val, err = _to_mpc(val, -th.F), mp.ldexp(err, -th.F)
                assert abs(val - ref) <= err + refbound, (zred, wp)

    def test_truncation_order_counts_theta_terms(self):
        # the theta sums stop at the first M with |r|^(M^2) <= 2^-(wp+1);
        # at tau = i, |r| = e^-pi
        ev = j_value_with_bound(mp.mpc(0, 1), 256)
        m, bits = ev.truncation_order, math.pi * math.log2(math.e)
        assert m * m * bits >= ev.working_prec + 1 > (m - 1) ** 2 * bits


class TestThetaKernelRounding:
    def test_fourth_powers_within_rounding_bound(self):
        # against the identically truncated sums at the kernel's own r, only
        # the kernel's rounding separates the two, and the _theta docstring
        # bounds it by the rounding part of err, (16 R + 64) u with R twice
        # the (M-1)//2 terms of S3(Q); Q^k carries F + 2 - k(k-1)H bits, so
        # the deep terms at 8192 bits, near rho and high in the domain, test
        # that H never exceeds log2(1/|Q|)
        rng = random.Random(1212)
        for wp in (256, 1024, 4096, 8192):
            with mp.workprec(wp):
                xs = [rng.uniform(-0.5, 0.5) for _ in range(4)]
                points = [mp.mpc("0.5", mp.sqrt(3) / 2), mp.mpc(xs[0], mp.sqrt(1 - xs[0] ** 2))]
                points += [mp.mpc(x, y) for x, y in zip(xs[1:], (1.3, 4, 6))]
            for zred in points:
                th = _theta(kernel_frame(zred), wp)
                refs = theta_reference(zred, th.F, th.terms, wp)
                rounding = 32 * ((th.terms - 1) // 2) + 64
                with mp.workprec(2 * th.F):
                    u = mp.mpf(2) ** -th.F
                    for got, ref in zip((th.t2, th.t3, th.t4), refs):
                        ulps = abs(mp.mpc(*got) * u - ref) / u
                        assert ulps <= rounding <= th.err, (wp, zred, ulps)

    @pytest.mark.parametrize("wp, height, m, r4, q2", TestThetaKernelAgainstDenseOracle.FEW_TERMS)
    def test_few_terms_within_rounding_bound(self, wp, height, m, r4, q2):
        # where S2(Q) carries its Q^2 term, the term is 2^19 or more times the
        # rounding part of err, and S2(Q) enters S2^4 without the factor r, so
        # a kernel that left it out would miss the reference S2^4
        with mp.workprec(wp):
            zred = mp.mpc("0.1875", height)
        th = _theta(kernel_frame(zred), wp)
        refs = theta_reference(zred, th.F, th.terms, wp)
        rounding = 32 * ((th.terms - 1) // 2) + 64
        with mp.workprec(2 * th.F):
            u = mp.mpf(2) ** -th.F
            for got, ref in zip((th.t2, th.t3, th.t4, th.s2), refs):
                assert abs(mp.mpc(*got) * u - ref) / u <= rounding <= th.err, (wp, zred)


class TestHilbertClassPolynomial:
    def test_disc_minus_4(self):
        res = hilbert_class_polynomial(-4)
        assert res.coeffs == (-1728, 1)
        assert res.residual < 1e-20
        assert res.class_number == 1

    def test_disc_minus_3(self):
        res = hilbert_class_polynomial(-3)
        assert res.coeffs == (0, 1)
        assert res.residual < 1e-20

    def test_disc_minus_163(self):
        res = hilbert_class_polynomial(-163)
        assert res.coeffs == (262537412640768000, 1)
        assert res.coeffs[0] == 640320**3

    def test_known_h2_and_h3(self):
        assert hilbert_class_polynomial(-20).coeffs == (-681472000, -1264000, 1)
        assert hilbert_class_polynomial(-23).coeffs == (12771880859375, -5151296875, 3491750, 1)

    def test_imprimitive_classes_included(self):
        res = hilbert_class_polynomial(-16)
        assert res.class_number == 2
        # roots are j(2i) = 66^3 and j(i) = 1728
        assert res.coeffs == (1728 * 287496, -(1728 + 287496), 1)

    def test_rounding_gate_refuses(self, monkeypatch, capsys):
        # the proven bound keeps the gate unreachable, so the product is formed
        # at 8 bits on purpose: at -239 (h = 15) the residual reaches 0.48,
        # far from the 0.25 gate on either side, and hcp exits 3
        bound = modular._hcp_precision
        monkeypatch.setattr(modular, "_hcp_precision",
                            lambda disc, forms: (bound(disc, forms)[0], 8))
        with pytest.raises(RoundingFailed, match="rounding residual"):
            hilbert_class_polynomial(-239)
        assert run(["hcp", "--disc", "-239"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("attrarith hcp: computation failed: rounding residual")

    def test_invalid_disc(self):
        with pytest.raises(InvalidDiscriminant):
            hilbert_class_polynomial(4)
        with pytest.raises(InvalidDiscriminant):
            hilbert_class_polynomial(-6)

    def test_degree_matches_class_number(self):
        for disc in range(-500, -2):
            if disc % 4 not in (0, 1):
                continue
            res = hilbert_class_polynomial(disc)
            assert len(res.coeffs) - 1 == len(class_group_forms(disc)), disc
            assert res.coeffs[-1] == 1
            assert res.residual < 0.25


# SHA-256 over "D:c0 c1 ... ch" lines, one per valid D from -3 down to -500,
# computed with every root at 2 (pi h sqrt|D|/ln 2 + 64h) bits, far above the bound
HCP_DIGEST_3_TO_500 = "7bccb2c439d3ddab6a33bf3427d3eaf7a137205c9fbf7459407de7c4b337b2f4"
# the same over every valid D from -501 down to -1000 (h up to 36 at D = -959),
# computed with one mpc root per form and the product in mpc
HCP_DIGEST_501_TO_1000 = "98f99bde4ef82350cb98939d2405812918179013b1e7c9a7dbd4a2fb4660c86d"


def _hcp_digest(first, last):
    lines = []
    for disc in range(first, last - 1, -1):
        if disc % 4 in (0, 1):
            coeffs = hilbert_class_polynomial(disc).coeffs
            lines.append(f"{disc}:" + " ".join(str(c) for c in coeffs))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestCoefficientBound:
    def test_precision_covers_coefficients(self):
        rng = random.Random(2009)
        discs = rng.sample([d for d in range(-2000, -2) if d % 4 in (0, 1)], 24)
        for disc in discs:
            res = hilbert_class_polynomial(disc)
            coeff_bits = max(abs(c) for c in res.coeffs).bit_length()
            assert res.precision_bits >= coeff_bits + math.log2(res.class_number), disc
            assert res.residual < 2.0**-7, disc

    def test_precision_is_tight(self):
        # the coefficients of H_-479 need 552 bits
        res = hilbert_class_polynomial(-479)
        assert max(abs(c) for c in res.coeffs).bit_length() == 552
        assert res.precision_bits <= 800

    def test_one_class_group_listing_per_call(self, monkeypatch):
        calls = []

        def counting(disc):
            calls.append(disc)
            return class_group_forms(disc)

        monkeypatch.setattr("attrarith.modular.class_group_forms", counting)
        for disc in (-3, -23, -479):
            calls.clear()
            hilbert_class_polynomial(disc)
            assert calls == [disc]

    def test_coefficients_match_regression_digest(self):
        assert _hcp_digest(-3, -500) == HCP_DIGEST_3_TO_500

    def test_coefficients_match_regression_digest_501_to_1000(self):
        assert _hcp_digest(-501, -1000) == HCP_DIGEST_501_TO_1000


class TestRootContract:
    """Each class-polynomial root is certified at relative precision: within
    2^-p (1 + |J|), p = max(64, c + 24), with no surd per root."""

    DISCS = [-3, -12, -27, -75] + random.Random(1919).sample(
        [d for d in range(-4, -2001, -1) if d % 4 in (0, 1)], 40)

    def test_roots_within_relative_bound(self):
        for disc in self.DISCS:
            forms = class_group_forms(disc)
            coeff_bits, wp = modular._hcp_precision(disc, forms)
            prec, G = max(64, coeff_bits + 24), wp + 32
            for f in forms:
                if f.b < 0:
                    continue
                jr, ji = modular._root_j(f, prec, G)
                ref = j_value_with_bound(QuadraticSurd(-f.b, 1, 2 * f.a, disc), prec + 256)
                with mp.workprec(ref.working_prec + 64):
                    got = mp.mpc(mp.ldexp(jr, -G), mp.ldexp(ji, -G))
                    # the certified bound, the floor to G bits, the reference's own bound
                    tol = (mp.ldexp(1 + abs(ref.j), -prec) + mp.ldexp(2, -G)
                           + ref.error_bound)
                    assert abs(got - ref.j) <= tol, (disc, f)

    def test_one_mag_per_root(self, monkeypatch):
        # _root_j frames each form once and hands the frame on, so the
        # height's bits are computed once per root
        calls, mag = [], modular._mag
        monkeypatch.setattr(modular, "_mag", lambda num, den: calls.append(num) or mag(num, den))
        for disc in (-3, -23, -479, -971):
            forms = class_group_forms(disc)
            calls.clear()
            coeffs = hilbert_class_polynomial(disc).coeffs
            assert len(calls) == len([f for f in forms if f.b >= 0]), disc
            calls.clear()
            assert hcp_record_valid(disc, coeffs)
            assert len(calls) == 1, disc

    def test_rounding_residuals_below_promise(self):
        for disc in self.DISCS:
            assert hilbert_class_polynomial(disc).residual < 2.0**-23, disc

    def test_roots_asked_of_j_value_with_bound_without_a_surd(self, monkeypatch):
        surds, calls = [], []
        init = QuadraticSurd.__init__

        def counting_init(self, *args):
            surds.append(args)
            init(self, *args)

        def spy(tau, prec=256):
            ev = j_value_with_bound(tau, prec)
            calls.append((tau, ev.working_prec))
            return ev

        monkeypatch.setattr(QuadraticSurd, "__init__", counting_init)
        monkeypatch.setattr(modular, "j_value_with_bound", spy)
        for disc in (-3, -23, -75, -479, -971, -1999):
            forms = class_group_forms(disc)
            p = max(64, modular._hcp_precision(disc, forms)[0] + 24)
            calls.clear()
            coeffs = hilbert_class_polynomial(disc).coeffs
            # each root's frame, with the identity matrix, framed from the form
            assert all(_is_form_frame(fr) for fr, _ in calls)
            assert [fr.tau for fr, _ in calls] == [f for f in forms if f.b >= 0]
            # the kernel works at p + 16 bits, with no term for the height
            # unless j_value_with_bound's 64-bit floor on the request binds
            for fr, wp in calls:
                f = fr.tau
                mag = math.ceil(modular._mag(-disc, 4 * f.a * f.a))
                assert wp == max(p + 16, 78 + mag), (disc, f)
            # the cache check hands j_value_with_bound its form's frame as well
            calls.clear()
            assert hcp_record_valid(disc, coeffs)
            assert [_is_form_frame(fr) for fr, _ in calls] == [True]
        assert surds == []


def _benchmark_charges():
    """The charges of the benchmark's pool (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
        return workloads.charge_pool()
    finally:
        del sys.modules[spec.name]


def _is_form_frame(fr):
    """fr is the _Frame of a form's root, with the identity matrix."""
    return (isinstance(fr, modular._Frame) and isinstance(fr.tau, BinaryQuadraticForm)
            and fr.mat == ((1, 0), (0, 1)) and fr.mu is None)


def _is_ambiguous(f):
    return f.b == 0 or f.b == f.a or f.a == f.c


def _oracle_class_polynomial(disc, prec):
    """prod (x - j) over every reduced form, with j from the dense q-series
    oracle and the product in mpc, rounded; also the largest residual."""
    with mp.workprec(prec + 32):
        poly = [mp.mpc(1)]
        for f in class_group_forms(disc):
            jv, bound = j_dense(QuadraticSurd(-f.b, 1, 2 * f.a, disc).to_mpc(prec + 64), prec)
            assert bound < mp.mpf(2) ** -(prec // 2)
            poly = [mp.mpc(0)] + poly
            for i in range(len(poly) - 1):
                poly[i] -= jv * poly[i + 1]
        coeffs = [int(mp.nint(mp.re(c))) for c in poly]
        residual = max(max(abs(mp.re(c) - n), abs(mp.im(c))) for c, n in zip(poly, coeffs))
    return tuple(coeffs), residual


class TestConjugatePairing:
    """j is evaluated once per pair of conjugate roots; the factors multiply on integers."""

    def test_one_j_evaluation_per_form_with_nonnegative_b(self, monkeypatch):
        seen = []

        def spy(tau, prec=256):
            seen.append(tau)
            return j_value_with_bound(tau, prec)

        monkeypatch.setattr(modular, "j_value_with_bound", spy)
        for disc in (-3, -23, -420, -479, -971):
            seen.clear()
            hilbert_class_polynomial(disc)
            forms = class_group_forms(disc)
            assert all(_is_form_frame(fr) for fr in seen)
            assert [fr.tau for fr in seen] == [f for f in forms if f.b >= 0]
            assert len(seen) < len(forms) or all(_is_ambiguous(f) for f in forms)

    def test_all_forms_ambiguous_minus_420(self):
        forms = class_group_forms(-420)
        assert len(forms) == 8 and all(_is_ambiguous(f) for f in forms)
        res = hilbert_class_polynomial(-420)
        coeffs, residual = _oracle_class_polynomial(-420, 512)
        assert residual < 2.0**-20
        assert res.coeffs == coeffs

    def test_only_principal_form_ambiguous_minus_971(self):
        forms = class_group_forms(-971)
        assert len(forms) == 15
        assert [f for f in forms if _is_ambiguous(f)] == [forms[0]] and forms[0].a == 1
        res = hilbert_class_polynomial(-971)
        coeffs, residual = _oracle_class_polynomial(-971, 1024)
        assert residual < 2.0**-20
        assert res.coeffs == coeffs
        assert res.residual < 2.0**-7


class TestCertifyCM:
    def test_square_torus(self):
        cert = certify_attractor_cm(ChargeData(1, 1, 0), 256)
        assert cert.value < 1e-20
        assert cert.passed
        assert cert.class_number == 1
        assert cert.conductor == 1
        assert cert.field_label == "Hilbert class field"
        assert cert.field_disc == -4

    def test_precision_below_64_refused(self):
        with pytest.raises(OutOfRange, match="at least 64 bits, got 63"):
            certify_attractor_cm(ChargeData(1, 1, 0), 63)
        assert certify_attractor_cm(ChargeData(1, 1, 0), 64).passed

    def test_disc_minus_20(self):
        cert = certify_attractor_cm(ChargeData(2, 3, 1), 256)
        assert cert.disc == -20
        assert cert.class_number == 2
        assert cert.passed
        assert cert.value + cert.error_bound < cert.tolerance
        assert cert.tolerance == 2.0**-64

    def test_not_attractor(self):
        with pytest.raises(NotAttractor):
            certify_attractor_cm(ChargeData(1, 1, 2), 256)

    def test_imprimitive_charge_ring_class_field(self):
        cert = certify_attractor_cm(ChargeData(2, 2, 0), 256)
        assert cert.disc == -16
        assert cert.conductor == 2
        assert cert.field_label == "ring class field"
        assert cert.field_disc == -4
        assert cert.passed
        # attractor sits at tau = i, so the certified j is 1728
        assert abs(cert.j - 1728) < mp.mpf("1e-30")

    def test_higher_class_numbers(self):
        for p2, q2, pq in ((1, 6, 1), (3, 5, 2), (1, 11, 1)):
            cert = certify_attractor_cm(ChargeData(p2, q2, pq), 192)
            assert cert.passed, (p2, q2, pq)

    @pytest.mark.parametrize("charge", [(1, 1, 0), (2, 3, 1), (3, 5, 2)],
                             ids=lambda c: "-".join(map(str, c)))
    def test_moved_coefficient_fails(self, monkeypatch, charge):
        # |j| >= 1 at these roots, so moving c_k by 1 moves H(j) by |j|^k >= 1
        true = hilbert_class_polynomial(4 * attractor_point(ChargeData(*charge)).D)
        for k in range(len(true.coeffs) - 1):
            for delta in (-1, 1):
                coeffs = list(true.coeffs)
                coeffs[k] += delta
                moved = dataclasses.replace(true, coeffs=tuple(coeffs))
                monkeypatch.setattr(modular, "hilbert_class_polynomial", lambda disc: moved)
                assert not certify_attractor_cm(ChargeData(*charge), 256).passed, (k, delta)

    def test_horner_bound_against_mpmath(self):
        # H(j) on integers, checked against H in mpmath 256 bits past j's
        # relative target: at the j^ it was computed at (the rounding part of
        # the bound), and at j itself (the part for j's error)
        charges = [(1, 1, 0), (2, 3, 1), (2, 2, 0), (1, 6, 1), (3, 5, 2), (1, 11, 1),
                   (1, 100, 0), (1, 89, 0), (1, 59, 1), *_benchmark_charges()]
        for charge in charges:
            at = attractor_point(ChargeData(*charge))
            hcp = hilbert_class_polynomial(4 * at.D)
            j, value, err, G = modular._root_residual(hcp.coeffs, at.form, 4 * at.D,
                                                      hcp.precision_bits, 256)
            p = G - 32
            ref = j_value_with_bound(at.form, p + 256)
            with mp.workprec(p + 256):
                at_j_hat = mp.polyval(hcp.coeffs[::-1], _to_mpc(j, -G))
                at_j = mp.polyval(hcp.coeffs[::-1], ref.j)
                unit = mp.ldexp(1, -G)
                assert abs(abs(at_j_hat) - value * unit) <= (err + 1) * unit, charge
                assert abs(at_j_hat - at_j) <= err * unit, charge
                assert abs(at_j) <= (value + err) * unit, charge

    def test_principal_attractor_points(self):
        # each attractor is the root of its principal form, where |j| is
        # largest and evaluating H at j cancels the most bits
        for p2, q2, pq in ((1, 100, 0), (1, 89, 0), (1, 59, 1)):
            cert = certify_attractor_cm(ChargeData(p2, q2, pq), 256)
            assert cert.point.form.a == 1
            assert cert.passed, (p2, q2, pq)


class TestCertifyBoundRoundsUp:
    """The printed error_bound, read back, is at least the integer bound."""

    @pytest.mark.parametrize("charge", [(2, 3, 1), (1, 1, 0), (2, 2, 1), (3, 5, 1), (3, 4, 1),
                                        (1, 5, 0), (1, 6, 1), (2, 3, 0)],
                             ids=lambda c: "-".join(map(str, c)))
    def test_error_bound_is_a_bound(self, monkeypatch, capsys, charge):
        seen = []
        root_residual = modular._root_residual

        def spy(*args):
            out = root_residual(*args)
            seen.append(out)
            return out

        monkeypatch.setattr(modular, "_root_residual", spy)
        p2, q2, pq = (str(v) for v in charge)
        assert run(["certify", "--p2", p2, "--q2", q2, "--pq", pq]) == 0
        cert = json.loads(capsys.readouterr().out)["certificates"][0]
        _, value, err, G = seen[-1]
        assert Fraction(cert["error_bound"]) >= Fraction(err, 1 << G)
        assert Fraction(cert["residual"]) >= Fraction(value, 1 << G)
        assert cert["passed"] is True


class TestHcpCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        data = {-4: (-1728, 1), -20: (-681472000, -1264000, 1)}
        store_hcp_cache(path, data)
        assert load_hcp_cache(path) == data
        raw = json.loads(path.read_text())
        assert raw[0]["disc"] == "-4"
        assert raw[0]["coeffs"] == ["-1728", "1"]

    def test_missing_file(self, tmp_path):
        assert load_hcp_cache(tmp_path / "absent.json") == {}

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        # a write that fails part way leaves the old file's bytes and no temp file
        path = tmp_path / "cache.json"
        store_hcp_cache(path, {-4: (-1728, 1)})
        old = path.read_bytes()

        def failing_dump(obj, fh, **kwargs):
            fh.write('[{"disc": ')
            raise OSError("no space left on device")

        monkeypatch.setattr(modular.json, "dump", failing_dump)
        with pytest.raises(OSError, match="no space"):
            store_hcp_cache(path, {-4: (-1728, 1), -20: (-681472000, -1264000, 1)})
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]

    def test_corrupt_file_ignored(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        path.write_text('[{"disc": "-4", "coeffs": ["-1728", "1"]')  # truncated
        assert load_hcp_cache(path) == {}
        assert "warning" in capsys.readouterr().err

    def test_non_monic_record_distrusted(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        path.write_text('[{"disc": "-4", "coeffs": ["-1728", "2"]}]')
        assert load_hcp_cache(path) == {}
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("disc", [-479, -2820, -4960, -12, -15])
    def test_record_check_accepts_true_and_rejects_altered(self, disc):
        # -2820 and -4960: the form with the largest a, (30, 30, 31) or
        # (40, 40, 41), has its root near rho, where |j| is 0.31 or 0.13
        coeffs = hilbert_class_polynomial(disc).coeffs
        assert hcp_record_valid(disc, coeffs)
        for k in range(len(coeffs) - 1):
            for delta in (-1, 1):
                bad = coeffs[:k] + (coeffs[k] + delta,) + coeffs[k + 1:]
                assert not hcp_record_valid(disc, bad), (k, delta)

    def test_record_check_rejects_changes_up_to_2_16(self):
        coeffs = hilbert_class_polynomial(-4960).coeffs
        rng = random.Random(7)
        for _ in range(20):
            bad = [c + rng.randint(-2**16, 2**16) for c in coeffs[:-1]] + [1]
            assert not hcp_record_valid(-4960, tuple(bad))

    def test_record_check_root_keeps_j_large(self, monkeypatch):
        # for -479 the largest a with |j| >= 2^17 at its root is 5, form
        # (5, +-1, 24): about 1300 bits; the principal root would need about
        # 3300, and (11, -7, 12), where |j| is only 375, about 1100
        seen = []

        def spy(tau, prec=256):
            seen.append((tau, prec))
            return j_value_with_bound(tau, prec)

        monkeypatch.setattr("attrarith.modular.j_value_with_bound", spy)
        assert hcp_record_valid(-479, hilbert_class_polynomial(-479).coeffs)
        frame, prec = seen[-1]
        assert _is_form_frame(frame)
        tau = frame.tau
        assert tau in (BinaryQuadraticForm(5, 1, 24), BinaryQuadraticForm(5, -1, 24))
        assert abs(j_value(tau, 64)) >= 2**17
        assert prec < 1400
