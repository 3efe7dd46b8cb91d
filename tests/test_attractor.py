"""Tests for attractor points, charge data, and the K3 two-form certificate."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from attrarith.arith import BinaryQuadraticForm, QuadraticSurd
from attrarith.attractor import (
    ChargeData,
    attractor_point,
    discriminant,
    entropy_invariant,
    k3_form_certificate,
)
from attrarith.errors import DegenerateCharge, NotAttractor


class TestDiscriminant:
    def test_values(self):
        assert discriminant(ChargeData(1, 1, 0)) == -1
        assert discriminant(ChargeData(2, 3, 1)) == -5
        assert discriminant(ChargeData(1, 1, 2)) == 3


class TestAttractorPoint:
    def test_square_torus(self):
        at = attractor_point(ChargeData(1, 1, 0))
        assert at.tau == QuadraticSurd(0, 1, 1, -1)
        assert at.D == -1
        assert (at.form.a, at.form.b, at.form.c) == (1, 0, 1)
        assert at.class_number == 1

    def test_disc_minus_five(self):
        at = attractor_point(ChargeData(2, 3, 1))
        assert at.tau == QuadraticSurd(1, 1, 2, -5)
        assert at.D == -5
        assert (at.form.a, at.form.b, at.form.c) == (2, 2, 3)
        assert at.class_number == 2

    def test_translated_square_torus(self):
        at = attractor_point(ChargeData(1, 2, 1))
        assert at.tau == QuadraticSurd(1, 1, 1, -1)  # 1 + i
        assert at.D == -1
        assert (at.form.a, at.form.b, at.form.c) == (1, 0, 1)

    def test_errors(self):
        with pytest.raises(NotAttractor):
            attractor_point(ChargeData(1, 1, 2))
        with pytest.raises(DegenerateCharge):
            attractor_point(ChargeData(0, 1, 0))
        with pytest.raises(DegenerateCharge):
            attractor_point(ChargeData(-2, -3, 1))

    def test_exact_root_property(self):
        rng = random.Random(1411)
        seen = 0
        while seen < 200:
            p2 = rng.randrange(1, 21)
            q2 = rng.randrange(-20, 21)
            pq = rng.randrange(-20, 21)
            if pq * pq - p2 * q2 >= 0:
                continue
            seen += 1
            c = ChargeData(p2, q2, pq)
            at = attractor_point(c)
            t = at.tau
            assert p2 * t * t - 2 * pq * t + q2 == 0
            assert t.is_upper_half_plane()
            assert at.form.disc == 4 * discriminant(c)
            assert at.form.is_reduced()

    def test_rescaling_leaves_tau_fixed(self):
        rng = random.Random(88)
        seen = 0
        while seen < 60:
            p2 = rng.randrange(1, 15)
            q2 = rng.randrange(1, 15)
            pq = rng.randrange(-10, 11)
            if pq * pq - p2 * q2 >= 0:
                continue
            seen += 1
            lam = rng.randrange(2, 5)
            base = attractor_point(ChargeData(p2, q2, pq))
            scaled = attractor_point(ChargeData(lam**2 * p2, lam**2 * q2, lam**2 * pq))
            assert scaled.tau == base.tau


class TestEntropy:
    def test_values(self):
        assert entropy_invariant(ChargeData(1, 1, 0)) == 1
        v = entropy_invariant(ChargeData(2, 3, 1), prec=128)
        with mp.workprec(128):
            assert abs(v - mp.sqrt(5)) < mp.mpf(2) ** -120
        with pytest.raises(NotAttractor):
            entropy_invariant(ChargeData(1, 1, 2))


class TestChargeVectors:
    def test_from_vectors(self):
        c = ChargeData.from_vectors((1, 0), (0, 1), ((2, 0), (0, 2)))
        assert (c.p2, c.q2, c.pq) == (2, 2, 0)

    @pytest.mark.parametrize("p, q, gram", [
        ((1.5, 0), (0, 1), ((2, 0), (0, 2))),
        ((1, 0), (0, True), ((2, 0), (0, 2))),
        ((1, 0), (0, 1), ((2.0, 0), (0, 2))),
        ((1, 0), (0, 1), ((2, "0"), ("0", 2))),
        ((1, 0), (0, 1), ((2, None), (None, 2))),
        ((1, 0), (0, 1), None),
        ((1, 0), (0, 1), ((2, 0), 2)),
    ])
    def test_non_integers_refused(self, p, q, gram):
        # never truncated by int(): 1.5 is not read as 1, nor True as 1
        with pytest.raises(ValueError):
            ChargeData.from_vectors(p, q, gram)

    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            ChargeData(1, 2, 0, p_vec=(1, 0), q_vec=(0, 1), gram=((2, 0), (0, 2)))
        with pytest.raises(ValueError):
            ChargeData.from_vectors((1, 0), (0, 1), ((0, 1), (2, 0)))
        with pytest.raises(ValueError):
            ChargeData(1, 1, 0, p_vec=(1, 0))


class TestK3Certificate:
    def test_square_k3(self):
        cert = k3_form_certificate((1, 0), (0, 1), ((2, 0), (0, 2)))
        assert cert.tau == QuadraticSurd(0, 1, 1, -1)
        assert cert.isotropy == 0
        assert cert.pairing == 4
        assert cert.expected_pairing == 4
        assert cert.passed

    def test_indefinite_rejections(self):
        with pytest.raises(NotAttractor):
            k3_form_certificate((1, 0), (1, 1), ((2, 0), (0, -2)))
        with pytest.raises(NotAttractor):
            k3_form_certificate((1, 1), (1, -1), ((0, 1), (1, 0)))

    def test_randomized_exact(self):
        rng = random.Random(24601)
        passed = 0
        attempts = 0
        while passed < 100 and attempts < 40_000:
            attempts += 1
            dim = rng.randrange(2, 5)
            g = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                g[i][i] = rng.randrange(1, 7)
                for j in range(i + 1, dim):
                    g[i][j] = g[j][i] = rng.randrange(-3, 4)
            p = [rng.randrange(-4, 5) for _ in range(dim)]
            q = [rng.randrange(-4, 5) for _ in range(dim)]
            try:
                cert = k3_form_certificate(p, q, g)
            except (NotAttractor, DegenerateCharge):
                continue
            passed += 1
            assert cert.isotropy == 0
            assert cert.pairing == cert.expected_pairing
            assert cert.pairing > 0
            assert cert.pairing == Fraction(2 * abs(discriminant(cert.charge)), cert.charge.p2)
        assert passed == 100
