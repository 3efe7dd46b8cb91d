"""Tests for exact arithmetic: forms, reduction, class enumeration, surds."""

import math
import random
from fractions import Fraction

import pytest

from attrarith.arith import (
    BinaryQuadraticForm,
    QuadraticSurd,
    ResidueSystem,
    class_group_forms,
    euler_phi,
    reduce_form,
    squarefree_decompose,
)
from attrarith.errors import InvalidDiscriminant, NotPositiveDefinite

from oracles import forms_brute, phi_sieve, random_sl2, reduce_root_exact, squarefree_brute


class TestEulerPhi:
    def test_small_values(self):
        assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_against_sieve(self):
        table = phi_sieve(1000)
        for n in range(1, 1001):
            assert euler_phi(n) == table[n], n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            euler_phi(0)


class TestSquarefree:
    def test_examples(self):
        assert squarefree_decompose(-4) == (2, -1)
        assert squarefree_decompose(-3) == (1, -3)
        assert squarefree_decompose(-108) == (6, -3)
        assert squarefree_decompose(360) == (6, 10)

    def test_random(self):
        rng = random.Random(20260814)
        for _ in range(300):
            n = rng.randrange(-10_000, 10_000)
            if n == 0:
                continue
            s, m = squarefree_decompose(n)
            assert s * s * m == n
            for p in range(2, 100):
                assert m % (p * p) != 0 or abs(m) < p * p

    def test_against_brute_force(self):
        rng = random.Random(2311)
        cases = [n for n in range(-3000, 3001) if n]
        cases += [rng.randrange(-10**7, 10**7) or 1 for _ in range(200)]
        for n in cases:
            assert squarefree_decompose(n) == squarefree_brute(n), n

    @pytest.mark.parametrize("n, want", [
        # once trial division stops at the cube root, the cofactor is a prime,
        # a prime square or a product of two distinct primes
        (-(10007**2) * 99991, (10007, -99991)),
        (-(99991**2) * 10007, (99991, -10007)),
        (-(10007**2) * 10009**2, (10007 * 10009, -1)),
        (-10007 * 10009 * 99991, (1, -10007 * 10009 * 99991)),
        (-(3**3) * 10007**2, (3 * 10007, -3)),
        (-(2**5) * 999983 * 1000003, (4, -2 * 999983 * 1000003)),
        (-(10007**3), (10007, -10007)),
        (-(1000003**2), (1000003, -1)),
    ])
    def test_crafted_cofactors(self, n, want):
        assert squarefree_decompose(n) == want


class TestReduceForm:
    def test_known_reductions(self):
        f, mat = reduce_form(BinaryQuadraticForm(2, -2, 3))
        assert (f.a, f.b, f.c) == (2, 2, 3)
        assert BinaryQuadraticForm(2, -2, 3).transform(mat) == f

        f, mat = reduce_form(BinaryQuadraticForm(3, 10, 9))
        assert (f.a, f.b, f.c) == (1, 0, 2)
        assert BinaryQuadraticForm(3, 10, 9).transform(mat) == f

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            reduce_form(BinaryQuadraticForm(1, 5, 1))
        with pytest.raises(NotPositiveDefinite):
            reduce_form(BinaryQuadraticForm(-1, 0, -1))

    def test_idempotent_and_det_one(self):
        rng = random.Random(7781)
        for _ in range(400):
            a = rng.randrange(1, 40)
            b = rng.randrange(-60, 61)
            c_min = (b * b) // (4 * a) + 1
            c = rng.randrange(c_min, c_min + 50)
            f = BinaryQuadraticForm(a, b, c)
            if f.disc >= 0:
                continue
            red, mat = reduce_form(f)
            (p, q), (r, s) = mat
            assert p * s - q * r == 1
            assert f.transform(mat) == red
            assert red.is_reduced()
            again, mat2 = reduce_form(red)
            assert again == red
            assert mat2 == ((1, 0), (0, 1))
            assert red.disc == f.disc

    def test_equivalent_forms_share_reduction(self):
        rng = random.Random(9152)
        for _ in range(200):
            a = rng.randrange(1, 12)
            b = rng.randrange(-a, a + 1)
            c = rng.randrange(a, a + 25)
            f = BinaryQuadraticForm(a, b, c)
            if f.disc >= 0 or not f.is_positive_definite():
                continue
            g = f.transform(random_sl2(rng))
            assert reduce_form(f)[0] == reduce_form(g)[0]

    def test_reduction_matches_root_canonicalization(self):
        # the root of the reduced form is the fundamental-domain image of the
        # root of the original form; checked with an exact Moebius oracle
        rng = random.Random(3344)
        for _ in range(150):
            a = rng.randrange(1, 15)
            b = rng.randrange(-40, 41)
            c_min = (b * b) // (4 * a) + 1
            c = rng.randrange(c_min, c_min + 30)
            f = BinaryQuadraticForm(a, b, c)
            if f.disc >= 0:
                continue
            red, _ = reduce_form(f)
            tau = f.root()
            t, ((ma, mb), (mc, md)) = reduce_root_exact(tau)
            assert t == red.root() == (ma * tau + mb) / (mc * tau + md)
            assert ma * md - mb * mc == 1


class TestClassGroupForms:
    def test_h_one(self):
        forms = class_group_forms(-4)
        assert [(f.a, f.b, f.c) for f in forms] == [(1, 0, 1)]
        assert [(f.a, f.b, f.c) for f in class_group_forms(-3)] == [(1, 1, 1)]

    def test_disc_minus_20(self):
        forms = class_group_forms(-20)
        assert [(f.a, f.b, f.c) for f in forms] == [(1, 0, 5), (2, 2, 3)]

    def test_disc_minus_23(self):
        forms = class_group_forms(-23)
        assert [(f.a, f.b, f.c) for f in forms] == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]

    def test_imprimitive_classes_counted(self):
        # disc -16 = 4*(-4): both the primitive (1,0,4) and the imprimitive
        # 2*(1,0,1) classes appear
        forms = class_group_forms(-16)
        assert [(f.a, f.b, f.c) for f in forms] == [(1, 0, 4), (2, 0, 2)]
        assert forms[1].content() == 2

    def test_rejects_bad_disc(self):
        with pytest.raises(InvalidDiscriminant):
            class_group_forms(5)
        with pytest.raises(InvalidDiscriminant):
            class_group_forms(-6)

    def test_brute_force_agreement(self):
        for disc in range(-2000, 0):
            if disc % 4 not in (0, 1):
                continue
            got = [(f.a, f.b, f.c) for f in class_group_forms(disc)]
            assert got == forms_brute(disc), disc

    def test_all_reduced_and_inequivalent(self):
        rng = random.Random(5150)
        for disc in (-4, -20, -23, -47, -84, -163, -400, -1355):
            forms = class_group_forms(disc)
            roots = set()
            for f in forms:
                assert f.is_reduced()
                assert f.disc == disc
                roots.add(reduce_root_exact(f.root())[0])
            # distinct fundamental-domain roots = pairwise inequivalent
            assert len(roots) == len(forms)
            # random translates reduce back into the list
            for f in forms:
                g = f.transform(random_sl2(rng))
                assert reduce_form(g)[0] in forms


class TestQuadraticSurd:
    def test_normalized_triple(self):
        t = QuadraticSurd(2, 1, 4, -4)
        # (2 + sqrt(-4))/4 = (1 + sqrt(-1))/2
        assert (t.num_rational, t.num_radical, t.den, t.disc) == (1, 1, 2, -1)

    def test_value_equality_across_discs(self):
        assert QuadraticSurd(0, 1, 1, -4) == QuadraticSurd(0, 2, 1, -1)
        assert QuadraticSurd(1, 3, 2, -9) == QuadraticSurd(1, 9, 2, -1)
        assert QuadraticSurd(0, 1, 1, -3) != QuadraticSurd(0, 1, 1, -1)

    def test_rational_collapse(self):
        z = QuadraticSurd(3, 0, 2, -7)
        assert z.is_rational()
        assert z == Fraction(3, 2)
        assert z.disc == -1

    def test_field_ops(self):
        i = QuadraticSurd(0, 1, 1, -1)
        assert i * i == -1
        assert (1 + i) * (1 - i) == 2
        w = QuadraticSurd(-1, 1, 2, -3)  # primitive cube root of unity
        assert w * w * w == 1
        assert w * w + w + 1 == 0

    def test_division(self):
        t = QuadraticSurd(3, 5, 7, -11)
        u = QuadraticSurd(-2, 1, 3, -11)
        assert (t / u) * u == t
        assert t / t == 1
        with pytest.raises(ZeroDivisionError):
            t / QuadraticSurd.from_rational(0)

    def test_mixed_field_rejected(self):
        with pytest.raises(ValueError):
            QuadraticSurd(0, 1, 1, -1) + QuadraticSurd(0, 1, 1, -3)

    def test_norm(self):
        t = QuadraticSurd(1, 1, 2, -3)
        assert t.norm_squared() == Fraction(1, 4) + Fraction(3, 4)
        assert t.norm_squared() == t.x**2 - t.y**2 * t.disc

    def test_embedding(self):
        t = QuadraticSurd(1, 1, 2, -3)
        z = t.to_mpc(64)
        assert abs(complex(z) - complex(t)) < 1e-12
        assert abs(complex(t) - (0.5 + 1j * math.sqrt(3) / 2)) < 1e-15

    def test_immutable_hashable(self):
        t = QuadraticSurd(1, 1, 2, -3)
        with pytest.raises(AttributeError):
            t.x = Fraction(0)
        assert len({t, QuadraticSurd(1, 1, 2, -3), QuadraticSurd(2, 2, 4, -3)}) == 1

    def test_random_field_axioms(self):
        rng = random.Random(60320)
        for _ in range(200):
            d = rng.choice([-1, -2, -3, -7, -11, -15])
            def rand():
                return QuadraticSurd(rng.randrange(-9, 10), rng.randrange(-9, 10),
                                     rng.randrange(1, 7), d)
            a, b, c = rand(), rand(), rand()
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a - b) + b == a
            if b.norm_squared() != 0:
                assert (a / b) * b == a
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert a.norm_squared() == (a * a.conjugate()).x


class TestResidueSystem:
    def test_small(self):
        assert ResidueSystem.of(12).units == (1, 5, 7, 11)
        assert ResidueSystem.of(1).units == (1,)
        assert len(ResidueSystem.of(100)) == euler_phi(100)

    def test_membership(self):
        rs = ResidueSystem.of(30)
        assert 7 in rs
        assert 6 not in rs

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidueSystem(10, (1, 2))
