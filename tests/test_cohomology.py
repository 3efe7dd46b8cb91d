"""Tests for resolution combinatorics and Fermat dimension identities."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from oracles import continued_fraction_fractions, hodge_numbers_conv, tuple_counts_conv

from attrarith.cohomology import (
    HJResolution,
    SingularCurveDatum,
    fermat_hodge_numbers,
    _tuple_counts,
    fermat_primitive_dim,
    hj_expand,
    hj_length,
    hj_reconstruct,
    resolution_contributions,
    shioda_katsura_check,
)
from attrarith.errors import InvalidStep, NotCoprime, OutOfRange, UnsupportedRange


def modinv(q, n):
    return pow(q, -1, n)


class TestHJ:
    def test_examples(self):
        assert hj_expand(3, 1).steps == (3,)
        assert hj_expand(5, 2).steps == (3, 2)
        assert hj_expand(7, 5).steps == (2, 2, 3)

    def test_reconstruct(self):
        assert hj_reconstruct([3]) == 3
        assert hj_reconstruct([3, 2]) == Fraction(5, 2)
        assert hj_reconstruct([2, 2, 2]) == Fraction(4, 3)

    def test_errors(self):
        with pytest.raises(NotCoprime):
            hj_expand(6, 2)
        with pytest.raises(OutOfRange):
            hj_expand(5, 5)
        with pytest.raises(OutOfRange):
            hj_expand(5, 0)
        with pytest.raises(InvalidStep):
            hj_reconstruct([3, 1])
        with pytest.raises(InvalidStep):
            hj_reconstruct([])

    def test_round_trip_all_coprime_to_50(self):
        for n in range(2, 51):
            for q in range(1, n):
                if math.gcd(n, q) != 1:
                    continue
                res = hj_expand(n, q)
                assert all(b >= 2 for b in res.steps)
                assert hj_reconstruct(res.steps) == Fraction(n, q)

    def test_reconstruct_matches_fraction_recursion(self):
        rng = random.Random(1093)
        cases = [(300001, 300000)]   # 300 000 steps, the CLI's resolve cap
        while len(cases) < 300:
            n = rng.randrange(2, 10**rng.randrange(1, 16))
            q = rng.randrange(1, n)
            if math.gcd(n, q) == 1 and hj_length(n, q) <= 10**4:
                cases.append((n, q))
        for n, q in cases:
            steps = hj_expand(n, q).steps
            value = hj_reconstruct(steps)
            assert type(value) is Fraction
            assert value == continued_fraction_fractions(steps) == Fraction(n, q), (n, q)

    def test_length_from_regular_continued_fraction(self):
        # 1 + (a_2 + a_4 + ...) - [m even] for n/q = [a_1; ..., a_m]
        for n in range(2, 300):
            for q in range(1, n):
                if math.gcd(n, q) == 1:
                    assert hj_length(n, q) == len(hj_expand(n, q).steps), (n, q)
        assert hj_length(10**9, 10**9 - 1) == 10**9 - 1
        assert hj_length(10**9 + 7, 1) == 1
        for n, q, exc in ((6, 2, NotCoprime), (5, 5, OutOfRange), (5, 0, OutOfRange)):
            with pytest.raises(exc):
                hj_length(n, q)

    def test_dual_twist_reverses_steps(self):
        for n in range(2, 51):
            for q in range(1, n):
                if math.gcd(n, q) != 1:
                    continue
                dual = hj_expand(n, modinv(q, n))
                here = hj_expand(n, q)
                assert dual.steps == tuple(reversed(here.steps))
                assert dual.num_spheres == here.num_spheres


class TestResolutionContributions:
    def test_examples(self):
        assert resolution_contributions([SingularCurveDatum(2, 5, 2)]) == (2, 4)
        assert resolution_contributions([SingularCurveDatum(0, 3, 1)]) == (1, 0)
        assert resolution_contributions(
            [SingularCurveDatum(1, 3, 1), SingularCurveDatum(2, 5, 2)]) == (3, 5)

    def test_empty(self):
        assert resolution_contributions([]) == (0, 0)

    def test_validation(self):
        with pytest.raises(OutOfRange):
            SingularCurveDatum(-1, 3, 1)
        with pytest.raises(NotCoprime):
            SingularCurveDatum(0, 4, 2)


def brute_primitive_dim(d, n):
    count = 0
    for tup in itertools.product(range(1, d), repeat=n + 2):
        if sum(tup) % d == 0:
            count += 1
    return count


class TestFermatCounts:
    def test_examples(self):
        assert fermat_primitive_dim(3, 2) == 6
        assert fermat_primitive_dim(4, 1) == 6
        assert fermat_primitive_dim(5, 3) == 204

    def test_hodge_numbers(self):
        assert fermat_hodge_numbers(5, 3) == (1, 101, 101, 1)
        assert fermat_hodge_numbers(3, 1) == (1, 1)
        assert fermat_hodge_numbers(4, 2) == (1, 19, 1)

    def test_convolution_vs_brute_force(self):
        for d in range(2, 6):
            for n in range(0, 4):
                assert fermat_primitive_dim(d, n) == brute_primitive_dim(d, n)

    def test_hodge_palindrome_and_total(self):
        for d in range(2, 8):
            for n in range(0, 5):
                h = fermat_hodge_numbers(d, n)
                assert h == tuple(reversed(h))
                assert sum(h) == fermat_primitive_dim(d, n)

    def test_closed_forms_vs_convolution(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(d=st.integers(2, 13), n=st.integers(0, 10))
        def check(d, n):
            zero, other = _tuple_counts(d, n)
            assert tuple_counts_conv(d, n) == [zero] + [other] * (d - 1)
            assert fermat_primitive_dim(d, n) == tuple_counts_conv(d, n + 2)[0]
            assert fermat_hodge_numbers(d, n) == hodge_numbers_conv(d, n)

        check()

    def test_rejects_bad_input(self):
        with pytest.raises(OutOfRange):
            fermat_primitive_dim(1, 2)
        with pytest.raises(OutOfRange):
            fermat_hodge_numbers(3, -1)


class TestShiodaKatsura:
    def test_hand_verified_totals(self):
        chk = shioda_katsura_check(3, 1, 1)
        assert chk.lhs_total == chk.rhs_total == 13
        assert chk.lhs_terms[0] == 7
        assert chk.rhs_terms == (4, 9)

        chk = shioda_katsura_check(4, 1, 1)
        assert chk.lhs_total == chk.rhs_total == 30
        assert chk.lhs_terms[0] == 22
        assert chk.rhs_terms == (14, 16)

    def test_mixed_degree(self):
        chk = shioda_katsura_check(3, 2, 1)
        assert chk.equal
        assert chk.lhs_total == 12

    def test_whole_supported_range(self):
        for d in (3, 4, 5, 6):
            for r in (1, 2):
                for s in (1, 2):
                    chk = shioda_katsura_check(d, r, s)
                    assert chk.equal, (d, r, s, chk)

    def test_unsupported(self):
        with pytest.raises(UnsupportedRange):
            shioda_katsura_check(7, 1, 1)
        with pytest.raises(UnsupportedRange):
            shioda_katsura_check(4, 3, 1)
