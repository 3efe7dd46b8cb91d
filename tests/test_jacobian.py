"""Tests for the weighted-curve form basis and Jacobian CM decomposition."""

import math

import pytest
from oracles import decompose_jacobian_public, enumerate_forms_loop, projective_basis_loop

from attrarith.arith import euler_phi
from attrarith.errors import DegreeTooSmall, InvalidIndex, InvalidWeights, NotUnit
from attrarith.jacobian import (
    CurveSignature,
    FormIndex,
    cm_set,
    decompose_jacobian,
    descended_forms,
    descent_count,
    enumerate_forms,
    genus,
    projective_basis,
    star_action,
)


def all_signatures(d_max):
    for d in range(2, d_max + 1):
        divs = [k for k in range(1, d + 1) if d % k == 0]
        for k in divs:
            for l in divs:
                if math.gcd(k, l) == 1:
                    yield CurveSignature(d, k, l)


class TestEnumerateForms:
    def test_cubic(self):
        assert enumerate_forms(CurveSignature(3, 1, 1)) == [
            FormIndex(1, 1, 1), FormIndex(2, 2, 2)]

    def test_quartic(self):
        assert enumerate_forms(CurveSignature(4, 1, 1)) == [
            FormIndex(1, 1, 2), FormIndex(1, 2, 1), FormIndex(2, 1, 1),
            FormIndex(2, 3, 3), FormIndex(3, 2, 3), FormIndex(3, 3, 2)]

    def test_weighted_quartic(self):
        assert enumerate_forms(CurveSignature(4, 1, 2)) == [
            FormIndex(1, 1, 1), FormIndex(3, 3, 1)]

    def test_matches_triple_loop(self):
        for sig in all_signatures(40):
            assert enumerate_forms(sig) == enumerate_forms_loop(sig), sig

    def test_invalid_weights(self):
        with pytest.raises(InvalidWeights):
            CurveSignature(4, 3, 1)
        with pytest.raises(InvalidWeights):
            CurveSignature(6, 2, 2)
        with pytest.raises(InvalidWeights):
            CurveSignature(6, 0, 1)


class TestGenus:
    def test_values(self):
        assert genus(CurveSignature(3, 1, 1)) == 1
        assert genus(CurveSignature(4, 1, 1)) == 3
        assert genus(CurveSignature(4, 1, 2)) == 1

    def test_plane_curve_formula(self):
        for d in range(3, 13):
            assert genus(CurveSignature(d, 1, 1)) == (d - 1) * (d - 2) // 2


class TestStarAction:
    def test_identity(self):
        for sig in all_signatures(8):
            for idx in enumerate_forms(sig):
                assert star_action(1, idx, sig) == idx

    def test_examples(self):
        assert star_action(3, FormIndex(1, 1, 2), CurveSignature(4, 1, 1)) == FormIndex(3, 3, 2)
        assert star_action(3, FormIndex(1, 1, 1), CurveSignature(4, 1, 2)) == FormIndex(3, 3, 1)

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            star_action(2, FormIndex(1, 1, 2), CurveSignature(4, 1, 1))

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidIndex):
            star_action(1, FormIndex(1, 1, 1), CurveSignature(4, 1, 1))

    def test_group_action_laws(self):
        for sig in all_signatures(12):
            forms = enumerate_forms(sig)
            units = [a for a in range(1, sig.d + 1) if math.gcd(a, sig.d) == 1]
            for idx in forms:
                for a in units:
                    img = star_action(a, idx, sig)
                    assert img in forms
                    for b in units:
                        assert star_action(b, img, sig) == star_action((a * b) % sig.d or sig.d, idx, sig)


class TestCmSet:
    def test_examples(self):
        assert cm_set(FormIndex(1, 1, 1), CurveSignature(3, 1, 1)) == [1]
        assert cm_set(FormIndex(1, 1, 2), CurveSignature(4, 1, 1)) == [1]
        assert cm_set(FormIndex(1, 1, 1), CurveSignature(4, 1, 2)) == [1]

    def test_complementarity(self):
        for sig in all_signatures(12):
            for idx in enumerate_forms(sig):
                members = cm_set(idx, sig)
                if not members:
                    continue
                lev = sig.d // math.gcd(
                    math.gcd(idx.r, sig.k * idx.s), math.gcd(sig.l * idx.t, sig.d))
                assert len(members) == euler_phi(lev) // 2
                chosen = set(members)
                for a in range(1, lev):
                    if math.gcd(a, lev) == 1:
                        assert ((a in chosen) + ((lev - a) in chosen)) == 1


class TestDecompose:
    def test_fermat_quartic(self):
        factors = decompose_jacobian(CurveSignature(4, 1, 1))
        assert len(factors) == 3
        for f in factors:
            assert f.dimension == 1
            assert f.level == 4
            assert len(f.orbit) == 2
        assert [f.orbit[0] for f in factors] == [
            FormIndex(1, 1, 2), FormIndex(1, 2, 1), FormIndex(2, 1, 1)]

    def test_cubic(self):
        factors = decompose_jacobian(CurveSignature(3, 1, 1))
        assert len(factors) == 1
        assert factors[0].dimension == 1
        assert factors[0].level == 3

    def test_weighted_quartic(self):
        factors = decompose_jacobian(CurveSignature(4, 1, 2))
        assert len(factors) == 1
        assert factors[0].dimension == 1
        assert factors[0].level == 4

    def test_factors_keyed_by_increasing_orbit_minimum(self):
        for sig in all_signatures(40):
            orbits = [f.orbit for f in decompose_jacobian(sig)]
            assert all(a[0] < b[0] for a, b in zip(orbits, orbits[1:])), sig
            assert all(orbit[0] == min(orbit) for orbit in orbits), sig

    def test_matches_public_star_action_and_cm_set(self):
        # the orbit loop maps its already-valid seeds without re-checking them
        for sig in all_signatures(40):
            got = [(f.orbit, f.level, f.dimension, f.cm_set) for f in decompose_jacobian(sig)]
            assert got == decompose_jacobian_public(sig), sig

    def test_dimension_sum_and_orbit_sizes(self):
        for sig in all_signatures(12):
            factors = decompose_jacobian(sig)
            assert sum(f.dimension for f in factors) == genus(sig)
            covered = [idx for f in factors for idx in f.orbit]
            assert sorted(covered) == enumerate_forms(sig)
            for f in factors:
                assert euler_phi(sig.d) % len(f.orbit) == 0
                assert len(f.orbit) == euler_phi(f.level)
                assert len(f.cm_set) == f.dimension
                # level is an invariant of the whole orbit
                for idx in f.orbit:
                    g = math.gcd(math.gcd(idx.r, sig.k * idx.s),
                                 math.gcd(sig.l * idx.t, sig.d))
                    assert sig.d // g == f.level


class TestProjectiveBasis:
    def test_counts(self):
        assert len(projective_basis(3)) == 2
        assert len(projective_basis(4)) == 6
        assert len(projective_basis(5)) == 12
        assert set(projective_basis(3)) == {(1, 1, 1), (2, 2, 2)}

    def test_matches_triple_loop(self):
        for d in range(3, 41):
            assert projective_basis(d) == projective_basis_loop(d), d

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            projective_basis(2)


class TestDescent:
    def test_weighted_quartic(self):
        assert descent_count(CurveSignature(4, 1, 2)) == 2
        assert descended_forms(CurveSignature(4, 1, 2)) == [
            FormIndex(1, 1, 1), FormIndex(3, 3, 1)]

    def test_unweighted(self):
        assert descent_count(CurveSignature(4, 1, 1)) == 6

    def test_matches_direct_enumeration(self):
        for sig in all_signatures(12):
            if sig.d < 3:
                continue
            assert descended_forms(sig) == enumerate_forms(sig), sig
