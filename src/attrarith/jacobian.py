"""CM decomposition of Jacobians of weighted Brieskorn-Pham curves.

A curve x^d + y^(d/k) + z^(d/l) = 0 in P_(1,k,l) has its de Rham H^1 indexed
by integer triples (r,s,t); the unit group (Z/dZ)* permutes them, and each
orbit is the combinatorial shadow of one CM abelian factor of the Jacobian:
a cyclotomic level, a dimension phi(level)/2, and a CM set selecting half the
embeddings of Q(mu_level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .arith import ResidueSystem, euler_phi
from .errors import DegreeTooSmall, InvalidIndex, InvalidWeights, NotUnit

__all__ = [
    "CurveSignature",
    "FormIndex",
    "AbelianFactor",
    "enumerate_forms",
    "genus",
    "star_action",
    "decompose_jacobian",
    "cm_set",
    "projective_basis",
    "descent_count",
    "descended_forms",
]


@dataclass(frozen=True)
class CurveSignature:
    """Degree d and weights (k, l) of a curve in P_(1,k,l)[d]."""

    d: int
    k: int
    l: int

    def __post_init__(self):
        if self.d < 1 or self.k < 1 or self.l < 1:
            raise InvalidWeights(f"need positive (d,k,l), got {self}")
        if self.d % self.k or self.d % self.l:
            raise InvalidWeights(f"weights must divide the degree: {self}")
        if math.gcd(self.k, self.l) != 1:
            raise InvalidWeights(f"weights must be coprime: {self}")

    @property
    def a(self) -> int:
        """Exponent of y: d/k."""
        return self.d // self.k

    @property
    def b(self) -> int:
        """Exponent of z: d/l."""
        return self.d // self.l


class FormIndex(NamedTuple):
    r: int
    s: int
    t: int


def _require_valid(idx: FormIndex, sig: CurveSignature):
    r, s, t = idx
    ok = (
        1 <= r <= sig.d - 1
        and 1 <= s <= sig.a - 1
        and 1 <= t <= sig.b - 1
        and (r + sig.k * s + sig.l * t) % sig.d == 0
    )
    if not ok:
        raise InvalidIndex(f"{idx} is not a valid form index for {sig}")


def enumerate_forms(sig: CurveSignature) -> list[FormIndex]:
    """All (r,s,t) with r+ks+lt = 0 mod d in the weighted ranges, lex order."""
    if not isinstance(sig, CurveSignature):
        sig = CurveSignature(*sig)
    # d = l b, so lt = -(r + ks) mod d fixes t in [0, b) when l divides it
    out = []
    for r in range(1, sig.d):
        for s in range(1, sig.a):
            t, rem = divmod(-(r + sig.k * s) % sig.d, sig.l)
            if t and not rem:
                out.append(FormIndex(r, s, t))
    assert len(out) % 2 == 0
    return out


def genus(sig: CurveSignature) -> int:
    return len(enumerate_forms(sig)) // 2


def star_action(a: int, idx: FormIndex, sig: CurveSignature) -> FormIndex:
    """Image of a form index under the unit a: componentwise least positive residues."""
    if not isinstance(sig, CurveSignature):
        sig = CurveSignature(*sig)
    if math.gcd(a, sig.d) != 1:
        raise NotUnit(f"{a} is not a unit mod {sig.d}")
    idx = FormIndex(*idx)
    _require_valid(idx, sig)
    # gcd(a,d)=1 keeps each residue nonzero, so % never lands on 0
    return FormIndex((a * idx.r) % sig.d, (a * idx.s) % sig.a, (a * idx.t) % sig.b)


def _level(idx: FormIndex, sig: CurveSignature) -> int:
    g = math.gcd(math.gcd(idx.r, sig.k * idx.s), math.gcd(sig.l * idx.t, sig.d))
    return sig.d // g


def cm_set(idx: FormIndex, sig: CurveSignature) -> list[int]:
    """Units a mod level with <a*u> + <a*v> + <a*w> = level for the reduced triple.

    The triple (u,v,w) = (r, ks, lt)/gcd lives mod level = d/gcd; exactly one
    of {a, level - a} satisfies the condition, so the result has phi(level)/2
    elements: the CM type of the abelian factor containing the index.
    """
    if not isinstance(sig, CurveSignature):
        sig = CurveSignature(*sig)
    idx = FormIndex(*idx)
    _require_valid(idx, sig)
    m = _level(idx, sig)
    out = _cm_set(idx, sig, m, ResidueSystem.of(m).units)
    assert len(out) == euler_phi(m) // 2
    return out


def _cm_set(idx: FormIndex, sig: CurveSignature, m: int, units) -> list[int]:
    """cm_set of a valid index of level m, given the units mod m in order."""
    g = sig.d // m
    u, v, w = idx.r // g, (sig.k * idx.s) // g, (sig.l * idx.t) // g
    return [a for a in units if (a * u) % m + (a * v) % m + (a * w) % m == m]


@dataclass(frozen=True)
class AbelianFactor:
    """One CM factor: forms in its orbit, cyclotomic level, dimension, CM set."""

    orbit: tuple[FormIndex, ...]
    level: int
    dimension: int
    cm_set: tuple[int, ...]


def decompose_jacobian(sig: CurveSignature) -> list[AbelianFactor]:
    """Partition the form basis into unit-group orbits, one abelian factor each.

    Factors are keyed by the lexicographically smallest orbit member; the CM
    set is computed from that representative.  The orbits partition the
    forms, so the orbit sizes sum to twice the genus.
    In lex order, the first form no orbit covers yet is a new orbit's minimum.
    Its orbit under (Z/d)* is the image of (Z/level)*, level = d/g: with
    (r, ks, lt) = g (u, v, w), a r mod d = g (a u mod level), and k (a s mod
    d/k) and l (a t mod d/l) are g (a v mod level) and g (a w mod level).  So
    the componentwise image that star_action would check and return depends
    only on a mod level, and every unit mod level lifts to one mod d.  As
    gcd(u, v, w, level) = 1, distinct units mod level give distinct images,
    so each orbit element is formed once, from the units of the seed's
    level, which also give its CM set and are listed once per level per call.
    """
    if not isinstance(sig, CurveSignature):
        sig = CurveSignature(*sig)
    d, da, db = sig.d, sig.a, sig.b
    level_units = {}
    covered = set()
    factors = []
    for seed in enumerate_forms(sig):
        if seed in covered:
            continue
        r, s, t = seed
        lev = _level(seed, sig)
        if lev not in level_units:
            level_units[lev] = ResidueSystem.of(lev).units
        units = level_units[lev]
        orbit = sorted(FormIndex(a * r % d, a * s % da, a * t % db) for a in units)
        covered.update(orbit)
        factors.append(AbelianFactor(
            orbit=tuple(orbit),
            level=lev,
            dimension=euler_phi(lev) // 2,
            cm_set=tuple(_cm_set(seed, sig, lev, units)),
        ))
    return factors


def projective_basis(d: int) -> list[tuple[int, int, int]]:
    """All (r,s,t) with 0 < r,s,t < d and r+s+t = 0 mod d; count (d-1)(d-2)."""
    if d < 3:
        raise DegreeTooSmall(f"projective basis needs degree >= 3, got {d}")
    out = [(r, s, (-r - s) % d)
           for r in range(1, d) for s in range(1, d) if (r + s) % d]
    assert len(out) == (d - 1) * (d - 2)
    return out


def descended_forms(sig: CurveSignature) -> list[FormIndex]:
    """Plane-curve basis elements invariant under the weight quotient, relabeled.

    Keeps triples with s = 0 mod k and t = 0 mod l (the exponents fixed by the
    Z_k x Z_l action on the cover) and maps (r, s, t) -> (r, s/k, t/l).
    """
    if not isinstance(sig, CurveSignature):
        sig = CurveSignature(*sig)
    # dividing s and t by constants keeps the basis's lex order
    return [FormIndex(r, s // sig.k, t // sig.l)
            for r, s, t in projective_basis(sig.d)
            if s % sig.k == 0 and t % sig.l == 0]


def descent_count(sig: CurveSignature) -> int:
    return len(descended_forms(sig))
