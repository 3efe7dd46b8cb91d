"""Resolution combinatorics and Fermat-variety dimension bookkeeping.

Hirzebruch-Jung continued fractions resolve cyclic surface singularities;
their step counts feed the H^2/H^3 contributions of resolved singular curves
in a Calabi-Yau threefold.  Character counts on Fermat hypersurfaces supply
an exact oracle for both sides of the inductive Shioda-Katsura dimension
identity relating X^(r+s) to the mu_d-invariants of X^r x X^s.  They come in
closed form: each residue class by the root-of-unity filter, each weight by
the power recurrence of (1 + x + ... + x^(d-2))^(n+2).
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidStep, NotCoprime, OutOfRange, UnsupportedRange

__all__ = [
    "HJResolution",
    "SingularCurveDatum",
    "SKCheck",
    "hj_expand",
    "hj_length",
    "hj_reconstruct",
    "resolution_contributions",
    "fermat_primitive_dim",
    "fermat_hodge_numbers",
    "shioda_katsura_check",
]


@dataclass(frozen=True)
class HJResolution:
    """Cyclic singularity type (n, q) with its all->=2 continued fraction."""

    n: int
    q: int
    steps: tuple[int, ...]

    @property
    def num_spheres(self) -> int:
        return len(self.steps)


def _require_singularity(n: int, q: int):
    if not (1 <= q < n):
        raise OutOfRange(f"need 1 <= q < n, got (n,q)=({n},{q})")
    if math.gcd(n, q) != 1:
        raise NotCoprime(f"({n},{q}) not coprime")


def hj_length(n: int, q: int) -> int:
    """The number of steps of hj_expand(n, q), in O(log n) divisions.

    With n/q = [a_1; a_2, ..., a_m] the regular continued fraction, each
    odd-indexed a_i gives one step of the Hirzebruch-Jung expansion and each
    even-indexed a_i a run of a_i - 1 steps equal to 2, so it has
    ceil(m/2) + sum (a_2i - 1) = 1 + (a_2 + a_4 + ...) - [m even] steps.
    """
    _require_singularity(n, q)
    m, even_sum = 0, 0
    while q:
        m += 1
        a, (n, q) = n // q, (q, n % q)
        if m % 2 == 0:
            even_sum += a
    return 1 + even_sum - (m % 2 == 0)


def hj_expand(n: int, q: int) -> HJResolution:
    """Expand n/q as b1 - 1/(b2 - 1/(...)) with every bi >= 2."""
    _require_singularity(n, q)
    steps = []
    a, b = n, q
    while b > 0:
        step = -(-a // b)  # ceil(a/b)
        steps.append(step)
        a, b = b, step * b - a
    res = HJResolution(n=n, q=q, steps=tuple(steps))
    assert all(s >= 2 for s in res.steps)
    return res


def hj_reconstruct(steps) -> Fraction:
    """Exact value of the continued fraction [b1,...,bs]; inverse of hj_expand."""
    steps = list(steps)
    if not steps or any(b < 2 for b in steps):
        raise InvalidStep(f"steps must be a nonempty all->=2 list, got {steps}")
    # p/q is the tail's value as integer continuants: b - 1/(p/q) = (b p - q)/p
    p, q = steps[-1], 1
    for b in reversed(steps[:-1]):
        p, q = b * p - q, p
    return Fraction(p, q)


@dataclass(frozen=True)
class SingularCurveDatum:
    """A genus-g curve of A-type singularities (n, q) inside the threefold."""

    genus: int
    n: int
    q: int

    def __post_init__(self):
        if self.genus < 0:
            raise OutOfRange(f"genus must be >= 0, got {self.genus}")
        if not (1 <= self.q < self.n):
            raise OutOfRange(f"need 1 <= q < n, got ({self.n},{self.q})")
        if math.gcd(self.n, self.q) != 1:
            raise NotCoprime(f"({self.n},{self.q}) not coprime")


def resolution_contributions(curves) -> tuple[int, int]:
    """(delta_h2, delta_h3): each curve adds s classes to H^2 and g*s to H^3."""
    delta_h2 = 0
    delta_h3 = 0
    for datum in curves:
        if not isinstance(datum, SingularCurveDatum):
            datum = SingularCurveDatum(*datum)
        s = hj_length(datum.n, datum.q)
        delta_h2 += s
        delta_h3 += datum.genus * s
    return delta_h2, delta_h3


def _tuple_counts(d: int, k: int) -> tuple[int, int]:
    """#{(a_1..a_k) in [1,d-1]^k : sum = j mod d} at j = 0, and at each j != 0.

    Root-of-unity filter: z + ... + z^(d-1) = -1 at each d-th root z != 1, so
    every residue gets o = ((d-1)^k - (-1)^k)/d and residue 0 also (-1)^k.
    """
    o = ((d - 1) ** k - (-1) ** k) // d
    return o + (-1) ** k, o


def fermat_primitive_dim(d: int, n: int) -> int:
    """Primitive middle cohomology dimension of the degree-d Fermat n-fold.

    Counts character vectors (a_0..a_{n+1}), entries in [1, d-1], summing to
    0 mod d: ((d-1)^(n+2) + (-1)^n (d-1))/d by _tuple_counts.
    """
    if d < 2 or n < 0:
        raise OutOfRange(f"need d >= 2 and n >= 0, got ({d},{n})")
    return _tuple_counts(d, n + 2)[0]


def fermat_hodge_numbers(d: int, n: int) -> tuple[int, ...]:
    """Character counts of the primitive middle cohomology graded by weight.

    Entry w-1 counts vectors with sum exactly w*d, w = 1..n+1 (the Hodge
    grading h^(n+1-w, w-1)_prim); the total is fermat_primitive_dim(d, n).
    With a_i = 1 + b_i it is c_(wd-k), c_m = [x^m] P^k, P = 1 + ... + x^e,
    k = n + 2, e = d - 2.  P (P^k)' = k P' P^k gives m c_m = sum_(j=1..e)
    ((k+1) j - m) c_(m-j): O(1) per step with s0 = sum c_(m-j), s1 = sum j c_(m-j).
    """
    if d < 2 or n < 0:
        raise OutOfRange(f"need d >= 2 and n >= 0, got ({d},{n})")
    k, e = n + 2, d - 2
    out = [0] * (n + 1)
    if k % d == 0:
        out[k // d - 1] = 1  # c_0
    window = collections.deque([1], maxlen=e + 1)  # c_(m-1-e) .. c_(m-1)
    s0 = s1 = 0
    for m in range(1, min((n + 1) * d - k, k * e) + 1):
        old = window[0] if len(window) > e else 0
        s1 += s0 + window[-1] - (e + 1) * old
        s0 += window[-1] - old
        window.append(((k + 1) * s1 - m * s0) // m)
        if (m + k) % d == 0:
            out[(m + k) // d - 1] = window[-1]
    assert sum(out) == fermat_primitive_dim(d, n)
    return tuple(out)


def _char_dims(d: int, m: int, i: int) -> list[int]:
    """dims[c] = multiplicity of the mu_d-character c in H^i of the Fermat m-fold.

    The action scales the last homogeneous coordinate; an eigenclass with
    character vector a has character a_{m+1} != 0, and algebraic hyperplane
    classes in even degrees carry character 0.  The 0-fold (d points) comes
    out as one class per residue, as it must.
    """
    dims = [0] * d
    if i < 0 or i > 2 * m or i % 2 == 1 and i != m:
        return dims
    if i % 2 == 0 and i != m:
        dims[0] = 1
        return dims
    # middle degree: for c != 0 the other m + 1 entries sum to -c != 0 mod d
    return [1 - m % 2] + [_tuple_counts(d, m + 1)[1]] * (d - 1)


def _betti(d: int, m: int, i: int) -> int:
    return sum(_char_dims(d, m, i))


@dataclass(frozen=True)
class SKCheck:
    """Dimension-level verification record for the inductive Fermat identity."""

    d: int
    r: int
    s: int
    lhs_total: int
    rhs_total: int
    lhs_terms: tuple
    rhs_terms: tuple

    @property
    def equal(self) -> bool:
        return self.lhs_total == self.rhs_total


def shioda_katsura_check(d: int, r: int, s: int) -> SKCheck:
    """Compare total dimensions of both sides of the inductive identity.

    LHS: b_n(X^n) plus the Tate-twisted lower Betti numbers of X^(r-1) and
    X^(s-1) (twists preserve dimension).  RHS: the mu_d-invariant part of
    H^n(X^r x X^s), computed by Kuenneth with last-coordinate character
    pairing, plus b_(n-2)(X^(r-1) x X^(s-1)).
    """
    if d not in (3, 4, 5, 6) or r not in (1, 2) or s not in (1, 2):
        raise UnsupportedRange(f"supported: d in 3..6, r,s in {{1,2}}; got ({d},{r},{s})")
    n = r + s

    lhs_main = _betti(d, n, n)
    lhs_r = tuple(_betti(d, r - 1, n - 2 * j) for j in range(1, s + 1))
    lhs_s = tuple(_betti(d, s - 1, n - 2 * k) for k in range(1, r + 1))
    lhs_total = lhs_main + sum(lhs_r) + sum(lhs_s)

    invariant = 0
    for i in range(0, n + 1):
        left = _char_dims(d, r, i)
        right = _char_dims(d, s, n - i)
        invariant += sum(left[c] * right[(-c) % d] for c in range(d))
    product_term = sum(
        _betti(d, r - 1, i) * _betti(d, s - 1, n - 2 - i) for i in range(0, n - 1)
    )
    rhs_total = invariant + product_term

    return SKCheck(
        d=d, r=r, s=s,
        lhs_total=lhs_total, rhs_total=rhs_total,
        lhs_terms=(lhs_main, lhs_r, lhs_s),
        rhs_terms=(invariant, product_term),
    )
