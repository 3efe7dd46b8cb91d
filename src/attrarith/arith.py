"""Exact integer arithmetic: binary quadratic forms, quadratic surds, residue systems.

Everything here is exact (Python ints and Fractions, no floating point), so
attractor points and their class data are honest algebraic objects.  Numeric
embedding happens downstream in the modular module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidDiscriminant, NotPositiveDefinite

__all__ = [
    "BinaryQuadraticForm",
    "QuadraticSurd",
    "ResidueSystem",
    "euler_phi",
    "reduce_form",
    "class_group_forms",
    "squarefree_decompose",
]


def euler_phi(n: int) -> int:
    """Euler totient: number of 1 <= m < n coprime to n, with euler_phi(1) = 1."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write |n| = s^2 * m with m squarefree; returns (s, sign(n)*m).

    Trial division runs only while p^3 <= m for what is left of |n|: each
    prime p found is divided out, its square into s and an odd power's last
    factor into the core.  The cofactor m then has no prime below p and
    m < p^3, so at most two prime factors: it is a square exactly when one
    integer square root says so, and squarefree otherwise.
    """
    if n == 0:
        return 1, 0
    m, s, core, p = abs(n), 1, 1, 2
    while p * p * p <= m:
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        s *= p ** (k // 2)
        core *= p ** (k % 2)
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        s, m = s * r, 1
    return s, (1 if n > 0 else -1) * core * m


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """Integral form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.disc < 0 and self.a > 0

    def is_reduced(self) -> bool:
        """|b| <= a <= c, with b >= 0 on the boundary |b| = a or a = c."""
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def transform(self, mat) -> "BinaryQuadraticForm":
        """Right action by mat = ((p,q),(r,s)): substitute (x,y) -> (px+qy, rx+sy)."""
        (p, q), (r, s) = mat
        a, b, c = self.a, self.b, self.c
        a2 = a * p * p + b * p * r + c * r * r
        b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
        c2 = a * q * q + b * q * s + c * s * s
        return BinaryQuadraticForm(a2, b2, c2)

    def content(self) -> int:
        return math.gcd(math.gcd(self.a, self.b), self.c)

    def root(self) -> "QuadraticSurd":
        """Upper-half-plane root of a*t^2 + b*t + c = 0 (positive definite only)."""
        if not self.is_positive_definite():
            raise NotPositiveDefinite(f"form {self} has no upper-half-plane root")
        return QuadraticSurd(-self.b, 1, 2 * self.a, self.disc)

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


_IDENTITY = ((1, 0), (0, 1))
_S = ((0, -1), (1, 0))


def reduce_form(f: BinaryQuadraticForm):
    """Gauss reduction of a positive definite form.

    Returns (reduced_form, M) with M in SL(2,Z) and f.transform(M) == reduced_form.
    """
    if not isinstance(f, BinaryQuadraticForm):
        f = BinaryQuadraticForm(*f)
    if not f.is_positive_definite():
        raise NotPositiveDefinite(f"cannot reduce {f}: disc={f.disc}, a={f.a}")
    a, b, c = f.a, f.b, f.c
    mat = _IDENTITY
    while True:
        # shift b into (-a, a]
        if not (-a < b <= a):
            r = (a - b) // (2 * a)
            mat = _mat_mul(mat, ((1, r), (0, 1)))
            c = a * r * r + b * r + c
            b = b + 2 * a * r
        if a > c:
            mat = _mat_mul(mat, _S)
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        mat = _mat_mul(mat, _S)
        b = -b
    out = BinaryQuadraticForm(a, b, c)
    assert out.is_reduced()
    return out, mat


def class_group_forms(disc: int) -> list[BinaryQuadraticForm]:
    """All reduced positive definite forms of the given discriminant.

    Enumerates with the bound a <= sqrt(|disc|/3); the list length is the
    form-count class number h(disc) (imprimitive forms, when the discriminant
    admits them, are included as their own classes).
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise InvalidDiscriminant(f"need disc < 0 and disc = 0,1 mod 4, got {disc}")
    forms = []
    a_max = math.isqrt(abs(disc) // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            if (b - disc) % 2 != 0:
                continue
            num = b * b - disc
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            form = BinaryQuadraticForm(a, b, c)
            if form.is_reduced():
                forms.append(form)
    forms.sort(key=lambda g: (g.a, g.b))
    return forms


class QuadraticSurd:
    """Exact element x + y*sqrt(disc) of an imaginary quadratic field (disc < 0).

    Stored with squarefree disc and Fraction coefficients; the normalized
    integer triple is exposed as (num_rational, num_radical, den)
    with den > 0 and gcd(num_rational, num_radical, den) = 1.
    """

    __slots__ = ("x", "y", "disc")

    def __init__(self, num_rational, num_radical, den=1, disc=-1):
        if den == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if disc >= 0:
            raise ValueError(f"disc must be negative, got {disc}")
        s, core = squarefree_decompose(disc)
        x = Fraction(num_rational, den)
        y = Fraction(num_radical, den) * s
        if y == 0:
            core = -1
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "disc", core)

    def __setattr__(self, *args):
        raise AttributeError("QuadraticSurd is immutable")

    @classmethod
    def _raw(cls, x: Fraction, y: Fraction, disc: int) -> "QuadraticSurd":
        obj = object.__new__(cls)
        if y == 0:
            disc = -1
        object.__setattr__(obj, "x", x)
        object.__setattr__(obj, "y", y)
        object.__setattr__(obj, "disc", disc)
        return obj

    @classmethod
    def from_rational(cls, value) -> "QuadraticSurd":
        return cls._raw(Fraction(value), Fraction(0), -1)

    # normalized integer-triple view
    @property
    def den(self) -> int:
        return math.lcm(self.x.denominator, self.y.denominator)

    @property
    def num_rational(self) -> int:
        return int(self.x * self.den)

    @property
    def num_radical(self) -> int:
        return int(self.y * self.den)

    @property
    def real(self) -> Fraction:
        return self.x

    def is_upper_half_plane(self) -> bool:
        return self.y > 0

    def is_rational(self) -> bool:
        return self.y == 0

    def conjugate(self) -> "QuadraticSurd":
        return QuadraticSurd._raw(self.x, -self.y, self.disc)

    def norm_squared(self) -> Fraction:
        """self * conjugate(self) = x^2 + y^2*|disc| (= |value|^2 since disc < 0)."""
        return self.x * self.x - self.y * self.y * self.disc

    def _coerce(self, other):
        if isinstance(other, QuadraticSurd):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd.from_rational(other)
        return None

    def _join_disc(self, other) -> int:
        if self.disc == other.disc:
            return self.disc
        if self.y == 0:
            return other.disc
        if other.y == 0:
            return self.disc
        raise ValueError(f"surds live in different fields: disc {self.disc} vs {other.disc}")

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticSurd._raw(self.x + o.x, self.y + o.y, self._join_disc(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._raw(-self.x, -self.y, self.disc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_disc(o)
        x = self.x * o.x + self.y * o.y * d
        y = self.x * o.y + self.y * o.x
        return QuadraticSurd._raw(x, y, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm_squared()
        if n == 0:
            raise ZeroDivisionError("division by zero surd")
        inv = QuadraticSurd._raw(o.x / n, -o.y / n, o.disc)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # value equality: radical parts may carry different squarefree discs
        if self.x != o.x:
            return False
        if self.y == 0 and o.y == 0:
            return True
        return self.disc == o.disc and self.y == o.y

    def __hash__(self):
        if self.y == 0:
            return hash(self.x)
        return hash((self.x, self.y, self.disc))

    def __repr__(self):
        return f"QuadraticSurd({self.num_rational}, {self.num_radical}, {self.den}, {self.disc})"

    def __str__(self):
        return f"({self.num_rational} + {self.num_radical}*sqrt({self.disc}))/{self.den}"

    def to_mpc(self, prec: int = 256):
        """Embed into an mpmath complex at the given binary precision."""
        import mpmath as mp

        with mp.workprec(prec):
            re = mp.mpf(self.x.numerator) / self.x.denominator
            im = (mp.mpf(self.y.numerator) / self.y.denominator) * mp.sqrt(-self.disc)
            return mp.mpc(re, im)

    def __complex__(self):
        return complex(
            self.x.numerator / self.x.denominator,
            (self.y.numerator / self.y.denominator) * math.sqrt(-self.disc),
        )


@dataclass(frozen=True)
class ResidueSystem:
    """The unit group (Z/mZ)* as an ordered list of least positive residues."""

    modulus: int
    units: tuple[int, ...]

    @classmethod
    def of(cls, modulus: int) -> "ResidueSystem":
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if modulus == 1:
            return cls(1, (1,))
        units = tuple(a for a in range(1, modulus) if math.gcd(a, modulus) == 1)
        return cls(modulus, units)

    def __post_init__(self):
        if len(self.units) != max(euler_phi(self.modulus), 1):
            raise ValueError("unit list does not have phi(modulus) elements")
        for a in self.units:
            if math.gcd(a, self.modulus) != 1:
                raise ValueError(f"{a} is not a unit mod {self.modulus}")

    def __len__(self):
        return len(self.units)

    def __iter__(self):
        return iter(self.units)

    def __contains__(self, a):
        return math.gcd(a, self.modulus) == 1
