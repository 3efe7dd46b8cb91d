"""Attractor points of BPS charge data.

A charge is summarized by the three integers (p2, q2, pq); when it comes from
lattice vectors and a Gram matrix those invariants are computed and checked
exactly.  The attractor modulus tau = (pq + sqrt(D))/p2 with D = pq^2 - p2*q2
is produced as an exact quadratic surd together with its binary quadratic form
and class data, plus the exact two-form certificate for K3 x E realizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .arith import BinaryQuadraticForm, QuadraticSurd, class_group_forms, reduce_form
from .errors import DegenerateCharge, NotAttractor

__all__ = [
    "ChargeData",
    "AttractorPoint",
    "K3FormCertificate",
    "discriminant",
    "attractor_point",
    "entropy_invariant",
    "k3_form_certificate",
]


def _bilinear(u: Sequence[int], v: Sequence[int], gram) -> int:
    return sum(gram[i][j] * u[i] * v[j] for i in range(len(u)) for j in range(len(v)))


def _integers(values, what: str) -> tuple:
    """values as a tuple of ints, refusing anything but a list or tuple of
    them; the message names only types, so it stays one short line."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {type(values).__name__}")
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} entries must be integers, got {type(x).__name__}")
    return tuple(values)


def _check_gram(gram, dim: int):
    if len(gram) != dim or any(len(row) != dim for row in gram):
        raise ValueError(f"Gram matrix must be {dim}x{dim}")
    for i in range(dim):
        for j in range(dim):
            if gram[i][j] != gram[j][i]:
                raise ValueError("Gram matrix must be symmetric")


@dataclass(frozen=True)
class ChargeData:
    """Charge invariants p2 = p.p, q2 = q.q, pq = p.q, plus the optional source vectors."""

    p2: int
    q2: int
    pq: int
    p_vec: Optional[tuple] = None
    q_vec: Optional[tuple] = None
    gram: Optional[tuple] = None

    def __post_init__(self):
        prov = (self.p_vec, self.q_vec, self.gram)
        if any(v is not None for v in prov):
            if any(v is None for v in prov):
                raise ValueError("provide p_vec, q_vec and gram together or not at all")
            if len(self.p_vec) != len(self.q_vec):
                raise ValueError("charge vectors must have equal length")
            _check_gram(self.gram, len(self.p_vec))
            checks = (
                (self.p2, _bilinear(self.p_vec, self.p_vec, self.gram), "p2"),
                (self.q2, _bilinear(self.q_vec, self.q_vec, self.gram), "q2"),
                (self.pq, _bilinear(self.p_vec, self.q_vec, self.gram), "pq"),
            )
            for stored, computed, name in checks:
                if stored != computed:
                    raise ValueError(f"{name}={stored} inconsistent with vectors (got {computed})")

    @classmethod
    def from_vectors(cls, p: Sequence[int], q: Sequence[int], gram) -> "ChargeData":
        """The charge of the vectors p, q under the square Gram matrix gram.

        Each must be a list or tuple of integers (gram one of rows): a float,
        a bool, a str or None raises ValueError and is never truncated."""
        p, q = _integers(p, "charge vector"), _integers(q, "charge vector")
        if not isinstance(gram, (list, tuple)):
            raise ValueError(f"Gram matrix must be a list of rows, got {type(gram).__name__}")
        g = tuple(_integers(row, "Gram matrix row") for row in gram)
        if len(p) != len(q):
            raise ValueError("charge vectors must have equal length")
        _check_gram(g, len(p))
        return cls(
            p2=_bilinear(p, p, g),
            q2=_bilinear(q, q, g),
            pq=_bilinear(p, q, g),
            p_vec=p,
            q_vec=q,
            gram=g,
        )


def discriminant(c: ChargeData) -> int:
    """D = pq^2 - p2*q2; negative for regular attractors."""
    return c.pq * c.pq - c.p2 * c.q2


@dataclass(frozen=True)
class AttractorPoint:
    tau: QuadraticSurd
    D: int
    form: BinaryQuadraticForm

    @cached_property
    def class_number(self) -> int:
        """The number of reduced forms of discriminant 4D, enumerated on the
        first read: O(|D|) work that most callers never need."""
        return len(class_group_forms(4 * self.D))


def _attractor_disc(c: ChargeData) -> int:
    """D of a charge that has an attractor point: DegenerateCharge unless
    p2 > 0, NotAttractor unless D < 0.  No surd is formed, so D is not factored."""
    if c.p2 <= 0:
        raise DegenerateCharge(f"p2 must be positive, got {c.p2}")
    D = discriminant(c)
    if D >= 0:
        raise NotAttractor(f"discriminant {D} >= 0: no attractor point")
    return D


def attractor_point(c: ChargeData) -> AttractorPoint:
    """Exact attractor modulus tau = (pq + sqrt(D))/p2 with its reduced form.

    The associated form (p2, -2pq, q2) has discriminant 4D and tau as its
    upper-half-plane root.  The surd factors D once and keeps its squarefree
    part as tau.disc.
    """
    D = _attractor_disc(c)
    tau = QuadraticSurd(c.pq, 1, c.p2, D)
    form, _ = reduce_form(BinaryQuadraticForm(c.p2, -2 * c.pq, c.q2))
    return AttractorPoint(tau=tau, D=D, form=form)


def entropy_invariant(c: ChargeData, prec: int = 256):
    """sqrt(|D|): the minimum of the central charge density |Z|^2 over the half-plane."""
    import mpmath as mp

    D = _attractor_disc(c)
    with mp.workprec(prec):
        return mp.sqrt(-D)


@dataclass(frozen=True)
class K3FormCertificate:
    """Exact check that Omega = q - conj(tau)*p is isotropic with positive pairing."""

    charge: ChargeData
    tau: QuadraticSurd
    isotropy: QuadraticSurd      # Omega^T G Omega, zero iff tau solves the charge quadric
    pairing: Fraction            # Omega^T G conj(Omega), equals 2|D|/p2
    expected_pairing: Fraction

    @property
    def passed(self) -> bool:
        return (
            self.isotropy == 0
            and self.pairing == self.expected_pairing
            and self.pairing > 0
        )


def k3_form_certificate(p: Sequence[int], q: Sequence[int], gram) -> K3FormCertificate:
    """Certify the holomorphic-two-form algebra of a K3 charge pair exactly.

    With tau the attractor point of the invariants of (p, q, gram) and
    Omega = q - conj(tau)*p, verifies in surd arithmetic that
    Omega.G.Omega = 0 and Omega.G.conj(Omega) = 2|D|/p2 > 0.
    """
    c = ChargeData.from_vectors(p, q, gram)
    at = attractor_point(c)
    tau_bar = at.tau.conjugate()
    omega = [QuadraticSurd.from_rational(qi) - tau_bar * pi
             for pi, qi in zip(c.p_vec, c.q_vec)]
    omega_bar = [w.conjugate() for w in omega]
    n = len(omega)
    zero = QuadraticSurd.from_rational(0)
    iso = sum((c.gram[i][j] * omega[i] * omega[j] for i in range(n) for j in range(n)), zero)
    pair = sum((c.gram[i][j] * omega[i] * omega_bar[j] for i in range(n) for j in range(n)), zero)
    if not pair.is_rational():
        raise AssertionError("hermitian pairing failed to collapse to a rational")
    return K3FormCertificate(
        charge=c,
        tau=at.tau,
        isotropy=iso,
        pairing=pair.real,
        expected_pairing=Fraction(2 * abs(at.D), c.p2),
    )
