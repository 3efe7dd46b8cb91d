"""Radial flow of (U, tau) to the attractor point, in closed form, with certificates.

The flow is gradient flow of |Z| (Ferrara, Kallosh and Strominger, hep-th/9508072;
Moore, hep-th/9807087): in the rescaled radial variable sigma,
dtau/dsigma = -2y^2 grad|Z|^2/|Z|, dU/dsigma = -|Z| and drho/dsigma = exp(-U).
With tau* = x* + iy* and d the hyperbolic distance to it, cosh d =
1 + |tau - tau*|^2/(2yy*) and x*^2 + y*^2 = q2/p2 give |Z|^2 =
(q2 - 2pq x + p2|tau|^2)/(2y) = sqrt|D| cosh d, so tau runs down the geodesic
to tau*.  With k = |D|^(1/4) and v = 1/sqrt(cosh d), dd/dsigma = -2k v sinh d and

    U = ln(sinh d / sinh d0)/2  (-k sigma if d0 = 0),   sigma = (Psi(d) - Psi(d0))/(2k),

Psi = arctan v + artanh v = pi/2 - Phi(1/v), Phi(s) = ln((s-1)/(s+1))/2 + arctan s.

Row n lies at sigma = n*step; Newton's method in ln d, over all rows at once,
solves Psi(d) = Psi(d0) + 2k sigma.  Psi keeps full relative precision without
overflow: 1 - v = (s-1)/s = 2sinh^2(d/2)/(s(s+1)) is taken as
tanh(d/2) tanh(d)/(1 + v), artanh v as log1p(2v/(1 - v))/2, and below d = 1e-8
Psi = pi/4 + (3/2) ln 2 - ln d and ln sinh d = ln d.  The Cayley point
w = (tau - tau*)/(tau - conj tau*) has modulus tanh(d/2) and the start's argument
theta, and tau = tau* + 2iy* w/(1 - w) with 1 - w = (1 - tanh(d/2)) +
tanh(d/2)(1 - e^(i theta)), a sum without cancellation.  Z2 = sqrt|D| cosh d.  rho
is the trapezoid rule over the rows; exp(-U) = sqrt(sinh d0/sinh d) increases,
so the left and right sums bracket rho.  Row 0 is the start itself, and d0 and
theta come from it at 192 bits, so starts such as Im tau0 = 1e-308 still flow.

|tau - tau*| = 2y*|w|/|1 - w| <= tol/2 once d <= d_tol = ln(1 + tol/(2y*)), so the
row count N = ceil(sigma(d_tol)/step) is known before any row is computed.  Row N
alone is certified, exactly in rationals, so tol bounds the distance of the
reported endpoint to tau*: with n = q2 - 2pq x + p2|tau|^2 and a rational lower
bound on sqrt|D| in the denominator of
|tau - tau*|^2 = (n - 2y sqrt|D|)/p2 = (n^2 - 4y^2|D|)/(p2 (n + 2y sqrt|D|)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .arith import QuadraticSurd
from .attractor import AttractorPoint, ChargeData, _attractor_disc, attractor_point
from .errors import DegenerateCharge, NonConvergence, NotUpperHalfPlane, OutOfRange

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowCertificate",
    "FlowResult",
    "central_charge_sq",
    "flow_step",
    "flow_integrate",
    "trajectory_table",
    "export_trajectory",
]

_EPS = 2.0**-53
# below this d, Psi and ln sinh take their d -> 0 forms, exact to O(d^2)
_SMALL_D = 1e-8
_PSI_SMALL = math.pi / 4 + 1.5 * math.log(2)  # Psi(d) = _PSI_SMALL - ln d


@dataclass(frozen=True)
class FlowConfig:
    step: float = 1e-2
    tol: float = 1e-9
    max_steps: int = 10**6

    def __post_init__(self):
        if not (0 < self.step < math.inf):
            raise OutOfRange(f"step must be positive and finite, got {self.step}")
        if not (0 < self.tol < math.inf):
            raise OutOfRange(f"tol must be positive and finite, got {self.tol}")
        if self.max_steps < 1:
            raise OutOfRange(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class FlowState:
    rho: float
    U: float
    tau: complex
    Z2: float


@dataclass(frozen=True)
class FlowCertificate:
    """Endpoint comparison against the exact attractor data.

    tau_error bounds |tau_end - tau*| from above, exactly.  entropy_bound is
    p2 (t + delta)^2 / (2 (y - delta)) + 8 eps (1 + d_tol) Z2_end from
    |Z|^2 - sqrt|D| = p2 |tau - tau*|^2/(2y), with t = tau_error, y = Im tau_end,
    eps = 2^-53; delta = 16 eps (|tau_end| + |tau*| + t) covers the rounding of
    tau_end from its d, and the last term that of sqrt|D| cosh d and of d <= d_tol.
    """

    tau_exact: QuadraticSurd
    entropy_exact: float
    tau_error: float
    entropy_error: float
    entropy_bound: float
    tol: float
    monotone: bool
    max_z2_increase: float

    @property
    def endpoint_passed(self) -> bool:
        return self.tau_error <= self.tol

    @property
    def entropy_passed(self) -> bool:
        return self.entropy_error <= self.entropy_bound

    @property
    def passed(self) -> bool:
        return self.monotone and self.endpoint_passed and self.entropy_passed


@dataclass(frozen=True)
class FlowResult:
    charge: ChargeData
    config: FlowConfig
    trajectory: np.ndarray  # rows (rho, U, re tau, im tau, Z2)
    converged: bool
    steps: int
    certificate: FlowCertificate

    @property
    def final_state(self) -> FlowState:
        r = self.trajectory[-1]
        return FlowState(rho=float(r[0]), U=float(r[1]),
                         tau=complex(r[2], r[3]), Z2=float(r[4]))


def central_charge_sq(c: ChargeData, tau):
    """|Z|^2(tau) = (q2 - 2 pq Re tau + p2 |tau|^2) / (2 Im tau).

    Unique minimum over the half-plane at the attractor point, where the
    value is sqrt(|D|).  Returns an mpf at the calling precision.
    """
    if c.p2 <= 0:
        raise DegenerateCharge(f"p2 must be positive, got {c.p2}")
    if isinstance(tau, QuadraticSurd):
        if not tau.is_upper_half_plane():
            raise NotUpperHalfPlane("tau must have positive imaginary part")
        num = Fraction(c.q2) - 2 * c.pq * tau.x + c.p2 * tau.norm_squared()
        scale = num / (2 * tau.y)  # |Z|^2 = scale / sqrt(|disc|)
        return mp.mpf(scale.numerator) / (mp.mpf(scale.denominator)
                                          * mp.sqrt(-tau.disc))
    z = mp.mpc(tau)
    x, y = mp.re(z), mp.im(z)
    if y <= 0:
        raise NotUpperHalfPlane(f"Im tau = {y} <= 0")
    return (c.q2 - 2 * c.pq * x + c.p2 * (x * x + y * y)) / (2 * y)


class _Geodesic(NamedTuple):
    """The flow's geodesic from the start x0 + iy0 to tau* = xs + iys (floats)."""

    x0: float
    y0: float
    xs: float
    ys: float
    root: float   # sqrt|D|
    d0: float     # hyperbolic distance from the start to tau*
    theta: float  # argument of the start's Cayley point


def _geodesic(c: ChargeData, disc: int, tau0) -> _Geodesic:
    z = complex(tau0) if isinstance(tau0, QuadraticSurd) else complex(mp.mpc(tau0))
    if not (z.imag > 0):
        raise NotUpperHalfPlane(f"Im tau = {z.imag} <= 0")
    x0, y0 = z.real, z.imag
    # 192 bits keep x0 - x* and y0 - y* to double precision even for a float
    # start next to tau*, and mpf exponents absorb starts such as Im = 5e-324
    with mp.workprec(192):
        xs = mp.mpf(c.pq) / c.p2
        ys = mp.sqrt(-disc) / c.p2
        a, b = x0 - xs, y0 - ys
        d0 = 2 * mp.asinh(mp.hypot(a, b) / (2 * mp.sqrt(y0 * ys)))
        # the Cayley point has the argument of (tau0 - tau*)(conj(tau0) - tau*)
        theta = mp.atan2(-2 * ys * a, a * a + b * (y0 + ys))
        return _Geodesic(x0, y0, float(xs), float(ys), math.sqrt(-disc),
                         float(d0), float(theta))


def _psi(d, t):
    """(Psi(d), v) with v = 1/sqrt(cosh d), given t = ln d."""
    v = np.exp(-d / 2) * np.sqrt(2 / (1 + np.exp(-2 * d)))
    one_minus_v = np.tanh(d / 2) * np.tanh(d) / (1 + v)
    psi = np.arctan(v) + 0.5 * np.log1p(2 * v / one_minus_v)
    return np.where(d > _SMALL_D, psi, _PSI_SMALL - t), v


def _rows(g: _Geodesic, n: int, step: float) -> np.ndarray:
    """Rows (rho, U, re tau, im tau, Z2) at sigma = 0, step, .., n step; row 0 is the start."""
    k = math.sqrt(g.root)
    sigma = step * np.arange(n + 1.0)
    # a start exactly at tau* flows as d0 = 5e-324: rows at tau*, U = -k sigma
    d0 = max(g.d0, 5e-324)
    with np.errstate(all="ignore"):
        p = _psi(np.float64(d0), math.log(d0))[0] + 2 * k * sigma
        # start from the two ends of Psi: _PSI_SMALL - ln d and 2 sqrt2 exp(-d/2)
        t = np.fmax(_PSI_SMALL - p, np.log(2 * np.log(2 * math.sqrt(2) / p)))
        for _ in range(6):  # 5 reach rounding for every Psi in 1e-320..800
            d = np.exp(t)
            psi, v = _psi(d, t)
            t -= (psi - p) / np.where(d > _SMALL_D, -d * v / np.tanh(d), -1.0)
        t[0] = math.log(d0)
        d = np.exp(t)
        log_sinh = np.where(d > _SMALL_D, d + np.log(-np.expm1(-2 * d)) - math.log(2), t)
        u = 0.5 * (log_sinh - log_sinh[0])
        e = np.exp(-u)
        rho = np.concatenate(([0.0], np.cumsum(0.5 * step * (e[1:] + e[:-1]))))
        half = np.tanh(d / 2)
        s = math.sin(g.theta / 2)
        one_minus_w = 2 / (1 + np.exp(d)) + 2 * s * s * half - 1j * math.sin(g.theta) * half
        w = half * complex(math.cos(g.theta), math.sin(g.theta))
        tau = complex(g.xs, g.ys) + 2j * g.ys * w / one_minus_w
        rows = np.column_stack((rho, u, tau.real, tau.imag, g.root * np.cosh(d)))
    rows[0, 2:4] = g.x0, g.y0
    return rows


def flow_step(state: FlowState, c: ChargeData, config: FlowConfig = None) -> FlowState:
    """The exact flow from state over sigma = config.step; state.Z2 is not read."""
    step = (config or FlowConfig()).step
    row = _rows(_geodesic(c, _attractor_disc(c), state.tau), 1, step)[1]
    rho = state.rho + float(np.exp(-state.U) * row[0])
    return FlowState(rho=rho, U=state.U + float(row[1]),
                     tau=complex(row[2], row[3]), Z2=float(row[4]))


def _certified_error(c: ChargeData, disc: int, x: float, y: float) -> float:
    """A float at or above |x + iy - tau*|, from the exact rational formula."""
    x, y = Fraction(x), Fraction(y)
    n = c.q2 - 2 * c.pq * x + c.p2 * (x * x + y * y)
    root_lo = Fraction(math.isqrt(-disc << 128), 1 << 64)
    sq = (n * n + 4 * y * y * disc) / (c.p2 * (n + 2 * y * root_lo))
    if sq == 0:
        return 0.0
    num, den = sq.numerator, sq.denominator
    m = max(0, (130 + den.bit_length() - num.bit_length()) // 2)
    upper = Fraction(math.isqrt((num << 2 * m) // den) + 1, 1 << m)  # > sqrt(sq)
    e = float(upper)
    return e if Fraction(e) >= upper else math.nextafter(e, math.inf)


def _certificate(point: AttractorPoint, c: ChargeData, traj: np.ndarray,
                 tol: float, d_tol: float) -> FlowCertificate:
    _, _, x, y, z2 = (float(v) for v in traj[-1])
    t = _certified_error(c, point.D, x, y)
    delta = 16 * _EPS * (abs(complex(x, y)) + abs(complex(point.tau)) + t)
    bound = math.inf
    if y > delta:
        bound = (c.p2 * (t + delta) * (t + delta) / (2 * (y - delta))
                 + 8 * _EPS * (1 + d_tol) * z2)
    increases = np.diff(traj[:, 4])
    entropy = math.sqrt(-point.D)
    return FlowCertificate(
        tau_exact=point.tau,
        entropy_exact=entropy,
        tau_error=t,
        entropy_error=abs(z2 - entropy),
        entropy_bound=bound,
        tol=tol,
        monotone=bool(np.all(increases <= 0)),
        max_z2_increase=float(np.max(increases, initial=0.0)),
    )


def flow_integrate(c: ChargeData, tau0, config: FlowConfig = None) -> FlowResult:
    """Rows at sigma = n config.step up to the first one within tol/2 of tau*, certified.

    Raises NonConvergence when more than max_steps rows are needed, before
    any row is built: its trajectory, the first max_steps + 1 rows, is built
    when first read.  Raises it with all rows when the certified distance
    misses tol.
    """
    config = config or FlowConfig()
    point = attractor_point(c)  # validates the charge
    g = _geodesic(c, point.D, tau0)
    d_tol = math.log1p(config.tol / (2 * g.ys))
    with np.errstate(all="ignore"):
        (psi_tol, psi0), _ = _psi(np.array([d_tol, g.d0]), np.log([d_tol, g.d0]))
        need = max(0.0, (psi_tol - psi0) / (2 * math.sqrt(g.root) * config.step))
    if need > config.max_steps:
        raise NonConvergence(f"no convergence to tol={config.tol} within "
                             f"{config.max_steps} steps (needs {need:.4g})",
                             trajectory=partial(_rows, g, config.max_steps, config.step))
    traj = _rows(g, math.ceil(need), config.step)
    cert = _certificate(point, c, traj, config.tol, d_tol)
    if not cert.endpoint_passed:
        raise NonConvergence(f"endpoint certified only to {cert.tau_error:.3g}, "
                             f"above tol={config.tol}", trajectory=traj)
    return FlowResult(charge=c, config=config, trajectory=traj, converged=True,
                      steps=len(traj) - 1, certificate=cert)


def trajectory_table(result) -> tuple[list, list]:
    """The trajectory as a CSV header (rho,U,re_tau,im_tau,Z2) and rows of
    strings at 17 significant digits."""
    traj = result.trajectory if isinstance(result, FlowResult) else result
    return (["rho", "U", "re_tau", "im_tau", "Z2"],
            [[f"{float(v):.17g}" for v in row] for row in traj])


def export_trajectory(result, path) -> tuple[list, list]:
    """Write trajectory_table(result) as CSV with LF line ends, the bytes
    `attrarith flow --csv` prints, and return that table."""
    header, rows = table = trajectory_table(result)
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(row) + "\n" for row in [header, *rows])
    return table
