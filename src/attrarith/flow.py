"""Radial flow of (U, tau) to the attractor point, with convergence certificates.

The moduli equation is gradient flow of |Z| in the hyperbolic metric on the
upper half-plane; the warp factor U is slaved to it.  Integration happens in
the rescaled radial variable that removes the exp(U) prefactor (the original
rho is carried along as a quadrature), using explicit RK4 in float64 with
step halving whenever a step would leave the half-plane or raise |Z|^2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import _kernels
from .arith import QuadraticSurd
from .attractor import AttractorPoint, ChargeData, attractor_point, discriminant
from .errors import (
    DegenerateCharge,
    NonConvergence,
    NotUpperHalfPlane,
    OutOfRange,
    StepUnderflow,
)

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowCertificate",
    "FlowResult",
    "central_charge_sq",
    "flow_step",
    "flow_integrate",
    "export_trajectory",
]

# relative growth of |Z|^2 along an accepted step chargeable to rounding
_MONOTONE_SLACK = 1e-13


@dataclass(frozen=True)
class FlowConfig:
    step: float = 1e-2
    tol: float = 1e-9
    max_steps: int = 10**6

    def __post_init__(self):
        if not (self.step > 0):
            raise OutOfRange(f"step must be positive, got {self.step}")
        if not (self.tol > 0):
            raise OutOfRange(f"tol must be positive, got {self.tol}")
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
    """Endpoint comparison against the exact attractor data."""

    tau_exact: QuadraticSurd
    entropy_exact: float
    tau_error: float
    entropy_error: float
    monotone: bool
    max_z2_increase: float

    @property
    def passed(self) -> bool:
        return self.monotone and math.isfinite(self.tau_error)


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


def _start_coords(tau0):
    if isinstance(tau0, QuadraticSurd):
        zc = complex(tau0)
    else:
        zc = complex(mp.mpc(tau0))
    if not (zc.imag > 0):
        raise NotUpperHalfPlane(f"Im tau0 = {zc.imag} <= 0")
    return zc.real, zc.imag


def flow_step(state: FlowState, c: ChargeData, config: FlowConfig = None) -> FlowState:
    """One accepted RK4 step from state, halving on half-plane or |Z| violation."""
    if config is None:
        config = FlowConfig()
    if c.p2 <= 0:
        raise DegenerateCharge(f"p2 must be positive, got {c.p2}")
    x, y = state.tau.real, state.tau.imag
    if not (y > 0):
        raise NotUpperHalfPlane(f"Im tau = {y} <= 0")
    p2, q2, pq = float(c.p2), float(c.q2), float(c.pq)
    z2 = _kernels.charge_sq(p2, q2, pq, x, y)
    nxt = _kernels.step(p2, q2, pq, state.rho, state.U, x, y, z2, config.step)
    if nxt is None:
        raise StepUnderflow(
            f"step shrank below {config.step * 0.5**_kernels.MAX_HALVINGS} without acceptance")
    nrho, nu, nx, ny, nz2, _ = nxt
    return FlowState(rho=nrho, U=nu, tau=complex(nx, ny), Z2=nz2)


def _certificate(point: AttractorPoint, d: int, traj: np.ndarray) -> FlowCertificate:
    tau_star = complex(point.tau)
    entropy = math.sqrt(-d)
    end = traj[-1]
    z2col = traj[:, 4]
    increases = np.diff(z2col) - _MONOTONE_SLACK * np.abs(z2col[:-1])
    worst = float(np.max(np.diff(z2col), initial=0.0))
    return FlowCertificate(
        tau_exact=point.tau,
        entropy_exact=entropy,
        tau_error=abs(complex(end[2], end[3]) - tau_star),
        entropy_error=abs(float(end[4]) - entropy),
        monotone=bool(np.all(increases <= 0)),
        max_z2_increase=max(worst, 0.0),
    )


def flow_integrate(c: ChargeData, tau0, config: FlowConfig = None) -> FlowResult:
    """Flow tau0 to the attractor point of c; certify endpoint and monotonicity.

    Raises NonConvergence (with the partial trajectory attached) when the
    per-step displacement never drops below config.tol within max_steps.
    """
    if config is None:
        config = FlowConfig()
    point = attractor_point(c)  # validates the charge
    d = discriminant(c)
    x0, y0 = _start_coords(tau0)
    status, n, traj = _kernels.trajectory(
        float(c.p2), float(c.q2), float(c.pq), x0, y0,
        config.step, config.tol, int(config.max_steps))
    traj = np.array(traj[:n + 1])
    if status == _kernels.STATUS_UNDERFLOW:
        raise StepUnderflow(
            f"step halving budget exhausted after {n} accepted steps")
    if status == _kernels.STATUS_MAX_STEPS:
        err = NonConvergence(
            f"no convergence to tol={config.tol} within {config.max_steps} steps")
        err.trajectory = traj
        raise err
    return FlowResult(
        charge=c,
        config=config,
        trajectory=traj,
        converged=True,
        steps=n,
        certificate=_certificate(point, d, traj),
    )


def export_trajectory(result, path) -> None:
    """Write the trajectory as CSV (rho,U,re_tau,im_tau,Z2) at 17 significant digits."""
    traj = result.trajectory if isinstance(result, FlowResult) else result
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "U", "re_tau", "im_tau", "Z2"])
        for row in traj:
            writer.writerow([f"{float(v):.17g}" for v in row])
