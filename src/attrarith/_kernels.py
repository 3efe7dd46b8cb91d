"""float64 integration kernels for the attractor flow.

The gradient flow runs in the rescaled radial variable in which the warp
factor decouples: drho = exp(-U) dsigma, dU = -|Z| dsigma, and tau moves by
minus the hyperbolic gradient of |Z|.  Everything here is scalar float
arithmetic in plain Python; `step` is the one accepted-step rule, shared by
`trajectory` and `flow.flow_step`.
"""

import math

import numpy as np

# accepted steps may raise |Z|^2 by a few ulps of rounding, never more
Z2_SLACK = 1e-14
MAX_HALVINGS = 60

STATUS_CONVERGED = 0
STATUS_MAX_STEPS = 1
STATUS_UNDERFLOW = 2


def charge_sq(p2, q2, pq, x, y):
    """|Z|^2 = (q2 - 2 pq x + p2 (x^2 + y^2)) / (2y); caller ensures y > 0."""
    return (q2 - 2.0 * pq * x + p2 * (x * x + y * y)) / (2.0 * y)


def deriv(p2, q2, pq, u, x, y):
    """(drho, dU, dx, dy) per unit sigma at warp u and tau = x + iy."""
    f = charge_sq(p2, q2, pq, x, y)
    z = math.sqrt(f)
    dx = -2.0 * y * (p2 * x - pq) / z
    dy = -2.0 * y * (y * p2 - f) / z
    # plain exp raises OverflowError; an inf step gets rejected instead
    dr = math.exp(-u) if -u < 709.0 else math.inf
    return dr, -z, dx, dy


def rk4_try(p2, q2, pq, rho, u, x, y, h):
    """One tentative RK4 step; ok=False when a stage leaves the half-plane."""
    a1, b1, c1, d1 = deriv(p2, q2, pq, u, x, y)
    y2 = y + 0.5 * h * d1
    if not (y2 > 0.0):
        return False, rho, u, x, y
    a2, b2, c2, d2 = deriv(p2, q2, pq, u + 0.5 * h * b1, x + 0.5 * h * c1, y2)
    y3 = y + 0.5 * h * d2
    if not (y3 > 0.0):
        return False, rho, u, x, y
    a3, b3, c3, d3 = deriv(p2, q2, pq, u + 0.5 * h * b2, x + 0.5 * h * c2, y3)
    y4 = y + h * d3
    if not (y4 > 0.0):
        return False, rho, u, x, y
    a4, b4, c4, d4 = deriv(p2, q2, pq, u + h * b3, x + h * c3, y4)
    s = h / 6.0
    nrho = rho + s * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    nu = u + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    nx = x + s * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    ny = y + s * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    ok = (ny > 0.0 and math.isfinite(nrho) and math.isfinite(nu)
          and math.isfinite(nx) and math.isfinite(ny))
    return ok, nrho, nu, nx, ny


def step(p2, q2, pq, rho, u, x, y, z2, h0):
    """One accepted RK4 step from (rho, u, x + iy), where |Z|^2 = z2.

    A step is accepted when Im tau stays positive and |Z|^2 does not grow
    beyond rounding slack; otherwise it is halved, up to MAX_HALVINGS times.
    Returns (rho, u, x, y, z2, h) of the accepted step, or None when the
    halving budget runs out.
    """
    h = h0
    for _ in range(MAX_HALVINGS + 1):
        ok, nrho, nu, nx, ny = rk4_try(p2, q2, pq, rho, u, x, y, h)
        if ok:
            nz2 = charge_sq(p2, q2, pq, nx, ny)
            if math.isfinite(nz2) and nz2 <= z2 * (1.0 + Z2_SLACK):
                return nrho, nu, nx, ny, nz2, h
        h *= 0.5
    return None


def trajectory(p2, q2, pq, x0, y0, h0, tol, max_steps):
    """Integrate until |dtau| per full step drops below tol.

    Returns (status, n_accepted, traj) with traj rows (rho, U, x, y, Z2);
    row 0 is the start, rows 1..n the accepted steps.
    """
    traj = np.empty((max_steps + 1, 5))
    traj[0] = row = (0.0, 0.0, x0, y0, charge_sq(p2, q2, pq, x0, y0))
    n = 0
    while n < max_steps:
        nxt = step(p2, q2, pq, *row, h0)
        if nxt is None:
            return STATUS_UNDERFLOW, n, traj
        dtau = math.sqrt((nxt[2] - row[2]) ** 2 + (nxt[3] - row[3]) ** 2)
        row = nxt[:5]
        n += 1
        traj[n] = row
        # scale the displacement test so halved steps do not fake convergence
        if dtau * (h0 / nxt[5]) < tol:
            return STATUS_CONVERGED, n, traj
    return STATUS_MAX_STEPS, n, traj
