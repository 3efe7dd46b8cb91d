"""Tests for the attractor flow: central charge, stepping, convergence certificates."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

import attrarith.flow as flow_mod
from attrarith.arith import QuadraticSurd
from attrarith.attractor import ChargeData, attractor_point
from attrarith.errors import (
    DegenerateCharge,
    NonConvergence,
    NotUpperHalfPlane,
    OutOfRange,
)
from attrarith.flow import (
    FlowCertificate,
    FlowConfig,
    FlowState,
    central_charge_sq,
    export_trajectory,
    flow_integrate,
    flow_step,
)

import oracles

# the benchmark's flow charge set: (2,3,1), (1,1,0), (3,5,2), then a fixed sweep
FLOW_CHARGES = [
    (2, 3, 1), (1, 1, 0), (3, 5, 2), (1, 26, -5), (2, 2, 0), (3, 11, 5),
    (4, 4, -1), (5, 8, 4), (6, 1, -2), (7, 3, 3), (1, 12, -3), (2, 6, 2),
    (3, 10, -4), (4, 1, 1), (5, 7, -5), (6, 3, 0), (7, 7, 5), (1, 6, -1),
    (2, 9, 4), (3, 3, -2),
]


def random_charge(rng):
    p2 = rng.randint(1, 8)
    pq = rng.randint(-6, 6)
    q2 = pq * pq // p2 + rng.randint(1, 6)
    return ChargeData(p2, q2, pq)


class TestCentralCharge:
    def test_unit_charge_values(self):
        c = ChargeData(1, 1, 0)
        assert central_charge_sq(c, QuadraticSurd(0, 1, 1, -1)) == 1
        assert central_charge_sq(c, QuadraticSurd(0, 2, 1, -1)) == mp.mpf(5) / 4
        assert central_charge_sq(c, mp.mpc(0, 2)) == mp.mpf(5) / 4

    def test_closed_form_minimum(self):
        c = ChargeData(2, 3, 1)
        tau_star = QuadraticSurd(1, 1, 2, -5)
        with mp.workprec(220):
            assert abs(central_charge_sq(c, tau_star) - mp.sqrt(5)) < mp.mpf(2) ** -200

    def test_minimum_is_global(self):
        rng = random.Random(71)
        with mp.workprec(120):
            for _ in range(25):
                c = random_charge(rng)
                star = attractor_point(c).tau
                best = central_charge_sq(c, star)
                for _ in range(40):
                    z = mp.mpc(rng.uniform(-4, 4), rng.uniform(0.05, 4))
                    assert central_charge_sq(c, z) >= best - mp.mpf(2) ** -100

    def test_degenerate_and_domain_errors(self):
        with pytest.raises(DegenerateCharge):
            central_charge_sq(ChargeData(0, 1, 0), mp.mpc(0, 1))
        with pytest.raises(NotUpperHalfPlane):
            central_charge_sq(ChargeData(1, 1, 0), mp.mpc(1, -2))
        with pytest.raises(NotUpperHalfPlane):
            central_charge_sq(ChargeData(1, 1, 0), QuadraticSurd(3, 0, 1, -4))


class TestFlowStep:
    def test_fixed_point_is_stationary(self):
        c = ChargeData(2, 3, 1)
        star = complex(attractor_point(c).tau)
        s0 = FlowState(rho=0.0, U=0.0, tau=star,
                       Z2=float(central_charge_sq(c, mp.mpc(star))))
        s1 = flow_step(s0, c)
        assert abs(s1.tau - star) < 1e-9
        assert s1.U < s0.U

    def test_z_decreases_off_fixed_point(self):
        c = ChargeData(1, 1, 0)
        z2 = float(central_charge_sq(c, mp.mpc('0.3', '1.7')))
        s0 = FlowState(rho=0.0, U=0.0, tau=complex(0.3, 1.7), Z2=z2)
        s1 = flow_step(s0, c)
        assert s1.Z2 <= s0.Z2
        assert s1.rho > 0

    def test_degenerate_charge(self):
        s0 = FlowState(rho=0.0, U=0.0, tau=1j, Z2=1.0)
        with pytest.raises(DegenerateCharge):
            flow_step(s0, ChargeData(0, 1, 0))

    def test_config_validation(self):
        with pytest.raises(OutOfRange):
            FlowConfig(step=0.0)
        with pytest.raises(OutOfRange):
            FlowConfig(tol=-1e-9)
        with pytest.raises(OutOfRange):
            FlowConfig(max_steps=0)
        for bad in (math.inf, math.nan):
            with pytest.raises(OutOfRange):
                FlowConfig(step=bad)
            with pytest.raises(OutOfRange):
                FlowConfig(tol=bad)

    def test_steps_follow_the_integrated_rows(self):
        # flow_step and flow_integrate share one row map
        c = ChargeData(3, 5, 2)
        cfg = FlowConfig(step=0.03)
        rows = flow_integrate(c, complex(-0.4, 2.2), cfg).trajectory
        state = FlowState(rho=0.0, U=0.0, tau=complex(-0.4, 2.2), Z2=0.0)
        for row in rows[1:6]:
            state = flow_step(state, c, cfg)
            assert abs(state.tau - complex(row[2], row[3])) < 1e-12
            assert state.U == pytest.approx(row[1], rel=1e-12)
            assert state.rho == pytest.approx(row[0], rel=1e-12)
            assert state.Z2 == pytest.approx(row[4], rel=1e-12)

    def test_whole_step_where_rk4_halves(self):
        # the oracle's RK4 halves a unit step from 100i four times; the
        # closed form takes it whole and lands at Im tau = exp(d)
        c = ChargeData(1, 1, 0)
        s1 = flow_step(FlowState(rho=0.0, U=0.0, tau=100j, Z2=50.005), c,
                       FlowConfig(step=1.0))
        assert s1.tau.real == 0 and 1.86 < s1.tau.imag < 1.87
        assert s1.Z2 == pytest.approx((1 + s1.tau.imag**2) / (2 * s1.tau.imag))


class TestFlowIntegrate:
    def test_unit_charge_converges_to_i(self):
        res = flow_integrate(ChargeData(1, 1, 0), mp.mpc('0.3', '1.7'),
                             FlowConfig(tol=1e-11))
        assert res.converged
        assert abs(res.final_state.tau - 1j) < 1e-8
        assert abs(res.final_state.Z2 - 1.0) < 1e-8
        assert res.certificate.tau_error < 1e-8
        assert res.certificate.entropy_error < 1e-8
        assert res.certificate.monotone

    def test_charge_231_converges(self):
        res = flow_integrate(ChargeData(2, 3, 1), mp.mpc(0, '1.2'),
                             FlowConfig(tol=1e-11))
        star = complex(0.5, math.sqrt(5) / 2)
        assert abs(res.final_state.tau - star) < 1e-8
        assert abs(res.final_state.Z2 - math.sqrt(5)) < 1e-8

    def test_start_at_fixed_point(self):
        c = ChargeData(2, 3, 1)
        res = flow_integrate(c, attractor_point(c).tau)
        assert res.converged and res.steps <= 1

    def test_monotone_random(self):
        rng = random.Random(72)
        for _ in range(50):
            c = random_charge(rng)
            tau0 = mp.mpc(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            res = flow_integrate(c, tau0, FlowConfig(tol=1e-10, max_steps=400000))
            assert res.converged
            assert res.certificate.monotone
            assert res.certificate.tau_error < 1e-6
            assert res.certificate.entropy_error < 1e-6

    def test_multistart_endpoint_independence(self):
        rng = random.Random(73)
        c = ChargeData(3, 5, 2)
        ends = []
        for _ in range(6):
            tau0 = mp.mpc(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            ends.append(flow_integrate(c, tau0, FlowConfig(tol=1e-11)).final_state.tau)
        for e in ends[1:]:
            assert abs(e - ends[0]) < 1e-8

    def test_charge_rescaling_invariance(self):
        # (p,q) -> (2p, 2q) quadruples the invariants; tau trajectory target is unchanged
        cfg = FlowConfig(tol=1e-11)
        tau0 = mp.mpc('0.7', '0.9')
        base = flow_integrate(ChargeData(2, 3, 1), tau0, cfg)
        scaled = flow_integrate(ChargeData(8, 12, 4), tau0, cfg)
        assert abs(base.final_state.tau - scaled.final_state.tau) < 1e-8
        assert abs(scaled.final_state.Z2 - 4 * base.final_state.Z2) < 1e-6

    def test_nonconvergence_carries_trajectory(self):
        with pytest.raises(NonConvergence) as exc:
            flow_integrate(ChargeData(1, 1, 0), mp.mpc('0.3', '1.7'),
                           FlowConfig(max_steps=5))
        assert exc.value.trajectory.shape == (6, 5)

    def test_nonconvergence_builds_rows_only_when_read(self, monkeypatch):
        built = []
        rows = flow_mod._rows

        def spy(g, n, step):
            built.append(n + 1)
            return rows(g, n, step)

        monkeypatch.setattr(flow_mod, "_rows", spy)
        with pytest.raises(NonConvergence) as exc:
            flow_integrate(ChargeData(1, 1, 0), mp.mpc('0.3', '1.7'),
                           FlowConfig(max_steps=5))
        assert built == []
        assert exc.value.trajectory.shape == (6, 5)
        assert exc.value.trajectory is exc.value.trajectory
        assert built == [6]

    def test_tiny_imaginary_start_converges(self):
        # cosh d0 is about 5e307 here; the RK4 oracle underflows from this start
        res = flow_integrate(ChargeData(1, 1, 0), mp.mpc(0, 1e-308))
        assert res.trajectory[0, 3] == 1e-308
        assert res.certificate.tau_error <= 1e-9
        assert res.certificate.passed

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_certified_endpoint_on_benchmark_charges(self, tol):
        for p2, q2, pq in FLOW_CHARGES:
            res = flow_integrate(ChargeData(p2, q2, pq), complex(0.35, 1.45),
                                 FlowConfig(step=0.01, tol=tol))
            cert = res.certificate
            assert cert.tau_error <= tol and cert.passed
            with mp.workprec(200):
                star = mp.mpc(mp.mpf(pq) / p2, mp.sqrt(p2 * q2 - pq * pq) / p2)
                assert abs(mp.mpc(res.final_state.tau) - star) <= cert.tau_error

    def test_entropy_bound_is_the_identity(self):
        # at a loose tol the endpoint's |Z|^2 - sqrt|D| = p2 |tau - tau*|^2/(2y)
        # is far above rounding, and the bound sits right on it
        res = flow_integrate(ChargeData(2, 3, 1), complex(0.35, 1.45), FlowConfig(tol=0.3))
        cert = res.certificate
        assert cert.entropy_passed
        assert 1e-4 < cert.entropy_error <= cert.entropy_bound < cert.entropy_error * (1 + 1e-12)

    def test_passed_requires_tol(self):
        star = attractor_point(ChargeData(1, 1, 0)).tau
        cert = FlowCertificate(tau_exact=star, entropy_exact=1.0, tau_error=2e-9,
                               entropy_error=0.0, entropy_bound=1e-15, tol=1e-9,
                               monotone=True, max_z2_increase=0.0)
        assert not cert.endpoint_passed and not cert.passed

    def test_invalid_inputs(self):
        with pytest.raises(NotUpperHalfPlane):
            flow_integrate(ChargeData(1, 1, 0), mp.mpc(0, -1))
        with pytest.raises(DegenerateCharge):
            flow_integrate(ChargeData(0, 1, 0), mp.mpc(0, 1))

    def test_csv_export(self, tmp_path):
        res = flow_integrate(ChargeData(1, 1, 0), mp.mpc('0.1', '1.4'),
                             FlowConfig(tol=1e-6))
        out = tmp_path / "traj.csv"
        export_trajectory(res, out)
        assert b"\r" not in out.read_bytes()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rho,U,re_tau,im_tau,Z2"
        assert len(lines) == res.steps + 2
        first = [float(v) for v in lines[1].split(",")]
        assert first[:2] == [0.0, 0.0]
        assert first[2:4] == [0.1, 1.4]
        # 17 significant digits survive a round trip
        last = [float(v) for v in lines[-1].split(",")]
        assert last[2] == res.final_state.tau.real
        assert last[4] == res.final_state.Z2


def _rk4_rows(c, tau0, h, n):
    status, steps, traj = oracles.rk4_trajectory(
        float(c.p2), float(c.q2), float(c.pq), tau0.real, tau0.imag, h, 0.0, n)
    assert status == oracles.RK4_MAX_STEPS and steps == n  # no halved step
    return traj


class TestRK4Oracle:
    def test_rows_match_rk4(self):
        gaps = {}
        for h in (0.01, 0.005):
            gap_tau = gap_u = 0.0
            for charge in FLOW_CHARGES[:8]:
                c = ChargeData(*charge)
                for tau0 in (complex(0.35, 1.45), complex(-1.7, 0.3)):
                    rows = flow_integrate(c, tau0, FlowConfig(step=h)).trajectory
                    ref = _rk4_rows(c, tau0, h, len(rows) - 1)
                    gap_tau = max(gap_tau, np.max(np.hypot(rows[:, 2] - ref[:, 2],
                                                           rows[:, 3] - ref[:, 3])))
                    gap_u = max(gap_u, np.max(np.abs(rows[:, 1] - ref[:, 1])))
                    # exp(-U) increases, so its left and right sums bracket rho;
                    # the trapezoid error is O(h^2), far inside that O(h) bracket
                    e = np.exp(-rows[:, 1])
                    left = np.concatenate(([0.0], np.cumsum(h * e[:-1])))
                    right = np.concatenate(([0.0], np.cumsum(h * e[1:])))
                    assert np.all((left <= ref[:, 0]) & (ref[:, 0] <= right))
                    assert np.all(np.abs(rows[:, 0] - ref[:, 0]) <= (right - left) / 20)
            assert gap_tau <= 100 * h**4 and gap_u <= 100 * h**4
            gaps[h] = (gap_tau, gap_u)
        for coarse, fine in zip(gaps[0.01], gaps[0.005]):
            assert 12 < coarse / fine < 20

    def test_step_halves_toward_the_real_axis(self):
        # from 100i a unit RK4 step lands below the real axis until halved to 1/16
        z2 = oracles.rk4_charge_sq(1.0, 1.0, 0.0, 0.0, 100.0)
        nxt = oracles.rk4_step(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 100.0, z2, 1.0)
        assert nxt[5] == 0.0625 and nxt[3] > 0 and nxt[4] <= z2

    def test_step_underflow_on_broken_start(self):
        status, steps, _ = oracles.rk4_trajectory(1.0, 1.0, 0.0, 0.0, 1e-308, 0.01, 1e-9, 100)
        assert status == oracles.RK4_UNDERFLOW and steps == 0
