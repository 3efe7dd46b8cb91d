"""Tests for the command-line envelope, exit codes, and the HCP cache."""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import random
import stat
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.libmp import to_rational

import attrarith.cli as cli
import attrarith.flow as flow_mod
from attrarith.arith import QuadraticSurd
from attrarith.cli import run
from attrarith.modular import _frame, _j_precision, j_value, j_value_with_bound
from oracles import j_dense, reduce_root_exact

ENVELOPE_KEYS = {"command", "inputs", "result", "certificates", "precision_bits"}


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    env = json.loads(out)
    assert set(env) == ENVELOPE_KEYS
    return env


def exact_tau(text: str) -> QuadraticSurd:
    """The point `jval --tau=text` evaluates j at: its two decimals exactly."""
    re, im = cli._parse_pair(text, "--tau")
    return Fraction(re) + Fraction(im) * QuadraticSurd(0, 1)


class TestAttract:
    def test_unit_charge_example(self, capsys):
        env = invoke_json(capsys, "attract", "--p2", "1", "--q2", "1", "--pq", "0")
        assert env["result"]["tau"] == "(0 + 1·√−1)/1"
        assert env["result"]["class_number"] == "1"
        assert env["result"]["form"] == {"a": "1", "b": "0", "c": "1"}
        assert env["certificates"][0]["passed"] is True
        assert env["precision_bits"] == 256

    def test_reduced_form_certificates(self, capsys):
        # tau lies on the Re = 1/2 boundary; the reduced form is a translate
        env = invoke_json(capsys, "attract", "--p2", "2", "--q2", "3", "--pq", "1")
        assert env["result"]["tau"] == "(1 + 1·√−5)/2"
        assert env["result"]["form"] == {"a": "2", "b": "2", "c": "3"}
        assert env["result"]["class_number"] == "2"
        assert all(c["passed"] for c in env["certificates"])

    @pytest.mark.parametrize("cmd, calls", [("attract", 1), ("certify", 2)])
    def test_d_factored_once_per_point(self, capsys, monkeypatch, cmd, calls):
        # attract's entropy and certify's field discriminant form no surd of
        # their own; certify_attractor_cm builds its own point
        import attrarith.arith as arith

        seen, factor = [], arith.squarefree_decompose
        monkeypatch.setattr(arith, "squarefree_decompose", lambda n: seen.append(n) or factor(n))
        invoke_json(capsys, cmd, "--p2", "2", "--q2", "3", "--pq", "1")
        assert seen == [-5] * calls

    def test_vector_charge(self, capsys, tmp_path):
        gram = tmp_path / "gram.json"
        gram.write_text("[[2, 0], [0, 4]]")
        env = invoke_json(capsys, "attract", "--gram", str(gram),
                          "--p", "1,0", "--q", "0,1")
        assert env["result"]["disc"] == "-8"

    @pytest.mark.parametrize("text", ["[[2, 1.5], [1.5, 2]]", "[[2, true], [true, 2]]", "null",
                                      "5", "[[2, 1], 3]", "[[2, null], [null, 2]]"])
    def test_gram_of_non_integers_exit_2(self, capsys, tmp_path, text):
        # neither truncated to [[2, 1], [1, 2]] nor ended in a traceback
        gram = tmp_path / "gram.json"
        gram.write_text(text)
        code, out, err = invoke(capsys, "attract", "--gram", str(gram),
                                "--p", "1,0", "--q", "0,1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("attrarith attract: Gram matrix")

    def test_missing_and_conflicting_flags(self, capsys):
        code, _, err = invoke(capsys, "attract", "--p2", "1")
        assert code == 2 and "required" in err
        code, _, err = invoke(capsys, "attract", "--p2", "1", "--q2", "1",
                              "--pq", "0", "--p", "1,0")
        assert code == 2

    def test_both_charge_forms_exit_2(self, capsys, tmp_path):
        # the vector form alone is a valid charge; with the scalars too it is refused
        gram = tmp_path / "gram.json"
        gram.write_text("[[2, 0], [0, 4]]")
        code, out, err = invoke(capsys, "attract", "--gram", str(gram), "--p", "1,0",
                                "--q", "0,1", "--p2", "1", "--q2", "1", "--pq", "0")
        assert code == 2 and out == ""
        assert err == ("attrarith attract: give either --p2/--q2/--pq or --gram/--p/--q, "
                       "not both\n")

    def test_degenerate_charge_exit_2(self, capsys):
        code, _, err = invoke(capsys, "attract", "--p2", "0", "--q2", "1", "--pq", "0")
        assert code == 2 and "p2" in err

    def test_non_attractor_exit_2(self, capsys):
        code, _, err = invoke(capsys, "attract", "--p2", "1", "--q2", "1", "--pq", "2")
        assert code == 2

    def test_csv_rejected(self, capsys):
        code, _, err = invoke(capsys, "attract", "--p2", "1", "--q2", "1",
                              "--pq", "0", "--csv")
        assert code == 2 and "tabular" in err


class TestHcp:
    def test_minus_163_example(self, capsys):
        env = invoke_json(capsys, "hcp", "--disc", "-163")
        assert env["result"]["coeffs"] == ["262537412640768000", "1"]
        assert all(c["passed"] for c in env["certificates"])

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "hcp", "--disc", "-4", "--csv")
        assert code == 0
        assert out.splitlines() == ["power,coeff", "0,-1728", "1,1"]

    def test_cache_warm_equals_cold_bytes(self, capsys, tmp_path):
        cache = str(tmp_path / "hcp.json")
        code, cold, _ = invoke(capsys, "hcp", "--disc", "-23", "--cache", cache)
        assert code == 0
        code, warm, _ = invoke(capsys, "hcp", "--disc", "-23", "--cache", cache)
        assert code == 0
        assert warm == cold

    def test_corrupt_cache_ignored_with_warning(self, capsys, tmp_path):
        cache = tmp_path / "hcp.json"
        code, cold, _ = invoke(capsys, "hcp", "--disc", "-23", "--cache", str(cache))
        assert code == 0
        cache.write_text("{not json")
        code, rec, err = invoke(capsys, "hcp", "--disc", "-23", "--cache", str(cache))
        assert code == 0
        assert rec == cold
        assert "ignoring unreadable hcp cache" in err
        # and the cache healed itself
        assert json.loads(cache.read_text())[0]["disc"] == "-23"

    def test_invalid_disc_exit_2(self, capsys):
        code, _, err = invoke(capsys, "hcp", "--disc", "-5")
        assert code == 2

    def test_prec_does_not_force_class_polynomial_precision(self, capsys):
        # the coefficients are exact: --prec 256 is below what D = -479 needs,
        # and the proven bound, not --prec, picks the working precision
        forced = invoke_json(capsys, "hcp", "--disc", "-479", "--prec", "256")
        default = invoke_json(capsys, "hcp", "--disc", "-479")
        assert forced["result"]["coeffs"] == default["result"]["coeffs"]
        assert forced["result"]["degree"] == forced["result"]["class_number"] == "25"
        assert all(c["passed"] for c in forced["certificates"])

    def test_valid_cache_hit_is_served(self, capsys, tmp_path, monkeypatch):
        cache = str(tmp_path / "hcp.json")
        code, cold, _ = invoke(capsys, "hcp", "--disc", "-23", "--cache", cache)
        assert code == 0

        def fail(*args, **kwargs):
            raise AssertionError("a valid cache hit was recomputed")

        monkeypatch.setattr("attrarith.modular.hilbert_class_polynomial", fail)
        code, warm, err = invoke(capsys, "hcp", "--disc", "-23", "--cache", cache)
        assert code == 0 and warm == cold and err == ""

    @pytest.mark.parametrize("coeffs", [["5", "1"], ["12771880859376", "-5151296875",
                                                     "3491750", "1"]])
    def test_wrong_cache_record_recomputed(self, capsys, tmp_path, coeffs):
        cache = tmp_path / "hcp.json"
        code, cold, _ = invoke(capsys, "hcp", "--disc", "-23")
        assert code == 0
        cache.write_text(json.dumps([{"disc": "-23", "coeffs": coeffs}]))
        code, out, err = invoke(capsys, "hcp", "--disc", "-23", "--cache", str(cache))
        assert code == 0
        env = json.loads(out)
        assert env["result"]["degree"] == env["result"]["class_number"] == "3"
        assert all(c["passed"] for c in env["certificates"])
        assert json.loads(out)["result"] == json.loads(cold)["result"]
        assert len(err.splitlines()) == 1 and "fails its check" in err
        assert json.loads(cache.read_text())[0]["coeffs"] == env["result"]["coeffs"]

    def test_wrong_degree_record_fails_degree_certificate(self, capsys, tmp_path,
                                                         monkeypatch):
        # the class number comes from the form count, not from the record
        cache = tmp_path / "hcp.json"
        cache.write_text(json.dumps([{"disc": "-23", "coeffs": ["5", "1"]}]))
        monkeypatch.setattr("attrarith.modular.hcp_record_valid", lambda disc, coeffs: True)
        env = invoke_json(capsys, "hcp", "--disc", "-23", "--cache", str(cache))
        assert env["result"]["degree"] == "1" and env["result"]["class_number"] == "3"
        assert env["certificates"][0] == {"name": "degree_equals_class_number",
                                          "passed": False}

    def test_missing_cache_directory_fails_before_computing(self, capsys, tmp_path,
                                                            monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("computed before checking the cache path")

        monkeypatch.setattr("attrarith.modular.hilbert_class_polynomial", fail)
        path = tmp_path / "missing" / "x.json"
        code, out, err = invoke(capsys, "hcp", "--disc", "-23", "--cache", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "does not exist" in err

    def test_cache_at_directory_fails_before_computing(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("computed before checking the cache path")

        monkeypatch.setattr("attrarith.modular.hilbert_class_polynomial", fail)
        path = tmp_path / "dir"
        path.mkdir()
        code, out, err = invoke(capsys, "hcp", "--disc", "-23", "--cache", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == [f"attrarith hcp: --cache: {path} is not a regular file"]
        assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_cache_at_fifo_fails_without_opening_it(self, tmp_path):
        # in a subprocess with a timeout: opening a FIFO to read it blocks until
        # a writer comes, so a run that opened it would hang, not fail
        fifo = tmp_path / "hcp.json"
        os.mkfifo(fifo)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "attrarith.cli", "hcp", "--disc", "-23", "--cache", str(fifo)],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [f"attrarith hcp: --cache: {fifo} is not a regular file"]
        assert list(tmp_path.iterdir()) == [fifo] and stat.S_ISFIFO(fifo.stat().st_mode)

    def test_json_flag_is_the_default(self, capsys):
        code, plain, _ = invoke(capsys, "hcp", "--disc", "-23")
        assert code == 0
        code, flagged, _ = invoke(capsys, "hcp", "--disc", "-23", "--json")
        assert code == 0 and flagged == plain
        code, out, err = invoke(capsys, "hcp", "--disc", "-23", "--json", "--csv")
        assert code == 2 and out == "" and "not allowed with" in err


class TestCertify:
    @staticmethod
    def residual_spy(monkeypatch):
        import attrarith.modular as modular

        seen, root_residual = [], modular._root_residual
        monkeypatch.setattr(modular, "_root_residual",
                            lambda *a: seen.append(root_residual(*a)) or seen[-1])
        return seen

    @pytest.mark.parametrize("prec", [4300, 8192])
    @pytest.mark.parametrize("charge", [(2, 3, 1), (1, 1, 0)],
                             ids=lambda c: "-".join(map(str, c)))
    def test_passes_at_top_precisions(self, capsys, monkeypatch, charge, prec):
        # 2^-(prec//4) is below the least double past prec = 4299; the
        # verdict and the printed numbers are exact dyadics
        seen = self.residual_spy(monkeypatch)
        p2, q2, pq = (str(v) for v in charge)
        env = invoke_json(capsys, "certify", "--p2", p2, "--q2", q2, "--pq", pq,
                          "--prec", str(prec))
        cert = env["certificates"][0]
        assert cert["passed"] is True
        _, value, err, G = seen[-1]
        for key, v in (("residual", Fraction(value, 1 << G)),
                       ("error_bound", Fraction(err, 1 << G)),
                       ("tolerance", Fraction(1, 1 << prec // 4))):
            got = Fraction(Decimal(cert[key]))
            assert got >= v and (got == 0) == (v == 0), key

    def test_kernel_works_at_the_gate(self, capsys, monkeypatch):
        import attrarith.modular as modular
        from attrarith.attractor import ChargeData, attractor_point

        seen, j_eval = [], modular.j_value_with_bound
        monkeypatch.setattr(modular, "j_value_with_bound",
                            lambda tau, prec: seen.append(j_eval(tau, prec)) or seen[-1])
        for charge, prec in (((2, 3, 1), 256), ((3, 5, 2), 1024), ((1, 59, 1), 64)):
            seen.clear()
            p2, q2, pq = (str(v) for v in charge)
            invoke_json(capsys, "certify", "--p2", p2, "--q2", q2, "--pq", pq,
                        "--prec", str(prec))
            ap = attractor_point(ChargeData(*charge))
            h, hcp_wp = cli._class_polynomial_gate(4 * ap.D)
            work = modular._residual_precision(h, 4 * ap.D, ap.form.a, hcp_wp, prec) + 16
            assert seen[-1].working_prec == work, charge


class TestJval:
    def test_point_framed_once(self, capsys, monkeypatch):
        import attrarith.modular as modular

        calls, mag = [], modular._mag
        monkeypatch.setattr(modular, "_mag", lambda *a: calls.append(a) or mag(*a))
        for tau in ("0.25,1.5", "3.7,0.01", "0,1"):
            calls.clear()
            invoke_json(capsys, "jval", f"--tau={tau}")
            assert len(calls) == 1, tau

    def test_square_lattice(self, capsys):
        env = invoke_json(capsys, "jval", "--tau", "0,1")
        with mp.workprec(256):
            assert mp.mpf(env["result"]["j"]["re"]) == mp.re(j_value(mp.mpc(0, 1), 256))
        assert mp.mpf(env["result"]["error_bound"]) < mp.mpf(10) ** -70

    def test_decimal_string_roundtrip(self, capsys):
        env = invoke_json(capsys, "jval", "--tau", "0.25,1.5", "--prec", "128")
        with mp.workprec(128):
            want = j_value(mp.mpc(0.25, 1.5), 128)
            assert mp.mpf(env["result"]["j"]["re"]) == mp.re(want)
            assert mp.mpf(env["result"]["j"]["im"]) == mp.im(want)

    @pytest.mark.parametrize("tau", ["0,1e400", "0.25,1e-400", "0.3,1e-200", "0.3,1e-300"])
    def test_extreme_height_exit_3(self, capsys, tau):
        # the reduced height overflows a float; refused before any theta sum
        code, out, err = invoke(capsys, "jval", "--tau", tau)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "intractable" in err

    def test_exact_size_cap_exit_2(self, capsys):
        # 10^-1000000 spans 1 000 001 decimal places, past the 39 456 whose
        # integers stay within 2^17 bits: refused before any integer is formed
        start = time.perf_counter()
        code, out, err = invoke(capsys, "jval", "--tau", "0,1e-1000000")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("attrarith jval: --tau: RE,IM must span at most 39456 decimal "
                       "places, got 1000001\n")

    @staticmethod
    def assert_at_exact_point(env, text, prec):
        # the printed j lies within its bound, plus its rounding for print, of
        # the oracle's j at the exact decimal point, reduced on Fractions
        red, _ = reduce_root_exact(exact_tau(text))
        ref, ref_bound = j_dense(red.to_mpc(prec + 256), prec)
        with mp.workprec(prec + 256):
            j = mp.mpc(env["result"]["j"]["re"], env["result"]["j"]["im"])
            printing = mp.ldexp(abs(j.real) + abs(j.imag), -(prec + 6))
            bound = mp.mpf(env["result"]["error_bound"])
            assert abs(j - ref) <= bound + printing + ref_bound, (text, prec)
        return bound

    def test_deep_point_within_bound(self, capsys):
        # tau reduces exactly to about 10^-100 + i, where j is near 1728
        env = invoke_json(capsys, "jval", "--tau=1e-100,1e-200")
        assert self.assert_at_exact_point(env, "1e-100,1e-200", 256) < mp.mpf(2) ** -256

    @pytest.mark.parametrize("tau, prec", [("1e-100,1e-200", 256), ("1e-100,1e-200", 320),
                                           ("1e-100,1e-200", 512), ("1000000000.1,1", 64),
                                           ("1000000000.1,1", 128)])
    def test_exact_decimal_point(self, capsys, tau, prec):
        # --prec sets the bound, not the point: j at each precision is j at
        # the typed decimals, so the runs agree with one another within their bounds
        env = invoke_json(capsys, "jval", f"--tau={tau}", "--prec", str(prec))
        self.assert_at_exact_point(env, tau, prec)

    def test_deep_bound_prints_at_top_precision(self, capsys):
        # |j| is about e^(2000 pi) = 10^2728.6 and its bound an mpf of 9078
        # bits; rounded up to 128 bits before printing, it stays under the
        # interpreter's int-to-str limit
        env = invoke_json(capsys, "jval", "--tau=0,1000", "--prec", "8192")
        assert env["result"]["error_bound"] == "6.17937502667083526478624555e-2469"
        with mp.workprec(64):
            assert abs(mp.mpf(env["result"]["j"]["re"]) / mp.exp(2000 * mp.pi) - 1) < 1e-15

    def test_work_cap_exit_2(self, capsys):
        # reduced height 250000: about 2.3e6 bits of working precision, refused
        # from the frame alone, before any rendering
        start = time.perf_counter()
        code, out, err = invoke(capsys, "jval", "--tau=0.5,0.000001")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("attrarith jval: working precision prec + ceil(mag) + 14 must be "
                       "at most 131072 bits, got 2266451\n")

    def test_work_cap_below_frame_cap_exit_2(self, capsys):
        # ceil(mag) = 9 998 387 is under the frame's 10^7 bits, so the gate, not
        # the library, refuses the working precision 8192 + 9 998 387 + 14
        code, out, err = invoke(capsys, "jval", "--tau=0,1103000", "--prec", "8192")
        assert code == 2 and out == ""
        assert err == ("attrarith jval: working precision prec + ceil(mag) + 14 must be "
                       "at most 131072 bits, got 10006593\n")

    def test_benchmark_pool_under_work_cap(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)   # dataclasses look it up
        spec.loader.exec_module(workloads)
        pool = workloads.cli_pools()["jval"]
        assert len(pool) == 24
        for argv in pool:
            prec = int(argv[argv.index("--prec") + 1])
            work = _j_precision(_frame(exact_tau(argv[1].split("=", 1)[1]), prec), prec)
            assert work <= cli._MAX_JVAL_WORK, argv

    def test_bad_tau_exit_2(self, capsys):
        code, _, err = invoke(capsys, "jval", "--tau", "1+2j")
        assert code == 2
        code, _, err = invoke(capsys, "jval", "--tau", "0,-1")
        assert code == 2


    def test_unparsable_tau_exit_2(self, capsys):
        code, out, err = invoke(capsys, "jval", "--tau=abc,1")
        assert code == 2 and out == ""
        assert err == "attrarith jval: --tau: RE and IM must be decimal numbers, got 'abc,1'\n"


class TestWeber:
    def test_two_torsion_count_and_certificate(self, capsys):
        env = invoke_json(capsys, "weber", "--p2", "1", "--q2", "1", "--pq", "0",
                          "--n", "2")
        assert len(env["result"]["points"]) == 3
        cert = env["certificates"][0]
        assert cert["name"] == "wp_ode_max_residual" and cert["passed"]

    @pytest.mark.parametrize("field", ["t4", "s2"])
    def test_jacobi_certificate_fails_on_perturbed_kernel(self, capsys, monkeypatch, field):
        # theta_4^4 enters E6 (and E4 and U); S2^4 enters U alone, so Delta = q U
        import attrarith.elliptic as elliptic
        from attrarith.modular import _theta

        def perturbed(frame, wp):
            th = _theta(frame, wp)
            re, im = getattr(th, field)
            return th._replace(**{field: (re + (1 << (th.F - 200)), im)})

        monkeypatch.setattr(elliptic, "_theta", perturbed)
        env = invoke_json(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1", "--n", "2")
        cert = env["certificates"][1]
        assert cert["name"] == "jacobi_identity_residual" and cert["passed"] is False
        assert exact(cert["value"]) > 2**100 * exact(cert["bound"])

    @pytest.mark.parametrize("field", ["s2q", "s3q", "s4q", "r4"])
    def test_quartic_certificate_fails_on_perturbed_sums(self, capsys, monkeypatch, field):
        # with theta_2^4 and S2^4 derived by Jacobi's quartic at r, Jacobi's
        # identity holds whatever the r^4-level sums are; the quartic at
        # Q = r^4 sees a move of any one of them, or of Q, by 2^-300 (S2(Q)
        # through a factor 64 |Q| = 2^-14.3 here)
        import attrarith.elliptic as elliptic
        from attrarith.modular import _theta

        def perturbed(frame, wp):
            th = _theta(frame, wp)
            re, im = getattr(th, field)
            return th._replace(**{field: (re + (1 << (th.F - 300)), im)})

        monkeypatch.setattr(elliptic, "_theta", perturbed)
        env = invoke_json(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1", "--n", "2")
        jacobi, quartic = env["certificates"][1:]
        assert jacobi["passed"] is True
        assert quartic["name"] == "theta_quartic_residual" and quartic["passed"] is False
        assert exact(quartic["value"]) > 2**30 * exact(quartic["bound"])

    @pytest.mark.parametrize("n", ["-60", "-3", "0", "1"])
    def test_order_below_two_refused_first(self, capsys, monkeypatch, n):
        # before the (n^2 - 1) * prec cap, which -60 would fail, and before
        # the attractor's model is built
        import attrarith.elliptic as elliptic

        calls = []
        monkeypatch.setattr(elliptic, "model_from_tau", lambda *a, **k: calls.append(a))
        code, out, err = invoke(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1",
                                "--n", n)
        assert code == 2 and out == ""
        assert err == f"attrarith weber: torsion order must be >= 2, got {n}\n"
        assert calls == []

    def test_one_kernel_run_per_call(self, capsys, monkeypatch):
        import attrarith.elliptic as elliptic
        import attrarith.modular as modular

        kernel, calls = modular._theta, []

        def spy(frame, wp):
            calls.append(wp)
            return kernel(frame, wp)

        monkeypatch.setattr(modular, "_theta", spy)
        monkeypatch.setattr(elliptic, "_theta", spy)
        invoke_json(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1", "--n", "3")
        assert len(calls) == 1

    @pytest.mark.parametrize("q2", [208 * 10**6, 12 * 10**11])
    def test_high_model_admitted(self, capsys, q2):
        # tau = i sqrt(q2): the model's kernel works at prec + 104 bits at any
        # height, so neither a height of 14 422 nor one of 1.1 * 10^6, just
        # under the frame's 10^7-bit cap on mag, costs a working precision
        start = time.perf_counter()
        env = invoke_json(capsys, "weber", "--p2", "1", "--q2", str(q2), "--pq", "0",
                          "--n", "2")
        assert time.perf_counter() - start < 1
        assert [c["name"] for c in env["certificates"]] == ["wp_ode_max_residual",
                                                          "jacobi_identity_residual",
                                                          "theta_quartic_residual"]
        assert all(c["passed"] for c in env["certificates"])

    def test_intractable_height_exit_3(self, capsys):
        # tau = i sqrt(1.3 * 10^12), mag 1.03 * 10^7 bits: refused by the frame
        start = time.perf_counter()
        code, out, err = invoke(capsys, "weber", "--p2", "1", "--q2", str(13 * 10**11),
                                "--pq", "0", "--n", "2")
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "intractable" in err

    @pytest.mark.parametrize("charge, n", [((2, 3, 1), 6), ((1, 1, 0), 4), ((2, 2, 1), 3)])
    def test_values_per_x_print_as_per_point(self, capsys, charge, n):
        # partners +-P share x, so the Weber value and the residual's cubic are
        # computed once per x; stdout has the bytes of the per-point formulas
        # (generic j, j = 1728 and j = 0)
        from attrarith.attractor import ChargeData, attractor_point
        from attrarith.elliptic import model_from_tau, torsion_points, weber_function

        p2, q2, pq = (str(v) for v in charge)
        env = invoke_json(capsys, "weber", "--p2", p2, "--q2", q2, "--pq", pq, "--n", str(n))
        model = model_from_tau(attractor_point(ChargeData(*charge)).tau, 256)
        pts = torsion_points(model, n)
        assert [p["weber"] for p in env["result"]["points"]] == [
            cli._dec_c(weber_function(model, p), 256) for p in pts]
        with mp.workprec(288):
            worst = max(abs((2 * p.y) ** 2 - (4 * p.x**3 + 4 * model.A * p.x + 4 * model.B))
                        for p in pts)
        assert env["certificates"][0]["value"] == cli._dec(worst, 64)

    @pytest.mark.parametrize("charge", [(100000, 100001, 0), (2000, 2001, -1000)])
    def test_case_does_not_depend_on_precision(self, capsys, charge):
        # j is 1728 + 6.2e-7 and -1.1e-6 there: the Weber function is the generic
        # one at every precision, so 64 bits print the 256-bit values to 64 bits
        argv = ["weber", *(f"--{k}={v}" for k, v in zip(("p2", "q2", "pq"), charge)), "--n", "2"]
        low = invoke_json(capsys, *argv, "--prec", "64")["result"]["points"]
        high = invoke_json(capsys, *argv, "--prec", "256")["result"]["points"]
        with mp.workprec(256):
            for p, q in zip(low, high):
                w, want = (mp.mpc(r["weber"]["re"], r["weber"]["im"]) for r in (p, q))
                assert abs(w - want) <= mp.ldexp(abs(want), -62), (p, q)

    @pytest.mark.parametrize("p2, n", [(10**6, 3), (10**10, 2)])
    def test_curve_certificate_at_large_scale(self, capsys, p2, n):
        # |4x^3| reaches 3.9e21 and 1.1e33: the residual of terms rounded at
        # 64 bits is far above 2^-22 there, and the bound scales with them
        env = invoke_json(capsys, "weber", "--p2", str(p2), "--q2", "1", "--pq", "0",
                          "--n", str(n), "--prec", "64")
        ode = env["certificates"][0]
        assert ode["name"] == "wp_ode_max_residual" and ode["passed"]
        assert exact(ode["value"]) > 2**-22

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1",
                              "--n", "2", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,x_re,x_im,y_re,y_im,weber_re,weber_im"
        assert len(lines) == 4

    def test_torsion_order_cap_exit_2(self, capsys):
        # the order is checked before any computing, so a rejected call returns at once
        code, out, err = invoke(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1",
                                "--n", "200")
        assert code == 2 and out == ""
        assert err.strip() == "attrarith weber: --n must be at most 50, got 200"
        env = invoke_json(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1",
                          "--n", "50", "--prec", "64")
        assert len(env["result"]["points"]) == 50 * 50 - 1

    def test_points_times_precision_cap_exit_2(self, capsys):
        # (n^2 - 1) * prec may not exceed 2499 * 256, the largest call at the default precision
        code, out, err = invoke(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1",
                                "--n", "50", "--prec", "257")
        assert code == 2 and out == ""
        assert err == ("attrarith weber: (n^2 - 1) * prec must be at most 639744, "
                       "got 2499 * 257 = 642243\n")
        # the --n check keeps its message and comes first
        code, _, err = invoke(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1",
                              "--n", "51", "--prec", "4096")
        assert code == 2
        assert err.strip() == "attrarith weber: --n must be at most 50, got 51"

    def test_high_attractor_matches_jval(self, capsys):
        # tau = 40i.  With A = -g2/4, B = -g3/4 and delta = 1728 g2^3/j, the
        # Weber value AB x/delta is g3 j x/(27648 g2^2).  The 2-torsion x are
        # the roots e_k of 4x^3 - g2 x - g3, so g2 = 2 sum e_k^2, g3 = 4 prod e_k.
        env = invoke_json(capsys, "weber", "--p2", "1", "--q2", "1600", "--pq", "0",
                          "--n", "2")
        names = [c["name"] for c in env["certificates"]]
        assert names == ["wp_ode_max_residual", "jacobi_identity_residual",
                         "theta_quartic_residual"]
        assert all(c["passed"] for c in env["certificates"])
        ref = invoke_json(capsys, "jval", "--tau", "0,40")
        with mp.workprec(320):
            j_ref = mp.mpc(ref["result"]["j"]["re"], ref["result"]["j"]["im"])
            j = mp.mpc(env["result"]["j"]["re"], env["result"]["j"]["im"])
            assert mp.sign(j.real) == mp.sign(j_ref.real) == 1
            assert abs(j - j_ref) <= mp.mpf(2) ** -200 * abs(j_ref)
            pts = env["result"]["points"]
            xs = [mp.mpc(p["x"]["re"], p["x"]["im"]) for p in pts]
            g2 = 2 * sum(x**2 for x in xs)
            g3 = 4 * xs[0] * xs[1] * xs[2]
            for p, x in zip(pts, xs):
                w = mp.mpc(p["weber"]["re"], p["weber"]["im"])
                want = g3 * j_ref * x / (27648 * g2**2)
                assert mp.sign(w.real) == mp.sign(want.real)
                assert abs(w - want) <= mp.mpf(2) ** -200 * abs(want)


def exact(x) -> Fraction:
    """The exact value of an mpf, or of a printed decimal string."""
    return Fraction(x) if isinstance(x, str) else Fraction(*to_rational(x._mpf_))


class TestBoundsPrintAsBounds:
    """A printed bound, read back exactly, is at least the bound it prints."""

    def test_random_mpfs(self):
        rng = random.Random(2718)
        for _ in range(200):
            x = mp.ldexp(rng.getrandbits(rng.randrange(64, 513)), rng.randrange(-3000, 100))
            s = cli._dec_bound(x)
            d = Decimal(s)
            # the last of the 27 digits is rounded up, by at most one unit
            assert exact(x) <= exact(s) < exact(x) + Fraction(10) ** (d.adjusted() - 26), s

    def test_jval_error_bounds(self, capsys):
        rng = random.Random(3141)
        for _ in range(20):
            prec = rng.randrange(64, 513)
            tau = f"{rng.uniform(-1, 1):.12f},{rng.uniform(0.3, 3):.12f}"
            res = invoke_json(capsys, "jval", f"--tau={tau}", "--prec", str(prec))
            ev = j_value_with_bound(exact_tau(tau), prec)
            bound = exact(ev.error_bound)
            assert exact(res["result"]["error_bound"]) >= bound, (tau, prec)
            assert exact(res["certificates"][0]["value"]) >= bound, (tau, prec)

    def test_weber_certificate_bounds(self, capsys):
        # the bounds _cmd_weber compares against: 2^-118 and the model's
        # Jacobi and quartic bounds
        from attrarith.attractor import ChargeData, attractor_point
        from attrarith.elliptic import model_from_tau

        for charge in ((2, 3, 1), (1, 1, 0), (2, 2, 1)):
            p2, q2, pq = (str(v) for v in charge)
            env = invoke_json(capsys, "weber", "--p2", p2, "--q2", q2, "--pq", pq, "--n", "3")
            model = model_from_tau(attractor_point(ChargeData(*charge)).tau, 256)
            ode, jacobi, quartic = env["certificates"]
            assert exact(ode["bound"]) >= Fraction(1, 2**118), charge
            assert exact(jacobi["bound"]) >= exact(model.jacobi[1]), charge
            assert exact(quartic["bound"]) >= exact(model.quartic[1]), charge
            assert all(c["passed"] for c in env["certificates"]), charge

    def test_weber_golden_passes_every_certificate(self, capsys):
        # the golden charge at the floor precision: both Jacobi entries pass clean
        env = invoke_json(capsys, "weber", "--p2", "2", "--q2", "3", "--pq", "1", "--n", "4",
                          "--prec", "64")
        assert [c["name"] for c in env["certificates"]][1:] == ["jacobi_identity_residual",
                                                              "theta_quartic_residual"]
        assert all(c["passed"] for c in env["certificates"])


class TestCurve:
    def test_fermat_quartic(self, capsys):
        env = invoke_json(capsys, "curve", "--d", "4", "--k", "1", "--l", "1",
                          "--orbits")
        r = env["result"]
        assert r["genus"] == "3" and r["num_factors"] == "3"
        assert all(f["level"] == "4" and f["dimension"] == "1" for f in r["factors"])
        assert all(len(f["cm_set"]) == 1 for f in r["factors"])
        assert env["certificates"][0]["passed"] is True

    def test_invalid_signature_exit_2(self, capsys):
        code, _, err = invoke(capsys, "curve", "--d", "4", "--k", "2", "--l", "2")
        assert code == 2

    def test_forms_enumerated_once(self, capsys, monkeypatch):
        # the genus comes from the orbits, which partition the forms
        import attrarith.jacobian as jacobian

        calls, enumerate_forms = [], jacobian.enumerate_forms
        monkeypatch.setattr(jacobian, "enumerate_forms",
                            lambda sig: calls.append(sig) or enumerate_forms(sig))
        for argv in (("--d", "12", "--k", "2", "--l", "3"), ("--d", "60", "--k", "4", "--l", "5",
                                                              "--orbits")):
            calls.clear()
            invoke_json(capsys, "curve", *argv)
            assert len(calls) == 1, argv

    def test_genus_matches_library(self, capsys):
        from attrarith.jacobian import genus

        for d in range(2, 41):
            divs = [k for k in range(1, d + 1) if d % k == 0]
            for k in divs:
                for l in divs:
                    if math.gcd(k, l) != 1:
                        continue
                    env = invoke_json(capsys, "curve", "--d", str(d), "--k", str(k),
                                      "--l", str(l))
                    assert env["result"]["genus"] == str(genus((d, k, l))), (d, k, l)
                    assert env["certificates"][0]["passed"] is True


class TestResolve:
    def test_example(self, capsys):
        env = invoke_json(capsys, "resolve", "--n", "5", "--q", "2", "--genus", "2")
        r = env["result"]
        assert r["steps"] == ["3", "2"]
        assert r["delta_h2"] == "2" and r["delta_h3"] == "4"
        assert env["certificates"][0]["passed"] is True

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "resolve", "--n", "12", "--q", "5", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "index,step"

    def test_not_coprime_exit_2(self, capsys):
        code, _, _ = invoke(capsys, "resolve", "--n", "10", "--q", "4")
        assert code == 2


class TestFermat:
    def test_quintic_threefold(self, capsys):
        env = invoke_json(capsys, "fermat", "--d", "5", "--dim", "3", "--hodge")
        assert env["result"]["primitive_dimension"] == "204"
        assert env["result"]["hodge"] == ["1", "101", "101", "1"]
        assert env["certificates"][0]["passed"] is True

    def test_csv_requires_hodge(self, capsys):
        code, _, err = invoke(capsys, "fermat", "--d", "3", "--dim", "2", "--csv")
        assert code == 2 and "--hodge" in err


class TestSkCheck:
    def test_cubic_surface(self, capsys):
        env = invoke_json(capsys, "sk-check", "--d", "3", "--r", "1", "--s", "1")
        r = env["result"]
        assert r["lhs_total"] == "13" and r["rhs_total"] == "13"
        assert r["equal"] is True

    def test_unsupported_range_exit_2(self, capsys):
        code, _, _ = invoke(capsys, "sk-check", "--d", "9", "--r", "1", "--s", "1")
        assert code == 2


class TestFlow:
    def test_converged_envelope(self, capsys):
        env = invoke_json(capsys, "flow", "--p2", "2", "--q2", "3", "--pq", "1",
                          "--tau0", "0,1.2", "--tol", "1e-11")
        r = env["result"]
        assert r["converged"] is True
        assert abs(float(r["tau_end"]["re"]) - 0.5) < 1e-8
        names = {c["name"] for c in env["certificates"]}
        assert "central_charge_monotone" in names
        assert float(env["certificates"][0]["residual"]) < 1e-8
        assert all(c["passed"] is True for c in env["certificates"])

    def test_trace_and_csv(self, capsys, tmp_path, monkeypatch):
        tables = []
        table = flow_mod.trajectory_table

        def spy(result):
            tables.append(result)
            return table(result)

        monkeypatch.setattr(flow_mod, "trajectory_table", spy)
        trace = tmp_path / "t.csv"
        code, out, _ = invoke(capsys, "flow", "--p2", "1", "--q2", "1", "--pq", "0",
                              "--tau0", "0.3,1.7", "--tol", "1e-6",
                              "--trace", str(trace), "--csv")
        assert code == 0
        assert out.startswith("rho,U,re_tau,im_tau,Z2\n")
        # one table for both, LF line ends: the file is the printed bytes
        assert len(tables) == 1
        assert trace.read_bytes() == out.encode()

    def test_large_charge_needs_no_class_number(self, capsys, monkeypatch):
        # D = -10^11: listing the reduced forms of 4D would take minutes
        listed = []
        monkeypatch.setattr("attrarith.attractor.class_group_forms", listed.append)
        env = invoke_json(capsys, "flow", "--p2", "1", "--q2", "100000000001", "--pq", "0",
                          "--tau0", "0,1")
        assert listed == []
        assert all(c["passed"] is True for c in env["certificates"])

    def test_tau0_past_double_range_exit_2(self, capsys):
        code, out, err = invoke(capsys, "flow", "--p2", "2", "--q2", "3", "--pq", "1",
                                "--tau0", "1e400,1")
        assert code == 2 and out == ""
        assert err == ("attrarith flow: --tau0: RE and IM must lie in the double range, "
                       "got '1e400,1'\n")

    def test_nonconvergence_exit_3(self, capsys):
        code, _, err = invoke(capsys, "flow", "--p2", "1", "--q2", "1", "--pq", "0",
                              "--tau0", "0.3,1.7", "--max-steps", "4")
        assert code == 3 and "computation failed" in err

    @pytest.mark.parametrize("flag", ["--step", "--tol"])
    def test_non_finite_step_and_tol_exit_2(self, capsys, flag):
        code, out, err = invoke(capsys, "flow", "--p2", "2", "--q2", "3", "--pq", "1",
                                "--tau0", "0,1.2", flag, "inf")
        assert code == 2 and out == ""
        assert err == f"attrarith flow: {flag[2:]} must be positive and finite, got inf\n"

    def test_max_steps_cap_exit_2(self, capsys):
        # refused before any computing; the flow itself would need about 900 rows
        code, out, err = invoke(capsys, "flow", "--p2", "2", "--q2", "3", "--pq", "1",
                                "--tau0", "0,1.2", "--max-steps", "1000000000000")
        assert code == 2 and out == ""
        assert err == ("attrarith flow: --max-steps must be at most 1000000, "
                       "got 1000000000000\n")

    def test_tiny_step_exit_3(self, capsys):
        # sigma = 1e-300 per row cannot reach tau* within the default 10^6 rows
        code, out, err = invoke(capsys, "flow", "--p2", "2", "--q2", "3", "--pq", "1",
                                "--tau0", "0,1.2", "--step", "1e-300")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "within 1000000 steps" in err

    def test_tiny_step_exit_3_builds_no_rows(self, capsys, monkeypatch):
        built = []
        rows = flow_mod._rows

        def spy(g, n, step):
            built.append(n + 1)
            return rows(g, n, step)

        monkeypatch.setattr(flow_mod, "_rows", spy)
        code, out, _ = invoke(capsys, "flow", "--p2", "2", "--q2", "3", "--pq", "1",
                              "--tau0", "0,1.2", "--step", "1e-300")
        assert code == 3 and out == ""
        assert built == []


class TestGlobalFlags:
    def test_env_precision_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTRARITH_PREC", "128")
        env = invoke_json(capsys, "jval", "--tau", "0,2")
        assert env["precision_bits"] == 128

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTRARITH_PREC", "128")
        env = invoke_json(capsys, "jval", "--tau", "0,2", "--prec", "192")
        assert env["precision_bits"] == 192

    @pytest.mark.parametrize("value", ["1e3", "", "256 bits", "\n"])
    def test_unparsable_env_precision_exit_2(self, capsys, monkeypatch, value):
        # the message names the variable and the value it got, on one line
        monkeypatch.setenv("ATTRARITH_PREC", value)
        code, out, err = invoke(capsys, "hcp", "--disc", "-23")
        assert code == 2 and out == ""
        assert err == f"attrarith hcp: ATTRARITH_PREC must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("argv", [
        ("jval", "--tau", "0.5,nan"),
        ("jval", "--tau", "inf,1"),
        ("jval", "--tau", "0.5,-inf"),
        ("flow", "--p2", "2", "--q2", "3", "--pq", "1", "--tau0", "nan,1.2"),
        ("flow", "--p2", "2", "--q2", "3", "--pq", "1", "--tau0", "0,inf"),
    ])
    def test_non_finite_pair_exit_2(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert argv[-2] in err and "finite" in err

    def test_too_low_precision_exit_2(self, capsys):
        code, _, _ = invoke(capsys, "jval", "--tau", "0,1", "--prec", "32")
        assert code == 2

    @pytest.mark.parametrize("prec", ["8193", "14300", "2000000"])
    def test_precision_cap_exit_2(self, capsys, prec):
        # refused before any computing: 14300 bits used to fail only after the
        # evaluation, in the decimal rendering, and 2000000 used to hang
        code, out, err = invoke(capsys, "jval", "--tau", "0,1", "--prec", prec)
        assert code == 2 and out == ""
        assert err == f"attrarith jval: precision must be between 64 and 8192 bits, got {prec}\n"

    def test_precision_cap_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTRARITH_PREC", "9000")
        code, out, err = invoke(capsys, "hcp", "--disc", "-4")
        assert code == 2 and out == ""
        assert err == "attrarith hcp: precision must be between 64 and 8192 bits, got 9000\n"

    def test_precision_at_cap_runs(self, capsys):
        env = invoke_json(capsys, "jval", "--tau", "0,1", "--prec", "8192")
        assert env["precision_bits"] == 8192

    def test_no_command_exit_2(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 2

    def test_unknown_command_exit_2(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_closed_stdout_pipe_exits_0(self):
        # the reader closes the pipe before the envelope is written
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "attrarith.cli", "weber", "--p2", "1", "--q2", "1",
             "--pq", "0", "--n", "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "attract" in out and "flow" in out


# SHA-256 of stdout for fixed argv lists, pinned so that any change in the
# rendering of an envelope, a CSV table or the help text shows.  Paths are
# relative to a scratch working directory, so the envelopes that echo them
# are the same on every run; help is rendered at 80 columns.
GOLDEN_ARGV = {
    "attract": ("attract", "--p2", "2", "--q2", "3", "--pq", "1"),
    "certify": ("certify", "--p2", "2", "--q2", "3", "--pq", "1"),
    "hcp": ("hcp", "--disc", "-23"),
    "jval": ("jval", "--tau", "0.25,1.5", "--prec", "128"),
    "weber": ("weber", "--p2", "2", "--q2", "3", "--pq", "1", "--n", "3"),
    "curve": ("curve", "--d", "4", "--k", "1", "--l", "1"),
    "resolve": ("resolve", "--n", "12", "--q", "5"),
    "fermat": ("fermat", "--d", "5", "--dim", "3"),
    "sk-check": ("sk-check", "--d", "3", "--r", "1", "--s", "1"),
    "flow": ("flow", "--p2", "2", "--q2", "3", "--pq", "1", "--tau0", "0,1.2"),
    "hcp --csv": ("hcp", "--disc", "-23", "--csv"),
    "weber --csv": ("weber", "--p2", "2", "--q2", "3", "--pq", "1", "--n", "3", "--csv"),
    "curve --csv": ("curve", "--d", "4", "--k", "1", "--l", "1", "--csv"),
    "resolve --csv": ("resolve", "--n", "12", "--q", "5", "--csv"),
    "fermat --csv": ("fermat", "--d", "5", "--dim", "3", "--hodge", "--csv"),
    "flow --csv": ("flow", "--p2", "2", "--q2", "3", "--pq", "1", "--tau0", "0,1.2",
                   "--csv"),
    "curve --orbits": ("curve", "--d", "4", "--k", "1", "--l", "1", "--orbits"),
    "curve --d 60 --k 4 --l 5 --orbits": ("curve", "--d", "60", "--k", "4", "--l", "5",
                                          "--orbits"),
    "weber --p2 2 --q2 3 --pq 1 --n 4 --prec 64": ("weber", "--p2", "2", "--q2", "3", "--pq",
                                                   "1", "--n", "4", "--prec", "64"),
    "resolve --genus": ("resolve", "--n", "5", "--q", "2", "--genus", "2"),
    "fermat --hodge": ("fermat", "--d", "5", "--dim", "3", "--hodge"),
    "flow --trace": ("flow", "--p2", "2", "--q2", "3", "--pq", "1", "--tau0", "0,1.2",
                     "--trace", "traj.csv"),
    "hcp --cache": ("hcp", "--disc", "-23", "--cache", "hcp.json"),
    "--help": ("--help",),
    "weber --help": ("weber", "--help"),
    "flow --help": ("flow", "--help"),
}

GOLDEN_SHA256 = {
    "attract": "35005b88891428abf09ba5231bbbb1965d11ac625ada64521e9cba8e9a1e56fe",
    "certify": "80f3fa41b8094b3372c8d1ae38c970485f0005ffbbde11724157911ff2711db0",
    "hcp": "e74a84812bd9838273e2b65ceaa4b97d271b9d51a2563dfff2eec36443d1de3a",
    "jval": "b6d3be1a5c9aaeecb553852a08f58415eea2e98310ff34ad25055da8d44ad7e4",
    "weber": "7be05184601aa8ef019cfcc9047ace331f75116814c747db936ea3a6ee35d863",
    "curve": "84929edd82ac3590c89a3e193b5bd41887aee551e4a5e3989feaba8261d047aa",
    "resolve": "08c9b8ad4dc5b6e6191a569f76b5c9619640b582e0aebe4eafec368e70a93d19",
    "fermat": "18476ca695b97cab96bef6b4f714340bbdfc8745f4766e0ab44026d79d85afd2",
    "sk-check": "a6fa28114f63cc884ed48a4004ce96bf855beacad3f1421b0a5959b2a90a0312",
    "flow": "27dc279eeaff3345a1d3c05f7052aa22676308beb05b09b5a2f3f3670a6d350c",
    "hcp --csv": "1f33e8ce4d4f85f6b0deff93b5757bed4fd59796fc13d9a89a0b616430854c25",
    "weber --csv": "b02c38cd33e30975a80814045c6868e96cf3b7b1317e9b9b7e70a46200410ec1",
    "curve --csv": "321012dcae8c4a22e99b010fcb851ac8244ff0ba8299bb87c770398c18470e87",
    "resolve --csv": "7ebdf7e1c80b6526665505903546884316c219857a37d31cb23652fe12357abd",
    "fermat --csv": "6cc2bd2405c30b2905c14d04e97335b0a26af6c40db5e2d44dcfd81714fbad54",
    "flow --csv": "0363665332cc096f80203463fd1b459f8dbfba6828cfc531ed98a7f548f9d46b",
    "curve --orbits": "36e0e20cf499e1cb65d54d10bb00c9942471f4f117a6ab4dc5b980ea90a6ff76",
    "curve --d 60 --k 4 --l 5 --orbits":
        "0b3317fbc044340ffbae46fae96c25e79782d312a9356f28a40fd771940e1325",
    "weber --p2 2 --q2 3 --pq 1 --n 4 --prec 64":
        "2f94abde5ad3e81829d6d07befea14156541bfdfc262109c5fd238fa70baf891",
    "resolve --genus": "f3558d243b45591ad980940843785bcf87637df58bafaef8f1abb8eefe082a1c",
    "fermat --hodge": "0d6bfd7a99da641738f2b2ab472ea5f6c41284fccd97a2d015ddb98cb26d3892",
    "flow --trace": "abba57763500d9b1a970c401025d1aeea653325d8fe4fac6786ac7f0058e9509",
    "hcp --cache": "3af950090b4223382d89edef571be47d653fd0c5dc108477c650723c0941cf13",
    "--help": "5560e5e9f15c84b48ce893ea625ef101393a916963603372b77af3b478c3921a",
    "weber --help": "1384450a7305b924bfb30b18ea6a3dba016dc9c4fdb1282a7c5d5d0839fb8cd3",
    "flow --help": "a9eff95ed7e9fd8facf684448c7d7364db757238febdd24e104bc78d76fd5fba",
}


class TestGoldenStdout:
    @pytest.fixture(autouse=True)
    def _scratch_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("ATTRARITH_PREC", raising=False)

    @staticmethod
    def digest(capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("name", [k for k in GOLDEN_ARGV if k != "hcp --cache"])
    def test_stdout_digest(self, capsys, name):
        assert self.digest(capsys, GOLDEN_ARGV[name]) == GOLDEN_SHA256[name]

    def test_cache_cold_then_hit(self, capsys):
        argv = GOLDEN_ARGV["hcp --cache"]
        assert self.digest(capsys, argv) == GOLDEN_SHA256["hcp --cache"]  # cold
        assert os.path.exists("hcp.json")
        assert self.digest(capsys, argv) == GOLDEN_SHA256["hcp --cache"]  # hit


# strings a renderer must escape as json.dumps does: quotes, backslashes, control
# characters, and non-ASCII text, which stays as it is under ensure_ascii=False
RENDER_TEXT = ["", "a", "tau", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "−", "√", "·",
               "(1 + 1·√−5)/2", "é", "\u2028", "𝔥", 'say "−1"\\n']


def random_tree(rng, depth):
    """A random JSON value: nested dicts, lists and tuples, empty ones among
    them, over strings, bools, None and ints of either sign."""
    if depth and rng.random() < 0.7:
        size = rng.choice([0, 1, 2, 3, 6])
        shape = rng.choice([dict, list, tuple])
        if shape is dict:
            keys = ["".join(rng.choices(RENDER_TEXT, k=3)) for _ in range(size)]
            return {k: random_tree(rng, depth - 1) for k in keys}
        return shape(random_tree(rng, depth - 1) for _ in range(size))
    kind = rng.randrange(4)
    if kind == 0:
        return "".join(rng.choices(RENDER_TEXT, k=rng.randrange(4)))
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.randrange(-10**30, 10**30) >> rng.randrange(100)
    return rng.choice([0, -1, 1, 256])


# envelopes outside GOLDEN_ARGV, so their layout is checked too
RENDER_ARGV = [
    ("curve", "--d", "12", "--k", "2", "--l", "3", "--orbits"),
    ("weber", "--p2", "2", "--q2", "3", "--pq", "1", "--n", "4"),
    ("hcp", "--disc", "-479"),
    ("resolve", "--n", "17", "--q", "3", "--genus", "1"),
    ("fermat", "--d", "6", "--dim", "2", "--hodge"),
    ("flow", "--p2", "1", "--q2", "2", "--pq", "0", "--tau0", "0.3,0.8", "--trace", "t.csv"),
    ("certify", "--p2", "1", "--q2", "5", "--pq", "0"),
    ("jval", "--tau=-0.3,0.9"),
]


class TestRender:
    """cli._render writes the bytes of json.dumps(indent=2, ensure_ascii=False)."""

    @staticmethod
    def dumps(o):
        return json.dumps(o, indent=2, ensure_ascii=False)

    def test_random_trees(self):
        rng = random.Random(4242)
        for _ in range(400):
            tree = random_tree(rng, rng.randrange(1, 6))
            assert cli._render(tree) == self.dumps(tree), tree

    def test_empty_and_top_level_values(self):
        for o in ({}, [], (), [[]], {"": {}}, "", "−√·", True, False, None, -7, 2**100):
            assert cli._render(o) == self.dumps(o)

    def test_other_values_as_json_dumps(self):
        o = {"f": [0.1, -0.0, 1e300, float("inf"), float("nan")]}
        assert cli._render(o) == self.dumps(o)
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._render({"x": [object()]})

    @pytest.mark.parametrize("argv", RENDER_ARGV, ids=" ".join)
    def test_stdout_is_indent2_json(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        assert out == self.dumps(json.loads(out)) + "\n"


# pairs of runs that differ only in optional flags or in the environment
REUSE_STEPS = [
    (("flow", "--p2", "2", "--q2", "3", "--pq", "1", "--tau0", "0,1.2", "--trace", "t.csv"),
     None),
    (("flow", "--p2", "2", "--q2", "3", "--pq", "1", "--tau0", "0,1.2"), None),
    (("fermat", "--d", "5", "--dim", "3", "--hodge"), None),
    (("fermat", "--d", "5", "--dim", "3"), None),
    (("curve", "--d", "4", "--k", "1", "--l", "1", "--orbits"), None),
    (("curve", "--d", "4", "--k", "1", "--l", "1"), None),
    (("hcp", "--disc", "-23", "--csv"), None),
    (("hcp", "--disc", "-23"), None),
    (("jval", "--tau", "0.25,1.5"), "128"),
    (("jval", "--tau", "0.25,1.5"), None),
]


class TestParserReuse:
    @staticmethod
    def outputs(capsys, monkeypatch):
        outs = []
        for argv, prec in REUSE_STEPS:
            if prec is None:
                monkeypatch.delenv("ATTRARITH_PREC", raising=False)
            else:
                monkeypatch.setenv("ATTRARITH_PREC", prec)
            outs.append(invoke(capsys, *argv))
        return outs

    def test_shared_parser_matches_fresh_calls(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with monkeypatch.context() as m:
            # the uncached builder gives every call a parser of its own
            m.setattr(cli, "build_parser", getattr(cli.build_parser, "__wrapped__",
                                                   cli.build_parser))
            fresh = self.outputs(capsys, m)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert self.outputs(capsys, monkeypatch) == fresh
        assert built.count("attrarith") <= 1
