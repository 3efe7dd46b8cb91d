"""Command-line front end: every computation as a subcommand with JSON/CSV output.

stdout carries exactly one JSON envelope (or a CSV table under --csv);
stderr carries diagnostics.  All numeric results are serialized as decimal
strings so arbitrary-precision values survive the trip.  Exit codes:
0 success, 2 invalid input, 3 computation failure.

A subcommand is declared in one place, build_parser: its flags, its handler
and whether it has a tabular form.  The parser is built once per process.
A handler only computes: it returns (inputs, result, certificates), or a CSV
(header, rows) under --csv.  run alone renders, the envelope from the
subcommand name and the precision, or the CSV table.  One renderer, _render,
writes every envelope in the bytes of json.dumps at an indent of 2 with
ensure_ascii off: CPython 3.11's C encoder ignores an indent, so json.dumps
would hand the envelope to its pure-Python encoder.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from json.encoder import encode_basestring

import mpmath as mp
from mpmath.libmp import from_rational, mpf_pos, round_ceiling, round_nearest, to_rational, to_str

from .arith import QuadraticSurd
from .attractor import ChargeData, attractor_point, discriminant, entropy_invariant
from .errors import AttrarithError, ComputationFailure

_DEFAULT_PREC = 256
# largest --prec: decimal output stays under Python's 4300-digit int-to-str limit
_MAX_PREC = 8192
# largest weber --n, and largest (n^2 - 1) * prec: 2499 points at 256 bits
# take about 0.9 s on one core, and the cost grows with points times bits
_MAX_WEBER_N = 50
_MAX_WEBER_WORK = (_MAX_WEBER_N**2 - 1) * _DEFAULT_PREC
# largest working precision (modular._j_precision) of jval: on one core about 1.5 s
# for jval --tau=0,14400 (130 801 bits)
_MAX_JVAL_WORK = 2**17
# largest |D| = |pq^2 - p2*q2| of a charge: attractor_point's exact surd factors D
# by trial division up to |D|^(1/3), about 0.2 s at a prime near 10^18 on one
# core (0.6 to 0.8 s near 10^20)
_MAX_CHARGE_DISC = 10**18
# most decimal places from the lowest to the highest digit of an RE,IM pair,
# 10^39456 < 2^(2^17): a pair of random 39455-digit decimals takes about 0.55 s
# in jval on one core; one at the 2^20 bits the frame admits for an mpc takes
# about 20 s, as its integers are dense, unlike an mpc's power-of-two denominator
_MAX_DECIMAL_DIGITS = 39_456
# largest |disc| of a class polynomial (|4D| for certify and attract): the reduced
# forms take O(|disc|) steps to enumerate, about 1.6 s at 4 * 10^7 on one core
_MAX_CLASS_DISC = 40_000_000
# largest h * c for a class polynomial, h the class number and c its coefficient
# bits (Enge's bound): the cost grows like (h c)^1.5, and h c = 697 476
# (hcp --disc -184024) takes about 0.9 s on one core
_MAX_HCP_BITS = 700_000
# largest working precision of the certify j evaluation at the attractor root,
# 16 bits past the relative target modular._residual_precision: 32558 bits with
# h c = 642 980 (certify --p2 3 --q2 1592 --pq 1) take about 1.2 s on one core
_MAX_CERTIFY_WORK = 2**15
# largest resolve step count: 300 000 steps take about 0.25 s on one core
_MAX_HJ_STEPS = 300_000
# largest flow --max-steps, which bounds the rows a converging flow builds
_MAX_FLOW_STEPS = 10**6
# largest curve d * a, a = d/k: it bounds the (r, s) pass and the unit group;
# d = 350, k = l = 1 takes about 0.55 s on one core, 0.9 s with --orbits
_MAX_CURVE_WORK = 125_000
# largest fermat (n + 2) * bit_length(d - 1): the count is below 2^14284 < 10^4300,
# so it prints under Python's 4300-digit int-to-str limit
_MAX_FERMAT_BITS = 14_284
# largest fermat --hodge (n + 1) * d * max(bits, 1024): (n + 1) * d recurrence
# steps on integers of up to (n + 2) * bit_length(d - 1) bits, each step costing
# at least what 1024 bits would; d = 10^4, n = 110 takes about 1.8 s on one core,
# d = 1000, n = 440 about 1.5 s
_MAX_HODGE_WORK = 2 * 10**9


def _minus(s: str) -> str:
    return s.replace("-", "−")


def _surd_str(t: QuadraticSurd) -> str:
    """Render like (1 + 1·√−5)/2; rational values keep disc −1 with zero radical."""
    return (f"({_minus(str(t.num_rational))} + {_minus(str(t.num_radical))}"
            f"·√{_minus(str(t.disc))})/{t.den}")


def _digits(v, prec: int) -> str:
    """An mpf tuple in enough decimal digits to reproduce it at prec bits."""
    return to_str(v, int(prec * 0.30103) + 8)


def _dec(x, prec: int) -> str:
    """An mpf rounded to prec + 8 bits, then printed by _digits."""
    return _digits(mpf_pos(x._mpf_, prec + 8, round_nearest), prec)


def _dec_c(z, prec: int) -> dict:
    """Each component of an mpc printed by _dec."""
    return {"re": _dec(z.real, prec), "im": _dec(z.imag, prec)}


def _dec_bound(x) -> str:
    """A bound x >= 0 in 27 significant digits (_digits at 64 bits), the
    last rounded toward +inf, so that the string read back is at least x.

    x is first rounded up to 128 bits, which also keeps a long mantissa
    under the int-to-str limit.  to_str rounds to nearest; when that lands
    below x, the next 27-digit decimal up is printed instead, rounded up to
    128 bits, which to_str prints as that decimal."""
    v = mpf_pos(x._mpf_, 128, round_ceiling)
    s = _digits(v, 64)
    d = Decimal(s)
    if Fraction(d) < Fraction(*to_rational(v)):
        up = Fraction(d) + Fraction(10) ** (d.adjusted() - 26)
        s = _digits(from_rational(up.numerator, up.denominator, 128, round_ceiling), 64)
    return s


def _dec_f(v) -> str:
    return repr(float(v))


def _parse_pair(text: str, flag: str):
    """RE,IM as two exact Decimals, refused, before any integer is formed from
    them, unless both are finite and the pair spans at most
    _MAX_DECIMAL_DIGITS places."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag}: expected RE,IM, got {text!r}")
    try:
        pair = tuple(Decimal(v.strip()) for v in parts)
    except InvalidOperation:
        raise ValueError(f"{flag}: RE and IM must be decimal numbers, got {text!r}") from None
    if not all(v.is_finite() for v in pair):
        raise ValueError(f"{flag}: RE and IM must be finite, got {text!r}")
    places = [v.as_tuple() for v in pair]
    span = (max(1, *(len(t.digits) + t.exponent for t in places))
            - min(0, *(t.exponent for t in places)))
    if span > _MAX_DECIMAL_DIGITS:
        raise ValueError(f"{flag}: RE,IM must span at most {_MAX_DECIMAL_DIGITS} decimal "
                         f"places, got {span}")
    return pair


def _int_csv(text: str) -> tuple:
    return tuple(int(v.strip()) for v in text.split(","))


def _charge_from_args(args) -> tuple[ChargeData, dict]:
    vector_mode = args.gram or args.p or args.q
    if vector_mode:
        if not (args.gram and args.p and args.q):
            raise ValueError("--gram, --p and --q must be given together")
        if args.p2 is not None or args.q2 is not None or args.pq is not None:
            raise ValueError("give either --p2/--q2/--pq or --gram/--p/--q, not both")
        with open(args.gram) as fh:
            gram = json.load(fh)
        p = _int_csv(args.p)
        q = _int_csv(args.q)
        c = ChargeData.from_vectors(p, q, gram)
        inputs = {"gram": args.gram, "p": args.p, "q": args.q}
    else:
        if args.p2 is None or args.q2 is None or args.pq is None:
            raise ValueError("--p2, --q2 and --pq are all required")
        c = ChargeData(args.p2, args.q2, args.pq)
        inputs = {"p2": str(args.p2), "q2": str(args.q2), "pq": str(args.pq)}
    _require_disc(discriminant(c), "|D|", _MAX_CHARGE_DISC)
    return c, inputs


def _require_disc(disc: int, name: str, cap: int = _MAX_CLASS_DISC):
    """Refuse a discriminant past cap: by default one whose reduced forms would
    take too long to list."""
    if abs(disc) > cap:
        raise ValueError(f"{name} must be at most {cap}, got {abs(disc)}")


def _class_polynomial_gate(disc: int):
    """(h, working precision) of the class polynomial of disc, whose |disc| the
    caller has checked, refusing one past the h * c cap before any j is computed."""
    from .arith import class_group_forms
    from .modular import _hcp_precision

    forms = class_group_forms(disc)
    bits, wp = _hcp_precision(disc, forms)
    if len(forms) * bits > _MAX_HCP_BITS:
        raise ValueError(f"class number * coefficient bits must be at most {_MAX_HCP_BITS}, "
                         f"got {len(forms)} * {bits} = {len(forms) * bits}")
    return len(forms), wp


def _cmd_attract(args, prec: int):
    c, inputs = _charge_from_args(args)
    _require_disc(4 * discriminant(c), "|4D|")
    ap = attractor_point(c)
    f = ap.form
    result = {
        "tau": _surd_str(ap.tau),
        "tau_decimal": _dec_c(ap.tau.to_mpc(prec), prec),
        "disc": str(ap.D),
        "form": {"a": str(f.a), "b": str(f.b), "c": str(f.c)},
        "class_number": str(ap.class_number),
        "entropy": _dec(entropy_invariant(c, prec), prec),
    }
    # exact recomputation from the inputs; the reduced form's own root may
    # differ from tau by a fundamental-domain translation
    quad = ap.tau * ap.tau * c.p2 - ap.tau * (2 * c.pq) + c.q2
    certs = [
        {"name": "tau_satisfies_charge_quadratic", "passed": quad == 0},
        {"name": "form_discriminant_is_4D", "passed": f.disc == 4 * ap.D},
    ]
    return inputs, result, certs


def _cmd_certify(args, prec: int):
    from .modular import _residual_precision, certify_attractor_cm

    c, inputs = _charge_from_args(args)
    _require_disc(4 * discriminant(c), "|4D|")
    ap = attractor_point(c)
    h, hcp_wp = _class_polynomial_gate(4 * ap.D)
    # the certificate's j kernel works 16 bits past its relative target
    work = _residual_precision(h, 4 * ap.D, ap.form.a, hcp_wp, prec) + 16
    if work > _MAX_CERTIFY_WORK:
        raise ValueError(f"the certificate's j working precision must be at most "
                         f"{_MAX_CERTIFY_WORK} bits, got {work}")
    cert = certify_attractor_cm(c, prec=prec)
    result = {
        "tau": _surd_str(cert.point.tau),
        "disc": str(cert.disc),
        "field_disc": str(cert.field_disc),
        "conductor": str(cert.conductor),
        "field_label": cert.field_label,
        "class_number": str(cert.class_number),
        "j": _dec_c(cert.j, prec),
        "hcp_degree": str(cert.hcp.class_number),
        "hcp_coeffs": [str(v) for v in cert.hcp.coeffs],
    }
    certs = [{
        "name": "class_polynomial_root",
        "residual": _dec_bound(cert.value),
        "error_bound": _dec_bound(cert.error_bound),
        "tolerance": _dec_bound(cert.tolerance),
        "passed": bool(cert.passed),
    }]
    return inputs, result, certs


def _cmd_hcp(args, prec: int):
    from .modular import (hcp_record_valid, hilbert_class_polynomial, load_hcp_cache,
                          store_hcp_cache)

    disc = args.disc
    _require_disc(disc, "|disc|")
    h, _ = _class_polynomial_gate(disc)
    coeffs = None
    if args.cache:
        directory = os.path.dirname(os.path.abspath(args.cache))
        if not os.path.isdir(directory):
            raise ValueError(f"--cache: directory {directory} does not exist")
        cache = load_hcp_cache(args.cache)
        coeffs = cache.get(disc)
        if coeffs is not None and not hcp_record_valid(disc, coeffs):
            print(f"warning: hcp cache record for {disc} fails its check; recomputing",
                  file=sys.stderr)
            coeffs = None
    if coeffs is None:
        # the coefficients are exact, so the proven bound, not --prec, sets the precision
        res = hilbert_class_polynomial(disc)
        coeffs = res.coeffs
        if args.cache:
            cache[disc] = coeffs
            store_hcp_cache(args.cache, cache)
    if args.csv:
        return ["power", "coeff"], enumerate(coeffs)
    inputs = {"disc": str(disc), "cache": args.cache}
    result = {
        "disc": str(disc),
        "degree": str(len(coeffs) - 1),
        "class_number": str(h),
        "coeffs": [str(v) for v in coeffs],
    }
    certs = [
        {"name": "degree_equals_class_number", "passed": len(coeffs) - 1 == h},
        {"name": "monic", "passed": coeffs[-1] == 1},
    ]
    return inputs, result, certs


def _cmd_jval(args, prec: int):
    from .modular import _frame, _j_precision, j_value_with_bound

    re, im = _parse_pair(args.tau, "--tau")
    frame = _frame(Fraction(re) + Fraction(im) * QuadraticSurd(0, 1), prec)   # exact, disc -1
    work = _j_precision(frame, prec)
    if work > _MAX_JVAL_WORK:
        raise ValueError(f"working precision prec + ceil(mag) + 14 must be at most "
                         f"{_MAX_JVAL_WORK} bits, got {work}")
    ev = j_value_with_bound(frame, prec)
    inputs = {"tau": args.tau}
    result = {
        "j": _dec_c(ev.j, prec),
        "error_bound": _dec_bound(ev.error_bound),
        "truncation_order": str(ev.truncation_order),
        "working_prec": str(ev.working_prec),
    }
    certs = [{"name": "certified_error_bound",
              "value": _dec_bound(ev.error_bound), "passed": True}]
    return inputs, result, certs


def _cmd_weber(args, prec: int):
    from .elliptic import model_from_tau, torsion_points, weber_function

    if args.n > _MAX_WEBER_N:
        raise ValueError(f"--n must be at most {_MAX_WEBER_N}, got {args.n}")
    work = (args.n * args.n - 1) * prec
    if work > _MAX_WEBER_WORK:
        raise ValueError(f"(n^2 - 1) * prec must be at most {_MAX_WEBER_WORK}, "
                         f"got {args.n * args.n - 1} * {prec} = {work}")
    c, inputs = _charge_from_args(args)
    inputs["n"] = str(args.n)
    ap = attractor_point(c)
    # the model's kernel runs at prec + 104 bits; its frame refuses an intractable height
    model = model_from_tau(ap.tau, prec=prec)
    # the Weber value and the residual's cubic depend on x alone, which the
    # partners +-P share, so each is computed once per distinct x
    rows, webers = [], {}
    for p in torsion_points(model, args.n):
        a, b = (int(v * args.n) for v in p.lattice_coords)
        if p.x._mpc_ not in webers:
            webers[p.x._mpc_] = weber_function(model, p)
        rows.append((a, b, p.x, p.y, webers[p.x._mpc_]))
    if args.csv:
        return (["a", "b", "x_re", "x_im", "y_re", "y_im", "weber_re", "weber_im"],
                [[a, b, *(_dec(v, prec) for z in (x, y, w) for v in (mp.re(z), mp.im(z)))]
                 for a, b, x, y, w in rows])
    result = {
        "tau": _surd_str(ap.tau),
        "j": _dec_c(model.j, prec),
        "n": str(args.n),
        "points": [{
            "a": str(a),
            "b": str(b),
            "x": _dec_c(x, prec),
            "y": _dec_c(y, prec),
            "weber": _dec_c(w, prec),
        } for a, b, x, y, w in rows],
    }
    # the residual is a difference of terms rounded at prec bits, so its bound
    # scales with the largest of them, and at least 1; partners +-P share x
    # and |y|, so one look per x finds it
    with mp.workprec(prec + 32):
        cubic, scale = {}, mp.mpf(1)
        for _, _, x, y, _ in rows:
            if x._mpc_ not in cubic:
                x3, ax, b = 4 * x**3, 4 * model.A * x, 4 * model.B
                cubic[x._mpc_] = x3 + ax + b
                scale = max(scale, abs(x3), abs(ax), abs(b), abs(2 * y) ** 2)
        worst = max(abs((2 * y) ** 2 - cubic[x._mpc_]) for _, _, x, y, _ in rows)
    bound = mp.ldexp(scale, -prec // 2 + 10)
    residual, jacobi_bound = model.jacobi   # |E4^3 - E6^2 - 1728 Delta| at tau', certified
    certs = [{
        "name": "wp_ode_max_residual",
        "value": _dec(worst, 64),
        "bound": _dec_bound(bound),
        "passed": bool(worst < bound),
    }, {
        "name": "jacobi_identity_residual",
        "value": _dec(residual, 64),
        "bound": _dec_bound(jacobi_bound),
        "passed": bool(residual <= jacobi_bound),
    }]
    return inputs, result, certs


def _cmd_curve(args, prec: int):
    from .jacobian import CurveSignature, decompose_jacobian, genus

    sig = CurveSignature(args.d, args.k, args.l)
    if sig.d * sig.a > _MAX_CURVE_WORK:
        raise ValueError(f"d * (d/k) must be at most {_MAX_CURVE_WORK}, got {sig.d * sig.a}")
    factors = decompose_jacobian(sig)
    g = genus(sig)
    if args.csv:
        return (["factor", "level", "dimension", "orbit_size"],
                [[i, f.level, f.dimension, len(f.orbit)] for i, f in enumerate(factors)])
    inputs = {"d": str(args.d), "k": str(args.k), "l": str(args.l)}
    recs = []
    for f in factors:
        rec = {
            "level": str(f.level),
            "dimension": str(f.dimension),
            "orbit_size": str(len(f.orbit)),
        }
        if args.orbits:
            rec["orbit"] = [[str(v) for v in idx] for idx in f.orbit]
            rec["cm_set"] = [str(a) for a in f.cm_set]
        recs.append(rec)
    result = {
        "genus": str(g),
        "num_factors": str(len(factors)),
        "factors": recs,
    }
    certs = [{"name": "dimensions_sum_to_genus",
              "passed": sum(f.dimension for f in factors) == g}]
    return inputs, result, certs


def _cmd_resolve(args, prec: int):
    from .cohomology import (SingularCurveDatum, hj_expand, hj_length, hj_reconstruct,
                             resolution_contributions)

    steps = hj_length(args.n, args.q)
    if steps > _MAX_HJ_STEPS:
        raise ValueError(f"the resolution must have at most {_MAX_HJ_STEPS} steps, got {steps}")
    res = hj_expand(args.n, args.q)
    if args.csv:
        return ["index", "step"], enumerate(res.steps)
    inputs = {"n": str(args.n), "q": str(args.q)}
    result = {
        "n": str(args.n),
        "q": str(args.q),
        "steps": [str(b) for b in res.steps],
        "num_spheres": str(res.num_spheres),
    }
    if args.genus is not None:
        inputs["genus"] = str(args.genus)
        d2, d3 = resolution_contributions(
            [SingularCurveDatum(args.genus, args.n, args.q)])
        result["delta_h2"] = str(d2)
        result["delta_h3"] = str(d3)
    certs = [{"name": "reconstruction_round_trip",
              "passed": hj_reconstruct(res.steps) == Fraction(args.n, args.q)}]
    return inputs, result, certs


def _cmd_fermat(args, prec: int):
    from .cohomology import fermat_hodge_numbers, fermat_primitive_dim

    bits = (args.dim + 2) * (args.d - 1).bit_length()
    if bits > _MAX_FERMAT_BITS:
        raise ValueError(f"(dim + 2) * bit_length(d - 1) must be at most {_MAX_FERMAT_BITS} "
                         f"bits, got {bits}")
    work = (args.dim + 1) * args.d * max(bits, 1024)
    if args.hodge and work > _MAX_HODGE_WORK:
        raise ValueError(f"--hodge: (dim + 1) * d * max(bits, 1024) must be at most "
                         f"{_MAX_HODGE_WORK}, got {work}")
    dim = fermat_primitive_dim(args.d, args.dim)
    hodge = fermat_hodge_numbers(args.d, args.dim) if args.hodge else None
    if args.csv:
        if hodge is None:
            raise ValueError("--csv requires --hodge (the tabular output)")
        return ["p", "hodge"], enumerate(hodge)
    inputs = {"d": str(args.d), "dim": str(args.dim)}
    result = {
        "d": str(args.d),
        "dim": str(args.dim),
        "primitive_dimension": str(dim),
    }
    certs = []
    if hodge is not None:
        result["hodge"] = [str(v) for v in hodge]
        certs.append({"name": "hodge_sums_to_primitive",
                      "passed": sum(hodge) == dim})
    return inputs, result, certs


def _cmd_sk_check(args, prec: int):
    from .cohomology import shioda_katsura_check

    chk = shioda_katsura_check(args.d, args.r, args.s)
    inputs = {"d": str(args.d), "r": str(args.r), "s": str(args.s)}
    result = {
        "d": str(args.d),
        "r": str(args.r),
        "s": str(args.s),
        "lhs_total": str(chk.lhs_total),
        "rhs_total": str(chk.rhs_total),
        "equal": chk.equal,
        "lhs_terms": [str(v) for v in chk.lhs_terms],
        "rhs_terms": [str(v) for v in chk.rhs_terms],
    }
    certs = [{"name": "dimension_identity", "passed": chk.equal}]
    return inputs, result, certs


def _cmd_flow(args, prec: int):
    from .flow import FlowConfig, export_trajectory, flow_integrate, trajectory_table

    if args.max_steps > _MAX_FLOW_STEPS:
        raise ValueError(f"--max-steps must be at most {_MAX_FLOW_STEPS}, got {args.max_steps}")
    c, inputs = _charge_from_args(args)
    tau0 = complex(*(float(v) for v in _parse_pair(args.tau0, "--tau0")))
    if not (math.isfinite(tau0.real) and math.isfinite(tau0.imag)):
        raise ValueError(f"--tau0: RE and IM must lie in the double range, got {args.tau0!r}")
    cfg = FlowConfig(step=args.step, tol=args.tol, max_steps=args.max_steps)
    res = flow_integrate(c, tau0, cfg)
    table = export_trajectory(res, args.trace) if args.trace else None
    if args.csv:
        return table or trajectory_table(res)
    inputs.update({"tau0": args.tau0, "step": _dec_f(cfg.step),
                   "tol": _dec_f(cfg.tol), "max_steps": str(cfg.max_steps)})
    if args.trace:
        inputs["trace"] = args.trace
    end = res.final_state
    cert = res.certificate
    result = {
        "tau_end": {"re": _dec_f(end.tau.real), "im": _dec_f(end.tau.imag)},
        "z2_end": _dec_f(end.Z2),
        "rho_end": _dec_f(end.rho),
        "u_end": _dec_f(end.U),
        "steps": str(res.steps),
        "converged": res.converged,
        "tau_exact": _surd_str(cert.tau_exact),
        "entropy_exact": _dec_f(cert.entropy_exact),
    }
    certs = [
        {"name": "endpoint_vs_exact_attractor", "passed": cert.endpoint_passed,
         "residual": _dec_f(cert.tau_error)},
        {"name": "entropy_vs_sqrt_disc", "passed": cert.entropy_passed,
         "residual": _dec_f(cert.entropy_error), "bound": _dec_f(cert.entropy_bound)},
        {"name": "central_charge_monotone", "passed": bool(cert.monotone),
         "max_increase": _dec_f(cert.max_z2_increase)},
        {"name": "converged", "passed": bool(res.converged)},
    ]
    return inputs, result, certs


def _add_charge_flags(sp):
    sp.add_argument("--p2", type=int, default=None, help="p.p invariant")
    sp.add_argument("--q2", type=int, default=None, help="q.q invariant")
    sp.add_argument("--pq", type=int, default=None, help="p.q invariant")
    sp.add_argument("--gram", default=None, help="JSON file with the Gram matrix")
    sp.add_argument("--p", default=None, help="comma-separated p vector")
    sp.add_argument("--q", default=None, help="comma-separated q vector")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call, so no
    caller may change it.

    Each subcommand binds its handler and whether it is tabular (--csv);
    every other subcommand refuses --csv.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec", type=int, default=None,
                        help=f"working precision in bits, 64 to {_MAX_PREC} "
                             "(default 256; env ATTRARITH_PREC)")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON envelope output (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV output where tabular")

    parser = argparse.ArgumentParser(
        prog="attrarith",
        description="attractor-point arithmetic: class fields, Weber values, "
                    "CM decompositions, resolutions, flows")
    sub = parser.add_subparsers(dest="cmd")

    def command(name, handler, summary, tabular=False):
        sp = sub.add_parser(name, parents=[common], help=summary)
        sp.set_defaults(handler=handler, tabular=tabular)
        return sp

    sp = command("attract", _cmd_attract, "exact attractor point, form, class data")
    _add_charge_flags(sp)

    sp = command("certify", _cmd_certify, "CM certificate: class polynomial root residual")
    _add_charge_flags(sp)

    sp = command("hcp", _cmd_hcp, "Hilbert class polynomial", tabular=True)
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--cache", default=None, help="JSON cache file path")

    sp = command("jval", _cmd_jval, "j(tau) with certified error bound")
    sp.add_argument("--tau", required=True, metavar="RE,IM")

    sp = command("weber", _cmd_weber,
                 "Weber values at torsion points of the attractor curve", tabular=True)
    _add_charge_flags(sp)
    sp.add_argument("--n", type=int, required=True,
                    help=f"torsion order, at most {_MAX_WEBER_N}")

    sp = command("curve", _cmd_curve,
                 "CM decomposition of a Brieskorn-Pham Jacobian", tabular=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--orbits", action="store_true", help="include orbits and CM sets")

    sp = command("resolve", _cmd_resolve,
                 "Hirzebruch-Jung resolution of a cyclic singularity", tabular=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--genus", type=int, default=None,
                    help="genus of the singular curve, adds cohomology shifts")

    sp = command("fermat", _cmd_fermat,
                 "primitive cohomology of a Fermat hypersurface", tabular=True)
    sp.add_argument("--d", type=int, required=True, help="degree")
    sp.add_argument("--dim", type=int, required=True, help="dimension n")
    sp.add_argument("--hodge", action="store_true", help="include Hodge numbers")

    sp = command("sk-check", _cmd_sk_check, "dimension check of the inductive Fermat identity")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = command("flow", _cmd_flow, "integrate the attractor flow from tau0", tabular=True)
    _add_charge_flags(sp)
    sp.add_argument("--tau0", required=True, metavar="RE,IM")
    sp.add_argument("--trace", default=None, help="write trajectory CSV here")
    sp.add_argument("--step", type=float, default=1e-2)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-steps", type=int, default=_MAX_FLOW_STEPS, dest="max_steps")

    return parser


def _render(o, pad: str = "\n") -> str:
    """o in the bytes json.dumps writes at an indent of 2 with ensure_ascii off.

    Strings and dict keys (which must be str) go through the C escaper
    json.dumps uses, containers keep their order, and any other value, such
    as a float, is handed to json.dumps, so it renders or raises as there.
    """
    if isinstance(o, str):
        return encode_basestring(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [encode_basestring(v) if v.__class__ is str else _render(v, inner) for v in o]
        ) + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [encode_basestring(k) + ": " + _render(v, inner) for k, v in o.items()]
        ) + pad + "}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return json.dumps(o)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        prec = args.prec if args.prec is not None else int(
            os.environ.get("ATTRARITH_PREC", _DEFAULT_PREC))
        if not 64 <= prec <= _MAX_PREC:
            raise ValueError(f"precision must be between 64 and {_MAX_PREC} bits, got {prec}")
        if args.csv and not args.tabular:
            raise ValueError(f"{args.cmd} has no tabular output; use --json")
        out = args.handler(args, prec)
        if args.csv:
            header, rows = out
            sys.stdout.writelines(",".join(map(str, row)) + "\n" for row in [header, *rows])
        else:
            inputs, result, certificates = out
            print(_render({"command": args.cmd, "inputs": inputs, "result": result,
                           "certificates": certificates, "precision_bits": prec}))
        sys.stdout.flush()
    except ComputationFailure as exc:
        print(f"attrarith {args.cmd}: computation failed: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout; devnull takes the rest, so exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (AttrarithError, ValueError, OSError) as exc:
        print(f"attrarith {args.cmd}: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
