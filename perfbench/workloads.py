"""Seeded workloads of the attrarith benchmark: inputs, operations and output checks.

Each workload draws its operations from a fixed universe of inputs whose
reference outputs and seed-code costs sit in reference.json (made by
make_reference.py).  The inputs are cut into strata of similar cost.  A run
is a sequence of passes; a pass draws one input from every stratum with the
run's seeded RNG and shuffles them, so every seed shares one cost profile
while drawing different inputs, and the library only ever sees the inputs.

Nothing here imports attrarith at module level: the worker puts the checkout's
src/ on sys.path first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Fixed seed of the input universes (not of a run): changing it voids reference.json.
UNIVERSE_SEED = 2003

HCP_DISCS = tuple(d for d in range(-3, -401, -1) if d % 4 in (0, 1))
# Inputs slower than these caps on the seed code are left out (hcp: 37 discriminants
# with class numbers 9 to 19, up to 4.8 s each), so that one run holds over 100 operations.
HCP_COST_CAP_MS = 320.0
HCP_STRATUM_SIZE = 2

J_PRECS = (1024, 4096, 8192)
HIGHPREC_CERTIFY_CAP_MS = 400.0
TORSION_COST_CAP_MS = 350.0
TORSION_STRATUM_SIZE = 6
TAU_DENOM = 2**20
TORSION_ORDERS = (2, 3, 4, 5, 6, 7)
TORSION_PREC = 256
CLI_PREC = 256
FLOW_TAU0 = complex(0.35, 1.45)
FLOW_TOL_TAU = 1e-6          # fixed distance of the flow endpoint from tau*


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def coeffs_digest(coeffs) -> str:
    """Hash of an integer coefficient list, as decimal strings joined by commas."""
    return _sha(",".join(str(int(c)) for c in coeffs))


def json_digest(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True, ensure_ascii=False))


# --------------------------------------------------------------------------
# input universes


def tau_pool() -> list[tuple[int, int]]:
    """24 points (a, b) meaning tau = (a + b i) / 2^20; 16 lie far from the fundamental domain."""
    rng = random.Random(UNIVERSE_SEED)
    d = TAU_DENOM
    near = [(rng.randint(-d // 2, d // 2), rng.randint(9 * d // 10, 3 * d)) for _ in range(8)]
    far = [(rng.randint(-20 * d, 20 * d), rng.randint(d // 50, d // 2)) for _ in range(16)]
    return near + far


def tau_decimal(a: int) -> str:
    """Exact decimal string of a / 2^20."""
    sign = "-" if a < 0 else ""
    whole, frac = divmod(abs(a) * 5**20, 10**20)
    return f"{sign}{whole}.{frac:020d}".rstrip("0").rstrip(".")


def charge_disc(c) -> int:
    p2, q2, pq = c
    return pq * pq - p2 * q2


def charge_pool() -> list[tuple[int, int, int]]:
    """32 charges (p2, q2, pq) with -100 <= D < 0; ten of them have |D| <= 25."""
    every = sorted({(p2, q2, pq) for p2 in range(1, 9) for pq in range(-6, 7)
                    for q2 in range(1, 120) if -100 <= pq * pq - p2 * q2 <= -1})
    small = [c for c in every if charge_disc(c) >= -25]
    large = [c for c in every if charge_disc(c) < -25]
    rng = random.Random(UNIVERSE_SEED + 1)
    return rng.sample(small, 10) + rng.sample(large, 22)


def flow_charges(n_charges: int = 20) -> list[tuple[int, int, int]]:
    """The flow charge set: (2,3,1), (1,1,0), (3,5,2), then a fixed sweep."""
    charges = [(2, 3, 1), (1, 1, 0), (3, 5, 2)]
    k = 0
    while len(charges) < n_charges:
        p2 = 1 + k % 7
        pq = (k * 5) % 11 - 5
        charges.append((p2, pq * pq // p2 + 1 + k % 5, pq))
        k += 1
    return charges[:n_charges]


def _charge_flags(c) -> list[str]:
    return ["--p2", str(c[0]), "--q2", str(c[1]), "--pq", str(c[2])]


def cli_pools() -> dict[str, list[tuple[str, ...]]]:
    """argv tuples per subcommand, all on small inputs that succeed."""
    curves = []
    for d in (6, 10, 12, 15, 18, 20, 24, 30):
        divs = [k for k in range(1, d + 1) if d % k == 0]
        for k in divs:
            for l in divs:
                if k < l and math.gcd(k, l) == 1 and k > 1:
                    curves.append((d, k, l))
    curve = [("curve", "--d", str(d), "--k", str(k), "--l", str(l))
             + (("--orbits",) if i % 2 else ())
             for i, (d, k, l) in enumerate(curves)]
    resolve = []
    for i, n in enumerate((5, 7, 12, 17, 23, 31, 40, 53)):
        for q in (2, 3, n - 1):
            if 1 <= q < n and math.gcd(n, q) == 1:
                genus = ("--genus", str(i % 3)) if q != 2 else ()
                resolve.append(("resolve", "--n", str(n), "--q", str(q)) + genus)
    fermat = [("fermat", "--d", str(d), "--dim", str(m), "--hodge")
              for d in range(2, 8) for m in (1, 2, 3)]
    sk = [("sk-check", "--d", str(d), "--r", str(r), "--s", str(s))
          for d in range(3, 7) for r in (1, 2) for s in (1, 2)]
    charges = charge_pool()
    attract = [("attract",) + tuple(_charge_flags(c)) for c in charges]
    taus = tau_pool()
    jval = [("jval", f"--tau={tau_decimal(a)},{tau_decimal(b)}", "--prec", str(CLI_PREC))
            for a, b in taus]
    weber = [("weber",) + tuple(_charge_flags(c)) + ("--n", "3") for c in charges]
    hcp = [("hcp", "--disc", str(d)) for d in HCP_DISCS if d >= -100]
    certify = [("certify",) + tuple(_charge_flags(c)) for c in charges
               if 4 * charge_disc(c) >= -100]
    x0, y0 = FLOW_TAU0.real, FLOW_TAU0.imag
    flow = [("flow",) + tuple(_charge_flags(c))
            + ("--tau0", f"{x0},{y0}", "--step", "0.01", "--tol", "1e-12")
            for c in flow_charges()]
    return {"flow": flow, "curve": curve, "resolve": resolve, "fermat": fermat,
            "sk-check": sk, "attract": attract, "jval": jval, "weber": weber,
            "hcp": hcp, "certify": certify}


# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    """Strata of inputs of similar cost; a pass draws one input from each."""

    strata: tuple
    warmup: tuple       # ops run untimed before READY, the same for every seed

    def passes(self, seed: int):
        """Endless seeded sequence of passes (lists of ops)."""
        rng = random.Random(seed)
        while True:
            ops = [rng.choice(s) for s in self.strata]
            rng.shuffle(ops)
            yield ops


def _by_cost(costed, n_strata: int) -> list[tuple]:
    """Cut (cost, op) pairs, sorted by cost, into n_strata runs of near-equal size."""
    ops = [op for _, op in sorted(costed)]
    edges = [round(i * len(ops) / n_strata) for i in range(n_strata + 1)]
    return [tuple(ops[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def _uniform(costed, stratum_size: int) -> Workload:
    """Every input equally likely: strata of stratum_size neighbours in cost.

    The warm-up runs the costliest input.
    """
    strata = _by_cost(costed, len(costed) // stratum_size)
    return Workload(tuple(strata), (strata[-1][-1],))


# highprec and cli-mix mix kinds of operation whose seed-code costs differ by up
# to 80x.  Each kind gets the same share of a pass's seed-code time, so no kind
# is drowned out: the costliest kind is drawn COSTLIEST_DRAWS times per pass,
# from that many cost strata, and every other kind as often as fits in the same
# time.  A kind with fewer inputs than draws takes each input equally often.
COSTLIEST_DRAWS = 2


def _equal_share(kinds: dict) -> Workload:
    """Strata giving each kind (name: [(cost_ms, op), ...]) an equal share of pass time.

    The warm-up runs the costliest input of every kind.
    """
    means = {k: sum(c for c, _ in costed) / len(costed) for k, costed in kinds.items()}
    share = COSTLIEST_DRAWS * max(means.values())
    strata = []
    for kind, costed in kinds.items():
        draws = max(1, round(share / means[kind]))
        n_strata = min(draws, len(costed))
        strata += _by_cost(costed, n_strata) * max(1, round(draws / n_strata))
    return Workload(tuple(strata), tuple(max(costed)[1] for costed in kinds.values()))


def op_kind(op) -> str:
    """hcp, j1024, j4096, j8192, certify, torsion, or the CLI subcommand of op."""
    if op[0] == "cli":
        return op[1][0]
    return f"j{op[2]}" if op[0] == "j" else op[0]


def op_cost_ms(ref, op) -> float:
    """Seed-code time of op, from reference.json."""
    kind = op[0]
    if kind == "hcp":
        return ref["hcp"][str(op[1])]["cost_ms"]
    if kind == "j":
        return ref["taus"][op[1]][5][str(op[2])]
    if kind == "certify":
        return ref["charges"][op[1]]["certify_ms"]
    if kind == "torsion":
        c = ref["charges"][op[1]]["charge"]
        return ref["torsion_ms"][f"{c[0]},{c[1]},{c[2]},{op[2]}"]
    return ref["cli_ms"][" ".join(op[1])]


def _costed(ref, ops, cap_ms=float("inf")) -> list:
    """(seed-code cost, op) pairs of the ops that cost at most cap_ms."""
    return [(c, op) for c, op in ((op_cost_ms(ref, op), op) for op in ops) if c <= cap_ms]


def _hcp_workload(ref) -> Workload:
    return _uniform(_costed(ref, [("hcp", d) for d in HCP_DISCS], HCP_COST_CAP_MS),
                    HCP_STRATUM_SIZE)


def _highprec_workload(ref) -> Workload:
    n_taus, n_charges = len(ref["taus"]), len(ref["charges"])
    kinds = {f"j{prec}": _costed(ref, [("j", i, prec) for i in range(n_taus)])
             for prec in J_PRECS}
    kinds["certify"] = _costed(ref, [("certify", i) for i in range(n_charges)],
                               HIGHPREC_CERTIFY_CAP_MS)
    return _equal_share(kinds)


def _torsion_workload(ref) -> Workload:
    ops = [("torsion", i, n) for i in range(len(ref["charges"])) for n in TORSION_ORDERS]
    return _uniform(_costed(ref, ops, TORSION_COST_CAP_MS), TORSION_STRATUM_SIZE)


def _cli_workload(ref) -> Workload:
    return _equal_share({cmd: _costed(ref, [("cli", argv) for argv in pool])
                         for cmd, pool in cli_pools().items()})


WORKLOAD_NAMES = ("hcp", "highprec", "torsion", "cli-mix")
_BUILDERS = {"hcp": _hcp_workload, "highprec": _highprec_workload,
             "torsion": _torsion_workload, "cli-mix": _cli_workload}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def build(name: str, ref: dict) -> Workload:
    return _BUILDERS[name](ref)


def pass_time_by_kind(ref: dict, name: str) -> dict:
    """Expected seed-code ms of one pass of the named workload, by op kind."""
    out = {}
    for stratum in build(name, ref).strata:
        kind = op_kind(stratum[0])
        out[kind] = out.get(kind, 0.0) + sum(op_cost_ms(ref, op) for op in stratum) / len(stratum)
    return out


# --------------------------------------------------------------------------
# running operations


class Runner:
    """Executes ops against the imported library.

    Library functions are looked up on their modules at call time, so the
    span wrappers installed for a traced run see every call.
    """

    def __init__(self, ref: dict):
        import mpmath as mp

        from attrarith import attractor, cli, elliptic, modular

        self.mp = mp
        self.attractor = attractor
        self.cli = cli
        self.elliptic = elliptic
        self.modular = modular
        self.taus = [tuple(t[:2]) for t in ref["taus"]]
        self.charges = [attractor.ChargeData(*ch["charge"]) for ch in ref["charges"]]
        self.stdout_bytes = 0

    def tau(self, i: int):
        mp = self.mp
        a, b = self.taus[i]
        return mp.mpc(mp.mpf(a) / TAU_DENOM, mp.mpf(b) / TAU_DENOM)

    def __call__(self, op):
        kind = op[0]
        if kind == "hcp":
            return self.modular.hilbert_class_polynomial(op[1])
        if kind == "j":
            return self.modular.j_value_with_bound(self.tau(op[1]), op[2])
        if kind == "certify":
            return self.modular.certify_attractor_cm(self.charges[op[1]])
        if kind == "torsion":
            e = self.elliptic
            point = self.attractor.attractor_point(self.charges[op[1]])
            model = e.model_from_tau(point.tau, prec=TORSION_PREC)
            pts = e.torsion_points(model, op[2])
            return model, pts, [e.weber_function(model, p) for p in pts]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(list(op[1]))
            text = out.getvalue()
            self.stdout_bytes += len(text.encode())
            return code, text
        raise ValueError(f"unknown op {op!r}")


# --------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _mpc(mp, re: str, im: str):
    return mp.mpc(mp.mpf(re), mp.mpf(im))


def _dps_error(mp, s: str):
    """Half an ulp of the last printed digit of the decimal string s."""
    mant = s.lstrip("-").split("e")[0]
    exp = int(s.split("e")[1]) if "e" in s else 0
    frac_digits = len(mant.split(".")[1]) if "." in mant else 0
    return mp.mpf(10) ** (exp - frac_digits) / 2


def weber_digest(mp, webers):
    """Index-weighted sum of Weber values and its magnitude scale."""
    total = mp.mpc(0)
    scale = mp.mpf(0)
    for k, w in enumerate(webers):
        total += (k + 1) * w
        scale += (k + 1) * max(mp.mpf(1), abs(w))
    return total, scale


def _check_j(mp, ref_tau, jv, bound, extra=0):
    j_re, j_im, bound_ref = ref_tau[2], ref_tau[3], ref_tau[4]
    with mp.workprec(8192 + 256):
        j_ref = _mpc(mp, j_re, j_im)
        slack = _dps_error(mp, j_re) + _dps_error(mp, j_im)
        diff = abs(mp.mpc(jv) - j_ref)
        _require(diff <= mp.mpf(bound) + mp.mpf(bound_ref) + slack + extra,
                 f"|j - j_ref| = {mp.nstr(diff, 5)} exceeds the certified bounds")


def _check_weber(mp, key, webers, ref, extra_rel=0):
    ref_re, ref_im = ref["weber"][key]
    with mp.workprec(TORSION_PREC + 64):
        total, scale = weber_digest(mp, webers)
        tol = scale * (mp.mpf(2) ** (-(TORSION_PREC // 2) + 10) + extra_rel)
        diff = abs(total - _mpc(mp, ref_re, ref_im))
        _require(diff <= tol, f"Weber digest {key} off by {mp.nstr(diff, 5)}")


def _check_torsion(mp, ref, op, out):
    model, pts, webers = out
    n = op[2]
    _require(len(pts) == n * n - 1 == len(webers), "wrong number of torsion points")
    _require(len({p.lattice_coords for p in pts}) == len(pts), "repeated torsion point")
    with mp.workprec(TORSION_PREC + 32):
        bound = mp.mpf(2) ** (-(TORSION_PREC // 2) + 10)
        for p in pts:
            resid = abs((2 * p.y) ** 2 - (4 * p.x**3 + 4 * model.A * p.x + 4 * model.B))
            _require(resid < bound, "torsion point misses the wp ODE bound")
    c = ref["charges"][op[1]]["charge"]
    _check_weber(mp, f"{c[0]},{c[1]},{c[2]},{n}", webers, ref)


def _check_certify_fields(mp, ref, idx, disc, coeffs, h, j, passed):
    ch = ref["charges"][idx]
    _require(passed, "certificate did not pass")
    _require(disc == 4 * ch["D"], "wrong discriminant")
    href = ref["hcp"][str(disc)]
    _require(coeffs_digest(coeffs) == href["coeffs_sha256"], f"H_{disc} coefficients differ")
    _require(h == href["h"], "wrong class number")
    with mp.workprec(300):
        j_ref = _mpc(mp, ch["j_re"], ch["j_im"])
        tol = max(mp.mpf(1), abs(j_ref)) * mp.mpf(10) ** -55
        _require(abs(mp.mpc(j) - j_ref) <= tol, "certified j differs from the reference")


def _check_cli(mp, ref, argv, out):
    code, text = out
    _require(code == 0, f"exit code {code}")
    env = json.loads(text)
    for cert in env["certificates"]:
        _require(cert.get("passed", True) is True, f"certificate {cert['name']} failed")
    cmd = argv[0]
    res = env["result"]
    key = " ".join(argv)
    if cmd in ("curve", "resolve", "fermat", "sk-check"):
        _require(json_digest(res) == ref["cli"][key], f"{cmd} output differs")
    elif cmd == "attract":
        exact = {k: res[k] for k in ("tau", "disc", "form", "class_number")}
        _require(json_digest(exact) == ref["cli"][key], "attract output differs")
        with mp.workprec(CLI_PREC + 32):
            root = mp.sqrt(-int(res["disc"]))
            _require(abs(mp.mpf(res["entropy"]) - root) <= root * mp.mpf(2) ** (8 - CLI_PREC),
                     "entropy differs from sqrt|D|")
    elif cmd == "hcp":
        href = ref["hcp"][res["disc"]]
        _require(coeffs_digest(res["coeffs"]) == href["coeffs_sha256"], "hcp coefficients differ")
        _require(int(res["class_number"]) == href["h"] == int(res["degree"]), "hcp degree")
    elif cmd == "certify":
        flags = dict(zip(argv[1::2], argv[2::2]))
        c = (int(flags["--p2"]), int(flags["--q2"]), int(flags["--pq"]))
        idx = [tuple(ch["charge"]) for ch in ref["charges"]].index(c)
        with mp.workprec(CLI_PREC + 32):
            j = _mpc(mp, res["j"]["re"], res["j"]["im"])
        _check_certify_fields(mp, ref, idx, int(res["disc"]), res["hcp_coeffs"],
                              int(res["class_number"]), j, True)
    elif cmd == "jval":
        a, b = (Fraction(v) for v in argv[1].split("=", 1)[1].split(","))
        idx = ref_tau_index(ref, a, b)
        with mp.workprec(CLI_PREC + 64):
            j = _mpc(mp, res["j"]["re"], res["j"]["im"])
            # the envelope rounds j to prec + 8 bits, prints decimals and a 64-bit bound
            rendered = (abs(j) * mp.mpf(2) ** -CLI_PREC + _dps_error(mp, res["j"]["re"])
                        + _dps_error(mp, res["j"]["im"]) + mp.mpf(res["error_bound"]) / 2**20)
        _check_j(mp, ref["taus"][idx], j, res["error_bound"], rendered)
    elif cmd == "weber":
        flags = dict(zip(argv[1::2], argv[2::2]))
        n = int(flags["--n"])
        _require(len(res["points"]) == n * n - 1, "wrong number of Weber points")
        with mp.workprec(TORSION_PREC + 64):
            webers = [_mpc(mp, p["weber"]["re"], p["weber"]["im"]) for p in res["points"]]
        key = f"{flags['--p2']},{flags['--q2']},{flags['--pq']},{n}"
        _check_weber(mp, key, webers, ref, mp.mpf(10) ** -(int(CLI_PREC * 0.30103) + 6))
    elif cmd == "flow":
        flags = dict(zip(argv[1::2], argv[2::2]))
        p2, q2, pq = int(flags["--p2"]), int(flags["--q2"]), int(flags["--pq"])
        d = pq * pq - p2 * q2
        star = complex(pq / p2, math.sqrt(-d) / p2)
        end = complex(float(res["tau_end"]["re"]), float(res["tau_end"]["im"]))
        _require(res["converged"] is True, "flow did not converge")
        _require(abs(end - star) <= FLOW_TOL_TAU, "flow endpoint far from tau*")
    else:
        raise CheckFailed(f"no check for {cmd}")


def ref_tau_index(ref, a: Fraction, b: Fraction) -> int:
    want = (int(a * TAU_DENOM), int(b * TAU_DENOM))
    for i, t in enumerate(ref["taus"]):
        if (t[0], t[1]) == want:
            return i
    raise CheckFailed("tau not in the reference pool")


def check(mp, ref: dict, op, out) -> None:
    """Raise CheckFailed unless out is a correct result of op."""
    if isinstance(out, BaseException):
        raise CheckFailed(f"raised {type(out).__name__}: {out}")
    kind = op[0]
    if kind == "hcp":
        href = ref["hcp"][str(op[1])]
        _require(coeffs_digest(out.coeffs) == href["coeffs_sha256"], f"H_{op[1]} differs")
        _require(out.class_number == href["h"], "wrong class number")
        _require(out.residual < 0.25, "rounding residual gate")
    elif kind == "j":
        _check_j(mp, ref["taus"][op[1]], out.j, out.error_bound)
        _require(out.error_bound < mp.mpf(2) ** (-(op[2] // 2)), "j bound misses its target")
    elif kind == "certify":
        _check_certify_fields(mp, ref, op[1], out.disc, out.hcp.coeffs,
                              out.class_number, out.j, out.passed)
    elif kind == "torsion":
        _check_torsion(mp, ref, op, out)
    elif kind == "cli":
        _check_cli(mp, ref, op[1], out)
    else:
        raise CheckFailed(f"unknown op {op!r}")
