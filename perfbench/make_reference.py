"""Regenerate perfbench/reference.json from the library in this checkout.

The reference holds exact-output hashes, certified reference values and
per-input seed costs for every input the workloads can draw.  It was made
once from the seed code; regenerate it only when the input universes in
workloads.py change, and never to absorb an output change of the library.

Usage: python3 perfbench/make_reference.py [--check]   (a few minutes, one core)

--check only runs every input once and checks it against the stored reference.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath as mp  # noqa: E402

import workloads as wl  # noqa: E402
from attrarith import modular  # noqa: E402
from attrarith.attractor import ChargeData  # noqa: E402

REF_J_PREC = 8192


def _cost(fn, *args, repeat=2):
    """Result and least time in ms of `repeat` calls."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, round(best * 1000, 3)


def hcp_table() -> dict:
    table = {}
    for d in wl.HCP_DISCS:          # first pass fills the q-series table
        res = modular.hilbert_class_polynomial(d)
        table[str(d)] = {"h": res.class_number, "coeffs_sha256": wl.coeffs_digest(res.coeffs)}
    for d in wl.HCP_DISCS:
        res, ms = _cost(modular.hilbert_class_polynomial, d)
        assert wl.coeffs_digest(res.coeffs) == table[str(d)]["coeffs_sha256"]
        table[str(d)]["cost_ms"] = ms
    return table


def _digits(x) -> str:
    """x to ~1250 digits after the point: below any bound of a 8192-bit j."""
    mag = max(1, int(mp.log10(max(abs(x), 1))) + 1)
    return mp.nstr(x, mag + 1250, strip_zeros=False)


def tau_table() -> list:
    rows = []
    for a, b in wl.tau_pool():
        with mp.workprec(REF_J_PREC + 64):
            tau = mp.mpc(mp.mpf(a) / wl.TAU_DENOM, mp.mpf(b) / wl.TAU_DENOM)
            costs = {str(p): _cost(modular.j_value_with_bound, tau, p)[1] for p in wl.J_PRECS}
            ev = modular.j_value_with_bound(tau, REF_J_PREC)
            bound = mp.nstr(ev.error_bound * (1 + mp.mpf(10) ** -8), 12)
            rows.append([a, b, _digits(ev.j.real), _digits(ev.j.imag), bound, costs])
    return rows


def charge_table() -> list:
    rows = []
    for c in wl.charge_pool():
        cert, ms = _cost(modular.certify_attractor_cm, ChargeData(*c))
        assert cert.passed
        rows.append({"charge": list(c), "D": wl.charge_disc(c),
                     "j_re": mp.nstr(cert.j.real, 60), "j_im": mp.nstr(cert.j.imag, 60),
                     "certify_ms": ms})
    return rows


def weber_table() -> tuple[dict, dict]:
    """Weber digests and torsion-op costs, both keyed 'p2,q2,pq,n'."""
    runner = wl.Runner({"taus": [], "charges": [{"charge": c} for c in wl.charge_pool()]})
    digests, costs = {}, {}
    for i, c in enumerate(wl.charge_pool()):
        for n in wl.TORSION_ORDERS:
            (_, _, webers), ms = _cost(runner, ("torsion", i, n))
            key = f"{c[0]},{c[1]},{c[2]},{n}"
            with mp.workprec(wl.TORSION_PREC + 64):
                total, _ = wl.weber_digest(mp, webers)
                digests[key] = [mp.nstr(total.real, 50), mp.nstr(total.imag, 50)]
            costs[key] = ms
    return digests, costs


def cli_table() -> tuple[dict, dict]:
    """Exact-output hashes and costs, both keyed by the argv joined with spaces."""
    runner = wl.Runner({"taus": [], "charges": []})
    digests, costs = {}, {}
    for cmd, pool in wl.cli_pools().items():
        for argv in pool:
            key = " ".join(argv)
            (code, text), costs[key] = _cost(runner, ("cli", argv))
            assert code == 0, argv
            res = json.loads(text)["result"]
            if cmd in ("curve", "resolve", "fermat", "sk-check"):
                digests[key] = wl.json_digest(res)
            elif cmd == "attract":
                exact = {k: res[k] for k in ("tau", "disc", "form", "class_number")}
                digests[key] = wl.json_digest(exact)
    return digests, costs


def self_check(ref: dict) -> None:
    """Every input of every workload passes its own output check."""
    runner = wl.Runner(ref)
    for name in wl.WORKLOAD_NAMES:
        work = wl.build(name, ref)
        seen = {op for stratum in work.strata for op in stratum}
        for op in sorted(seen, key=repr):
            if op[0] != "j" or op[2] != REF_J_PREC:  # 8192-bit j is the reference itself
                wl.check(mp, ref, op, runner(op))
        print(f"{name}: {len(seen)} inputs", file=sys.stderr)


def main() -> None:
    if sys.argv[1:] == ["--check"]:
        self_check(wl.load_reference())
        return
    ref = {"universe_seed": wl.UNIVERSE_SEED}
    for key, make in (("hcp", hcp_table), ("taus", tau_table), ("charges", charge_table),
                      ("weber", weber_table), ("cli", cli_table)):
        t0 = time.perf_counter()
        ref[key] = make()
        print(f"{key}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    ref["weber"], ref["torsion_ms"] = ref["weber"]
    ref["cli"], ref["cli_ms"] = ref["cli"]
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    self_check(ref)


if __name__ == "__main__":
    main()
