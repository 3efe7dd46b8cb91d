"""Fuzz of the subcommands `curve`, `fermat`, `sk-check`, `resolve`, `hcp`,
`certify`, `attract`, `jval` and `weber`: bounded random input, plus sizes on
both sides of each work gate (`flow` has its own fuzz test).

Every run must end in exit 0, 2 or 3 with at most one line on stderr, and a
run that exits 0 must print a parseable JSON envelope, or under --csv a table
whose rows all have the header's width.
"""

import contextlib
import csv
import io
import json
import time
import warnings

import pytest

from attrarith.cli import run

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENVELOPE_KEYS = {"command", "inputs", "result", "certificates", "precision_bits"}
SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
# certify and weber evaluate j and the torsion series on every input
SETTINGS_SLOW = hypothesis.settings(max_examples=25, deadline=None, derandomize=True)


def exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([str(v) for v in argv])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--csv" in argv:
        header, *rows = csv.reader(io.StringIO(out.getvalue()))
        assert all(len(row) == len(header) for row in rows)
    elif code == 0:
        env = json.loads(out.getvalue())
        assert set(env) == ENVELOPE_KEYS and env["command"] == argv[0]
    return code


def flags(draw, *names):
    """--csv and the given store-true flags, each present or not."""
    return [name for name in ("--csv", *names) if draw(st.booleans())]


@st.composite
def curve_argv(draw):
    d = draw(st.integers(-2, 48) | st.sampled_from([354, 125_000, 125_001, 10**12]))
    # k = 1 makes d * a = d^2, past the gate from d = 354 on; k = d makes a = 1
    k = draw(st.integers(-2, 48) | st.sampled_from([1, d]))
    l = draw(st.integers(-2, 48) | st.sampled_from([1, d]))
    return ["curve", "--d", d, "--k", k, "--l", l, *flags(draw, "--orbits")]


@st.composite
def fermat_argv(draw):
    # (1000, 1426) and (3, 7140) are the last dims under the 14284-bit gate and
    # (1000, 1427) and (3, 7141) the first past it; (1000, 450) and (2*10^6, 0)
    # are just past the --hodge work gate
    d, n = draw(st.tuples(st.integers(-1, 40), st.integers(-2, 14))
                | st.sampled_from([(1000, 1426), (1000, 1427), (3, 7140), (3, 7141),
                                   (1000, 450), (2 * 10**6, 0), (10**13, 0),
                                   (1000, 10**12)]))
    return ["fermat", "--d", d, "--dim", n, *flags(draw, "--hodge")]


@st.composite
def sk_check_argv(draw):
    d, r, s = (draw(st.integers(-2, 8) | st.just(10**12)) for _ in range(3))
    return ["sk-check", "--d", d, "--r", r, "--s", s]


@st.composite
def resolve_argv(draw):
    # hj_expand(n, n - 1) takes n - 1 steps, so random n stay small; (300001, 300000)
    # is the last step count under the 300 000-step gate and the others are past it
    n, q = draw(st.tuples(st.integers(-2, 10**4), st.integers(-2, 10**4))
                | st.sampled_from([(300002, 300001), (10**9, 10**9 - 1),
                                   (10**12 + 1, 10**12)]))
    q = draw(st.just(q) | st.sampled_from([n - 1, 1]))
    genus = draw(st.none() | st.integers(-2, 10**12))
    tail = [] if genus is None else ["--genus", genus]
    return ["resolve", "--n", n, "--q", q, *tail, *flags(draw)]


def prec_flags(draw):
    prec = draw(st.sampled_from([None, None, None, 64, 128, 256, 32, 8193]))
    return [] if prec is None else ["--prec", prec]


@st.composite
def hcp_argv(draw):
    # -126604 (h c = 703 560) is just past the class-polynomial gate and
    # -40000004 just past the |disc| gate
    disc = draw(st.integers(-3000, 3) | st.sampled_from([-126604, -4000004, -40000004,
                                                         -10**12]))
    return ["hcp", "--disc", disc, *prec_flags(draw), *flags(draw)]


# (1, 10^7 + 1, 0) is just past the |4D| = 4 * 10^7 gate of attract and certify
PAST_DISC_GATE = [(1, 10**7 + 1, 0), (1, 10**11 + 1, 0)]


@st.composite
def attractor_charge(draw, size):
    """(p2, q2, pq) with p2 > 0 and D = pq^2 - p2 q2 < 0, |D| below about 8 size."""
    p2, pq = draw(st.integers(1, 8)), draw(st.integers(-8, 8))
    return p2, pq * pq // p2 + draw(st.integers(1, size)), pq


def charge_flags(draw, size, past):
    """--p2 --q2 --pq: an attractor charge, any small triple, or one of past."""
    p2, q2, pq = draw(attractor_charge(size)
                      | st.tuples(st.integers(-2, 8), st.integers(-2, 60), st.integers(-8, 8))
                      | st.sampled_from(past))
    return ["--p2", p2, "--q2", q2, "--pq", pq]


@st.composite
def attract_argv(draw):
    return ["attract", *charge_flags(draw, 10**4, PAST_DISC_GATE), *prec_flags(draw)]


@st.composite
def certify_argv(draw):
    # (1, 11500, 0) is past the certificate's j precision gate and (1, 31700, 0)
    # past the class-polynomial gate
    past = [*PAST_DISC_GATE, (1, 11500, 0), (1, 31700, 0)]
    return ["certify", *charge_flags(draw, 30, past), *prec_flags(draw)]


@st.composite
def jval_argv(draw):
    x = draw(st.floats(-20, 20))
    y = draw(st.floats(0.001, 50) | st.sampled_from([-1.0, 0.0, 1e-6, 1e400]))
    tau = draw(st.just(f"{x!r},{y!r}") | st.sampled_from(["1+2j", "0.5,nan", "0,1e-1000000"]))
    return ["jval", f"--tau={tau}", *prec_flags(draw)]


@st.composite
def weber_argv(draw):
    # the frame refuses a reduced height past about 1.1 * 10^6 (10^7 bits of mag):
    # tau = i sqrt(1.2 * 10^12) is just under it, and i sqrt(1.3 * 10^12) past it
    n = draw(st.integers(2, 5) | st.integers(-1, 5) | st.sampled_from([50, 51]))
    charge = charge_flags(draw, 30, [(1, 10**11 + 1, 0), (1, 12 * 10**11, 0),
                                     (1, 13 * 10**11, 0)])
    return ["weber", *charge, "--n", n, *prec_flags(draw), *flags(draw)]


@SETTINGS
@hypothesis.given(argv=curve_argv())
def test_curve_exits_cleanly(argv):
    exits_cleanly(argv)


@SETTINGS
@hypothesis.given(argv=fermat_argv())
def test_fermat_exits_cleanly(argv):
    exits_cleanly(argv)


@SETTINGS
@hypothesis.given(argv=sk_check_argv())
def test_sk_check_exits_cleanly(argv):
    exits_cleanly(argv)


@SETTINGS
@hypothesis.given(argv=resolve_argv())
def test_resolve_exits_cleanly(argv):
    exits_cleanly(argv)


@SETTINGS
@hypothesis.given(argv=hcp_argv())
def test_hcp_exits_cleanly(argv):
    exits_cleanly(argv)


@SETTINGS
@hypothesis.given(argv=attract_argv())
def test_attract_exits_cleanly(argv):
    exits_cleanly(argv)


@SETTINGS_SLOW
@hypothesis.given(argv=certify_argv())
def test_certify_exits_cleanly(argv):
    exits_cleanly(argv)


@SETTINGS
@hypothesis.given(argv=jval_argv())
def test_jval_exits_cleanly(argv):
    exits_cleanly(argv)


@SETTINGS_SLOW
@hypothesis.given(argv=weber_argv())
def test_weber_exits_cleanly(argv):
    exits_cleanly(argv)


@pytest.mark.parametrize("argv", [
    ["hcp", "--disc", -4000004],
    ["hcp", "--disc", -126604],
    ["hcp", "--disc", -40000004],
    ["certify", "--p2", 1, "--q2", 1000001, "--pq", 0],
    ["certify", "--p2", 1, "--q2", 11500, "--pq", 0],
    ["attract", "--p2", 1, "--q2", 100000000001, "--pq", 0],
    ["weber", "--p2", 2, "--q2", 3, "--pq", 1, "--n", 51],
    ["resolve", "--n", 1000000000, "--q", 999999999],
    ["resolve", "--n", 300002, "--q", 300001],
    ["curve", "--d", 354, "--k", 1, "--l", 1],
    ["curve", "--d", 10**5, "--k", 1, "--l", 1],
    ["curve", "--d", 10**12, "--k", 10**12, "--l", 1],
    ["fermat", "--d", 1000, "--dim", 1427],
    ["fermat", "--d", 1000, "--dim", 10**12],
    ["fermat", "--d", 1000, "--dim", 450, "--hodge"],
    ["fermat", "--d", 2 * 10**6, "--dim", 0, "--hodge"],
    # |D| = 10^20 + 1: refused before attractor_point factors D by trial division
    ["attract", "--p2", 1, "--q2", 10**20 + 1, "--pq", 0],
    ["certify", "--p2", 1, "--q2", 10**20 + 1, "--pq", 0],
    ["weber", "--p2", 1, "--q2", 10**20 + 1, "--pq", 0, "--n", 2],
    ["flow", "--p2", 1, "--q2", 10**20 + 1, "--pq", 0, "--tau0", "0,1"],
])
def test_past_the_gate_exits_2(argv):
    start = time.perf_counter()
    assert exits_cleanly(argv) == 2
    assert time.perf_counter() - start < 1
