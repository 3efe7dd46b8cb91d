"""Fuzz of the combinatorial subcommands `curve`, `fermat`, `sk-check` and
`resolve`: bounded random input, plus sizes on both sides of each work gate.

Every run must end in exit 0, 2 or 3 with at most one line on stderr, and a
run that exits 0 must print a parseable JSON envelope, or under --csv a table
whose rows all have the header's width.
"""

import contextlib
import csv
import io
import json
import warnings

import pytest

from attrarith.cli import run

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENVELOPE_KEYS = {"command", "inputs", "result", "certificates", "precision_bits"}
SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True)


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
    # hj_expand(n, n - 1) takes n - 1 steps, so n stays small
    n = draw(st.integers(-2, 10**4))
    q = draw(st.integers(-2, 10**4) | st.sampled_from([n - 1, 1]))
    genus = draw(st.none() | st.integers(-2, 10**12))
    tail = [] if genus is None else ["--genus", genus]
    return ["resolve", "--n", n, "--q", q, *tail, *flags(draw)]


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


@pytest.mark.parametrize("argv", [
    ["curve", "--d", 354, "--k", 1, "--l", 1],
    ["curve", "--d", 10**5, "--k", 1, "--l", 1],
    ["curve", "--d", 10**12, "--k", 10**12, "--l", 1],
    ["fermat", "--d", 1000, "--dim", 1427],
    ["fermat", "--d", 1000, "--dim", 10**12],
    ["fermat", "--d", 1000, "--dim", 450, "--hodge"],
    ["fermat", "--d", 2 * 10**6, "--dim", 0, "--hodge"],
])
def test_past_the_gate_exits_2(argv):
    assert exits_cleanly(argv) == 2
