"""Fuzz of `attrarith flow`: random charges, extreme starts, steps and tolerances.

Every run must end in exit 0, 2 or 3 with at most one line on stderr, and a
run that exits 0 must report an endpoint within tol of the attractor point.
"""

import contextlib
import io
import json
import math
import warnings
from fractions import Fraction

import pytest

from attrarith.cli import run

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def charges(draw):
    p2 = draw(st.integers(1, 40))
    pq = draw(st.integers(-40, 40))
    return p2, pq * pq // p2 + draw(st.integers(1, 40)), pq


def within_tol(p2, q2, pq, x, y, tol):
    """|x + iy - tau*| <= tol exactly: |tau - tau*|^2 = (n - 2y sqrt|D|)/p2."""
    x, y, tol = Fraction(x), Fraction(y), Fraction(tol)
    n = q2 - 2 * pq * x + p2 * (x * x + y * y)
    lhs = n - p2 * tol * tol
    return lhs <= 0 or lhs * lhs <= 4 * y * y * (p2 * q2 - pq * pq)


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
@hypothesis.given(
    charge=charges(),
    re=st.floats(-1e300, 1e300),
    im=st.floats(5e-324, 1e300),
    step=st.floats(1e-300, 1e3),
    tol=st.floats(1e-300, 1.0),
    max_steps=st.integers(1, 10**4),
)
def test_flow_exits_cleanly(charge, re, im, step, tol, max_steps):
    p2, q2, pq = charge
    argv = ["flow", "--p2", str(p2), "--q2", str(q2), "--pq", str(pq),
            f"--tau0={re!r},{im!r}", f"--step={step!r}", f"--tol={tol!r}",
            "--max-steps", str(max_steps)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
    if code == 0:
        end = json.loads(out.getvalue())["result"]["tau_end"]
        x, y = float(end["re"]), float(end["im"])
        assert math.isfinite(x) and y > 0
        assert within_tol(p2, q2, pq, x, y, tol)
