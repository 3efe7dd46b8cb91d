"""Fast self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath as mp  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from worker import Loop, hd_quantile  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return wl.load_reference()


def _first_passes(work, seed, k=3):
    gen = work.passes(seed)
    return [next(gen) for _ in range(k)]


@pytest.mark.parametrize("name", wl.WORKLOAD_NAMES)
def test_seeded_inputs_are_deterministic(ref, name):
    work = wl.build(name, ref)
    assert _first_passes(work, 7) == _first_passes(wl.build(name, ref), 7)
    assert _first_passes(work, 7) != _first_passes(work, 8)
    assert wl.tau_pool() == wl.tau_pool() and wl.charge_pool() == wl.charge_pool()


@pytest.mark.parametrize("name", ["highprec", "cli-mix"])
def test_mixed_workloads_give_each_kind_an_equal_time_share(ref, name):
    kinds = wl.pass_time_by_kind(ref, name)
    assert len(kinds) == {"highprec": 4, "cli-mix": 10}[name]
    assert max(kinds.values()) < 1.3 * min(kinds.values())


def test_self_time_on_synthetic_span_tree():
    rec = spans.Recorder()
    # op 0: root [0,100] with children [10,40] and [50,90]; the latter has [60,70]
    rec.spans = [[0, None, "harness.op", 0, 100], [0, 0, "a.f", 10, 40],
                 [0, 0, "b.g", 50, 90], [0, 2, "c.h", 60, 70]]
    assert spans.self_times(rec.spans) == [30, 30, 30, 10]
    m = spans.layer_metrics(rec, n_ops=1, op_wall_s=100e-9, slowdown=1.25, stdout_bytes=0)
    assert m["harness.self_ms"]["value"] == pytest.approx(30e-6)
    assert m["trace.harness_frac"]["value"] == pytest.approx(0.3)
    assert m["trace.overhead_frac"]["value"] == pytest.approx(0.25)


def test_hd_quantile_is_a_smoothed_order_statistic():
    xs = list(range(1, 102))
    assert hd_quantile(xs, 0.5) == pytest.approx(51)
    assert hd_quantile(xs, 0.9) == pytest.approx(0.9 * 101 + 0.5, rel=1e-3)
    assert 5 < hd_quantile([5.0] * 50 + [9.0] * 51, 0.5) < 9


class _Perturbing:
    """Runner wrapper that corrupts one output after the library returns it."""

    def __init__(self, runner, corrupt):
        self.runner, self.corrupt = runner, corrupt

    def __call__(self, op):
        return self.corrupt(self.runner(op))


def _hcp_bump(res):
    return res.__class__(**{**res.__dict__, "coeffs": (res.coeffs[0] + 1,) + res.coeffs[1:]})


def _weber_nudge(out):
    model, pts, webers = out
    return model, pts, webers[:-1] + [webers[-1] + mp.mpf(10) ** -20]


def _cli_hcp_edit(out):
    code, text = out
    env = json.loads(text)
    env["result"]["coeffs"][0] = str(int(env["result"]["coeffs"][0]) + 1)
    return code, json.dumps(env)


@pytest.mark.parametrize("op, corrupt", [
    (("hcp", -23), _hcp_bump),
    (("torsion", 0, 2), _weber_nudge),
    (("cli", ("hcp", "--disc", "-23")), _cli_hcp_edit),
])
def test_perturbed_output_counts_as_failed(ref, op, corrupt):
    runner = wl.Runner(ref)
    clean = Loop(runner, ref, mp)
    clean.run(op)
    assert clean.failures == []
    bad = Loop(_Perturbing(runner, corrupt), ref, mp)
    bad.run(op)
    assert bad.attempted == 1 and len(bad.failures) == 1


def test_spans_see_calls_between_modules(ref):
    from attrarith import modular
    from attrarith.attractor import ChargeData

    original = modular.hilbert_class_polynomial
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        rec.op = 0
        modular.certify_attractor_cm(ChargeData(2, 3, 1))
    finally:
        uninstall()
    assert modular.hilbert_class_polynomial is original
    names = [s[2] for s in rec.spans]

    def chain(i):
        out = []
        while i is not None:
            out.append(rec.spans[i][2])
            i = rec.spans[i][1]
        return out

    deepest = [chain(i) for i, n in enumerate(names) if n == "modular.j_value_with_bound"]
    assert ["modular.j_value_with_bound", "modular.hilbert_class_polynomial",
            "modular.certify_attractor_cm"] in deepest
    assert "arith.class_group_forms" in names and "attractor.attractor_point" in names
    assert all(s[0] == 0 for s in rec.spans)


def test_benchmark_spec_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in spans.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOAD_NAMES)
