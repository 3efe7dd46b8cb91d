"""Outside-in layer spans for the attrarith benchmark.

`install` wraps every public function of each attrarith layer module from the
benchmark's side and rebinds every `attrarith.*` module attribute that is that
same function object, so calls between layers go through the wrappers too.
Spans (name, start, end, parent) are kept in memory, keyed by operation id,
and written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.  No file under src/ is touched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns

LAYERS = ("arith", "attractor", "modular", "elliptic", "flow", "jacobian", "cohomology", "cli")


@dataclass
class Recorder:
    spans: list = field(default_factory=list)       # [op, parent, name, t0_ns, t1_ns]
    stack: list = field(default_factory=list)
    op: int = -1
    counters: defaultdict = field(default_factory=lambda: defaultdict(float))

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([self.op, self.stack[-1] if self.stack else None, name, 0, 0])
        self.stack.append(sid)
        self.spans[sid][3] = perf_counter_ns()
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter_ns()
        self.stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (op, parent, name, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "op": op, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus its direct children's."""
    out = [t1 - t0 for _, _, _, t0, t1 in spans]
    for _, parent, _, t0, t1 in spans:
        if parent is not None:
            out[parent] -= t1 - t0
    return out


# Counters read from arguments and results at the layer boundary.

def _bound_arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _observe_j(c, sig, args, kwargs, ev):
    c["j.calls"] += 1
    c["j.working_prec"] += ev.working_prec
    c["j.truncation_order"] += ev.truncation_order
    c["j.requested_prec"] += _bound_arg(sig, args, kwargs, "prec")


def _observe_hcp(c, sig, args, kwargs, res):
    c["hcp.calls"] += 1
    c["hcp.roots"] += res.class_number
    c["hcp.precision_bits"] += res.precision_bits
    c["hcp.coeff_bits"] += max(abs(v) for v in res.coeffs).bit_length()


def _observe_forms(c, sig, args, kwargs, forms):
    c["forms_listed"] += len(forms)


def _observe_torsion(c, sig, args, kwargs, pts):
    c["torsion.points"] += len(pts)


def _observe_flow(c, sig, args, kwargs, res):
    c["flow.calls"] += 1
    c["flow.steps"] += res.steps
    c["flow.tau_error_max"] = max(c["flow.tau_error_max"], res.certificate.tau_error)


OBSERVERS = {
    "modular.j_value_with_bound": _observe_j,
    "modular.hilbert_class_polynomial": _observe_hcp,
    "arith.class_group_forms": _observe_forms,
    "elliptic.torsion_points": _observe_torsion,
    "flow.flow_integrate": _observe_flow,
}


def _wrap(rec: Recorder, name: str, fn):
    observe = OBSERVERS.get(name)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(sid)
        if observe is not None:
            observe(rec.counters, sig, args, kwargs, result)
        return result

    return traced


def public_functions(module) -> dict:
    """Functions defined in `module` whose names do not start with an underscore."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def install(rec: Recorder):
    """Wrap the layers' public functions everywhere they are bound; returns an undo callable."""
    import importlib

    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"attrarith.{layer}")
        for name, fn in public_functions(mod).items():
            wrapped[id(fn)] = (fn, _wrap(rec, f"{layer}.{name}", fn))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "attrarith" or modname.startswith("attrarith.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))

    def uninstall():
        for mod, attr, val in undo:
            setattr(mod, attr, val)

    return uninstall


# Per-layer metrics (name, unit, better); times are self time in ms per operation.
PER_LAYER = (
    ("modular.j_value_with_bound.self_ms", "ms", "lower"),
    ("modular.j.working_prec_bits_mean", "bits", "lower"),
    ("modular.j.truncation_order_mean", "count", "lower"),
    ("modular.j.prec_ratio", "ratio", "lower"),
    ("modular.hcp.roots", "count", "lower"),
    ("modular.hcp.precision_bits_mean", "bits", "lower"),
    ("modular.hcp.bits_over_coeff_bits", "ratio", "lower"),
    ("modular.hilbert_class_polynomial.self_ms", "ms", "lower"),
    ("modular.reduce_to_fundamental.calls", "count", "lower"),
    ("modular.reduce_to_fundamental.self_ms", "ms", "lower"),
    ("modular.certify_attractor_cm.self_ms", "ms", "lower"),
    ("modular.hcp_heuristic_bits.calls", "count", "lower"),
    ("modular.self_ms", "ms", "lower"),
    ("arith.class_group_forms.calls_per_op", "count", "lower"),
    ("arith.class_group_forms.self_ms", "ms", "lower"),
    ("arith.forms_listed", "count", "lower"),
    ("arith.self_ms", "ms", "lower"),
    ("elliptic.torsion_points.self_ms", "ms", "lower"),
    ("elliptic.torsion.points", "count", "lower"),
    ("elliptic.model_from_tau.self_ms", "ms", "lower"),
    ("elliptic.weber_function.self_ms", "ms", "lower"),
    ("elliptic.self_ms", "ms", "lower"),
    ("flow.flow_integrate.self_ms", "ms", "lower"),
    ("flow.steps", "count", "lower"),
    ("flow.tau_error_max", "distance", "lower"),
    ("jacobian.decompose_jacobian.self_ms", "ms", "lower"),
    ("jacobian.self_ms", "ms", "lower"),
    ("cohomology.self_ms", "ms", "lower"),
    ("attractor.attractor_point.self_ms", "ms", "lower"),
    ("attractor.self_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("harness.self_ms", "ms", "lower"),
    ("trace.harness_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.ops", "count", "higher"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, n_ops: int, op_wall_s: float, slowdown: float,
                  stdout_bytes: int) -> dict:
    """The PER_LAYER values of a traced run of n_ops operations.

    op_wall_s is the traced operations' summed wall time; slowdown is their
    time over the same operations' untraced time.
    """
    selfs = self_times(rec.spans)
    by_name = defaultdict(int)
    calls = defaultdict(int)
    for (_, _, name, _, _), st in zip(rec.spans, selfs):
        by_name[name] += st
        calls[name] += 1
    by_layer = defaultdict(int)
    for name, st in by_name.items():
        by_layer[name.split(".")[0]] += st

    def ms(ns):
        return ns / 1e6 / n_ops

    c = rec.counters
    v = {
        "modular.j_value_with_bound.self_ms": ms(by_name["modular.j_value_with_bound"]),
        "modular.j.working_prec_bits_mean": _ratio(c["j.working_prec"], c["j.calls"]),
        "modular.j.truncation_order_mean": _ratio(c["j.truncation_order"], c["j.calls"]),
        "modular.j.prec_ratio": _ratio(c["j.working_prec"], c["j.requested_prec"]),
        "modular.hcp.roots": _ratio(c["hcp.roots"], c["hcp.calls"]),
        "modular.hcp.precision_bits_mean": _ratio(c["hcp.precision_bits"], c["hcp.calls"]),
        "modular.hcp.bits_over_coeff_bits": _ratio(c["hcp.precision_bits"], c["hcp.coeff_bits"]),
        "modular.hilbert_class_polynomial.self_ms": ms(by_name["modular.hilbert_class_polynomial"]),
        "modular.reduce_to_fundamental.calls": calls["modular.reduce_to_fundamental"] / n_ops,
        "modular.reduce_to_fundamental.self_ms": ms(by_name["modular.reduce_to_fundamental"]),
        "modular.certify_attractor_cm.self_ms": ms(by_name["modular.certify_attractor_cm"]),
        "modular.hcp_heuristic_bits.calls": calls["modular.hcp_heuristic_bits"] / n_ops,
        "arith.class_group_forms.calls_per_op": calls["arith.class_group_forms"] / n_ops,
        "arith.class_group_forms.self_ms": ms(by_name["arith.class_group_forms"]),
        "arith.forms_listed": c["forms_listed"] / n_ops,
        "elliptic.torsion_points.self_ms": ms(by_name["elliptic.torsion_points"]),
        "elliptic.torsion.points": c["torsion.points"] / n_ops,
        "elliptic.model_from_tau.self_ms": ms(by_name["elliptic.model_from_tau"]),
        "elliptic.weber_function.self_ms": ms(by_name["elliptic.weber_function"]),
        "flow.flow_integrate.self_ms": ms(by_name["flow.flow_integrate"]),
        "flow.steps": _ratio(c["flow.steps"], c["flow.calls"]),
        "flow.tau_error_max": c["flow.tau_error_max"],
        "jacobian.decompose_jacobian.self_ms": ms(by_name["jacobian.decompose_jacobian"]),
        "attractor.attractor_point.self_ms": ms(by_name["attractor.attractor_point"]),
        "cli.stdout_bytes": stdout_bytes / n_ops,
        "harness.self_ms": ms(by_layer["harness"]),
        "trace.harness_frac": _ratio(by_layer["harness"] / 1e9, op_wall_s),
        "trace.overhead_frac": slowdown - 1.0,
        "trace.ops": n_ops,
    }
    for layer in LAYERS:
        v.setdefault(f"{layer}.self_ms", ms(by_layer[layer]))
    return {name: {"value": float(v[name]), "unit": unit} for name, unit, _ in PER_LAYER}
