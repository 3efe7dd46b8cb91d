"""Arithmetic of black-hole attractor points.

Exact attractor moduli and binary quadratic forms, arbitrary-precision
modular forms and class polynomials, CM certificates, Weierstrass/Weber
data, Brieskorn-Pham Jacobian decompositions, resolution combinatorics,
and the radial attractor flow.  Heavy submodules (modular, elliptic, flow)
load lazily on first attribute access.
"""

from .arith import (
    BinaryQuadraticForm,
    QuadraticSurd,
    ResidueSystem,
    class_group_forms,
    euler_phi,
    reduce_form,
    squarefree_decompose,
)
from .attractor import (
    AttractorPoint,
    ChargeData,
    K3FormCertificate,
    attractor_point,
    discriminant,
    entropy_invariant,
    k3_form_certificate,
)
from .cohomology import (
    HJResolution,
    SingularCurveDatum,
    SKCheck,
    fermat_hodge_numbers,
    fermat_primitive_dim,
    hj_expand,
    hj_length,
    hj_reconstruct,
    resolution_contributions,
    shioda_katsura_check,
)
from .errors import AttrarithError, ComputationFailure
from .jacobian import (
    AbelianFactor,
    CurveSignature,
    FormIndex,
    cm_set,
    decompose_jacobian,
    descended_forms,
    enumerate_forms,
    genus,
    projective_basis,
    star_action,
)

_LAZY = {
    "j_value": "modular",
    "j_value_with_bound": "modular",
    "hilbert_class_polynomial": "modular",
    "HCPResult": "modular",
    "certify_attractor_cm": "modular",
    "CMCertificate": "modular",
    "hcp_record_valid": "modular",
    "load_hcp_cache": "modular",
    "store_hcp_cache": "modular",
    "WeierstrassModel": "elliptic",
    "TorsionPoint": "elliptic",
    "model_from_tau": "elliptic",
    "torsion_points": "elliptic",
    "weber_function": "elliptic",
    "twist_model": "elliptic",
    "FlowConfig": "flow",
    "FlowState": "flow",
    "FlowResult": "flow",
    "FlowCertificate": "flow",
    "central_charge_sq": "flow",
    "flow_step": "flow",
    "flow_integrate": "flow",
    "trajectory_table": "flow",
    "export_trajectory": "flow",
}

__all__ = sorted(set(list(_LAZY) + [n for n in dir() if not n.startswith("_")]))

__version__ = "0.1.0"


def __getattr__(name):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module 'attrarith' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)
