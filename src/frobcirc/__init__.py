"""Rotational first-kind Frobenius circulant graphs: construction,
enumeration, rotation/fixed-point analysis, and gossip-bound certificates."""

from ._kernels import BACKEND
from .circulant import Circulant
from .classifier import (
    FrobeniusClass,
    FrobeniusReport,
    admissible_degrees,
    all_classes,
    construct_h,
    enumerate_classes,
    max_degree_D,
    verify_first_kind_frobenius,
)
from .gamma import (
    GammaReport,
    GammaSpec,
    build_gamma,
    verify_theorem_q,
)
from .harts import harts_graph, harts_iso_tl, tl_diameter, tl_graph
from .numtheory import (
    Factorization,
    crt_combine,
    factorize,
    primitive_root,
)
from .rotation import (
    GossipCertificate,
    RotationReport,
    find_all_rotations,
    gossip_certificate,
    is_complete_rotation,
    rotation_report,
)

__all__ = [
    "BACKEND",
    "Circulant",
    "Factorization",
    "FrobeniusClass",
    "FrobeniusReport",
    "GammaReport",
    "GammaSpec",
    "GossipCertificate",
    "RotationReport",
    "admissible_degrees",
    "all_classes",
    "build_gamma",
    "construct_h",
    "crt_combine",
    "enumerate_classes",
    "factorize",
    "find_all_rotations",
    "gossip_certificate",
    "harts_graph",
    "harts_iso_tl",
    "is_complete_rotation",
    "max_degree_D",
    "primitive_root",
    "rotation_report",
    "tl_diameter",
    "tl_graph",
    "verify_first_kind_frobenius",
    "verify_theorem_q",
]

__version__ = "0.1.0"
