"""Exact computations around face rings of simplicial posets.

Layers, bottom up: poset (the combinatorial data with joins, meets, and
cover signs), ring (sparse exact polynomials with the defining quadratic
relations and a straightening normal form), envelope (finitely supported
models of the graded injective hulls attached to poset elements), cleanmap
(normalized homomorphisms between hulls with bounded certification), and
complexes (the rank-indexed signed complexes, their verification, and
degreewise cohomology with an independent simplicial oracle).

All coefficients are exact: rationals by default, a prime field on request.
"""

from .bundled import BUNDLED, bundled_poset, resolve_poset
from .cleanmap import (
    CertReport,
    CleanMap,
    CoverData,
    GradedEndomap,
    StabilizationError,
    chain_map,
    check_clean,
    check_linearity,
    check_roundtrip,
    compose_maps,
    cover_map,
    materialize_tau,
    neumann_inverse,
    nonclean_automorphism,
    rank1_map,
    tau_coefficient,
    tau_map,
)
from .complexes import (
    EnvelopeComplex,
    ScalarComplex,
    build_gamma,
    build_scalar_complex,
    cohomology_dims_at,
    complex_report,
    differential_matrix,
    simplicial_oracle,
    verify_dd_zero,
)
from .envelope import Envelope, EnvelopeElement
from .poset import PosetError, SimplicialPoset, ValidationReport, validate_simplicial
from .ring import Polynomial, PolyRing
from .scalars import QQ, FieldError, PrimeField, field_from_name

__version__ = "0.1.0"

__all__ = [
    "BUNDLED",
    "CertReport",
    "CleanMap",
    "CoverData",
    "Envelope",
    "EnvelopeComplex",
    "EnvelopeElement",
    "FieldError",
    "GradedEndomap",
    "Polynomial",
    "PolyRing",
    "PosetError",
    "PrimeField",
    "QQ",
    "ScalarComplex",
    "SimplicialPoset",
    "StabilizationError",
    "ValidationReport",
    "build_gamma",
    "build_scalar_complex",
    "bundled_poset",
    "chain_map",
    "check_clean",
    "check_linearity",
    "check_roundtrip",
    "cohomology_dims_at",
    "complex_report",
    "compose_maps",
    "cover_map",
    "differential_matrix",
    "field_from_name",
    "materialize_tau",
    "neumann_inverse",
    "nonclean_automorphism",
    "rank1_map",
    "resolve_poset",
    "simplicial_oracle",
    "tau_coefficient",
    "tau_map",
    "validate_simplicial",
    "verify_dd_zero",
]
