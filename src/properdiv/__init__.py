"""Proper-divisibility posets, their order complexes and exact invariants."""

from .errors import SizeGuardError
from .posets import (
    Poset,
    as_multidegree,
    boolean_lattice,
    chain,
    pd_le,
    proper_divisibility_poset,
    proper_product,
    properly_divides,
)
from .complexes import SimplicialComplex, order_complex
from .homology import (
    HomologySummary,
    homology,
    smith_normal_form,
)
from .shellability import (
    FallingChain,
    RaoCertificate,
    betti_from_falling_chains,
    check_final_increments,
    dual_lex_certificate,
    falling_chains,
    is_border,
    least_atom,
    search_rao,
    verify_rao,
)
from . import formulas

__all__ = [
    "FallingChain",
    "HomologySummary",
    "Poset",
    "RaoCertificate",
    "SimplicialComplex",
    "SizeGuardError",
    "as_multidegree",
    "betti_from_falling_chains",
    "boolean_lattice",
    "chain",
    "check_final_increments",
    "dual_lex_certificate",
    "falling_chains",
    "formulas",
    "homology",
    "is_border",
    "least_atom",
    "order_complex",
    "pd_le",
    "proper_divisibility_poset",
    "proper_product",
    "properly_divides",
    "search_rao",
    "smith_normal_form",
    "verify_rao",
]
