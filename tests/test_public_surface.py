"""The public names of superbrauer, pinned: an export added or dropped shows up
as a diff of this list."""

from __future__ import annotations

import types

import superbrauer

PUBLIC_NAMES = [
    "ALG_CLOSED", "AbelianInvariants", "BMGroup", "BMSupergroup", "BudgetExceeded", "CapExceeded",
    "CentralInvolution", "Cochain2", "CoefficientModule", "CohomologyClass", "CohomologyGroup", "E8Refused",
    "FieldDescriptor", "FiniteGroup", "GroupCharacter", "GroupDatum", "HCochain2", "LazyCohomology",
    "NotCocycle", "NotInvariant", "NotInvertible", "NotMinusOne", "NotSplit", "NotSymmetric", "ParseError",
    "QGroup", "QuotientData", "REAL_CLOSED", "Representation", "RootSystemType", "SharpGroup",
    "SuperbrauerError", "SupergroupAlgebra", "SymFormSpace", "TableRow", "TrivialInvolution", "VerifyReport",
    "WeylGroupData", "ZGrading", "abelianization", "acts_as_minus_one", "all_characters", "bm_group",
    "bm_supergroup", "build_en", "build_supergroup", "build_weyl", "close_generators", "coboundary",
    "cyclic_group", "direct_product", "dual_r_matrix", "field_from_name", "group_datum", "group_from_table",
    "h2", "h2_closed_field", "h2_real_closed", "h2_sharp", "invariant_symmetric_forms", "is_cocycle",
    "is_invariant_form", "is_lazy", "is_left_cocycle", "is_right_cocycle", "lambda_cocycle",
    "lazy_cohomology", "load_group_file", "omega_sigma", "parse_group_spec", "q_group", "quaternion_symbol",
    "quotient_by_central_involution", "r_matrix_RA", "r_u", "sharp", "sharp_inverse", "splitting_character",
    "symmetric_group", "table_row", "theta", "verify_hopf", "verify_quasitriangular", "verify_triangular",
]


def test_public_names_are_pinned():
    """Every name superbrauer binds without a leading underscore, less its
    submodules (which a test or a lazy import may or may not have loaded)."""
    names = sorted(name for name, value in vars(superbrauer).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
