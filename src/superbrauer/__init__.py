"""Exact-arithmetic Brauer groups and lazy cohomology of modified supergroup
algebras k[G] (x) Lambda(V) with triangular structure R_u.

The public names are resolved on first use (PEP 562), so ``import
superbrauer`` imports neither numpy nor any layer, and a CLI job loads only
the layers its command runs."""

import importlib
import sys
import types

# public name -> the submodule that defines it
_HOME = {name: home for home, names in {
    "errors": "BudgetExceeded CapExceeded E8Refused NotCocycle NotInvariant NotInvertible NotMinusOne NotSplit "
              "NotSymmetric ParseError SuperbrauerError TrivialInvolution",
    "groups": "AbelianInvariants CentralInvolution FiniteGroup GroupCharacter QuotientData abelianization "
              "all_characters close_generators cyclic_group direct_product group_from_table load_group_file "
              "parse_group_spec quotient_by_central_involution splitting_character symmetric_group",
    "cohomology": "CohomologyClass CohomologyGroup CoefficientModule Cochain2 coboundary h2 h2_closed_field "
                  "h2_real_closed is_cocycle",
    "forms": "Representation SymFormSpace acts_as_minus_one invariant_symmetric_forms is_invariant_form",
    "sharp": "ALG_CLOSED REAL_CLOSED BMGroup FieldDescriptor QGroup SharpGroup ZGrading bm_group field_from_name "
             "h2_sharp q_group quaternion_symbol sharp sharp_inverse theta",
    "supergroup": "BMSupergroup HCochain2 LazyCohomology SupergroupAlgebra VerifyReport bm_supergroup build_en "
                  "build_supergroup dual_r_matrix is_lazy is_left_cocycle is_right_cocycle lambda_cocycle "
                  "lazy_cohomology omega_sigma r_matrix_RA r_u verify_hopf verify_quasitriangular "
                  "verify_triangular",
    "weyl": "GroupDatum RootSystemType TableRow WeylGroupData build_weyl group_datum table_row",
}.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Loading the submodule superbrauer.sharp binds it on the package; the
    public name sharp stays the function, as an eager import left it."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
