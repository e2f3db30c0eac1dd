"""The public names of superbrauer, pinned: an export added or dropped shows up
as a diff of this list."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import superbrauer

SRC = Path(__file__).resolve().parents[1] / "src"

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
    """Every name dir(superbrauer) lists without a leading underscore, less its
    submodules (which a test or a lazy import may or may not have loaded).
    The names resolve on first use, so they are listed by dir(), not vars()."""
    names = sorted(name for name in dir(superbrauer)
                   if not name.startswith("_") and not isinstance(getattr(superbrauer, name), types.ModuleType))
    assert names == PUBLIC_NAMES
    assert sorted(superbrauer.__all__) == PUBLIC_NAMES


def test_public_names_resolve_to_their_home_modules():
    """Each name is the object its defining submodule binds, and a star import
    binds every one of them."""
    for name in PUBLIC_NAMES:
        home = importlib.import_module(f"superbrauer.{superbrauer._HOME[name]}")
        assert getattr(superbrauer, name) is getattr(home, name)
    namespace: dict = {}
    exec("from superbrauer import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES


def test_sharp_stays_the_function_after_its_submodule_loads():
    """Importing superbrauer.sharp binds the submodule on the package, which
    must not replace the public function sharp.  The probe runs in a fresh
    interpreter, where the import loads the submodule."""
    probe = ("import types, superbrauer, superbrauer.sharp, sys\n"
             "assert not isinstance(superbrauer.sharp, types.ModuleType)\n"
             "assert superbrauer.sharp is sys.modules['superbrauer.sharp'].sharp")
    subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=120)
