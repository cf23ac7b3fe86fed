"""Exact-arithmetic workbench for purity of short exact sequences over Z/N."""

__version__ = "0.1.0"

from .errors import InputError, InternalCheckError
from .zmodlin import IntMatrix, kernel_mod, solve_linear_mod
from .finmod import (
    CanonicalModule,
    ModuleMap,
    ShortSequence,
    dual_map,
    dual_module,
    hom_module,
    is_exact,
    normalize_presentation,
    random_ses,
    splitting_section,
    tensor_map,
    tensor_modules,
)
from .ppdef import PpFormula, PpPair, enumerate_pp, eval_pp, induced_pp_map, pp_pair_value
from .purity import Bounds, PurityReport, equivalence_harness, purity_report


def __getattr__(name: str):
    # the names of __all__ not bound above are funcat's; funcat (and the
    # lemma suites built on it) loads on first use, so `check` and `random`
    # never import it
    if name in __all__:
        from . import funcat

        return getattr(funcat, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Bounds",
    "CanonicalModule",
    "FunctorOnD",
    "InputError",
    "IntMatrix",
    "InternalCheckError",
    "ModuleMap",
    "PpFormula",
    "PpPair",
    "PurityReport",
    "ShortSequence",
    "build_index_category",
    "coend_tensor",
    "dual_functor",
    "dual_map",
    "dual_module",
    "dual_of_hom_check",
    "enumerate_pp",
    "equivalence_harness",
    "eval_pp",
    "fp_functor_from_map",
    "hom_module",
    "hom_tensor_duality_check",
    "induced_pp_map",
    "is_exact",
    "kan_eval",
    "kernel_mod",
    "nat_transformations",
    "normalize_presentation",
    "pp_pair_value",
    "purity_report",
    "random_ses",
    "restrict_module",
    "solve_linear_mod",
    "splitting_section",
    "tensor_functor",
    "tensor_map",
    "tensor_modules",
]
