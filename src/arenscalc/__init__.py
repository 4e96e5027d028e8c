"""Adjoint and flip calculus for bounded multilinear maps.

Symbolic layer: parse superscript expressions such as ``f^{t****s}``,
track signatures, and classify when two expressions denote the same
extension.  Numeric layer: realize expressions on exact rational
tensors and verify identities entrywise.
"""

from .expr import (
    ExprAst,
    ExprError,
    FlipArityMismatch,
    Signature,
    UnknownCharacter,
    base_signature,
    parse,
    signature_of,
)
from .semantics import (
    Verdict,
    classify,
    classify_text,
    flip_conjugation_checks,
    limit_order,
    natural_extensions,
)
from .tensor import (
    DimensionMismatch,
    MultiMap,
    ShapeMismatch,
    adjoint,
    equal,
    evaluate,
    flip,
    from_function,
    load_map,
    random_map,
    realize,
    save_map,
    transpose,
)
from .algebra import (
    AlgebraModel,
    BanachModuleModel,
    CayleyTable,
    ConstraintViolated,
    InvalidAlgebra,
    InvalidCayleyTable,
    cayley_fixture,
    group_algebra,
    matrix_algebra,
    nested_bilinear_check,
    regular_module,
    regularity_check,
    slice_bridge_check,
    truncated_poly_algebra,
)
from .derivation import (
    TriDerivationCandidate,
    composite_extension_checks,
    derivation_fixture,
    dual_action_composite,
    fourth_adjoint_check,
    is_tri_derivation,
    leibniz_sum,
    right_action_composite,
)
from .suites import full_suite, render_report

# the names imported above and no others: the imports are the one list of them
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_")
                 and getattr(value, "__module__", "").startswith(__name__ + "."))
