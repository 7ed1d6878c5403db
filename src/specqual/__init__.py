"""specqual: qualification analysis for spectral regularization filters.

The package answers three families of questions about a filter family
g_alpha(lambda) approximating 1/lambda:

* what source function s_rho does a target convergence rate rho induce,
  and is rho a weak, strong, or optimal qualification of the method?
* what is the classical qualification order, and does rho satisfy the
  increasing-weight qualification inequality?
* do the direct/converse convergence statements hold on finite spectral
  models, at the rates the classification predicts?

Quick start::

    from specqual import get_filter, order_fn, classify

    filt = get_filter("tikhonov")
    report = classify(filt, order_fn("alpha"))
    print(report.level)            # "optimal"
"""

from .expressions import (
    DomainError,
    ExprError,
    ExprSyntaxError,
    FuncExpr,
    UnboundVariableError,
    UnknownIdentifierError,
    parse_expr,
    to_string,
)
from .filters import (
    AxiomReport,
    FilterFamily,
    FilterError,
    ParameterRangeError,
    ResidualValue,
    UnknownFilterError,
    default_alpha_grid,
    default_lambda_grid,
    eval_g,
    eval_residual,
    get_filter,
    list_filters,
    make_custom_filter,
    verify_srm_axioms,
)
from .limits import LimitEstimate, Tail, tail_limit, tail_of
from .rates import (
    CompareVerdict,
    OrderFn,
    SourceFn,
    TabulatedOrder,
    TabulatedSource,
    certify_order_fn,
    certify_source_fn,
    equivalent_at_origin,
    order_fn,
    precedes,
    source_fn,
)
from .qualification import (
    ClassicalOrder,
    ConstructResult,
    HypothesisViolation,
    MPVerdict,
    PairVerdict,
    QualificationError,
    QualificationReport,
    UncertifiedError,
    check_mp_qualification,
    check_order_source_pair,
    check_strong_pair,
    check_weak_pair,
    classify,
    construct_weak_qualification,
    estimate_classical_order,
    estimate_srho,
    srho_table,
)

# operators and experiments serve only convergence studies: their names are
# imported on first access (PEP 562), so that `import specqual` and every
# other CLI subcommand skip loading them
_LAZY = {name: module for module, names in (
    ("operators", "DimensionError MembershipVerdict OperatorError SourceElement SpectralModel "
                  "load_matrix_csv make_model make_source_element membership_probe "
                  "model_from_json regularization_error log_regularization_error regularize "
                  "svd_decompose"),
    ("experiments", "ConvergenceStudy ConverseProbe ExperimentError MaximalSourceReport "
                    "SlopeFit converse_probe fit_order maximal_source_demo run_convergence"),
) for name in names.split()}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    globals()[name] = value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = sorted(n for n in __dir__() if not n.startswith("_"))  # the lazy names too
__version__ = "0.1.0"
