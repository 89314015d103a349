"""Numerical toolkit for sub-Bergman Hilbert spaces on the unit disk.

Weighted Bergman spaces with exponent alpha > -2, contractive analytic
symbols, the associated defect operators and sub-Bergman reproducing
kernels, a complete Nevanlinna-Pick sampler, and a scenario runner that
turns the qualitative theory into quantitative checks.
"""

from .scalars import (
    WeightParameter,
    as_weight,
    basis_weights,
    binomial_coeffs,
)
from .symbols import (
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    Normalization,
    PowerSeriesSymbol,
    SingularInnerSpec,
    admissibility_check,
    default_series_length,
    eval_exact,
    monomial_cnp_scale,
    normalize,
    parse_symbol,
    resolve_monomial,
    symbol_text,
    to_series,
)
from .kernels import (
    KernelSpec,
    conj_sub_quadrature,
    eval_kernel,
    rescaling_check,
)
from .operators import (
    OperatorMatrix,
    SchattenEstimate,
    SpectrumReport,
    berezin,
    defect_matrix,
    inclusion_eigenvalues,
    jacobi_eigenvalues,
    normalized_kernel_coeffs,
    spectrum,
    toeplitz_matrix,
)
from .cnp import (
    PickMatrix,
    PickReport,
    Witness,
    build_pick,
    cnp_scan,
    psd_test,
    sample_points,
)
from .harness import (
    CheckResult,
    RunReport,
    Scenario,
    boundary_ratio_check,
    builtin_scenarios,
    emit_report,
    load_report,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BlaschkeSpec",
    "CheckResult",
    "KernelSpec",
    "MobiusSpec",
    "MonomialSpec",
    "Normalization",
    "OperatorMatrix",
    "PickMatrix",
    "PickReport",
    "PowerSeriesSymbol",
    "RunReport",
    "Scenario",
    "SchattenEstimate",
    "SingularInnerSpec",
    "SpectrumReport",
    "WeightParameter",
    "Witness",
    "admissibility_check",
    "as_weight",
    "basis_weights",
    "berezin",
    "binomial_coeffs",
    "boundary_ratio_check",
    "build_pick",
    "builtin_scenarios",
    "cnp_scan",
    "conj_sub_quadrature",
    "default_series_length",
    "defect_matrix",
    "emit_report",
    "eval_exact",
    "eval_kernel",
    "inclusion_eigenvalues",
    "jacobi_eigenvalues",
    "load_report",
    "monomial_cnp_scale",
    "normalize",
    "normalized_kernel_coeffs",
    "parse_symbol",
    "psd_test",
    "rescaling_check",
    "resolve_monomial",
    "run_scenario",
    "sample_points",
    "spectrum",
    "symbol_text",
    "toeplitz_matrix",
    "to_series",
]
