"""Exact heat kernels on the integer lattice for Darboux-transformed
discrete Laplacians, with independent numerical verification.

The main entry points:

    >>> from fractions import Fraction
    >>> from heatkernel import ParamVector, assemble_kernel, kernel_eval
    >>> params = ParamVector(1, 0, [Fraction(1, 2)])
    >>> formula = assemble_kernel(params, 0, 0)
    >>> formula.to_text()
    'exp(-2t) * [ (1 - 4/3 t) I_0(2t) + (-4/3 t) I_1(2t) ]'
    >>> round(kernel_eval(formula, 1.0), 6)
    -0.389862
"""

from .bessel import (
    AlphaTable,
    BesselRow,
    alpha_table,
    bessel_row,
    tail_resum,
)
from .exactcore import (
    Poly,
    PolyFraction,
    Rational,
    rat,
    series_at_zero,
)
from .kernel import (
    ExactZeroReport,
    GammaSeries,
    KernelFormula,
    assemble_kernel,
    gamma_series,
    kernel_eval,
    node_poly,
    pde_residual,
    symmetry_transport,
)
from .taudarboux import (
    BandOperator,
    ParamVector,
    SingularTau,
    TauFunction,
    darboux_one_step,
    operator_build,
    qp_build,
    schur_component,
    tau_build,
    wave_p,
    wave_p_star,
)

__version__ = "0.1.0"

#: names loaded on first use: the float oracle brings numpy, and no exact path
#: needs it or the Chebyshev ring
_LAZY = {
    **dict.fromkeys(["ComparisonReport", "QuadratureSpec", "circle_quadrature",
                     "compare_kernel_to_lattice", "compare_report", "lattice_evolve",
                     "orthogonality_gram"], "oracle"),
    **dict.fromkeys(["NodeSet", "NotMember", "WVCertificate", "av_membership", "chebyshev_U",
                     "F_build", "interp_Q", "lagrange_vanishing_sum", "reduce_to_wx"],
                    "chebring"),
}

__all__ = [
    "AlphaTable", "BesselRow", "alpha_table", "bessel_row", "tail_resum",
    "Poly", "PolyFraction", "Rational", "rat", "series_at_zero",
    "ExactZeroReport", "GammaSeries", "KernelFormula", "assemble_kernel",
    "gamma_series", "kernel_eval", "node_poly", "pde_residual", "symmetry_transport",
    "BandOperator", "ParamVector", "SingularTau", "TauFunction", "darboux_one_step",
    "operator_build", "qp_build", "schur_component", "tau_build", "wave_p", "wave_p_star",
    *_LAZY,
]


def __getattr__(name):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
