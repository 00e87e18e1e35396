"""Lee-Yang zero analysis for isotropic spin chains.

Builds the chain partition function as an entire function of zeta = z^2
through a Gram-variable transfer recursion, locates its zeros, and checks
them against independent quadrature oracles.
"""

from .geometry import (
    ComplexVec2,
    GramTriple,
    gram_image_residual,
    gram_pair,
    in_L,
    preimage_pair,
)
from .laguerre import counterexample_scan
from .measures import (
    LaplaceSeries,
    MeasureError,
    MeasureValidation,
    RadialMeasure,
    laplace_transform,
    radial_moment,
    validate_measure,
)
from .oracles import laplace_direct, phi_modal, z_direct_circle
from .polys import (
    FLOAT,
    GRAM_VARS,
    PAIR_VARS,
    RATIONAL,
    FieldMismatchError,
    GramOperator,
    OperatorTerm,
    TruncatedPoly,
    VariableMismatchError,
    apply_operator,
    delta_operator,
    diagonal_series,
    exp_operator,
    merge_2_3,
    psi_step,
    psi_two,
)
from .recursion import phi_chain, phi_from_transform, psi_kernel
from .zeros import (
    ZeroReport,
    find_roots,
    stabilize_chain,
    stable_coefficient_count,
)

__version__ = "0.1.0"
