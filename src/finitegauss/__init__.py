"""Wrapped Gaussian states and exact discrete-quantum kernels on odd cyclic lattices."""

from .dynamics import (
    RevivalReport,
    TimeSeries,
    autocorrelation,
    certify_period,
    detect_revival,
    evolve,
    populated_levels,
)
from .errors import (
    CapacityExceededError,
    DegenerateVectorError,
    DimensionMismatchError,
    FiniteGaussError,
    InvalidDimensionError,
    InvalidParameterError,
    KindMismatchError,
    NoLevelsError,
    NumericalFailureError,
    PhasePointRangeError,
    UnsupportedOrderError,
)
from .hilbert import (
    MatrixKind,
    OperatorMatrix,
    PhasePoint,
    StateVector,
    coherent_state,
    displacement,
    fourier_apply,
    fourier_matrix,
    frame_resolution_residual,
    mehta_eigenvector,
    momentum_operator,
    position_operator,
)
from .lattice import Dimension, as_dimension
from .spectral import (
    QuasiEigenReport,
    Spectrum,
    UncertaintyReport,
    commutator_qp,
    commutator_spectrum,
    floratos_approx,
    free_hamiltonian,
    free_spectrum,
    hermitian_eig,
    oscillator_hamiltonian,
    quasi_eigen_residual,
    uncertainty_product,
)
from .wigner import (
    Marginals,
    WignerGrid,
    WignerSource,
    wigner_closed_form,
    wigner_definition,
    wigner_marginals,
    wigner_theta_form,
)
from .wrapped import (
    FiniteGaussian,
    ThetaKind,
    alternating_wrapped_sum,
    finite_gaussian,
    naive_gaussian,
    periodize,
    shifted_finite_gaussian,
    theta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
