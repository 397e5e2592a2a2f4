"""Coherence of two continuously coupled parametric downconverters.

The package builds the device as a 4x4 Bogoliubov transfer matrix,
computes vacuum-input moments and the mutual signal coherence, extracts
the two equivalent substituting schemes (four converters, or two
converters between mixers), analyzes the which-way information carried by
the idler modes, and cross-validates everything against an exact
truncated photon-number-basis evolution.
"""

from .config import TOL, Tolerances
from .decompose import (
    ExtractionReport,
    FourConverterScheme,
    GainBound,
    InterferometerScheme,
    equivalence_residual,
    extract_four_converter,
    extract_interferometer,
    four_converter_matrix,
    gain_bound,
    interferometer_matrix,
)
from .device import (
    CascadedDevice,
    ContinuousDevice,
    Regime,
    TransferMatrix,
    build_hamiltonian,
    cascaded_transfer_matrix,
    classify_regime,
    symplectic_residual,
    transfer_matrix,
)
from .errors import (
    CoherenceBoundError,
    DegenerateGeometryError,
    ExtractionResidualError,
    NonFiniteMatrixError,
    NonRealCorrelationError,
    PairConservationError,
    ParameterCapError,
    PdcModelError,
    SymplecticDriftError,
    TanhDomainError,
    TruncationLeakageError,
    UndefinedCoherenceError,
    ZeroSchemeError,
)
from .fock import (
    FockBasis,
    FockObservables,
    FockState,
    build_generator,
    evolve,
    fock_observables,
    mode_occupations,
    pair_component,
)
from .moments import (
    CoherenceResult,
    Intensities,
    MomentSet,
    intensities,
    signal_coherence,
    vacuum_moments,
)
from .whichway import (
    PairState,
    WhichWayGeometry,
    WhichWayMeasurement,
    geometry,
    ideal_measurement,
    interferometer_coherence,
    pair_state,
)

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    "ContinuousDevice",
    "CascadedDevice",
    "TransferMatrix",
    "Regime",
    "build_hamiltonian",
    "transfer_matrix",
    "cascaded_transfer_matrix",
    "classify_regime",
    "symplectic_residual",
    "MomentSet",
    "CoherenceResult",
    "Intensities",
    "vacuum_moments",
    "signal_coherence",
    "intensities",
    "FourConverterScheme",
    "InterferometerScheme",
    "ExtractionReport",
    "GainBound",
    "extract_four_converter",
    "extract_interferometer",
    "four_converter_matrix",
    "interferometer_matrix",
    "equivalence_residual",
    "gain_bound",
    "PairState",
    "WhichWayGeometry",
    "WhichWayMeasurement",
    "pair_state",
    "geometry",
    "ideal_measurement",
    "interferometer_coherence",
    "FockBasis",
    "FockState",
    "FockObservables",
    "build_generator",
    "evolve",
    "mode_occupations",
    "fock_observables",
    "pair_component",
    "PdcModelError",
    "UndefinedCoherenceError",
    "NonRealCorrelationError",
    "TanhDomainError",
    "ExtractionResidualError",
    "DegenerateGeometryError",
    "ZeroSchemeError",
    "TruncationLeakageError",
    "NonFiniteMatrixError",
    "SymplecticDriftError",
    "PairConservationError",
    "CoherenceBoundError",
    "ParameterCapError",
]
