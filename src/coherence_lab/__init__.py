"""coherence-lab: coherent states of the oscillator and of spin systems,
their splitting into subsystems, CHSH analysis, and phase-space dynamics."""

from . import bell, dynamics, fock, qcore, serialize, spin, splitting
from .errors import CoherenceLabError, NumericalError, ValidationError
from .qcore import (
    LinearOperator,
    SchmidtReport,
    SpaceDescriptor,
    StateVector,
    split_amplitudes,
)

__all__ = [
    "bell",
    "dynamics",
    "fock",
    "qcore",
    "serialize",
    "spin",
    "splitting",
    "CoherenceLabError",
    "NumericalError",
    "ValidationError",
    "LinearOperator",
    "SchmidtReport",
    "SpaceDescriptor",
    "StateVector",
    "split_amplitudes",
]

__version__ = "0.1.0"
