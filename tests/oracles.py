"""Dense oracles for the library's band-form generators.

The library keeps each family's generators only as the band form
``(g0, g)`` of ``_generator_bands``. The tests check it against the dense
matrices built here from those same bands, as plain complex arrays, and
against the north star's two exponential routes: the displacement operator
and the coset exponential, through ``scipy.linalg.expm`` directly.
"""

import math

import numpy as np
import scipy.linalg

from coherence_lab import fock, spin
from coherence_lab.qcore import StateVector


def generators(family, size):
    """Dense (G0, G+, G-) of ``family``: (N, a+, a) of ``fock`` at cutoff
    ``size``, or (J0, J+, J-) of ``spin`` at 2j = ``size``."""
    g0, g = family._generator_bands(size)
    g = g.astype(complex)
    return np.diag(g0.astype(complex)), np.diag(g, -1), np.diag(g, 1)


def quadratures(cutoff):
    """Scaled position and momentum q = (a + a+)/sqrt2, p = (a - a+)/(i sqrt2)."""
    _, adag, a = generators(fock, cutoff)
    return (a + adag) / math.sqrt(2.0), (a - adag) / (1j * math.sqrt(2.0))


def expectation(op, state):
    """<state|op|state>, complex in general."""
    return complex(np.vdot(state.amps, op @ state.amps))


def mean_variance(op, state):
    """Real mean and variance <op^2> - <op>^2 of a Hermitian ``op``."""
    mean = float(expectation(op, state).real)
    image = op @ state.amps
    return mean, float(np.vdot(image, image).real) - mean * mean


def displacement(alpha, cutoff):
    """exp(alpha a+ - alpha* a), unitary on the retained subspace."""
    _, adag, a = generators(fock, cutoff)
    return scipy.linalg.expm(alpha * adag - np.conj(alpha) * a)


def coset_state(j, xi):
    """exp(xi J+ - xi* J-) |j,-j>, which is the closed-form coherent state at
    zeta = (xi/|xi|) tan|xi| up to a global phase."""
    _, jp, jm = generators(spin, int(2 * j))
    lowest = spin.basis_state(j, -j)
    unitary = scipy.linalg.expm(xi * jp - np.conj(xi) * jm)
    return StateVector(lowest.space, unitary @ lowest.amps)
