"""The tunable four-qubit input states and fidelity diagnostics.

One real parameter alpha in [0, 1] interpolates between a product of two
EPR pairs (alpha = 0, pairs on qubits 0,1 and 2,3) and the four-qubit GHZ
state (alpha = 1):

    |psi(alpha)> = alpha/sqrt(2) (|0000> + |1111>)
                 + sqrt(1 - alpha^2)/2 (|0101> + |0110> + |1001> + |1010>)

Imperfect preparation is modeled as white noise: the density matrix
f |psi><psi| + (1 - f) I/16.  This module owns the [0, 1] range check that
alpha and f share.
"""

from __future__ import annotations

import numpy as np

from .defaults import ALGEBRA_TOL
from .qcore import DensityMatrix, PureState, apply_local, basis_rotation, outcome_probabilities

__all__ = [
    "family_state",
    "ghz_state",
    "noisy_state",
    "alpha_from_hwp",
    "ghz_fidelity",
    "stabilizer_fidelity_settings",
    "stabilizer_fidelity",
]

N_QUBITS = 4
DIM = 16

# support of the EPR-pair product term: |0101>, |0110>, |1001>, |1010>
_EPR_INDICES = (0b0101, 0b0110, 0b1001, 0b1010)


def _check_unit(name: str, value: float) -> float:
    """value as a float, if it lies in [0, 1] (the range of alpha and f)."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def family_state(alpha: float) -> PureState:
    """Pure four-qubit input state at interpolation parameter alpha."""
    alpha = _check_unit("alpha", alpha)
    amps = np.zeros(DIM, dtype=complex)
    amps[0b0000] = amps[0b1111] = alpha / np.sqrt(2.0)
    amps[list(_EPR_INDICES)] = np.sqrt(1.0 - alpha**2) / 2.0
    return PureState(amps)


def ghz_state() -> PureState:
    return family_state(1.0)


def noisy_state(alpha: float, f: float) -> DensityMatrix:
    """f |psi(alpha)><psi(alpha)| + (1 - f) I/16; f = 0 is the bare uniform mixture."""
    amps = family_state(alpha).amplitudes
    f = _check_unit("noise fraction f", f)
    return DensityMatrix(f * np.outer(amps, amps.conj()) + (1.0 - f) / DIM * np.eye(DIM))


def alpha_from_hwp(gamma: float) -> float:
    """Interpolation parameter prepared by a source half-wave plate at gamma.

    Monotone from alpha(0) = 0 to alpha(pi/8) = 1.
    """
    gamma = float(gamma)
    if not 0.0 <= gamma <= np.pi / 8 + ALGEBRA_TOL:
        raise ValueError(f"hwp angle must be in [0, pi/8], got {gamma}")
    num = 2.0 * np.sqrt(2.0) * np.sin(2.0 * gamma) ** 2
    den = np.sqrt(5.0 - 4.0 * np.cos(4.0 * gamma) + 3.0 * np.cos(8.0 * gamma))
    return min(float(num / den), 1.0)


def ghz_fidelity(rho: DensityMatrix, target: PureState) -> float:
    """Overlap fidelity <target| rho |target> of a mixed state with a pure target."""
    if rho.n != target.n:
        raise ValueError("state and target live on different registers")
    t = target.amplitudes
    return float(np.vdot(t, rho.matrix @ t).real)


# The GHZ stabilizer group decomposes the GHZ projector into 16 Pauli strings:
# the even-weight Z strings (+), XXXX (+), YYYY (+), and the six two-Y
# strings (-).  Expectation values of all Z strings come from one ZZZZ
# setting, so 9 measurement settings suffice.
_Z_STRINGS = ("ZZII", "IZZI", "IIZZ", "ZIZI", "IZIZ", "ZIIZ", "ZZZZ")
_MIXED_STRINGS = ("YYXX", "YXYX", "YXXY", "XYYX", "XYXY", "XXYY")
_SETTINGS = ("ZZZZ", "XXXX", "YYYY") + _MIXED_STRINGS


def stabilizer_fidelity_settings() -> tuple[str, ...]:
    """The 9 local Pauli settings whose data determine the GHZ fidelity."""
    return _SETTINGS


def _pauli_expectation(probs: np.ndarray, string: str) -> float:
    """<P> from the outcome distribution of a setting measuring P's support."""
    signs = np.ones(DIM)
    for q, axis in enumerate(string):
        if axis == "I":
            continue
        bit = (np.arange(DIM) >> (N_QUBITS - 1 - q)) & 1
        signs *= 1.0 - 2.0 * bit
    return float(signs @ probs)


def _setting_probabilities(state: DensityMatrix, setting: str) -> np.ndarray:
    return outcome_probabilities(apply_local(state, [basis_rotation(axis) for axis in setting]))


def stabilizer_fidelity(state: DensityMatrix) -> float:
    """GHZ fidelity estimated from the 9 stabilizer measurement settings.

    The signed average over the stabilizer group reproduces the direct
    overlap with the GHZ state exactly, for any input state.
    """
    if state.n != N_QUBITS:
        raise ValueError("stabilizer estimate defined for four qubits")
    z_probs = _setting_probabilities(state, "ZZZZ")
    total = 1.0  # identity element
    for string in _Z_STRINGS:
        total += _pauli_expectation(z_probs, string)
    for setting in ("XXXX", "YYYY"):
        total += _pauli_expectation(_setting_probabilities(state, setting), setting)
    for setting in _MIXED_STRINGS:
        total -= _pauli_expectation(_setting_probabilities(state, setting), setting)
    return total / 16.0
