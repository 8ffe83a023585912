"""Dense state-vector primitives for few-qubit systems.

States are plain complex amplitude vectors over the computational basis in
big-endian order: qubit 0 is the leftmost character of a ket label and the
most significant bit of the basis index ("0110" -> index 6).  Mixed states
are density matrices over the same basis; local operations and readout
accept either kind.

All containers are immutable after construction (arrays are write-protected),
so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .defaults import ALGEBRA_TOL

__all__ = [
    "PureState",
    "DensityMatrix",
    "basis_state",
    "bits_to_index",
    "index_to_bits",
    "is_unitary",
    "apply_local",
    "outcome_probabilities",
    "inner",
    "basis_rotation",
]


def bits_to_index(bits: str) -> int:
    """Basis index for a ket label like "0110" (qubit 0 = leftmost = MSB)."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return int(bits, 2)


def index_to_bits(index: int, n: int) -> str:
    if not 0 <= index < 2**n:
        raise ValueError(f"index {index} out of range for {n} qubits")
    return format(index, f"0{n}b")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the computational basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        n = amps.size.bit_length() - 1
        if amps.ndim != 1 or amps.size < 2 or amps.size != 2**n or not np.all(np.isfinite(amps)):
            raise ValueError("amplitude vector must be finite with length 2**n, n >= 1")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > ALGEBRA_TOL * 100:
            raise ValueError(f"state not normalized: |psi|^2 = {norm2!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return self.amplitudes.size.bit_length() - 1


def basis_state(n: int, label: int | str) -> PureState:
    """Computational basis ket, by index or by bitstring label."""
    index = bits_to_index(label) if isinstance(label, str) else int(label)
    if not 0 <= index < 2**n:
        raise ValueError(f"basis label {label!r} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit-trace, positive semidefinite 2**n x 2**n matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.array(self.matrix, dtype=complex)
        dim = rho.shape[0] if rho.ndim == 2 else 0
        if rho.shape != (dim, dim) or dim < 2 or dim & (dim - 1) or not np.all(np.isfinite(rho)):
            raise ValueError("density matrix must be finite and square with 2**n rows, n >= 1")
        tol = ALGEBRA_TOL * 100
        if np.max(np.abs(rho - rho.conj().T)) > tol:
            raise ValueError("density matrix must be Hermitian")
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > tol:
            raise ValueError(f"density matrix must have unit trace, got {trace!r}")
        lowest = float(np.linalg.eigvalsh(rho)[0])
        if lowest < -tol:
            raise ValueError(f"density matrix has a negative eigenvalue {lowest!r}")
        rho.setflags(write=False)
        object.__setattr__(self, "matrix", rho)

    @property
    def n(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def is_unitary(m: np.ndarray, tol: float = ALGEBRA_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(2))) <= tol * 100)


def _check_ops(ops: Sequence[np.ndarray], n: int, tol: float) -> list[np.ndarray]:
    if len(ops) != n:
        raise ValueError(f"need one operator per qubit ({n}), got {len(ops)}")
    checked = []
    for q, op in enumerate(ops):
        op = np.asarray(op, dtype=complex)
        if op.shape != (2, 2) or not is_unitary(op, tol):
            raise ValueError(f"operator for qubit {q} is not a 2x2 unitary")
        checked.append(op)
    return checked


def apply_local(
    state: PureState | DensityMatrix, ops: Sequence[np.ndarray], tol: float = ALGEBRA_TOL
) -> PureState | DensityMatrix:
    """Apply one single-qubit unitary per qubit (qubit q gets ops[q]).

    Returns U psi for a pure state and U rho U^dag for a density matrix,
    with U the tensor product of the operators.
    """
    u = reduce(np.kron, _check_ops(ops, state.n, tol))
    if isinstance(state, PureState):
        return PureState(u @ state.amplitudes)
    return DensityMatrix(u @ state.matrix @ u.conj().T)


def outcome_probabilities(state: PureState | DensityMatrix) -> np.ndarray:
    """Computational-basis probabilities: |a_i|^2, or the diagonal of rho
    (rounding below zero clipped, so the result is a valid distribution)."""
    if isinstance(state, PureState):
        return np.abs(state.amplitudes) ** 2
    return np.clip(np.diagonal(state.matrix).real, 0.0, None)


def inner(a: PureState, b: PureState) -> complex:
    """Hermitian inner product <a|b>."""
    if a.n != b.n:
        raise ValueError("states live on different registers")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


_SQ2 = np.sqrt(2.0)
# Rows are the +1/-1 eigenbras of the named Pauli, so each matrix maps the
# eigenbasis onto |0>/|1> (outcome bit 0 <-> eigenvalue +1).
_BASIS_ROTATIONS = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2,
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / _SQ2,
}
for _m in _BASIS_ROTATIONS.values():
    _m.setflags(write=False)


def basis_rotation(axis: str) -> np.ndarray:
    """Rotation mapping the given Pauli eigenbasis to the computational one."""
    try:
        return _BASIS_ROTATIONS[axis]
    except KeyError:
        raise ValueError(f"unknown measurement axis {axis!r} (expected Z, X, or Y)") from None
