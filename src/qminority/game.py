"""The four-player Minority game referee.

Each player holds one qubit of a shared four-qubit state, applies a local
strategy, and the referee measures every qubit in a common basis.  A player
scores 1 when their outcome bit puts them in a strict minority (a 3-1 split);
2-2 and 4-0 splits pay nothing.  Players are qubits 0..3 in ket order.

Measurement bases: Z reads the computational basis directly; X and Y apply
the corresponding eigenbasis rotation to every qubit before readout, with
outcome bit 0 standing for the +1 eigenvalue.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from .qcore import (
    DensityMatrix,
    PureState,
    apply_local,
    basis_rotation,
    bits_to_index,
    outcome_probabilities,
)
from .states import _check_unit
from .strategies import StrategyParams, strategy_unitary

__all__ = [
    "MeasurementBasis",
    "N_PLAYERS",
    "MINORITY_TABLE",
    "minority_payoffs",
    "final_state",
    "outcome_distribution",
    "expected_payoffs",
    "average_payoff",
    "separable_benchmark",
    "average_payoff_closed_i",
    "average_payoff_closed_i_alt",
    "average_payoff_closed_ii",
]

N_PLAYERS = 4
_DIM = 16


class MeasurementBasis(str, enum.Enum):
    Z = "Z"
    X = "X"
    Y = "Y"


def _build_minority_table() -> np.ndarray:
    table = np.zeros((_DIM, N_PLAYERS))
    for outcome in range(_DIM):
        bits = [(outcome >> (N_PLAYERS - 1 - q)) & 1 for q in range(N_PLAYERS)]
        ones = sum(bits)
        if ones == 1:
            table[outcome, bits.index(1)] = 1.0
        elif ones == 3:
            table[outcome, bits.index(0)] = 1.0
    table.setflags(write=False)
    return table


# row = outcome index, column = player; entry 1 iff that player is the strict minority
MINORITY_TABLE = _build_minority_table()


def minority_payoffs(outcome: str | int) -> np.ndarray:
    """Payoff vector (one entry per player) for a single outcome."""
    index = bits_to_index(outcome) if isinstance(outcome, str) else int(outcome)
    if not 0 <= index < _DIM:
        raise ValueError(f"outcome {outcome!r} out of range")
    return MINORITY_TABLE[index].copy()


def _check_profile(profile: Sequence[StrategyParams]) -> list[np.ndarray]:
    if len(profile) != N_PLAYERS:
        raise ValueError(f"profile must list {N_PLAYERS} strategies, got {len(profile)}")
    return [strategy_unitary(p) for p in profile]


def final_state(state: PureState, profile: Sequence[StrategyParams]) -> PureState:
    """State after every player applies their strategy (no measurement)."""
    if state.n != N_PLAYERS:
        raise ValueError("the game is played on four qubits")
    return apply_local(state, _check_profile(profile))


def outcome_distribution(
    state: DensityMatrix | PureState,
    profile: Sequence[StrategyParams],
    basis: MeasurementBasis | str = MeasurementBasis.Z,
) -> np.ndarray:
    """Readout distribution over the 16 outcomes after play."""
    rot = basis_rotation(MeasurementBasis(basis).value)
    return outcome_probabilities(apply_local(state, [rot @ u for u in _check_profile(profile)]))


def expected_payoffs(
    state: DensityMatrix | PureState,
    profile: Sequence[StrategyParams],
    basis: MeasurementBasis | str = MeasurementBasis.Z,
) -> np.ndarray:
    """Expected payoff of each player under the given profile and readout basis."""
    return outcome_distribution(state, profile, basis) @ MINORITY_TABLE


def average_payoff(
    state: DensityMatrix | PureState,
    profile: Sequence[StrategyParams],
    basis: MeasurementBasis | str = MeasurementBasis.Z,
) -> float:
    return float(np.mean(expected_payoffs(state, profile, basis)))


def separable_benchmark() -> DensityMatrix:
    """Uniform mixture of the eight 3-1-split basis kets.

    Matches the quantum value 1/4 under Z readout with identity play, but
    falls back to the classical 1/8 in the X and Y bases; separates genuine
    entanglement from a classically correlated preparation.
    """
    return DensityMatrix(np.diag(MINORITY_TABLE.sum(axis=1) / 8.0))


def average_payoff_closed_ii(alpha: float, f: float = 1.0) -> float:
    """Closed-form average payoff of STRATEGY_II play on the noisy family."""
    alpha, f = _check_unit("alpha", alpha), _check_unit("f", f)
    return 1.0 / 8.0 + (f / 16.0) * alpha * (2.0 * np.sqrt(2.0 - 2.0 * alpha**2) - alpha)


def average_payoff_closed_i(alpha: float, f: float = 1.0) -> float:
    """Closed-form average payoff of STRATEGY_I play on the noisy family.

    Derived from the simulation: the pure-state value is alpha^2/4.
    """
    alpha, f = _check_unit("alpha", alpha), _check_unit("f", f)
    return 1.0 / 8.0 + (f / 8.0) * (2.0 * alpha**2 - 1.0)


def average_payoff_closed_i_alt(alpha: float, f: float = 1.0) -> float:
    """Variant STRATEGY_I closed form carrying an extra leading alpha.

    Kept for comparison runs only: it disagrees with the simulation away from
    alpha = 1 (about 0.0077 low at the strategy crossing alpha = sqrt(2/3)).
    """
    alpha, f = _check_unit("alpha", alpha), _check_unit("f", f)
    return 1.0 / 8.0 + (f / 8.0) * alpha * (2.0 * alpha**2 - 1.0)
