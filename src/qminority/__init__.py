"""Four-player quantum Minority game over a GHZ/EPR state family.

State-vector simulation of the game, symmetric Nash-equilibrium and
Pareto-optimum searches with best-response certification, waveplate
realizations of the strategies, GHZ fidelity estimation, and a
counts-to-fidelity experimental analysis pipeline.
"""

__version__ = "0.1.0"

from . import analysis, equilibrium, game, qcore, states, strategies
from .analysis import (
    CountsTable,
    FitPoint,
    FitResult,
    PayoffEstimate,
    bundled_fit_points,
    corrected_probabilities,
    fit_f,
    load_counts,
    load_fit_points,
    payoff_estimate,
    simulate_counts,
)
from .equilibrium import (
    EquilibriumReport,
    SymmetricPoint,
    deviation_gain,
    find_symmetric_ne,
    find_symmetric_po,
    ne_payoff,
    ne_theta,
    payoff_gradient_closed,
    symmetric_payoff,
)
from .game import (
    MINORITY_TABLE,
    MeasurementBasis,
    average_payoff,
    expected_payoffs,
    final_state,
    minority_payoffs,
    outcome_distribution,
    separable_benchmark,
)
from .qcore import DensityMatrix, PureState, apply_local, basis_state
from .states import (
    alpha_from_hwp,
    family_state,
    ghz_fidelity,
    ghz_state,
    noisy_state,
    stabilizer_fidelity,
    stabilizer_fidelity_settings,
)
from .strategies import (
    STRATEGY_I,
    STRATEGY_II,
    StrategyParams,
    WaveplateTriple,
    compose_waveplates,
    hwp,
    qwp,
    solve_waveplate_angles,
    strategy_unitary,
)

__all__ = [
    "__version__",
    "analysis",
    "equilibrium",
    "game",
    "qcore",
    "states",
    "strategies",
    "CountsTable",
    "FitPoint",
    "FitResult",
    "PayoffEstimate",
    "bundled_fit_points",
    "corrected_probabilities",
    "fit_f",
    "load_counts",
    "load_fit_points",
    "payoff_estimate",
    "simulate_counts",
    "EquilibriumReport",
    "SymmetricPoint",
    "deviation_gain",
    "find_symmetric_ne",
    "find_symmetric_po",
    "ne_payoff",
    "ne_theta",
    "payoff_gradient_closed",
    "symmetric_payoff",
    "MINORITY_TABLE",
    "MeasurementBasis",
    "average_payoff",
    "expected_payoffs",
    "final_state",
    "minority_payoffs",
    "outcome_distribution",
    "separable_benchmark",
    "DensityMatrix",
    "PureState",
    "apply_local",
    "basis_state",
    "alpha_from_hwp",
    "family_state",
    "ghz_fidelity",
    "ghz_state",
    "noisy_state",
    "stabilizer_fidelity",
    "stabilizer_fidelity_settings",
    "STRATEGY_I",
    "STRATEGY_II",
    "StrategyParams",
    "WaveplateTriple",
    "compose_waveplates",
    "hwp",
    "qwp",
    "solve_waveplate_angles",
    "strategy_unitary",
]
