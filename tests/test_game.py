"""Minority payoff rule and expected-payoff evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import mixture, random_density_matrix, random_params, random_state_vector

from qminority import (
    MINORITY_TABLE,
    STRATEGY_I,
    STRATEGY_II,
    MeasurementBasis,
    StrategyParams,
    average_payoff,
    expected_payoffs,
    family_state,
    final_state,
    ghz_state,
    minority_payoffs,
    noisy_state,
    outcome_distribution,
    separable_benchmark,
)
from qminority.game import (
    average_payoff_closed_i,
    average_payoff_closed_i_alt,
    average_payoff_closed_ii,
)
from qminority.qcore import DensityMatrix, PureState, basis_state

IDENTITY_PROFILE = [StrategyParams(0, 0, 0)] * 4


def test_minority_payoffs_examples():
    assert np.array_equal(minority_payoffs("0001"), [0, 0, 0, 1])
    assert np.array_equal(minority_payoffs("0101"), [0, 0, 0, 0])
    assert np.array_equal(minority_payoffs("1110"), [0, 0, 0, 1])
    assert np.array_equal(minority_payoffs("1000"), [1, 0, 0, 0])
    assert np.array_equal(minority_payoffs(0b0001), minority_payoffs("0001"))
    with pytest.raises(ValueError):
        minority_payoffs(16)


def test_minority_table_structure():
    # exactly the eight 3-1 splits pay, one winner each, two wins per player
    row_sums = MINORITY_TABLE.sum(axis=1)
    assert np.count_nonzero(row_sums) == 8
    assert set(row_sums) == {0.0, 1.0}
    assert np.array_equal(MINORITY_TABLE.sum(axis=0), [2, 2, 2, 2])


def test_final_state_identity_and_named_profiles():
    ghz = ghz_state()
    assert np.allclose(final_state(ghz, IDENTITY_PROFILE).amplitudes, ghz.amplitudes, atol=1e-15)

    out = final_state(ghz, [STRATEGY_I] * 4)
    mag = np.abs(out.amplitudes)
    odd = [i for i in range(16) if bin(i).count("1") % 2 == 1]
    assert np.max(np.abs(mag[odd] - 1 / (2 * np.sqrt(2)))) < 1e-12

    out = final_state(family_state(0.0), [STRATEGY_II] * 4)
    probs = np.abs(out.amplitudes) ** 2
    assert np.max(np.abs(probs[odd] - 1 / 16)) < 1e-12

    with pytest.raises(ValueError):
        final_state(ghz, [STRATEGY_I] * 3)


def test_expected_payoffs_named_values():
    assert np.max(np.abs(expected_payoffs(noisy_state(1, 1), [STRATEGY_I] * 4) - 0.25)) < 1e-9
    assert np.max(np.abs(expected_payoffs(noisy_state(0, 1), [STRATEGY_II] * 4) - 0.125)) < 1e-9
    assert np.max(np.abs(expected_payoffs(noisy_state(0, 1), [STRATEGY_I] * 4))) < 1e-9


def test_fully_mixed_input_pays_classical_value():
    rng = np.random.default_rng(401)
    for _ in range(10):
        profile = [random_params(rng) for _ in range(4)]
        alpha = float(rng.uniform(0, 1))
        got = expected_payoffs(noisy_state(alpha, 0.0), profile)
        assert np.max(np.abs(got - 0.125)) < 1e-9


def test_linearity_over_ensembles():
    rng = np.random.default_rng(402)
    for _ in range(10):
        members = tuple(PureState(random_state_vector(rng)) for _ in range(3))
        w = rng.uniform(0.1, 1, size=3)
        w /= w.sum()
        profile = [random_params(rng) for _ in range(4)]
        whole = expected_payoffs(mixture(w, members), profile)
        parts = sum(wi * expected_payoffs(s, profile) for wi, s in zip(w, members))
        assert np.max(np.abs(whole - parts)) < 1e-12


def test_linearity_in_noise_fraction():
    rng = np.random.default_rng(403)
    for basis in ("Z", "X", "Y"):
        for _ in range(5):
            alpha = float(rng.uniform(0, 1))
            f = float(rng.uniform(0, 1))
            profile = [random_params(rng) for _ in range(4)]
            pure = average_payoff(family_state(alpha), profile, basis)
            got = average_payoff(noisy_state(alpha, f), profile, basis)
            assert abs(got - (1 / 8 + f * (pure - 1 / 8))) < 1e-12


def test_symmetric_profile_pays_equally():
    rng = np.random.default_rng(404)
    for _ in range(20):
        alpha = float(rng.uniform(0, 1))
        th = float(rng.uniform(0, np.pi))
        be = float(rng.uniform(-np.pi, np.pi))
        profile = [StrategyParams(th, be, -be)] * 4
        p = expected_payoffs(family_state(alpha), profile)
        assert np.max(np.abs(p - p.mean())) < 1e-12


def test_payoff_bounds():
    rng = np.random.default_rng(405)
    for _ in range(20):
        s = PureState(random_state_vector(rng))
        profile = [random_params(rng) for _ in range(4)]
        p = expected_payoffs(s, profile)
        assert np.all(p >= -1e-12)
        assert p.sum() <= 1 + 1e-12
        assert p.mean() <= 0.25 + 1e-12


def test_z_basis_phase_shift_invariance():
    rng = np.random.default_rng(406)
    for _ in range(10):
        alpha = float(rng.uniform(0, 1))
        profile = [StrategyParams(float(rng.uniform(0, np.pi)),
                                  float(rng.uniform(-2, 2)),
                                  float(rng.uniform(-2, 2))) for _ in range(4)]
        base = expected_payoffs(family_state(alpha), profile)
        shifted = list(profile)
        k = int(rng.integers(4))
        d = float(rng.uniform(-1, 1))
        p = profile[k]
        shifted[k] = StrategyParams(p.theta, p.beta1 + d, p.beta2 + d)
        got = expected_payoffs(family_state(alpha), shifted)
        assert np.max(np.abs(got - base)) < 1e-12


def test_closed_form_strategy_ii_matches_engine():
    for f in (0.5, 1.0):
        for alpha in np.linspace(0, 1, 101):
            brute = average_payoff(noisy_state(float(alpha), f), [STRATEGY_II] * 4)
            assert abs(brute - average_payoff_closed_ii(float(alpha), f)) < 1e-9


def test_closed_form_strategy_i_matches_engine():
    for alpha in np.linspace(0, 1, 101):
        brute = average_payoff(family_state(float(alpha)), [STRATEGY_I] * 4)
        assert abs(brute - float(alpha) ** 2 / 4) < 1e-9
        assert abs(brute - average_payoff_closed_i(float(alpha), 1.0)) < 1e-9
    brute_half = average_payoff(noisy_state(0.6, 0.5), [STRATEGY_I] * 4)
    assert abs(brute_half - average_payoff_closed_i(0.6, 0.5)) < 1e-9


def test_alt_closed_form_documented_discrepancy():
    # the variant form disagrees with the engine away from alpha = 1
    a = np.sqrt(2 / 3)
    brute = average_payoff(family_state(a), [STRATEGY_I] * 4)
    assert abs(brute - 1 / 6) < 1e-9
    gap = brute - average_payoff_closed_i_alt(a, 1.0)
    assert abs(gap - 0.007645975794678017) < 1e-9
    assert abs(average_payoff_closed_i_alt(1.0, 0.71) - average_payoff_closed_i(1.0, 0.71)) < 1e-15


def test_strategy_crossing_value():
    a = np.sqrt(2 / 3)
    p1 = average_payoff(family_state(a), [STRATEGY_I] * 4)
    p2 = average_payoff(family_state(a), [STRATEGY_II] * 4)
    assert abs(p1 - p2) < 1e-9
    assert abs(p1 - 1 / 6) < 1e-9


def test_rotated_basis_curves_spot_check():
    for alpha in (0.0, 0.3, np.sqrt(2 / 3), 0.9, 1.0):
        s = family_state(float(alpha))
        assert abs(average_payoff(s, [STRATEGY_I] * 4, "X")
                   - average_payoff(s, [STRATEGY_I] * 4, "Z")) < 1e-9
        assert abs(average_payoff(s, [STRATEGY_II] * 4, "Y")
                   - average_payoff(s, [STRATEGY_II] * 4, "Z")) < 1e-9


def test_basis_argument_forms():
    s = family_state(0.5)
    profile = [STRATEGY_II] * 4
    assert average_payoff(s, profile, "X") == average_payoff(s, profile, MeasurementBasis.X)
    with pytest.raises(ValueError):
        outcome_distribution(s, profile, "Q")


def test_separable_benchmark():
    rho = separable_benchmark()
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert np.array_equal(rho.matrix, np.diag(np.diagonal(rho.matrix)))
    support = [i for i in range(16) if rho.matrix[i, i] != 0]
    assert len(support) == 8
    for idx in support:
        assert bin(idx).count("1") in (1, 3)
        assert rho.matrix[idx, idx] == 1 / 8
    assert np.max(np.abs(expected_payoffs(rho, IDENTITY_PROFILE, "Z") - 0.25)) < 1e-9
    assert np.max(np.abs(expected_payoffs(rho, IDENTITY_PROFILE, "X") - 0.125)) < 1e-9
    assert np.max(np.abs(expected_payoffs(rho, IDENTITY_PROFILE, "Y") - 0.125)) < 1e-9


def test_skipping_the_unentangling_gate_is_harmless():
    # protocol regression: measuring after the inverse entangler changes
    # nothing for this payoff table
    rng = np.random.default_rng(407)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    x4 = np.kron(np.kron(x, x), np.kron(x, x))
    j = (np.eye(16) + 1j * x4) / np.sqrt(2)
    start = PureState(j @ basis_state(4, 0).amplitudes)
    for _ in range(50):
        profile = [random_params(rng) for _ in range(4)]
        out = final_state(start, profile).amplitudes
        without_gate = np.abs(out) ** 2 @ MINORITY_TABLE
        with_gate = np.abs(j.conj().T @ out) ** 2 @ MINORITY_TABLE
        assert np.max(np.abs(with_gate - without_gate)) < 1e-12


def test_closed_form_domains():
    for fn in (average_payoff_closed_i, average_payoff_closed_ii, average_payoff_closed_i_alt):
        with pytest.raises(ValueError):
            fn(1.2, 1.0)
        with pytest.raises(ValueError):
            fn(0.5, -0.2)


# ---------------------------------------------------------------------------
# properties over random states and profiles

PROPERTY = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)
bases = st.sampled_from("ZXY")
# outcomes with a 3-1 split, the only ones that pay
SPLIT_31 = [i for i in range(16) if bin(i).count("1") in (1, 3)]


def random_state(rng, mixed):
    return random_density_matrix(rng) if mixed else PureState(random_state_vector(rng))


def permute_qubits(state, perm):
    """The state whose qubit q is qubit perm[q] of the input."""
    if isinstance(state, PureState):
        return PureState(state.amplitudes.reshape([2] * 4).transpose(perm).reshape(16))
    axes = list(perm) + [4 + q for q in perm]
    return DensityMatrix(state.matrix.reshape([2] * 8).transpose(axes).reshape(16, 16))


@PROPERTY
@given(seed=seeds, mixed=st.booleans(), basis=bases)
def test_payoffs_lie_in_unit_interval_and_sum_to_the_split_probability(seed, mixed, basis):
    rng = np.random.default_rng(seed)
    state = random_state(rng, mixed)
    profile = [random_params(rng) for _ in range(4)]
    pays = expected_payoffs(state, profile, basis)
    assert np.all(pays >= 0.0) and np.all(pays <= 1.0)
    split = outcome_distribution(state, profile, basis)[SPLIT_31].sum()
    assert abs(pays.sum() - split) < 1e-12


@PROPERTY
@given(seed=seeds, mixed=st.booleans(), basis=bases, perm=st.permutations(range(4)))
def test_permuting_players_with_their_qubits_permutes_payoffs(seed, mixed, basis, perm):
    rng = np.random.default_rng(seed)
    state = random_state(rng, mixed)
    profile = [random_params(rng) for _ in range(4)]
    pays = expected_payoffs(state, profile, basis)
    permuted = expected_payoffs(permute_qubits(state, perm), [profile[q] for q in perm], basis)
    assert np.max(np.abs(permuted - pays[list(perm)])) < 1e-12
