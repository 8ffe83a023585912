"""Input-state family, noise model, and GHZ fidelity diagnostics."""

import numpy as np
import pytest

from _oracles import mixture, random_state_vector

from qminority import (
    STRATEGY_I,
    alpha_from_hwp,
    apply_local,
    family_state,
    ghz_fidelity,
    ghz_state,
    noisy_state,
    stabilizer_fidelity,
    stabilizer_fidelity_settings,
    strategy_unitary,
)
from qminority.qcore import DensityMatrix, PureState, basis_state, inner

EPR_KETS = [0b0101, 0b0110, 0b1001, 0b1010]


def test_family_state_endpoints():
    ghz = family_state(1.0)
    assert abs(ghz.amplitudes[0b0000] - 1 / np.sqrt(2)) < 1e-15
    assert abs(ghz.amplitudes[0b1111] - 1 / np.sqrt(2)) < 1e-15
    assert np.count_nonzero(ghz.amplitudes) == 2
    assert np.array_equal(ghz.amplitudes, ghz_state().amplitudes)

    epr = family_state(0.0)
    assert np.max(np.abs(epr.amplitudes[EPR_KETS] - 0.5)) < 1e-15
    assert np.count_nonzero(epr.amplitudes) == 4
    # product of two pair states on qubits (0,1) and (2,3)
    pair = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    assert np.max(np.abs(epr.amplitudes - np.kron(pair, pair))) < 1e-15


def test_family_state_equal_weight_point():
    a = np.sqrt(2 / 3)
    s = family_state(a)
    assert abs(s.amplitudes[0b0000] - 1 / np.sqrt(3)) < 1e-12
    assert abs(s.amplitudes[0b1111] - 1 / np.sqrt(3)) < 1e-12
    assert np.max(np.abs(s.amplitudes[EPR_KETS] - 1 / (2 * np.sqrt(3)))) < 1e-12


def test_family_state_normalized_for_random_alpha():
    rng = np.random.default_rng(201)
    for alpha in rng.uniform(0, 1, size=1000):
        amps = family_state(float(alpha)).amplitudes
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12


def test_family_state_domain():
    with pytest.raises(ValueError):
        family_state(-0.01)
    with pytest.raises(ValueError):
        family_state(1.01)


def test_noisy_state_structure():
    psi = family_state(0.7).amplitudes
    pure = noisy_state(0.7, 1.0)
    assert isinstance(pure, DensityMatrix)
    assert np.max(np.abs(pure.matrix - np.outer(psi, psi.conj()))) < 1e-15

    mixed = noisy_state(0.7, 0.0)
    assert np.max(np.abs(mixed.matrix - np.eye(16) / 16)) < 1e-15

    ghz = ghz_state().amplitudes
    noisy = noisy_state(1.0, 0.71)
    want = 0.71 * np.outer(ghz, ghz.conj()) + 0.018125 * np.eye(16)
    assert np.max(np.abs(noisy.matrix - want)) < 1e-15
    assert abs(np.trace(noisy.matrix) - 1.0) < 1e-12


def test_noisy_state_domain():
    with pytest.raises(ValueError):
        noisy_state(0.5, -0.1)
    with pytest.raises(ValueError):
        noisy_state(0.5, 1.1)


def test_alpha_from_hwp_examples():
    assert alpha_from_hwp(0.0) == 0.0
    assert abs(alpha_from_hwp(np.pi / 8) - 1.0) < 1e-12
    assert abs(alpha_from_hwp(np.pi / 16) - 0.28108) < 5e-6


def test_alpha_from_hwp_monotone():
    grid = np.linspace(0, np.pi / 8, 10_000)
    vals = np.array([alpha_from_hwp(g) for g in grid])
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all(vals >= 0) and np.all(vals <= 1)


def test_alpha_from_hwp_domain():
    with pytest.raises(ValueError):
        alpha_from_hwp(-0.01)
    with pytest.raises(ValueError):
        alpha_from_hwp(np.pi / 8 + 0.01)


def test_ghz_fidelity_direct():
    ghz = ghz_state()
    assert abs(ghz_fidelity(mixture([1.0], [ghz]), ghz) - 1.0) < 1e-15
    for f in (0.0, 0.5, 0.71, 1.0):
        got = ghz_fidelity(noisy_state(1.0, f), ghz)
        assert abs(got - (1 + 15 * f) / 16) < 1e-12
    with pytest.raises(ValueError):
        ghz_fidelity(noisy_state(1, 0.5), PureState(np.array([1, 0], dtype=complex)))


def test_ghz_fidelity_matches_overlap_sum():
    # linearity identity against a hand-rolled overlap sum
    rng = np.random.default_rng(202)
    target = PureState(random_state_vector(rng))
    members = tuple(PureState(random_state_vector(rng)) for _ in range(5))
    w = rng.uniform(0.1, 1, size=5)
    w /= w.sum()
    rho = mixture(w, members)
    want = sum(wi * abs(inner(target, s)) ** 2 for wi, s in zip(w, members))
    assert abs(ghz_fidelity(rho, target) - want) < 1e-15


def test_transformed_fidelity_value():
    # rotating state and target together reproduces the raw overlap
    f = 0.746 * 16 / 15 - 1 / 15
    rho = noisy_state(1.0, f)
    ops = [strategy_unitary(STRATEGY_I)] * 4
    rotated_target = apply_local(ghz_state(), ops)
    got = ghz_fidelity(apply_local(rho, ops), rotated_target)
    assert abs(got - 0.746) < 1e-12


def test_stabilizer_settings_list():
    settings = stabilizer_fidelity_settings()
    assert len(settings) == 9
    assert "ZZZZ" in settings and "XXXX" in settings and "YYYY" in settings
    for s in settings:
        assert len(s) == 4 and set(s) <= set("XYZ")


def test_stabilizer_estimate_examples():
    assert abs(stabilizer_fidelity(mixture([1.0], [ghz_state()])) - 1.0) < 1e-12
    for f in (0.0, 0.3, 0.71, 1.0):
        got = stabilizer_fidelity(noisy_state(1.0, f))
        assert abs(got - (1 + 15 * f) / 16) < 1e-12
    got = stabilizer_fidelity(mixture([1.0], [basis_state(4, "0000")]))
    assert abs(got - 0.5) < 1e-12


def test_stabilizer_estimate_equals_direct_overlap():
    rng = np.random.default_rng(203)
    ghz = ghz_state()
    for _ in range(20):
        members = tuple(PureState(random_state_vector(rng)) for _ in range(3))
        w = rng.uniform(0.1, 1, size=3)
        w /= w.sum()
        rho = mixture(w, members)
        assert abs(stabilizer_fidelity(rho) - ghz_fidelity(rho, ghz)) < 1e-12
    for f in np.linspace(0, 1, 11):
        rho = noisy_state(1.0, float(f))
        assert abs(stabilizer_fidelity(rho) - ghz_fidelity(rho, ghz)) < 1e-12
