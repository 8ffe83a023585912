"""State-vector primitives: indexing, local operations, probabilities."""

import numpy as np
import pytest

from _oracles import kron_apply, mixture, random_state_vector, random_unitary

from qminority import STRATEGY_I, strategy_unitary
from qminority.qcore import (
    DensityMatrix,
    PureState,
    apply_local,
    basis_state,
    bits_to_index,
    index_to_bits,
    inner,
    outcome_probabilities,
)


def ghz_vector():
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = amps[0b1111] = 1 / np.sqrt(2)
    return amps


def test_bit_indexing_is_big_endian():
    assert bits_to_index("0110") == 6
    assert bits_to_index("0001") == 1
    assert index_to_bits(6, 4) == "0110"
    for i in range(16):
        assert bits_to_index(index_to_bits(i, 4)) == i
    with pytest.raises(ValueError):
        bits_to_index("01a0")
    with pytest.raises(ValueError):
        index_to_bits(16, 4)


def test_basis_state_by_index_and_label():
    a = basis_state(4, 0b1010)
    b = basis_state(4, "1010")
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert a.amplitudes[0b1010] == 1.0
    with pytest.raises(ValueError):
        basis_state(4, 16)
    with pytest.raises(ValueError):
        basis_state(4, "10101")


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState(np.ones(16, dtype=complex))
    with pytest.raises(ValueError):
        PureState(np.ones(3, dtype=complex) / np.sqrt(3))  # not 2**n long
    for bad in (np.nan, np.inf):
        amps = np.full(16, bad, dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            PureState(amps)
        amps = ghz_vector()
        amps[3] = bad
        with pytest.raises(ValueError, match="finite"):
            PureState(amps)
    s = PureState(ghz_vector())
    assert s.n == 4
    with pytest.raises(ValueError):
        s.amplitudes[0] = 9.0  # write-protected


def test_apply_local_identity():
    s = PureState(ghz_vector())
    out = apply_local(s, [np.eye(2)] * 4)
    assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-15)


def test_apply_local_matches_full_kron_route():
    rng = np.random.default_rng(101)
    for _ in range(50):
        s = PureState(random_state_vector(rng))
        ops = [random_unitary(rng) for _ in range(4)]
        got = apply_local(s, ops).amplitudes
        want = kron_apply(s.amplitudes, ops)
        assert np.max(np.abs(got - want)) < 1e-12


def test_apply_local_composition():
    # applying A then B equals applying B@A qubitwise
    rng = np.random.default_rng(102)
    for _ in range(25):
        s = PureState(random_state_vector(rng))
        a = [random_unitary(rng) for _ in range(4)]
        b = [random_unitary(rng) for _ in range(4)]
        two_step = apply_local(apply_local(s, a), b).amplitudes
        one_step = apply_local(s, [bi @ ai for ai, bi in zip(a, b)]).amplitudes
        assert np.max(np.abs(two_step - one_step)) < 1e-12


def test_apply_local_preserves_norm():
    rng = np.random.default_rng(103)
    for _ in range(50):
        s = PureState(random_state_vector(rng))
        out = apply_local(s, [random_unitary(rng) for _ in range(4)])
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < 1e-12


def test_apply_local_rejects_non_unitary():
    s = PureState(ghz_vector())
    bad = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        apply_local(s, [np.eye(2)] * 3 + [bad])
    with pytest.raises(ValueError):
        apply_local(s, [np.eye(2)] * 3)  # wrong count


def test_strategy_i_on_ghz_fills_odd_parity():
    out = apply_local(PureState(ghz_vector()), [strategy_unitary(STRATEGY_I)] * 4)
    mag = np.abs(out.amplitudes)
    odd = [i for i in range(16) if bin(i).count("1") % 2 == 1]
    even = [i for i in range(16) if bin(i).count("1") % 2 == 0]
    assert np.max(np.abs(mag[odd] - 1 / (2 * np.sqrt(2)))) < 1e-12
    assert np.max(mag[even]) < 1e-12


def test_theta_pi_strategy_is_bit_flip():
    from qminority import StrategyParams

    out = apply_local(basis_state(4, "0000"), [strategy_unitary(StrategyParams(np.pi, 0, 0))] * 4)
    assert abs(abs(out.amplitudes[0b1111]) - 1.0) < 1e-12


def test_outcome_probabilities_examples():
    p = outcome_probabilities(basis_state(4, "0000"))
    assert p[0] == 1.0 and np.sum(p[1:]) == 0.0

    p = outcome_probabilities(PureState(ghz_vector()))
    assert abs(p[0b0000] - 0.5) < 1e-15 and abs(p[0b1111] - 0.5) < 1e-15

    # alpha=0 family member: quarters on the four pair kets
    amps = np.zeros(16, dtype=complex)
    amps[[0b0101, 0b0110, 0b1001, 0b1010]] = 0.5
    p = outcome_probabilities(PureState(amps))
    assert np.max(np.abs(p[[5, 6, 9, 10]] - 0.25)) < 1e-15
    assert p.sum() == pytest.approx(1.0, abs=1e-15)


def test_global_phase_leaves_probabilities_unchanged():
    rng = np.random.default_rng(104)
    for _ in range(20):
        amps = random_state_vector(rng)
        phased = np.exp(1j * rng.uniform(0, 2 * np.pi)) * amps
        assert np.array_equal(
            outcome_probabilities(PureState(amps)) > 0,
            outcome_probabilities(PureState(phased)) > 0,
        )
        assert np.max(np.abs(
            outcome_probabilities(PureState(amps)) - outcome_probabilities(PureState(phased))
        )) < 1e-15


def test_ensemble_probabilities():
    ghz = PureState(ghz_vector())
    single = mixture([1.0], [ghz])
    assert np.allclose(outcome_probabilities(single), outcome_probabilities(ghz), atol=1e-15)

    uniform = DensityMatrix(np.eye(16) / 16)
    assert np.max(np.abs(outcome_probabilities(uniform) - 1 / 16)) < 1e-15

    # half GHZ, half uniform noise: p(0000) = 0.5*0.5 + 0.5/16
    kets = [basis_state(4, i) for i in range(16)]
    mixed = mixture([0.5] + [0.5 / 16] * 16, [ghz] + kets)
    p = outcome_probabilities(mixed)
    assert abs(p[0] - 0.28125) < 1e-15


def test_apply_local_ensemble_applies_memberwise():
    rng = np.random.default_rng(105)
    members = [PureState(random_state_vector(rng)) for _ in range(3)]
    w = np.array([0.2, 0.3, 0.5])
    ops = [random_unitary(rng) for _ in range(4)]
    out = apply_local(mixture(w, members), ops)
    assert isinstance(out, DensityMatrix)
    want = mixture(w, [apply_local(s, ops) for s in members])
    assert np.max(np.abs(out.matrix - want.matrix)) < 1e-15


def test_ensemble_validation():
    ghz = ghz_vector()
    rho = DensityMatrix(np.outer(ghz, ghz.conj()))
    assert rho.n == 4
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0  # write-protected
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(16)[:, :8] / 8)  # not square
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3)  # not 2**n rows
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 2)  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.full((2, 2), np.nan))  # not finite


def test_inner_product():
    a = basis_state(4, "0000")
    b = basis_state(4, "1111")
    assert inner(a, b) == 0
    assert inner(a, a) == pytest.approx(1.0, abs=1e-15)
    ghz = PureState(ghz_vector())
    assert inner(a, ghz) == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    with pytest.raises(ValueError):
        inner(a, PureState(np.array([1, 0], dtype=complex)))
