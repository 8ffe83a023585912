"""Strategy unitaries and the waveplate decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import phase_gap, random_unitary

from qminority import (
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
from qminority.strategies import (
    BENCH_TRIPLES,
    _aligned_difference,
    bench_triple_report,
    phase_distance,
)


def test_strategy_unitary_identity():
    assert np.allclose(strategy_unitary(StrategyParams(0, 0, 0)), np.eye(2), atol=1e-15)


def test_strategy_unitary_named_points():
    u = strategy_unitary(STRATEGY_I)
    want = np.array([
        [np.exp(1j * np.pi / 8), 1j * np.exp(-1j * np.pi / 8)],
        [1j * np.exp(1j * np.pi / 8), np.exp(-1j * np.pi / 8)],
    ]) / np.sqrt(2)
    assert np.max(np.abs(u - want)) < 1e-12

    flip = strategy_unitary(StrategyParams(np.pi, 0, 0))
    assert np.max(np.abs(flip - np.array([[0, 1j], [1j, 0]]))) < 1e-12

    assert STRATEGY_I == StrategyParams(np.pi / 2, np.pi / 8, -np.pi / 8)
    assert STRATEGY_II == StrategyParams(np.pi / 4, 0, 0)


def test_strategy_params_domain():
    with pytest.raises(ValueError):
        StrategyParams(-0.1, 0, 0)
    with pytest.raises(ValueError):
        StrategyParams(np.pi + 0.1, 0, 0)
    with pytest.raises(ValueError):
        StrategyParams(1.0, 4.0, 0)
    with pytest.raises(ValueError):
        StrategyParams(1.0, 0, -4.0)


def test_strategy_unitary_is_special_unitary():
    rng = np.random.default_rng(301)
    for _ in range(10_000):
        u = strategy_unitary(StrategyParams(
            float(rng.uniform(0, np.pi)),
            float(rng.uniform(-np.pi, np.pi)),
            float(rng.uniform(-np.pi, np.pi)),
        ))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_common_phase_shift_factorizes():
    rng = np.random.default_rng(302)
    for _ in range(50):
        th = float(rng.uniform(0, np.pi))
        b1 = float(rng.uniform(-1.5, 1.5))
        b2 = float(rng.uniform(-1.5, 1.5))
        d = float(rng.uniform(-1.5, 1.5))
        shifted = strategy_unitary(StrategyParams(th, b1 + d, b2 + d))
        factored = np.diag([np.exp(1j * d), np.exp(-1j * d)]) @ strategy_unitary(
            StrategyParams(th, b1, b2))
        assert np.max(np.abs(shifted - factored)) < 1e-12


def test_hwp_qwp_basics():
    h0 = hwp(0.0)
    assert abs(abs(h0[0, 0]) - 1) < 1e-12 and abs(abs(h0[1, 1]) - 1) < 1e-12
    assert abs(h0[0, 1]) < 1e-15 and abs(h0[1, 0]) < 1e-15

    assert phase_gap(qwp(0.0) @ qwp(0.0), hwp(0.0)) < 1e-12

    vec = hwp(np.pi / 8) @ np.array([1.0, 0.0])
    target = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(abs(np.vdot(target, vec)) - 1.0) < 1e-12


def test_waveplates_unitary_and_periodic():
    rng = np.random.default_rng(303)
    for _ in range(200):
        phi = float(rng.uniform(-4, 4))
        for plate in (hwp, qwp):
            m = plate(phi)
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12
            assert np.max(np.abs(plate(phi + np.pi) - m)) < 1e-12


def test_compose_waveplates_zero_triple():
    m = compose_waveplates(WaveplateTriple(0.0, 0.0, 0.0))
    # axis-aligned plates only add relative phase between H and V
    assert abs(m[0, 1]) < 1e-15 and abs(m[1, 0]) < 1e-15
    assert abs(abs(m[0, 0]) - 1) < 1e-12 and abs(abs(m[1, 1]) - 1) < 1e-12


def test_waveplate_triple_angle_folding():
    t = WaveplateTriple(2.0, -3.0, np.pi / 2)
    for angle in (t.qwp1, t.hwp, t.qwp2):
        assert -np.pi / 2 < angle <= np.pi / 2
    # folding never changes the composed element
    assert phase_gap(compose_waveplates(t),
                     qwp(np.pi / 2) @ hwp(-3.0) @ qwp(2.0)) < 1e-12


def test_bench_triples_reported_as_mismatch():
    report = bench_triple_report()
    by_name = {r["strategy"]: r for r in report}
    assert set(by_name) == {"I", "II"}
    assert by_name["I"]["matches"] is False
    assert by_name["II"]["matches"] is False
    assert abs(by_name["I"]["phase_distance"] - (2 + np.sqrt(2)) / 4) < 1e-9
    assert abs(by_name["II"]["phase_distance"] - (1 - 1 / np.sqrt(2))) < 1e-9


def test_bench_triples_match_under_conjugate_reversed_convention():
    # the published angles presume the opposite retardance sign and plate
    # order; conjugating the reversed composition reproduces both strategies
    for name, params in (("I", STRATEGY_I), ("II", STRATEGY_II)):
        t = BENCH_TRIPLES[name]
        swapped = WaveplateTriple(t.qwp2, t.hwp, t.qwp1)
        u = np.conj(compose_waveplates(swapped))
        assert phase_gap(u, strategy_unitary(params)) < 1e-9


def test_solve_waveplate_angles_round_trips():
    for target in (np.eye(2, dtype=complex),
                   strategy_unitary(STRATEGY_I),
                   strategy_unitary(STRATEGY_II)):
        t = solve_waveplate_angles(target)
        assert phase_gap(compose_waveplates(t), target) < 1e-9
        for angle in (t.qwp1, t.hwp, t.qwp2):
            assert -np.pi / 2 < angle <= np.pi / 2


def test_solve_waveplate_angles_random_round_trips():
    rng = np.random.default_rng(304)
    for _ in range(100):
        target = random_unitary(rng)
        t = solve_waveplate_angles(target)
        assert phase_gap(compose_waveplates(t), target) < 1e-9


def _assert_exact_solve(target):
    t = solve_waveplate_angles(target, tol=1e-12)
    assert _aligned_difference(target, compose_waveplates(t)) <= 1e-12
    for angle in (t.qwp1, t.hwp, t.qwp2):
        assert -np.pi / 2 < angle <= np.pi / 2


_phases = st.floats(-np.pi, np.pi)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), phase=_phases)
def test_closed_form_solve_on_haar_random_unitaries(seed, phase):
    _assert_exact_solve(np.exp(1j * phase) * random_unitary(np.random.default_rng(seed)))


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(1e-12, 1e-6), flipped=st.booleans(), beta1=_phases, beta2=_phases)
def test_closed_form_solve_near_gimbal_lock(eps, flipped, beta1, beta2):
    # theta -> 0 or pi leaves only the diagonal or the antidiagonal of M
    theta = np.pi - eps if flipped else eps
    _assert_exact_solve(strategy_unitary(StrategyParams(theta, beta1, beta2)))


@settings(max_examples=200, deadline=None)
@given(x=_phases, y=_phases, anti=st.booleans())
def test_closed_form_solve_on_pure_phase_matrices(x, y, anti):
    target = np.diag([np.exp(1j * x), np.exp(1j * y)])
    _assert_exact_solve(target[::-1] if anti else target)


@pytest.mark.parametrize("params", [STRATEGY_I, STRATEGY_II], ids=["I", "II"])
def test_closed_form_solve_on_named_strategies(params):
    _assert_exact_solve(strategy_unitary(params))


def test_solve_waveplate_angles_raises_below_rounding():
    with pytest.raises(RuntimeError, match="misses the unitary"):
        solve_waveplate_angles(strategy_unitary(STRATEGY_I), tol=1e-20)


def test_solve_waveplate_angles_rejects_non_unitary():
    with pytest.raises(ValueError):
        solve_waveplate_angles(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        solve_waveplate_angles(np.ones((3, 3)))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_solve_waveplate_angles_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        solve_waveplate_angles(strategy_unitary(STRATEGY_I), tol=tol)


def test_phase_distance_is_clamped_nonnegative():
    u = strategy_unitary(STRATEGY_I)
    d = phase_distance(u, np.exp(1j * 0.7) * u)
    assert 0.0 <= d < 1e-12
