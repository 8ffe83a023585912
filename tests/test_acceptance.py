"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with -v to get one pass/fail line per criterion.  Statistical criteria
use fixed seeds so the whole gate is deterministic.
"""

import time

import numpy as np
from scipy import optimize

from qminority import (
    STRATEGY_I,
    STRATEGY_II,
    average_payoff,
    expected_payoffs,
    family_state,
    fit_f,
    ghz_fidelity,
    ghz_state,
    bundled_fit_points,
    noisy_state,
    payoff_estimate,
    simulate_counts,
    separable_benchmark,
    StrategyParams,
)
from qminority.analysis import FitPoint, model_payoff
from qminority.equilibrium import (
    ALPHA_STAR,
    SymmetricPoint,
    deviation_gain,
    find_symmetric_ne,
    ne_payoff,
    ne_theta,
    payoff_gradient_closed,
    symmetric_profile,
)
from qminority.game import average_payoff_closed_i_alt, average_payoff_closed_ii

IDENTITY_PROFILE = [StrategyParams(0, 0, 0)] * 4


def test_criterion_01_ghz_nash_point():
    start = time.perf_counter()
    payoff = average_payoff(noisy_state(1, 1), [STRATEGY_I] * 4, "Z")
    assert abs(payoff - 0.25) < 1e-9
    gain, _ = deviation_gain(1.0, 1.0, SymmetricPoint(np.pi / 2, np.pi / 8))
    assert gain <= 1e-6
    assert time.perf_counter() - start < 10.0


def test_criterion_02_classical_limits():
    assert abs(average_payoff(noisy_state(0, 1), [STRATEGY_II] * 4) - 0.125) < 1e-9
    assert abs(average_payoff(noisy_state(0, 1), [STRATEGY_I] * 4) - 0.0) < 1e-9
    rng = np.random.default_rng(2025)
    for _ in range(5):
        profile = [StrategyParams(float(rng.uniform(0, np.pi)),
                                  float(rng.uniform(-np.pi, np.pi)),
                                  float(rng.uniform(-np.pi, np.pi))) for _ in range(4)]
        alpha = float(rng.uniform(0, 1))
        assert abs(average_payoff(noisy_state(alpha, 0), profile) - 0.125) < 1e-9


def test_criterion_03_ne_curve_and_peak():
    for alpha in np.linspace(0.0, ALPHA_STAR, 21):
        alpha = float(alpha)
        reports = find_symmetric_ne(alpha)
        assert reports, f"no certified NE at alpha={alpha}"
        want_theta = ne_theta(alpha)
        best = min(reports, key=lambda r: abs(r.point.theta - want_theta) + abs(r.point.beta))
        assert abs(best.payoff - ne_payoff(alpha)) < 1e-6, f"alpha={alpha}"
    res = optimize.minimize_scalar(lambda a: -ne_payoff(a),
                                   bounds=(0.01, ALPHA_STAR - 0.01), method="bounded",
                                   options={"xatol": 1e-10})
    assert abs(res.x - 0.45970) < 1e-4
    assert abs(-res.fun - 0.18301) < 1e-5


def test_criterion_04_crossing_and_reported_discrepancy():
    a = np.sqrt(2 / 3)
    p_i = average_payoff(family_state(a), [STRATEGY_I] * 4)
    p_ii = average_payoff(family_state(a), [STRATEGY_II] * 4)
    assert abs(p_i - p_ii) < 1e-9
    assert abs(p_i - 1 / 6) < 1e-9
    gap = p_i - average_payoff_closed_i_alt(a, 1.0)
    assert abs(gap - 0.0077) < 1e-4  # documented, expected discrepancy
    assert abs(gap - 0.007645975794678017) < 1e-9


def test_criterion_05_region_formula_strategy_ii():
    for f in (0.5, 1.0):
        for alpha in np.linspace(0, 1, 101):
            brute = average_payoff(noisy_state(float(alpha), f), [STRATEGY_II] * 4)
            assert abs(brute - average_payoff_closed_ii(float(alpha), f)) < 1e-9


def test_criterion_06_printed_gradient_matches_finite_differences():
    rng = np.random.default_rng(606)
    h = 1e-5
    for _ in range(200):
        alpha = float(rng.uniform(0, 1))
        th = float(rng.uniform(0.05, np.pi - 0.05))
        be = float(rng.uniform(-np.pi / 4 + 0.01, np.pi / 4 - 0.01))
        ens = family_state(alpha)
        fixed = list(symmetric_profile(SymmetricPoint(th, be)))[:3]

        def debra(tp, bp):
            return float(expected_payoffs(ens, fixed + [StrategyParams(tp, bp, -bp)])[3])

        fd_t = (debra(th + h, be) - debra(th - h, be)) / (2 * h)
        fd_b = (debra(th, be + h) - debra(th, be - h)) / (2 * h)
        gt, gb = payoff_gradient_closed(alpha, SymmetricPoint(th, be))
        assert abs(fd_t - gt) < 1e-6
        assert abs(fd_b - gb) < 1e-6


def test_criterion_07_reported_payoffs_fit():
    points = bundled_fit_points()
    res = fit_f(points)
    assert 0.66 <= res.f_hat <= 0.76
    for p in points:
        model = model_payoff(p, 0.71)
        assert abs(model - p.payoff) <= 2.5 * p.error, (p.alpha, p.strategy)


def test_criterion_08_fidelity_relation():
    ghz = ghz_state()
    for f in (0.0, 0.5, 0.71, 1.0):
        got = ghz_fidelity(noisy_state(1.0, f), ghz)
        assert abs(got - (1 + 15 * f) / 16) < 1e-12


def test_criterion_09_separable_benchmark_discrimination():
    ens = separable_benchmark()
    assert abs(average_payoff(ens, IDENTITY_PROFILE, "Z") - 0.25) < 1e-9
    assert abs(average_payoff(ens, IDENTITY_PROFILE, "X") - 0.125) < 1e-9
    assert abs(average_payoff(ens, IDENTITY_PROFILE, "Y") - 0.125) < 1e-9


def test_criterion_10_rotated_basis_structure():
    for alpha in np.linspace(0, 1, 41):
        s = family_state(float(alpha))
        assert abs(average_payoff(s, [STRATEGY_I] * 4, "X")
                   - average_payoff(s, [STRATEGY_I] * 4, "Z")) < 1e-9
        assert abs(average_payoff(s, [STRATEGY_II] * 4, "Y")
                   - average_payoff(s, [STRATEGY_II] * 4, "Z")) < 1e-9


def test_criterion_11_statistical_pipeline():
    start = time.perf_counter()
    rng = np.random.default_rng(20260817)
    strategies = {"I": STRATEGY_I, "II": STRATEGY_II}
    bases = ["Z", "X", "Y"]
    for k in range(20):
        alpha = float(rng.uniform(0, 1))
        f = float(rng.uniform(0.3, 0.95))
        name = ["I", "II"][int(rng.integers(2))]
        basis = bases[int(rng.integers(3))]
        profile = [strategies[name]] * 4
        table = simulate_counts(alpha, f, profile, basis, 10**6, seed=1000 + k,
                                strategy_name=name)
        est = payoff_estimate(table)
        model = average_payoff(noisy_state(alpha, f), profile, basis)
        assert abs(est.average - model) <= 3 * est.std_error, (k, alpha, f, name, basis)

    f_true = 0.73
    pts = []
    for i, (alpha, name) in enumerate([(0.0, "I"), (0.3, "II"), (0.3, "I"), (0.6, "II"),
                                       (0.6, "I"), (0.85, "II"), (1.0, "I"), (1.0, "II")]):
        profile = [strategies[name]] * 4
        table = simulate_counts(alpha, f_true, profile, "Z", 10**6, seed=2000 + i,
                                strategy_name=name)
        est = payoff_estimate(table)
        pts.append(FitPoint(alpha, name, "Z", est.average, est.std_error))
    res = fit_f(pts)
    assert abs(res.f_hat - f_true) <= 3 * res.f_err
    assert time.perf_counter() - start < 60.0
