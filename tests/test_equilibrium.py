"""Symmetric Nash-equilibrium and Pareto search with closed-form anchors."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from _oracles import probe_deviation_max, probe_moments

from qminority import (
    STRATEGY_I,
    STRATEGY_II,
    StrategyParams,
    expected_payoffs,
    family_state,
    noisy_state,
)
from qminority.defaults import NE_GAIN_TOL
from qminority.equilibrium import (
    ALPHA_STAR,
    EquilibriumReport,
    SymmetricPoint,
    _deviation_payoff,
    _family_tensor,
    _stationarity_gradient,
    _symmetric_kernel,
    deviation_gain,
    find_symmetric_ne,
    find_symmetric_po,
    ne_payoff,
    ne_theta,
    payoff_gradient_closed,
    symmetric_payoff,
    symmetric_profile,
)

NE_PEAK_ALPHA = np.sqrt((3 - np.sqrt(3)) / 6)
NE_PEAK_VALUE = (3 + 2 * np.sqrt(3)) / (18 + 10 * np.sqrt(3))


def closest_to(reports, theta, beta):
    return min(reports, key=lambda r: abs(r.point.theta - theta) + abs(r.point.beta - beta))


def test_symmetric_payoff_examples():
    assert abs(symmetric_payoff(1, 1, SymmetricPoint(np.pi / 2, np.pi / 8)) - 0.25) < 1e-9
    assert abs(symmetric_payoff(0, 1, SymmetricPoint(np.pi / 4, 0)) - 0.125) < 1e-9
    a = np.sqrt(2 / 3)
    assert abs(symmetric_payoff(a, 1, SymmetricPoint(np.pi / 4, 0)) - 1 / 6) < 1e-9
    assert abs(symmetric_payoff(a, 1, SymmetricPoint(np.pi / 2, np.pi / 8)) - 1 / 6) < 1e-9


def test_symmetric_point_validation():
    with pytest.raises(ValueError):
        SymmetricPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        SymmetricPoint(np.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        SymmetricPoint(1.0, 4.0)


def test_symmetric_profile_matches_named_strategies():
    prof = symmetric_profile(SymmetricPoint(np.pi / 2, np.pi / 8))
    assert all(p == STRATEGY_I for p in prof)
    prof = symmetric_profile(SymmetricPoint(np.pi / 4, 0.0))
    assert all(p == STRATEGY_II for p in prof)


def test_deviation_gain_named_points():
    gain, _ = deviation_gain(1.0, 1.0, SymmetricPoint(np.pi / 2, np.pi / 8))
    assert gain <= 1e-6
    gain, _ = deviation_gain(0.0, 1.0, SymmetricPoint(0.0, 0.0))
    assert gain <= 1e-6
    gain, best = deviation_gain(1.0, 1.0, SymmetricPoint(np.pi / 4, 0.0))
    assert gain > 0.01
    # reported argmax reproduces the reported gain through the full pipeline
    base = symmetric_payoff(1.0, 1.0, SymmetricPoint(np.pi / 4, 0.0))
    prof = list(symmetric_profile(SymmetricPoint(np.pi / 4, 0.0)))[:3] + [best]
    direct = float(expected_payoffs(noisy_state(1.0, 1.0), prof)[3])
    assert abs((base + gain) - direct) < 1e-9


def test_deviation_gain_matches_analytic_best_response():
    rng = np.random.default_rng(501)
    cases = [(1.0, 1.0, SymmetricPoint(np.pi / 2, np.pi / 8)),
             (0.3, 1.0, SymmetricPoint(0.6474971284832924, 0.0))]
    for _ in range(6):
        cases.append((float(rng.uniform(0, 1)), float(rng.uniform(0.4, 1)),
                      SymmetricPoint(float(rng.uniform(0, np.pi)),
                                     float(rng.uniform(-0.7, 0.7)))))
    for alpha, f, point in cases:
        gain, _ = deviation_gain(alpha, f, point)
        base = symmetric_payoff(alpha, f, point)
        assert abs((base + gain) - probe_deviation_max(alpha, f, point)) < 1e-7
        assert gain >= -1e-12


def test_ne_theta_closed_form():
    assert ne_theta(0.0) == pytest.approx(0.0, abs=1e-9)
    assert ne_theta(np.sqrt(2 / 3)) == pytest.approx(np.pi / 2, abs=1e-6)
    assert ne_theta(0.3) == pytest.approx(0.6474971284832924, abs=1e-12)
    assert ne_theta(0.9) is None
    assert ne_theta(1.0) is None
    with pytest.raises(ValueError):
        ne_theta(1.5)


def test_ne_payoff_closed_form():
    assert ne_payoff(0.0) == 0.0
    assert abs(ne_payoff(np.sqrt(2 / 3))) < 1e-12
    assert ne_payoff(0.3) == pytest.approx(0.15736106344848064, abs=1e-12)
    assert ne_payoff(NE_PEAK_ALPHA) == pytest.approx(NE_PEAK_VALUE, abs=1e-12)
    assert abs(NE_PEAK_VALUE - 0.18301) < 1e-5
    with pytest.raises(ValueError):
        ne_payoff(0.9)


def test_ne_payoff_peak_location():
    res = optimize.minimize_scalar(lambda a: -ne_payoff(a),
                                   bounds=(0.01, ALPHA_STAR - 0.01), method="bounded",
                                   options={"xatol": 1e-10})
    assert abs(res.x - NE_PEAK_ALPHA) < 1e-6
    assert abs(-res.fun - NE_PEAK_VALUE) < 1e-9


def test_gradient_closed_form_stationary_points():
    gt, gb = payoff_gradient_closed(1.0, SymmetricPoint(np.pi / 2, np.pi / 8))
    assert abs(gt) < 1e-12 and abs(gb) < 1e-12
    for beta in (-0.4, 0.0, 0.3):
        gt, _ = payoff_gradient_closed(0.7, SymmetricPoint(0.0, beta))
        assert abs(gt) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(502)
    h = 1e-5
    for _ in range(40):
        alpha = float(rng.uniform(0, 1))
        th = float(rng.uniform(0.05, np.pi - 0.05))
        be = float(rng.uniform(-np.pi / 4 + 0.01, np.pi / 4 - 0.01))
        ens = family_state(alpha)
        fixed = list(symmetric_profile(SymmetricPoint(th, be)))[:3]

        def debra(tp, bp):
            from qminority import StrategyParams
            return float(expected_payoffs(ens, fixed + [StrategyParams(tp, bp, -bp)])[3])

        fd_t = (debra(th + h, be) - debra(th - h, be)) / (2 * h)
        fd_b = (debra(th, be + h) - debra(th, be - h)) / (2 * h)
        gt, gb = payoff_gradient_closed(alpha, SymmetricPoint(th, be))
        assert abs(fd_t - gt) < 1e-6
        assert abs(fd_b - gb) < 1e-6


def test_find_symmetric_ne_ghz():
    reports = find_symmetric_ne(1.0)
    assert reports and all(isinstance(r, EquilibriumReport) for r in reports)
    best = closest_to(reports, np.pi / 2, np.pi / 8)
    assert abs(best.point.theta - np.pi / 2) < 1e-4
    assert abs(best.point.beta - np.pi / 8) < 1e-4
    assert abs(best.payoff - 0.25) < 1e-6
    assert best.max_deviation_gain <= NE_GAIN_TOL


def test_find_symmetric_ne_small_alpha():
    reports = find_symmetric_ne(0.3)
    want_theta = ne_theta(0.3)
    best = closest_to(reports, want_theta, 0.0)
    assert abs(best.point.theta - want_theta) < 1e-4
    assert abs(best.point.beta) < 1e-4
    assert abs(best.payoff - ne_payoff(0.3)) < 1e-6
    # the mirrored stationary point pi - theta pays the same
    twin = closest_to(reports, np.pi - want_theta, 0.0)
    assert abs(twin.point.theta - (np.pi - want_theta)) < 1e-4
    assert abs(twin.payoff - ne_payoff(0.3)) < 1e-6


# the theta = 0 and pi lines are stationary for every beta, and just above
# alpha = 0.0125 the interior equilibria sit close to them
MIRROR_ALPHAS = [*np.linspace(0.015, 0.80, 158), 0.0125, 0.021, 0.0215, 0.022, 0.022040949016119478]


@pytest.mark.parametrize("alpha", [float(a) for a in MIRROR_ALPHAS])
def test_find_symmetric_ne_certifies_both_mirror_images(alpha):
    points = [(r.point.theta, r.point.beta) for r in find_symmetric_ne(alpha)]
    want = ne_theta(alpha)
    for theta in (want, np.pi - want):
        assert min((max(abs(t - theta), abs(b)) for t, b in points), default=np.inf) < 1e-9


def test_find_symmetric_ne_alpha_zero():
    reports = find_symmetric_ne(0.0)
    thetas = sorted(r.point.theta for r in reports)
    assert abs(thetas[0] - 0.0) < 1e-4
    assert abs(thetas[-1] - np.pi) < 1e-4
    for r in reports:
        assert abs(r.payoff) < 1e-9
        assert r.max_deviation_gain <= NE_GAIN_TOL


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_find_symmetric_ne_refuses_the_fully_mixed_state(alpha):
    # at f = 0 every symmetric point is an equilibrium paying 1/8
    for point in (SymmetricPoint(0.0, 0.0), SymmetricPoint(1.1, 0.3), SymmetricPoint(np.pi, 0.0)):
        assert deviation_gain(alpha, 0.0, point)[0] < 1e-15
        assert abs(symmetric_payoff(alpha, 0.0, point) - 0.125) < 1e-12
    with pytest.raises(ValueError, match="every symmetric point is an equilibrium with payoff 1/8"):
        find_symmetric_ne(alpha, 0.0)


def test_find_symmetric_ne_beyond_validity_has_no_beta_zero_point():
    reports = find_symmetric_ne(0.9)
    assert reports
    for r in reports:
        assert abs(r.point.beta) > 1e-3  # no (theta, 0)-type equilibrium here


def test_find_symmetric_ne_phase_branch():
    # above the crossing the equilibrium moves onto theta = pi/2 with a
    # nonzero phase: cos(4 beta) = sqrt(2 - 2 a^2)/a, payoff (3 a^2 - 2)/4
    for alpha in (0.9, 0.95):
        reports = find_symmetric_ne(alpha)
        want_beta = np.arccos(np.sqrt(2 - 2 * alpha**2) / alpha) / 4
        best = closest_to(reports, np.pi / 2, want_beta)
        assert abs(best.point.theta - np.pi / 2) < 1e-4
        assert abs(best.point.beta - want_beta) < 1e-4
        assert abs(best.payoff - (3 * alpha**2 - 2) / 4) < 1e-8
        assert best.max_deviation_gain <= NE_GAIN_TOL


def test_find_symmetric_ne_payoffs_match_closed_form_on_grid():
    for alpha in np.linspace(0.05, ALPHA_STAR - 0.02, 5):
        reports = find_symmetric_ne(float(alpha))
        best = closest_to(reports, ne_theta(float(alpha)), 0.0)
        assert abs(best.payoff - ne_payoff(float(alpha))) < 1e-6


def test_reported_points_are_canonical():
    for alpha in (0.3, 0.9, 1.0):
        for r in find_symmetric_ne(alpha):
            assert 0 <= r.point.theta <= np.pi
            assert r.point.beta >= 0


def test_gradient_vanishes_at_certified_interior_ne():
    for alpha in (0.3, 0.75, 0.9, 1.0):
        for r in find_symmetric_ne(alpha):
            if r.point.theta < 1e-3 or r.point.theta > np.pi - 1e-3:
                continue  # boundary lines carry no theta direction
            gt, gb = payoff_gradient_closed(alpha, r.point)
            assert abs(gt) < 1e-6
            assert abs(gb) < 1e-6


def test_find_symmetric_po_examples():
    point, payoff = find_symmetric_po(1.0)
    assert abs(payoff - 0.25) < 1e-6
    assert abs(point.theta - np.pi / 2) < 1e-4
    assert abs(point.beta - np.pi / 8) < 1e-4

    _, payoff = find_symmetric_po(0.0)
    assert abs(payoff - 0.125) < 1e-6

    a = np.sqrt(2 / 11)
    point, payoff = find_symmetric_po(a)
    assert abs(payoff - (1 / 8 + 10 / 176)) < 1e-6
    assert abs(point.theta - np.pi / 4) < 1e-3
    assert abs(point.beta) < 1e-3


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_find_symmetric_po_refuses_the_fully_mixed_state(alpha):
    # at f = 0 the symmetric payoff is 1/8 everywhere, so no point is optimal
    for point in (SymmetricPoint(0.0, 0.0), SymmetricPoint(1.1, 0.3), SymmetricPoint(np.pi / 2, np.pi / 8)):
        assert abs(symmetric_payoff(alpha, 0.0, point) - 0.125) < 1e-12
    with pytest.raises(ValueError, match="every symmetric point has payoff 1/8"):
        find_symmetric_po(alpha, 0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.2, np.sqrt(2 / 11), 0.6, 0.75, 0.9, 1.0])
@pytest.mark.parametrize("f", [1.0, 0.8])
def test_find_symmetric_po_returns_the_canonical_image(alpha, f):
    point, payoff = find_symmetric_po(alpha, f)
    assert 0.0 <= point.theta <= np.pi / 2 and point.beta >= 0.0
    for theta in (point.theta, np.pi - point.theta):
        for beta in (point.beta, -point.beta):
            assert payoff >= symmetric_payoff(alpha, f, SymmetricPoint(theta, beta)) - 1e-12


def test_find_symmetric_po_continuous_at_crossing():
    a = np.sqrt(2 / 3)
    _, left = find_symmetric_po(a - 1e-8)
    _, right = find_symmetric_po(a + 1e-8)
    assert abs(left - right) < 1e-6
    assert abs(left - 1 / 6) < 1e-6


def test_po_payoff_never_below_ne_payoff():
    for alpha in (0.2, 0.45, 0.6):
        _, po = find_symmetric_po(alpha)
        assert po >= ne_payoff(alpha) - 1e-9


def test_domain_validation():
    with pytest.raises(ValueError):
        find_symmetric_ne(1.5)
    with pytest.raises(ValueError):
        find_symmetric_po(0.5, f=1.2)
    with pytest.raises(ValueError):
        deviation_gain(-0.1, 1.0, SymmetricPoint(0.5, 0.0))
    with pytest.raises(ValueError):
        symmetric_payoff(0.5, 2.0, SymmetricPoint(0.5, 0.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
def test_tolerance_validation(bad):
    with pytest.raises(ValueError, match="gain_tol"):
        find_symmetric_ne(0.5, gain_tol=bad)
    with pytest.raises(ValueError, match="refine_tol"):
        find_symmetric_ne(0.5, refine_tol=bad)
    with pytest.raises(ValueError, match="refine_tol"):
        find_symmetric_ne(0.5, refine_tol=0.0)


# ---------------------------------------------------------------------------
# properties of the batched kernel and the exact best response

unit = st.floats(0.0, 1.0)
theta_st = st.floats(0.0, np.pi)
beta_st = st.floats(-np.pi, np.pi)
PROPERTY = settings(max_examples=40, deadline=None)


def _deviator_payoff(alpha, f, point, deviation):
    profile = list(symmetric_profile(point))[:3] + [deviation]
    return float(expected_payoffs(noisy_state(alpha, f), profile)[3])


@PROPERTY
@given(alpha=unit, f=unit, theta=theta_st, beta=beta_st)
def test_kernel_payoff_matches_expected_payoffs(alpha, f, theta, beta):
    # every player's payoff, not only their mean, equals the payoff read
    # from the corner moments at theta' = theta, beta1' = -beta2' = beta
    moments = _symmetric_kernel(_family_tensor(alpha), f, theta, beta)
    got = float(_deviation_payoff(moments, theta, beta, -beta))
    profile = symmetric_profile(SymmetricPoint(theta, beta))
    for want in expected_payoffs(noisy_state(alpha, f), profile):
        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("shape", [(), (5, 30), (65, 64)])
def test_kernel_moments_take_the_input_shape(shape):
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, np.pi, shape)
    betas = rng.uniform(-np.pi / 4, np.pi / 4, shape)
    moments = _symmetric_kernel(_family_tensor(0.6), 0.8, thetas, betas)
    assert [np.shape(m) for m in moments] == [shape] * 3
    for idx in [()] if shape == () else [(0, 0), (2, 7), (-1, -1)]:
        probed = probe_moments(0.6, 0.8, SymmetricPoint(thetas[idx], betas[idx]))
        for got, want in zip(moments, probed):
            assert abs(complex(got[idx]) - want) < 1e-12


@PROPERTY
@given(alpha=unit, f=unit, theta=theta_st, beta=beta_st)
def test_kernel_moments_match_four_probes(alpha, f, theta, beta):
    moments = _symmetric_kernel(_family_tensor(alpha), f, theta, beta)
    probed = probe_moments(alpha, f, SymmetricPoint(theta, beta))
    for got, want in zip(moments, probed):
        assert abs(complex(got) - want) < 1e-12


@PROPERTY
@given(alpha=unit, f=unit, angles=st.lists(st.tuples(theta_st, beta_st, beta_st),
                                           min_size=4, max_size=4))
def test_noise_is_an_affine_map_of_pure_results(alpha, f, angles):
    profile = [StrategyParams(*a) for a in angles]
    noisy = expected_payoffs(noisy_state(alpha, f), profile)
    pure = expected_payoffs(family_state(alpha), profile)
    assert np.max(np.abs(noisy - (f * pure + (1 - f) / 8))) < 1e-12
    point = SymmetricPoint(angles[0][0], angles[0][1])
    mixed = probe_moments(alpha, f, point)
    pure_moments = probe_moments(alpha, 1.0, point)
    for got, p, u in zip(mixed, pure_moments, (1 / 8, 1 / 8, 0)):
        assert abs(got - (f * p + (1 - f) * u)) < 1e-12


@PROPERTY
@given(alpha=unit, f=unit, theta=theta_st, beta=beta_st,
       deviations=st.lists(st.tuples(theta_st, beta_st, beta_st), min_size=1, max_size=5))
def test_exact_gain_bounds_every_sampled_deviation(alpha, f, theta, beta, deviations):
    point = SymmetricPoint(theta, beta)
    gain, best = deviation_gain(alpha, f, point)
    base = symmetric_payoff(alpha, f, point)
    assert gain >= 0
    for d in deviations:
        assert _deviator_payoff(alpha, f, point, StrategyParams(*d)) - base <= gain + 1e-12
    assert abs(_deviator_payoff(alpha, f, point, best) - (base + gain)) < 1e-12


inner_theta_st = st.floats(0.01, np.pi - 0.01)


@PROPERTY
@given(alpha=unit, f=unit, theta=inner_theta_st, beta=beta_st)
def test_stationarity_gradient_matches_central_differences(alpha, f, theta, beta):
    # the one gradient that both ranks the NE seeds and drives Newton
    moments = _symmetric_kernel(_family_tensor(alpha), f, theta, beta)
    gt, gb = _stationarity_gradient(moments, theta, beta)
    h = 1e-6
    fd_t = (_deviation_payoff(moments, theta + h, beta, -beta)
            - _deviation_payoff(moments, theta - h, beta, -beta)) / (2 * h)
    fd_b = (_deviation_payoff(moments, theta, beta + h, -beta - h)
            - _deviation_payoff(moments, theta, beta - h, -beta + h)) / (2 * h)
    assert abs(gt - fd_t) < 1e-7
    assert abs(gb - fd_b) < 1e-7


@PROPERTY
@given(alpha=unit, theta=inner_theta_st, beta=beta_st)
def test_stationarity_gradient_matches_closed_form_when_pure(alpha, theta, beta):
    moments = _symmetric_kernel(_family_tensor(alpha), 1.0, theta, beta)
    got = _stationarity_gradient(moments, theta, beta)
    want = payoff_gradient_closed(alpha, SymmetricPoint(theta, beta))
    assert abs(got[0] - want[0]) < 1e-12
    assert abs(got[1] - want[1]) < 1e-12


# ---------------------------------------------------------------------------
# golden regression: certified equilibria and optima of the per-point search
# with the 64^3 lattice certification that the batched kernel and the exact
# best response replaced (captured at commit d7236cc)

GOLDEN = json.loads(Path(__file__).with_name("golden_equilibria.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"alpha={c['alpha']}-f={c['f']}")
def test_golden_equilibria_unchanged(case):
    alpha, f = case["alpha"], case["f"]
    reports = find_symmetric_ne(alpha, f)
    assert len(reports) == len(case["ne"])
    for r, (theta, beta, payoff, gain) in zip(reports, case["ne"]):
        assert abs(r.point.theta - theta) < 1e-7
        assert abs(r.point.beta - beta) < 1e-7
        assert abs(r.payoff - payoff) < 1e-10
        assert abs(r.max_deviation_gain - gain) < 1e-10
    point, payoff = find_symmetric_po(alpha, f)
    assert abs(payoff - case["po"][2]) < 1e-10
    if alpha > 0:  # at alpha = 0 the payoff does not depend on beta
        assert abs(point.theta - case["po"][0]) < 1e-6
        assert abs(point.beta - case["po"][1]) < 1e-6
