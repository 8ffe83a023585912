"""Counts pipeline: correction, error propagation, synthesis, and the f fit."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qminority import (
    STRATEGY_I,
    STRATEGY_II,
    average_payoff,
    bundled_fit_points,
    corrected_probabilities,
    fit_f,
    load_counts,
    load_fit_points,
    noisy_state,
    outcome_distribution,
    payoff_estimate,
    simulate_counts,
)
from qminority.analysis import (
    CountsTable,
    FitPoint,
    detector_ids,
    format_counts,
    model_payoff,
    save_counts,
    save_fit_points,
)

UNIT_EFF = np.ones((4, 2))


def uniform_table(count=100, eff=None):
    return CountsTable(np.full(16, count, dtype=np.int64),
                       UNIT_EFF if eff is None else eff)


def test_detector_ids():
    ids = detector_ids()
    assert ids == ("aH", "aV", "bH", "bV", "cH", "cV", "dH", "dV")


def test_counts_table_validation():
    with pytest.raises(ValueError):
        CountsTable(np.full(15, 1, dtype=np.int64), UNIT_EFF)
    with pytest.raises(ValueError):
        CountsTable(np.array([-1] + [1] * 15, dtype=np.int64), UNIT_EFF)
    for bad in (0.0, -0.5, np.inf, np.nan):
        bad_eff = np.ones((4, 2))
        bad_eff[2, 0] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            CountsTable(np.full(16, 1, dtype=np.int64), bad_eff)
    with pytest.raises(ValueError):
        CountsTable(np.full(16, 1, dtype=np.int64), UNIT_EFF, strategy="III")
    with pytest.raises(ValueError):
        CountsTable(np.full(16, 1, dtype=np.int64), UNIT_EFF, basis="Q")
    with pytest.raises(ValueError):
        CountsTable(np.full(16, 1, dtype=np.int64), UNIT_EFF, alpha=1.5)


def test_total_does_not_wrap_at_int64():
    # each count fits in int64, but their sum does not
    table = load_counts(io.StringIO(format_counts(uniform_table(count=2**62))))
    assert table.total == 16 * 2**62


def test_corrected_probabilities_uniform():
    p, var = corrected_probabilities(uniform_table())
    assert np.max(np.abs(p - 1 / 16)) < 1e-15
    # Poisson propagation at N=1600 collapses to multinomial variance
    want = (1 / 16) * (15 / 16) / 1600
    assert np.max(np.abs(var - want)) < 1e-15


def test_corrected_probabilities_concentrated():
    counts = np.zeros(16, dtype=np.int64)
    counts[0] = 100
    p, _ = corrected_probabilities(CountsTable(counts, UNIT_EFF))
    assert p[0] == 1.0 and np.max(np.abs(p[1:])) == 0.0


def test_corrected_probabilities_efficiency_reweighting():
    # a half-efficient V detector on mode d doubles every bit3=1 outcome
    eff = np.ones((4, 2))
    eff[3, 1] = 0.5
    p, _ = corrected_probabilities(uniform_table(eff=eff))
    bit3 = (np.arange(16) & 1).astype(bool)
    assert np.max(np.abs(p[bit3] - 2 / 24)) < 1e-12
    assert np.max(np.abs(p[~bit3] - 1 / 24)) < 1e-12


def test_corrected_probabilities_normalized():
    rng = np.random.default_rng(601)
    for _ in range(10):
        counts = rng.integers(0, 500, size=16).astype(np.int64)
        if counts.sum() == 0:
            counts[3] = 1
        eff = rng.uniform(0.2, 1.0, size=(4, 2))
        p, var = corrected_probabilities(CountsTable(counts, eff))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(var >= 0)


def test_corrected_probabilities_rejects_empty():
    with pytest.raises(ValueError):
        corrected_probabilities(CountsTable(np.zeros(16, dtype=np.int64), UNIT_EFF))


def test_payoff_estimate_uniform_and_concentrated():
    est = payoff_estimate(uniform_table())
    assert abs(est.average - 0.125) < 1e-12
    assert abs(est.std_error - 0.003125) < 1e-15

    counts = np.zeros(16, dtype=np.int64)
    counts[0b0001] = 500
    est = payoff_estimate(CountsTable(counts, UNIT_EFF))
    assert np.array_equal(est.per_player, (0.0, 0.0, 0.0, 1.0))
    assert abs(est.average - 0.25) < 1e-12


def test_payoff_estimate_scale_invariant():
    rng = np.random.default_rng(602)
    counts = rng.integers(50, 500, size=16).astype(np.int64)
    eff = rng.uniform(0.4, 1.0, size=(4, 2))
    small = payoff_estimate(CountsTable(counts, eff))
    large = payoff_estimate(CountsTable(counts * 7, eff))
    assert np.max(np.abs(np.array(small.per_player) - large.per_player)) < 1e-12
    assert abs(small.average - large.average) < 1e-12
    assert abs(small.average - float(np.mean(small.per_player))) < 1e-12


def test_simulate_counts_is_reproducible():
    a = simulate_counts(0.8, 0.9, [STRATEGY_II] * 4, "Z", 10_000, seed=7, strategy_name="II")
    b = simulate_counts(0.8, 0.9, [STRATEGY_II] * 4, "Z", 10_000, seed=7, strategy_name="II")
    c = simulate_counts(0.8, 0.9, [STRATEGY_II] * 4, "Z", 10_000, seed=8, strategy_name="II")
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert a.counts.sum() == 10_000
    assert a.alpha == 0.8 and a.strategy == "II" and a.basis == "Z"


def test_simulate_counts_input_validation():
    eff = np.ones((4, 2))
    eff[3, 1] = np.inf
    with pytest.raises(ValueError, match="finite and positive"):
        simulate_counts(0.8, 0.9, [STRATEGY_II] * 4, "Z", 100, seed=7, efficiencies=eff)
    with pytest.raises(ValueError, match="total_events must be at most"):
        simulate_counts(0.8, 0.9, [STRATEGY_II] * 4, "Z", 2**63, seed=7)
    with pytest.raises(ValueError, match="total_events must be positive"):
        simulate_counts(0.8, 0.9, [STRATEGY_II] * 4, "Z", 0, seed=7)


def test_simulate_counts_statistics():
    t = simulate_counts(1.0, 0.71, [STRATEGY_I] * 4, "Z", 10**5, seed=41, strategy_name="I")
    est = payoff_estimate(t)
    assert abs(est.average - 0.21375) <= 3 * est.std_error

    t = simulate_counts(1.0, 1.0, [STRATEGY_I] * 4, "Z", 10**6, seed=42, strategy_name="I")
    est = payoff_estimate(t)
    assert abs(est.average - 0.25) <= 3 * est.std_error + 1e-15

    t = simulate_counts(0.0, 1.0, [STRATEGY_I] * 4, "Z", 10**6, seed=43, strategy_name="I")
    est = payoff_estimate(t)
    assert abs(est.average - 0.0) <= 3 * est.std_error + 1e-15


def test_simulate_counts_efficiency_round_trip():
    rng = np.random.default_rng(11)
    eff = rng.uniform(0.3, 1.0, size=(4, 2))
    t = simulate_counts(0.7, 0.9, [STRATEGY_II] * 4, "Z", 10**6, seed=44,
                        efficiencies=eff, strategy_name="II")
    p, var = corrected_probabilities(t)
    want = outcome_distribution(noisy_state(0.7, 0.9), [STRATEGY_II] * 4, "Z")
    assert np.max(np.abs(p - want) / np.sqrt(var)) < 3.5


def test_simulate_counts_with_zero_probability_outcomes():
    # these outcomes have probability 0; rounding in U rho U^dag must not
    # leave a negative probability for the multinomial draw to reject
    t = simulate_counts(0.5, 1.0, [STRATEGY_I] * 4, "Z", 1000, seed=1)
    assert t.total == 1000
    assert np.all(outcome_distribution(noisy_state(0.5, 1.0), [STRATEGY_II] * 4, "X") >= 0)


def test_counts_file_round_trip(tmp_path):
    rng = np.random.default_rng(603)
    eff = rng.uniform(0.4, 1.0, size=(4, 2))
    t = simulate_counts(0.55, 0.77, [STRATEGY_I] * 4, "Y", 5000, seed=9,
                        efficiencies=eff, strategy_name="I")
    path = tmp_path / "counts.csv"
    save_counts(t, path, comments=("synthetic check",))
    back = load_counts(path)
    assert np.array_equal(back.counts, t.counts)
    assert np.max(np.abs(back.efficiencies - t.efficiencies)) < 1e-15
    assert back.alpha == t.alpha and back.strategy == "I" and back.basis == "Y"


_DIRECTIVE_COMMENTS = ["meta run 3", "  efficiency A0 0.5", "metadata", "meta"]
_MULTILINE_COMMENTS = ["two\nlines", "a\rb", "x\r\n", "p\u2028q", "\n"]
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # what str.splitlines splits on


def _misread(comment: str) -> bool:
    """Would load_counts read '# comment' as something other than one comment?"""
    return any(ch in _LINE_BREAKS for ch in comment) or comment.strip().startswith(("meta", "efficiency"))


@settings(max_examples=150, deadline=None)
@given(
    counts=st.lists(st.integers(0, 2**63 - 1), min_size=16, max_size=16),
    eff=st.lists(st.floats(1e-300, 1e300), min_size=8, max_size=8),
    alpha=st.none() | st.floats(0.0, 1.0),
    strategy=st.sampled_from([None, "I", "II"]),
    basis=st.sampled_from([None, "Z", "X", "Y"]),
    comments=st.lists(
        st.text(max_size=12) | st.sampled_from(_DIRECTIVE_COMMENTS + _MULTILINE_COMMENTS),
        max_size=3,
    ),
)
def test_format_then_load_counts_is_the_identity(counts, eff, alpha, strategy, basis, comments):
    t = CountsTable(np.array(counts, dtype=np.int64), np.reshape(eff, (4, 2)),
                    alpha=alpha, strategy=strategy, basis=basis)
    comments = tuple(comments)
    if any(map(_misread, comments)):
        with pytest.raises(ValueError, match="comment"):
            format_counts(t, comments)
        return
    text = format_counts(t, comments)
    assert text.splitlines()[: len(comments)] == [f"# {c}" for c in comments]
    back = load_counts(io.StringIO(text))
    assert np.array_equal(back.counts, t.counts)
    assert np.array_equal(back.efficiencies, t.efficiencies)
    assert (back.alpha, back.strategy, back.basis) == (t.alpha, t.strategy, t.basis)


@pytest.mark.parametrize("comment", _DIRECTIVE_COMMENTS + _MULTILINE_COMMENTS)
def test_format_counts_refuses_comments_load_counts_would_misread(tmp_path, comment):
    t = CountsTable(np.arange(16), np.ones((4, 2)), alpha=0.5)
    with pytest.raises(ValueError, match="comment"):
        save_counts(t, tmp_path / "counts.csv", comments=("fine", comment))
    assert not (tmp_path / "counts.csv").exists()


def test_load_counts_reports_problems_with_context():
    text = format_counts(uniform_table())
    missing = "\n".join(line for line in text.splitlines() if not line.startswith("1010"))
    with pytest.raises(ValueError, match="1010"):
        load_counts(io.StringIO(missing))

    negative = text.replace("0011,100", "0011,-4")
    with pytest.raises(ValueError, match="0011"):
        load_counts(io.StringIO(negative))

    duplicated = text + "\n0000,3"
    with pytest.raises(ValueError, match="duplicate"):
        load_counts(io.StringIO(duplicated))

    huge = text.replace("0011,100", f"0011,{2**63}")
    with pytest.raises(ValueError, match="line .*0011"):
        load_counts(io.StringIO(huge))

    bad_eff = "# efficiency zz 0.5\n" + text
    with pytest.raises(ValueError, match="zz"):
        load_counts(io.StringIO(bad_eff))

    for value in ("inf", "nan", "0", "-1"):
        bad_value = f"# efficiency aH {value}\n" + text
        with pytest.raises(ValueError, match="line 1: efficiency must be finite and positive"):
            load_counts(io.StringIO(bad_value))

    with pytest.raises(ValueError):
        load_counts(io.StringIO("outcome,count\n"))


def test_fit_points_file_round_trip(tmp_path):
    pts = [FitPoint(0.3, "I", "Z", 0.101, 0.004), FitPoint(1.0, "II", "Z", 0.07, 0.008)]
    path = tmp_path / "points.csv"
    save_fit_points(pts, path)
    back = load_fit_points(path)
    assert back == pts


@pytest.mark.parametrize("comment", _MULTILINE_COMMENTS)
def test_save_fit_points_refuses_multiline_comments(tmp_path, comment):
    path = tmp_path / "points.csv"
    with pytest.raises(ValueError, match="comment"):
        save_fit_points([FitPoint(0.3, "I", "Z", 0.101, 0.004)], path, comments=("fine", comment))
    assert not path.exists()


def test_model_payoff_agrees_with_engine():
    for point in (FitPoint(0.4, "I", "Z", 0.1, 0.01), FitPoint(0.8, "II", "X", 0.1, 0.01)):
        for f in (0.0, 0.5, 1.0):
            profile = [STRATEGY_I if point.strategy == "I" else STRATEGY_II] * 4
            want = average_payoff(noisy_state(point.alpha, f), profile, point.basis)
            assert abs(model_payoff(point, f) - want) < 1e-12


def test_fit_recovers_f_exactly_from_model_payoffs():
    f_true = 0.37
    pts = [FitPoint(a, n, "Z", model_payoff(FitPoint(a, n, "Z", 0.1, 0.01), f_true), 0.005)
           for a, n in [(0.0, "I"), (0.3, "II"), (0.55, "I"), (0.8, "II"),
                        (1.0, "I"), (1.0, "II")]]
    res = fit_f(pts)
    assert abs(res.f_hat - f_true) < 1e-9
    assert res.n_points == 6
    assert not res.clamped
    assert res.f_err > 0


def test_fit_input_validation():
    good = FitPoint(1.0, "I", "Z", 0.2, 0.01)
    with pytest.raises(ValueError):
        fit_f([good])
    with pytest.raises(ValueError):
        fit_f([good, FitPoint(0.5, "II", "Z", 0.15, 0.0)])
    for payoff, error in ((float("nan"), 0.01), (0.2, float("nan")), (float("inf"), 0.01),
                          (0.2, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            FitPoint(1.0, "I", "Z", payoff, error)
    # slope is identically zero at alpha=0 for strategy II: nothing constrains f
    flat = [FitPoint(0.0, "II", "Z", 0.125, 0.01), FitPoint(0.0, "II", "Z", 0.126, 0.01)]
    with pytest.raises(ValueError):
        fit_f(flat)


def test_fit_clamps_overshoot():
    top = model_payoff(FitPoint(1.0, "I", "Z", 0.1, 0.01), 1.0)
    pts = [FitPoint(1.0, "I", "Z", top + 0.01, 1e-4),
           FitPoint(1.0, "I", "Z", top + 0.01, 1e-4)]
    res = fit_f(pts)
    assert res.f_hat == 1.0
    assert res.clamped

    exact = [FitPoint(1.0, "I", "Z", top, 1e-4), FitPoint(1.0, "I", "Z", top, 1e-4)]
    res = fit_f(exact)
    assert abs(res.f_hat - 1.0) < 1e-12
    assert not res.clamped


def test_fit_synthetic_recovery_within_errors():
    f_true = 0.73
    pts = []
    for i, (alpha, name) in enumerate([(0.0, "I"), (0.3, "II"), (0.3, "I"), (0.6, "II"),
                                       (0.6, "I"), (0.85, "II"), (1.0, "I"), (1.0, "II")]):
        profile = [STRATEGY_I if name == "I" else STRATEGY_II] * 4
        t = simulate_counts(alpha, f_true, profile, "Z", 10**6, seed=2000 + i,
                            strategy_name=name)
        est = payoff_estimate(t)
        pts.append(FitPoint(alpha, name, "Z", est.average, est.std_error))
    res = fit_f(pts)
    assert abs(res.f_hat - f_true) <= 3 * res.f_err


def test_fits_agree_across_bases():
    f_common = 0.8
    fits = {}
    for basis in ("Z", "X", "Y"):
        pts = []
        for i, (alpha, name) in enumerate([(0.2, "I"), (0.5, "I"), (0.8, "I"), (1.0, "I"),
                                           (0.2, "II"), (0.5, "II"), (0.8, "II")]):
            profile = [STRATEGY_I if name == "I" else STRATEGY_II] * 4
            t = simulate_counts(alpha, f_common, profile, basis, 200_000, seed=3000 + i,
                                strategy_name=name)
            est = payoff_estimate(t)
            pts.append(FitPoint(alpha, name, basis, est.average, est.std_error))
        fits[basis] = fit_f(pts)
    for a, b in (("Z", "X"), ("Z", "Y"), ("X", "Y")):
        gap = abs(fits[a].f_hat - fits[b].f_hat)
        assert gap <= 2 * float(np.hypot(fits[a].f_err, fits[b].f_err))


def test_bundled_fit_points():
    pts = bundled_fit_points()
    assert len(pts) == 8
    assert {p.basis for p in pts} == {"Z"}
    assert {p.strategy for p in pts} == {"I", "II"}
    res = fit_f(pts)
    assert 0.66 <= res.f_hat <= 0.76
    assert not res.clamped
