"""Tests of the benchmark itself: inputs, metric names, checks, and a smoke run.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import LabWorkload  # noqa: E402

import qminority  # noqa: E402
from qminority import analysis, equilibrium, strategies  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# inputs

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.make_round(workload, 11, 0) == workloads.make_round(workload, 11, 0)
    assert workloads.make_round(workload, 11, 2) == workloads.make_round(workload, 11, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_differ_between_seeds_and_rounds(workload):
    first = workloads.make_round(workload, 11, 0)
    assert first != workloads.make_round(workload, 12, 0)
    assert first != workloads.make_round(workload, 11, 1)


def test_ne_alphas_cover_both_branches():
    alphas = [q["alpha"] for r in range(4) for q in workloads.ne_round(3, r, noisy=False)]
    assert min(alphas) < workloads.ALPHA_STAR < max(alphas)
    noisy = [q["f"] for r in range(4) for q in workloads.ne_round(3, r, noisy=True)]
    assert all(0.0 < f < 1.0 for f in noisy)


@pytest.mark.parametrize("alpha", [0.01, 0.82])
def test_known_ne_defect_still_present(alpha):
    # find_symmetric_ne misses the equilibrium near alpha = 0 and just below
    # ALPHA_STAR, so the strata in workloads.py leave those windows out
    assert not any(lo <= alpha <= hi for lo, hi in workloads.NE_STRATA)
    assert equilibrium.find_symmetric_ne(alpha, 1.0) == [], (
        f"find_symmetric_ne now certifies an equilibrium at alpha={alpha}: "
        "widen the equilibrium strata in workloads.py to cover this window")


def test_lab_round_has_a_tail_and_ghz_points():
    session = workloads.lab_round(5, 0)
    assert len(session["configs"]) == workloads.LAB_CONFIGS_PER_ROUND
    assert any(c["alpha"] == 1.0 for c in session["configs"])
    assert {c["basis"] for c in session["configs"]} == {"Z", "X", "Y"}


def test_every_cli_job_has_a_reference_table():
    reference = json.loads((BENCH / "reference" / "cli_tables.json").read_text())
    for slot, variants in workloads.cli_pool().items():
        assert [v["argv"] for v in variants] == [r["argv"] for r in reference[slot]]


# ---------------------------------------------------------------------------
# metric names

def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layers:
        assert NAME.fullmatch(name), name
    assert layers == list(run.layer_units())
    assert [m["unit"] for m in spec["per_layer"]] == list(run.layer_units().values())
    assert set(e2e) == {"setup_s", "wall_s", "query_p50_ms", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GATED)


# ---------------------------------------------------------------------------
# each check accepts the package's answer and rejects a perturbed one

@pytest.fixture(scope="module")
def ne_answer():
    query = {"alpha": 0.5, "f": 1.0, "theta": 1.2, "beta": 0.3}
    answer = {
        "ne": equilibrium.find_symmetric_ne(0.5, 1.0),
        "po": equilibrium.find_symmetric_po(0.5, 1.0),
        "deviation": equilibrium.deviation_gain(0.5, 1.0, equilibrium.SymmetricPoint(1.2, 0.3)),
    }
    return query, answer


def test_check_ne_accepts_package_answer(ne_answer):
    query, answer = ne_answer
    assert checks.check_ne(qminority, query, answer) == []


@pytest.mark.parametrize("perturb", [
    lambda a: a.update(ne=[]),
    lambda a: a.update(ne=[replace(a["ne"][0], payoff=a["ne"][0].payoff + 1e-5)]),
    lambda a: a.update(ne=[replace(a["ne"][0], max_deviation_gain=1e-4)]),
    lambda a: a.update(po=(a["po"][0], a["po"][1] + 1e-6)),
    lambda a: a.update(po=(equilibrium.SymmetricPoint(1.0, 0.0),
                           equilibrium.symmetric_payoff(0.5, 1.0, equilibrium.SymmetricPoint(1.0, 0.0)))),
    lambda a: a.update(deviation=(a["deviation"][0] + 1e-5, a["deviation"][1])),
])
def test_check_ne_rejects_perturbed_answer(ne_answer, perturb):
    query, answer = ne_answer
    answer = dict(answer)
    perturb(answer)
    assert checks.check_ne(qminority, query, answer)


@pytest.fixture(scope="module")
def lab_answers():
    session = workloads.lab_round(5, 0)
    session["configs"] = session["configs"][:3]
    wl = LabWorkload(qminority)
    answers = [wl._config(c) for c in session["configs"]]
    fit = analysis.fit_f([
        analysis.FitPoint(c["alpha"], c["strategy"], c["basis"], a["estimate"].average,
                          a["estimate"].std_error)
        for c, a in zip(session["configs"], answers)
    ])
    return session, answers, fit


def test_check_lab_accepts_package_answers(lab_answers):
    session, answers, fit = lab_answers
    for c, a in zip(session["configs"], answers):
        assert checks.check_lab(c, a) == []
    assert checks.check_fit(session, session["configs"], [a["estimate"] for a in answers], fit) == []


def _bump_count(t):
    counts = t.counts.copy()
    counts[3] += 1
    return replace(t, counts=counts)


@pytest.mark.parametrize("perturb", [
    lambda a: a.update(loaded=_bump_count(a["loaded"])),
    lambda a: a.update(loaded=replace(a["loaded"], basis="Y" if a["loaded"].basis != "Y" else "X")),
    lambda a: a.update(estimate=replace(a["estimate"], average=a["estimate"].average + 1e-9,
                                        per_player=tuple(p + 1e-9 for p in a["estimate"].per_player))),
    lambda a: a.update(fidelity=a["fidelity"] + 1e-10),
    lambda a: a.update(stabilizer=a["stabilizer"] - 1e-10),
    lambda a: a.update(plates=replace(a["plates"], hwp=a["plates"].hwp + 1e-3)),
])
def test_check_lab_rejects_perturbed_answer(lab_answers, perturb):
    session, answers, _ = lab_answers
    answer = dict(answers[0])
    perturb(answer)
    assert checks.check_lab(session["configs"][0], answer)


def test_check_lab_rejects_estimate_far_from_model(lab_answers):
    session, answers, _ = lab_answers
    config = dict(session["configs"][0], f=session["configs"][0]["f"] - 0.2)
    assert any("far from model" in msg for msg in checks.check_lab(config, answers[0]))


@pytest.mark.parametrize("perturb", [
    lambda s, r: (s, replace(r, f_hat=r.f_hat + 1e-6)),
    lambda s, r: (s, replace(r, f_err=r.f_err * 1.01)),
    lambda s, r: (dict(s, f=s["f"] + 50 * r.f_err), r),
])
def test_check_fit_rejects_perturbed_answer(lab_answers, perturb):
    session, answers, fit = lab_answers
    session, fit = perturb(session, fit)
    assert checks.check_fit(session, session["configs"], [a["estimate"] for a in answers], fit)


# ---------------------------------------------------------------------------
# CLI reference comparison

@pytest.fixture(scope="module")
def reference():
    return json.loads((BENCH / "reference" / "cli_tables.json").read_text())


def _edit_value(text, key, fn):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(key + ","):
            lines[i] = f"{key},{fn(float(line.split(',')[1]))!r}"
    return "\n".join(lines) + "\n"


def test_cli_reference_matches_itself(reference):
    for variants in reference.values():
        for v in variants:
            assert checks.check_cli_text(v["argv"], v["stdout"], v["stdout"]) == []
            for text in v["files"].values():
                assert checks.check_cli_text(v["argv"], text, text) == []


def test_cli_check_tolerates_last_digit_rounding(reference):
    v = reference["payoff-Z"][0]
    got = _edit_value(v["stdout"], "average", lambda x: x * (1 + 1e-15))
    assert got != v["stdout"]
    assert checks.check_cli_text(v["argv"], got, v["stdout"]) == []


@pytest.mark.parametrize("slot,edit", [
    ("payoff-X", lambda t: _edit_value(t, "average", lambda x: x + 1e-7)),
    ("payoff-Y", lambda t: t.replace("# basis=Y", "# basis=Z")),
    ("fit-points", lambda t: _edit_value(t, "f_hat", lambda x: x + 1e-7)),
    ("fidelity", lambda t: _edit_value(t, "stabilizer_estimate", lambda x: x - 1e-8)),
    ("deviation", lambda t: _edit_value(t, "best_theta", lambda x: x + 1e-4)),
    ("deviation", lambda t: _edit_value(t, "best_beta1", lambda x: x + 1e-3)),
    ("waveplates-custom", lambda t: _edit_value(t, "solved_hwp", lambda x: x + 1e-3)),
    ("scan-alpha-I", lambda t: t.replace("\n0.5,", "\n0.5000001,", 1)),
    ("find-po", lambda t: t.rstrip("\n").rsplit("\n", 1)[0] + "\n"),
])
def test_cli_check_rejects_perturbed_output(reference, slot, edit):
    for v in reference[slot]:
        got = edit(v["stdout"])
        if got != v["stdout"]:
            assert checks.check_cli_text(v["argv"], got, v["stdout"]), (slot, v["argv"])
            return
    pytest.fail(f"edit changed no {slot} reference output")


def test_cli_check_accepts_equivalent_deviation_phases(reference):
    v = reference["deviation"][0]
    shift = lambda x: math.remainder(x + 0.25, 2 * math.pi)  # noqa: E731
    got = _edit_value(_edit_value(v["stdout"], "best_beta1", shift), "best_beta2", shift)
    assert checks.check_cli_text(v["argv"], got, v["stdout"]) == []


def test_cli_check_rejects_changed_counts_file(reference):
    v = reference["simulate-counts"][0]
    (path, text), = v["files"].items()
    lines = text.splitlines()
    outcome, count = lines[-1].split(",")
    lines[-1] = f"{outcome},{int(count) + 1}"
    assert checks.check_cli_text(v["argv"], "\n".join(lines) + "\n", text)


def test_oracle_matches_package_on_a_random_profile():
    rng = np.random.default_rng(1)
    for basis in "ZXY":
        params = [strategies.StrategyParams(float(rng.uniform(0, np.pi)), float(rng.uniform(-3, 3)),
                                            float(rng.uniform(-3, 3))) for _ in range(4)]
        ops = [checks.strategy_matrix(p.theta, p.beta1, p.beta2) for p in params]
        want = float(np.mean(qminority.expected_payoffs(qminority.noisy_state(0.7, 0.8), params, basis)))
        assert abs(checks.average_payoff(0.7, 0.8, ops, basis) - want) < 1e-12


# ---------------------------------------------------------------------------
# smoke run: one query per workload, then the run.py result contract

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_worker_one_query(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "1",
         "--rounds", "1", "--queries", "1", "--started", "0"],
        capture_output=True, text=True, cwd=ROOT, env=run.worker_env(ROOT), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["failures"]


def test_smoke_run_prints_contract_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lab-pipeline", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 26
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ne-pure", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"], proc.stdout
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    assert list(metrics) == list(run.layer_units())
    for name in ("import.qminority_s", "qcore.calls", "qcore.apply_local.calls",
                 "equilibrium.deviation_gain.calls", "scipy.optimize.minimize.calls",
                 "scipy.optimize.nfev", "scipy.optimize.nit", "game.expected_payoffs.calls"):
        assert metrics[name] > 0, name
    assert 0 < metrics["equilibrium.certify_yield"] <= 1
    assert all(metrics[f"{layer}.errors"] == 0 for layer in ("equilibrium", "qcore", "game"))


def test_traced_cli_job_merges_child_spans():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "cli-jobs", "--seed", "1",
         "--rounds", "1", "--queries", "1", "--trace", "--started", "0"],
        capture_output=True, text=True, cwd=ROOT, env=run.worker_env(ROOT), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    layers = result["layers"]
    assert set(layers) == set(tracer.TRACED_METRICS)
    for name in ("cli.calls", "game.calls", "qcore.calls"):
        assert layers[name] > 0, name


def test_run_refuses_a_tree_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ne-pure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

