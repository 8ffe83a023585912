"""End-to-end command-line checks through subprocess."""

import subprocess
import sys

import numpy as np
import pytest

from qminority import load_counts
from qminority.analysis import FitPoint, model_payoff, save_fit_points

CLI = [sys.executable, "-m", "qminority.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def data_lines(stdout):
    return [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]


def parse_kv(stdout):
    lines = data_lines(stdout)
    assert lines[0] == "quantity,value"
    return dict(ln.split(",", 1) for ln in lines[1:])


def parse_table(stdout):
    lines = data_lines(stdout)
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_payoff_ghz_ideal():
    r = run_cli("payoff", "--alpha", "1", "--f", "1", "--strategy", "I", "--basis", "Z")
    assert r.returncode == 0
    kv = parse_kv(r.stdout)
    assert abs(float(kv["average"]) - 0.25) < 1e-9
    for player in ("player1", "player2", "player3", "player4"):
        assert abs(float(kv[player]) - 0.25) < 1e-9
    assert r.stdout.startswith("# qminority ")


def test_payoff_classical_point():
    r = run_cli("payoff", "--alpha", "0", "--f", "1", "--strategy", "II")
    assert r.returncode == 0
    assert abs(float(parse_kv(r.stdout)["average"]) - 0.125) < 1e-9


def test_payoff_custom_triple():
    r = run_cli("payoff", "--alpha", "1", "--f", "1",
                "--theta", str(np.pi / 2), "--beta1", str(np.pi / 8),
                "--beta2", str(-np.pi / 8))
    assert r.returncode == 0
    assert abs(float(parse_kv(r.stdout)["average"]) - 0.25) < 1e-9


def test_usage_errors_exit_2():
    assert run_cli("payoff", "--alpha", "2", "--f", "1", "--strategy", "I").returncode == 2
    assert run_cli("payoff", "--alpha", "0.5", "--f", "1").returncode == 2  # no strategy
    assert run_cli("payoff", "--alpha", "0.5", "--f", "1", "--strategy", "I",
                   "--theta", "1.0").returncode == 2  # conflicting strategy forms
    assert run_cli("payoff", "--alpha", "0.5", "--f", "1", "--strategy", "I",
                   "--basis", "Q").returncode == 2
    assert run_cli("does-not-exist").returncode == 2
    assert run_cli("scan-alpha", "--f", "1", "--strategy", "II", "--npoints", "1").returncode == 2


@pytest.mark.parametrize("args", [
    ("find-ne", "--alpha", "0.5", "--gain-tol", "nan"),
    ("find-ne", "--alpha", "0.5", "--gain-tol", "-0.5"),
    ("find-ne", "--alpha", "0.5", "--refine-tol", "-1"),
    ("find-po", "--alpha", "0.5", "--refine-tol", "inf"),
    ("deviation", "--alpha", "0.5", "--theta", "1", "--beta", "0", "--refine-tol", "0"),
    ("waveplates", "--strategy", "I", "--tol", "nan"),
    ("waveplates", "--strategy", "I", "--tol", "-1"),
    ("waveplates", "--strategy", "I", "--tol", "inf"),
])
def test_bad_tolerances_are_usage_errors(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "tol must be finite" in r.stderr


@pytest.mark.parametrize("extra, code, message", [
    (("--events", "100", "--seed", "-1"), 2, "seed must be >= 0"),
    (("--events", "100", "--seed", "5", "--efficiency", "dV=inf"), 2, "must be finite and positive"),
    (("--events", "100", "--seed", "5", "--efficiency", "dV=nan"), 2, "must be finite and positive"),
    (("--events", "100", "--seed", "5", "--efficiency", "aH=-0.5"), 2, "must be finite and positive"),
    (("--events", "100", "--seed", "5", "--efficiency", "zz=0.5"), 2, "unknown detector id"),
    (("--events", "100000000000000000000", "--seed", "5"), 1,
     "total_events must be at most 9223372036854775807"),
])
def test_simulate_counts_bad_arguments(extra, code, message):
    r = run_cli("simulate-counts", "--alpha", "0.8", "--strategy", "II", *extra)
    assert r.returncode == code
    assert message in r.stderr
    assert "Traceback" not in r.stderr


def test_scan_alpha_named_values():
    r = run_cli("scan-alpha", "--f", "1", "--strategy", "II", "--basis", "Z",
                "--alphas", "0,0.816496580927726,1")
    assert r.returncode == 0
    header, rows = parse_table(r.stdout)
    assert header == ["alpha", "payoff_engine", "payoff_closed", "discrepancy"]
    engine = [float(row[1]) for row in rows]
    assert abs(engine[0] - 0.125) < 1e-9
    assert abs(engine[1] - 1 / 6) < 1e-9
    assert abs(engine[2] - 0.0625) < 1e-9


def test_scan_alpha_fully_mixed_is_flat():
    r = run_cli("scan-alpha", "--f", "0", "--strategy", "II", "--npoints", "5")
    assert r.returncode == 0
    _, rows = parse_table(r.stdout)
    assert len(rows) == 5
    for row in rows:
        assert abs(float(row[1]) - 0.125) < 1e-9


def test_scan_alpha_noisy_strategy_i_endpoint():
    r = run_cli("scan-alpha", "--f", "0.71", "--strategy", "I", "--alphas", "1")
    _, rows = parse_table(r.stdout)
    assert abs(float(rows[0][1]) - 0.21375) < 1e-9


def test_find_ne_ghz():
    r = run_cli("find-ne", "--alpha", "1", "--f", "1")
    assert r.returncode == 0
    header, rows = parse_table(r.stdout)
    assert header == ["theta", "beta", "payoff", "max_deviation_gain", "certified"]
    assert len(rows) == 1
    theta, beta, payoff, gain, certified = rows[0]
    assert abs(float(theta) - np.pi / 2) < 1e-4
    assert abs(float(beta) - np.pi / 8) < 1e-4
    assert abs(float(payoff) - 0.25) < 1e-6
    assert float(gain) <= 1e-6
    assert certified == "true"


def test_find_ne_fully_mixed_state_is_an_error():
    r = run_cli("find-ne", "--alpha", "0.5", "--f", "0")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "every symmetric point is an equilibrium with payoff 1/8" in r.stderr


def test_find_ne_near_peak():
    r = run_cli("find-ne", "--alpha", "0.4597", "--f", "1")
    _, rows = parse_table(r.stdout)
    assert rows
    assert abs(float(rows[0][2]) - 0.1830127018922193) < 1e-4


def test_find_po_alpha_zero():
    r = run_cli("find-po", "--alpha", "0", "--f", "1")
    assert r.returncode == 0
    header, rows = parse_table(r.stdout)
    assert header == ["theta", "beta", "payoff"]
    assert abs(float(rows[0][2]) - 0.125) < 1e-6


def test_find_po_fully_mixed_state_is_an_error():
    r = run_cli("find-po", "--alpha", "0.5", "--f", "0")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "every symmetric point has payoff 1/8" in r.stderr


def test_deviation_command():
    r = run_cli("deviation", "--alpha", "1", "--f", "1",
                "--theta", str(np.pi / 4), "--beta", "0")
    assert r.returncode == 0
    assert float(parse_kv(r.stdout)["gain"]) > 0.01

    r = run_cli("deviation", "--alpha", "1", "--f", "1",
                "--theta", str(np.pi / 2), "--beta", str(np.pi / 8))
    assert float(parse_kv(r.stdout)["gain"]) <= 1e-6


def test_fit_bundled():
    r = run_cli("fit", "--bundled")
    assert r.returncode == 0
    kv = parse_kv(r.stdout)
    assert 0.66 <= float(kv["f_hat"]) <= 0.76
    assert int(kv["n_points"]) == 8
    assert kv["clamped"] == "false"


def test_fit_from_file(tmp_path):
    f_true = 0.37
    pts = [FitPoint(a, n, "Z", model_payoff(FitPoint(a, n, "Z", 0.1, 0.01), f_true), 0.005)
           for a, n in [(0.0, "I"), (0.4, "II"), (0.8, "I"), (1.0, "II")]]
    path = tmp_path / "pts.csv"
    save_fit_points(pts, path)
    r = run_cli("fit", "--points", str(path))
    assert r.returncode == 0
    assert abs(float(parse_kv(r.stdout)["f_hat"]) - f_true) < 1e-6


def test_fit_argument_contract(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("alpha,strategy,basis,payoff,error\n")
    r = run_cli("fit", "--points", str(empty))
    assert r.returncode == 1
    assert "error" in r.stderr.lower()

    nan_payoff = tmp_path / "nan.csv"
    nan_payoff.write_text("alpha,strategy,basis,payoff,error\n0.5,I,Z,nan,0.01\n1,II,Z,0.2,0.01\n")
    r = run_cli("fit", "--points", str(nan_payoff))
    assert r.returncode == 1
    assert "line 2: payoff must be finite" in r.stderr

    assert run_cli("fit").returncode == 2
    assert run_cli("fit", "--points", str(empty), "--bundled").returncode == 2


def test_simulate_counts_deterministic_and_loadable(tmp_path):
    args = ("simulate-counts", "--alpha", "0.8", "--f", "0.9", "--strategy", "II",
            "--basis", "Z", "--events", "20000", "--seed", "5")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout

    out = tmp_path / "counts.csv"
    r = run_cli(*args, "--efficiency", "dV=0.5", "--output", str(out))
    assert r.returncode == 0
    table = load_counts(out)
    assert table.counts.sum() == 20000
    assert table.alpha == 0.8 and table.strategy == "II" and table.basis == "Z"
    assert table.efficiencies[3, 1] == 0.5
    assert np.all(table.efficiencies[:3] == 1.0)


def test_fidelity_command():
    r = run_cli("fidelity", "--alpha", "1", "--f", "0.71")
    assert r.returncode == 0
    kv = parse_kv(r.stdout)
    assert abs(float(kv["direct_overlap"]) - 0.728125) < 1e-9
    assert abs(float(kv["direct_overlap"]) - float(kv["stabilizer_estimate"])) < 1e-12
    assert int(kv["stabilizer_settings"]) == 9

    f = 0.746 * 16 / 15 - 1 / 15
    r = run_cli("fidelity", "--alpha", "1", "--f", repr(f), "--transform", "I")
    assert r.returncode == 0
    assert abs(float(parse_kv(r.stdout)["direct_overlap"]) - 0.746) < 1e-9


def test_waveplates_command():
    r = run_cli("waveplates", "--strategy", "I")
    assert r.returncode == 0
    kv = parse_kv(r.stdout)
    assert float(kv["solved_phase_distance"]) <= 1e-9
    assert kv["bench_matches"] == "false"
    assert abs(float(kv["bench_phase_distance"]) - 0.8535533905932738) < 1e-6

    r = run_cli("waveplates", "--theta", str(np.pi / 2), "--beta1", "0.3",
                "--beta2", "-0.3")
    assert r.returncode == 0
    kv = parse_kv(r.stdout)
    assert float(kv["solved_phase_distance"]) <= 1e-9
    assert "bench_matches" not in kv


# Runs the CLI in-process (no argv: import only), then prints on stderr the
# scipy modules the process has loaded.
_SCIPY_PROBE = """
import sys
import qminority
from qminority.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")], file=sys.stderr)
sys.exit(code)
"""


def scipy_modules_loaded(*args):
    r = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize("args", [
    (),
    ("payoff", "--alpha", "0.5", "--f", "0.9", "--strategy", "I"),
    ("scan-alpha", "--f", "0.9", "--strategy", "II", "--npoints", "3"),
    ("fidelity", "--alpha", "1", "--f", "0.71", "--transform", "I"),
    ("fit", "--bundled"),
    ("simulate-counts", "--alpha", "0.8", "--strategy", "II", "--events", "100", "--seed", "5"),
    ("waveplates", "--theta", "1.0", "--beta1", "0.3", "--beta2", "-0.7"),
    ("deviation", "--alpha", "0.6", "--f", "0.8", "--theta", "1.0", "--beta", "0.2"),
], ids=lambda args: args[0] if args else "import")
def test_commands_without_a_search_never_load_scipy(args):
    assert scipy_modules_loaded(*args) == "[]"


def test_find_ne_never_loads_scipy():
    assert scipy_modules_loaded("find-ne", "--alpha", "0.3", "--f", "1") == "[]"


def test_find_po_loads_scipy_optimize():
    assert "'scipy.optimize'" in scipy_modules_loaded("find-po", "--alpha", "0.5", "--f", "1")


def test_repeat_runs_are_byte_identical():
    a = run_cli("find-ne", "--alpha", "0.3", "--f", "1")
    b = run_cli("find-ne", "--alpha", "0.3", "--f", "1")
    assert a.stdout == b.stdout and a.returncode == 0


@pytest.mark.parametrize("cmd", [None, "payoff", "scan-alpha", "find-ne", "find-po",
                                 "deviation", "fit", "simulate-counts", "fidelity",
                                 "waveplates"])
def test_help_exits_zero(cmd):
    args = ["--help"] if cmd is None else [cmd, "--help"]
    r = run_cli(*args)
    assert r.returncode == 0
    assert "usage" in r.stdout.lower()
