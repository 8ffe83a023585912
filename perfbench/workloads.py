"""Seeded query lists for the four benchmark workloads.

Every workload runs in rounds.  A round is the workload's fixed query list,
drawn afresh for each round from ``(workload, seed, round)``, so the
in-process workloads repeat no input within a run and the package cannot
profit from caching identical queries.  cli-jobs draws from a fixed pool of
invocations with reference outputs; each of its queries is a fresh process.
Parameters are stratified where their value changes the cost of a query, so
the work per round barely depends on the seed.

Generation uses only :mod:`random` seeded with a string, which is stable
across Python versions and independent of numpy.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli-jobs", "ne-pure", "ne-noisy", "lab-pipeline")
# The workloads BENCHMARK.json gates.  ne-noisy and lab-pipeline stay
# runnable, traced and checked, but on a shared two-core host their figures
# swing more than a regression bound allows: a noisy query takes 12 to 18 s,
# so a run holds too few of them for its median to ride out a slow phase.
GATED = ("cli-jobs", "ne-pure")

ALPHA_STAR = math.sqrt(2.0 / 3.0)

# Equilibrium queries draw alpha from these strata: three below ALPHA_STAR
# and one above it.  Two windows are left out because find_symmetric_ne
# certifies no equilibrium there although one exists, a known defect of its
# search: at f = 1 a scan in steps of 0.0025 found empty lists for alpha in
# [0.0025, 0.01] and [0.8075, 0.825], next to ALPHA_STAR.  The gaps are
# those windows plus a margin of about one step.  A test in perfbench/tests
# pins the defect, so a fix shows and the strata can then be widened.
NE_STRATA = ((0.015, 0.27), (0.27, 0.54), (0.54, 0.80), (0.83, 0.99))

LAB_CONFIGS_PER_ROUND = 25
LAB_EVENTS = 10**6


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _deviation_point(rng: random.Random) -> tuple[float, float]:
    """An interior symmetric point (theta, beta) that is not an equilibrium."""
    return rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.1, math.pi / 4 - 0.1)


def _ne_query(rng: random.Random, stratum: tuple[float, float], noisy: bool) -> dict:
    theta, beta = _deviation_point(rng)
    return {
        "alpha": rng.uniform(*stratum),
        "f": rng.uniform(0.7, 0.9) if noisy else 1.0,
        "theta": theta,
        "beta": beta,
    }


def ne_round(seed: int, round_index: int, noisy: bool) -> list[dict]:
    """Symmetric-analysis queries: find_symmetric_ne, find_symmetric_po and
    deviation_gain at one (alpha, f) each.

    A pure round holds one query per alpha stratum, so every round carries
    the same mix of alphas; a query takes about 2 s on two cores and a pure
    run holds four to six rounds.  A noisy query
    takes 12 to 18 s whatever alpha is, so a noisy round is a single query,
    its stratum rotating with seed and round.
    """
    workload = "ne-noisy" if noisy else "ne-pure"
    rng = _rng(workload, seed, round_index)
    if noisy:
        return [_ne_query(rng, NE_STRATA[(seed + round_index) % len(NE_STRATA)], True)]
    return [_ne_query(rng, stratum, False) for stratum in NE_STRATA]


def lab_round(seed: int, round_index: int) -> dict:
    """One lab session: a generating f shared by all configurations (so the
    closing fit_f query has a true value to recover) and the configurations.

    Counts are simulated for the named strategy I or II, which fit_f models.
    The plates are solved for a seeded unitary of each configuration,
    ``plate`` = (theta, beta1, beta2), so no two solves share a target."""
    rng = _rng("lab-pipeline", seed, round_index)
    f = rng.uniform(0.7, 0.95)
    configs = []
    for k in range(LAB_CONFIGS_PER_ROUND):
        # every fifth configuration sits at the GHZ point, where the
        # fidelity has the textbook form (1 + 15 f) / 16
        alpha = 1.0 if k % 5 == 0 else rng.uniform(0.0, 1.0)
        configs.append(
            {
                "alpha": alpha,
                "f": f,
                "strategy": ("I", "II")[k % 2],
                "basis": "ZXY"[k % 3],
                "efficiencies": [[rng.uniform(0.5, 1.0) for _ in range(2)] for _ in range(4)],
                "counts_seed": rng.randrange(2**32),
                "plate": (rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi),
                          rng.uniform(-math.pi, math.pi)),
            }
        )
    return {"f": f, "configs": configs}


# ---------------------------------------------------------------------------
# cli-jobs: a fixed pool of invocations, so each has a reference table
# captured from the seed commit (reference/cli_tables.json).

WORK_DIR = ".perfbench_work"
POINTS_PATH = f"{WORK_DIR}/fit_points.csv"
COUNTS_PATH = f"{WORK_DIR}/counts.csv"
POOL_SIZE = 8


def _fmt(x: float) -> str:
    return repr(round(x, 6))


def _pool_rng(slot: str) -> random.Random:
    return random.Random(f"cli-pool:{slot}")


def _alpha_f(rng: random.Random) -> list[str]:
    return ["--alpha", _fmt(rng.uniform(0.0, 1.0)), "--f", _fmt(rng.uniform(0.6, 1.0))]


def _fit_points_text(rng: random.Random) -> str:
    lines = ["alpha,strategy,basis,payoff,error"]
    for k in range(8):
        lines.append(
            f"{_fmt(rng.uniform(0.0, 1.0))},{('I', 'II')[k % 2]},{'ZXY'[k % 3]},"
            f"{_fmt(rng.uniform(0.05, 0.25))},{_fmt(rng.uniform(0.004, 0.012))}"
        )
    return "\n".join(lines) + "\n"


def _efficiency_args(rng: random.Random) -> list[str]:
    args = []
    for det in rng.sample(["aH", "aV", "bH", "bV", "cH", "cV", "dH", "dV"], 3):
        args += ["--efficiency", f"{det}={_fmt(rng.uniform(0.5, 1.0))}"]
    return args


def _slot_variants(slot: str) -> list[dict]:
    """The pool of invocations for one job slot; each is {"argv", "files"}
    where files maps a path to the content written before the job runs."""
    rng = _pool_rng(slot)
    variants = []
    for k in range(POOL_SIZE):
        files = {}
        if slot.startswith("payoff-"):
            argv = ["payoff", *_alpha_f(rng), "--strategy", ("I", "II")[k % 2],
                    "--basis", slot[-1]]
        elif slot.startswith("scan-alpha-"):
            argv = ["scan-alpha", "--f", _fmt(rng.uniform(0.6, 1.0)),
                    "--strategy", slot.split("-")[-1], "--basis", "ZXY"[k % 3],
                    "--npoints", str(rng.randint(15, 25))]
        elif slot == "fidelity":
            argv = ["fidelity", *_alpha_f(rng)]
        elif slot == "fidelity-transform":
            argv = ["fidelity", *_alpha_f(rng), "--transform", ("I", "II")[k % 2]]
        elif slot == "fit-bundled":
            argv = ["fit", "--bundled", "--model", ("engine", "closed")[k % 2]]
        elif slot == "fit-points":
            argv = ["fit", "--points", POINTS_PATH]
            files = {POINTS_PATH: _fit_points_text(rng)}
        elif slot == "simulate-counts":
            argv = ["simulate-counts", *_alpha_f(rng), "--strategy", ("I", "II")[k % 2],
                    "--basis", "ZXY"[k % 3], "--events", str(rng.randint(10**4, 10**6)),
                    "--seed", str(rng.randrange(2**31)), *_efficiency_args(rng),
                    "--output", COUNTS_PATH]
        elif slot in ("waveplates-I", "waveplates-II"):
            argv = ["waveplates", "--strategy", slot.split("-")[-1]]
            if k % 2:
                argv += ["--tol", "1e-10"]
        elif slot == "waveplates-custom":
            argv = ["waveplates", "--theta", _fmt(rng.uniform(0.1, 3.0)),
                    "--beta1", _fmt(rng.uniform(-3.0, 3.0)), "--beta2", _fmt(rng.uniform(-3.0, 3.0))]
        elif slot == "deviation":
            argv = ["deviation", *_alpha_f(rng), "--theta", _fmt(rng.uniform(0.3, 2.8)),
                    "--beta", _fmt(rng.uniform(-1.5, 1.5))]
        elif slot == "find-po":
            argv = ["find-po", *_alpha_f(rng)]
        else:
            raise ValueError(f"unknown cli slot {slot!r}")
        variants.append({"argv": argv, "files": files})
    return variants


CLI_SLOTS = (
    "payoff-Z", "payoff-X", "payoff-Y",
    "scan-alpha-I", "scan-alpha-II",
    "fidelity", "fidelity-transform",
    "fit-bundled", "fit-points",
    "simulate-counts",
    "waveplates-I", "waveplates-II", "waveplates-custom",
    "deviation",
    "find-po",
)


def cli_pool() -> dict[str, list[dict]]:
    return {slot: _slot_variants(slot) for slot in CLI_SLOTS}


def cli_round(seed: int, round_index: int) -> list[dict]:
    """One job per slot; the seed picks each job's variant from the pool."""
    rng = _rng("cli-jobs", seed, round_index)
    pool = cli_pool()
    jobs = []
    for slot in CLI_SLOTS:
        k = rng.randrange(POOL_SIZE)
        jobs.append({"slot": slot, "variant": k, **pool[slot][k]})
    return jobs


def make_round(workload: str, seed: int, round_index: int):
    if workload == "cli-jobs":
        return cli_round(seed, round_index)
    if workload == "ne-pure":
        return ne_round(seed, round_index, noisy=False)
    if workload == "ne-noisy":
        return ne_round(seed, round_index, noisy=True)
    if workload == "lab-pipeline":
        return lab_round(seed, round_index)
    raise ValueError(f"unknown workload {workload!r}")
