"""One workload process: set up, run rounds until the time budget is spent,
then check every answer.

``run.py`` starts this file with the package on PYTHONPATH and passes its
``time.monotonic()`` at spawn as ``--started``; set-up time runs from there
until the warm-up call returns.  The process prints one JSON line: the
set-up time alone with ``--setup-only``, else the full result.

Only package work is timed: inputs are generated and answers checked
outside the timed regions, and a round's wall time covers its whole query
list.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = HERE / "reference" / "cli_tables.json"
CLI_TIMEOUT_S = 120
MAX_FAILURE_MESSAGES = 20


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0, help="stop after this many rounds (0: no limit)")
    p.add_argument("--queries", type=int, default=0,
                   help="keep only this many queries per round (0: all); for smoke tests")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() of the parent when it started this process")
    return p.parse_args(argv)


class Query:
    """Timing, answer and checker of one query."""

    def __init__(self, seconds, answer, error, check, label=""):
        self.seconds, self.answer, self.error, self.check, self.label = (
            seconds, answer, error, check, label)

    def failures(self) -> list[str]:
        if self.error is not None:
            return [self.error]
        try:
            return self.check(self.answer)
        except Exception as exc:  # a checker that cannot read the answer fails it
            return [f"check raised {type(exc).__name__}: {exc}"]


def _timed(tracer, fn, check, label="") -> Query:
    """Run and time one query."""
    if tracer is not None:
        tracer.query_id += 1
        tracer.active = True
    t0 = time.perf_counter()
    try:
        answer, error = fn(), None
    except Exception as exc:  # recorded as a failed query; the run continues
        answer, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return Query(seconds, answer, error, check, label)


# ---------------------------------------------------------------------------
# workloads

class NeWorkload:
    """ne-pure and ne-noisy: full symmetric analysis of one (alpha, f)."""

    def __init__(self, qm):
        self.qm = qm

    def warm_up(self, inputs):
        eq = self.qm.equilibrium
        eq.deviation_gain(inputs[0]["alpha"], inputs[0]["f"], eq.SymmetricPoint(1.0, 0.2))

    def _query(self, q):
        eq = self.qm.equilibrium
        return {
            "ne": eq.find_symmetric_ne(q["alpha"], q["f"]),
            "po": eq.find_symmetric_po(q["alpha"], q["f"]),
            "deviation": eq.deviation_gain(
                q["alpha"], q["f"], eq.SymmetricPoint(q["theta"], q["beta"])),
        }

    def run(self, inputs, tracer):
        return [_timed(tracer, lambda: self._query(q),
                       lambda a, q=q: checks.check_ne(self.qm, q, a)) for q in inputs]


class LabWorkload:
    """lab-pipeline: counts, estimate, fidelities and plates per
    configuration, then one fit of f over the session."""

    def __init__(self, qm):
        self.qm = qm

    def warm_up(self, inputs):
        an = self.qm.analysis
        table = an.simulate_counts(1.0, 0.9, (an.STRATEGY_BY_NAME["I"],) * 4, "X", 1000, 0)
        an.payoff_estimate(table)

    def _config(self, c):
        an, st, sg = self.qm.analysis, self.qm.states, self.qm.strategies
        params = an.STRATEGY_BY_NAME[c["strategy"]]
        plate = sg.strategy_unitary(sg.StrategyParams(*c["plate"]))
        table = an.simulate_counts(
            c["alpha"], c["f"], (params,) * 4, c["basis"], workloads.LAB_EVENTS,
            c["counts_seed"], efficiencies=c["efficiencies"], strategy_name=c["strategy"])
        loaded = an.load_counts(io.StringIO(an.format_counts(table)))
        estimate = an.payoff_estimate(loaded)
        ens = st.noisy_state(c["alpha"], c["f"])
        return {
            "table": table,
            "loaded": loaded,
            "estimate": estimate,
            "fidelity": st.ghz_fidelity(ens, st.ghz_state()),
            "stabilizer": st.stabilizer_fidelity(ens),
            "plates": sg.solve_waveplate_angles(plate),
        }

    def run(self, session, tracer):
        out, done = [], []
        for c in session["configs"]:
            q = _timed(tracer, lambda: self._config(c), lambda a, c=c: checks.check_lab(c, a))
            out.append(q)
            if q.error is None:
                done.append((c, q.answer["estimate"]))
        an = self.qm.analysis

        def fit():
            return an.fit_f([an.FitPoint(c["alpha"], c["strategy"], c["basis"], e.average,
                                         e.std_error) for c, e in done])

        out.append(_timed(tracer, fit, lambda a: checks.check_fit(
            session, [c for c, _ in done], [e for _, e in done], a)))
        return out


def prepare_cli_job(job: dict) -> list[str]:
    """Write a cli-jobs invocation's input files and remove the files it
    writes (the path after ``--output``), so a stale file cannot pass for
    its output; return the latter."""
    for path, content in job["files"].items():
        Path(path).write_text(content)
    argv = job["argv"]
    outputs = [argv[argv.index("--output") + 1]] if "--output" in argv else []
    for path in outputs:
        Path(path).unlink(missing_ok=True)
    return outputs


def spawn_cli(argv: list[str], traced: bool = False) -> subprocess.CompletedProcess:
    """One fresh ``python -m qminority.cli`` process, or its traced shim."""
    entry = [str(HERE / "cli_shim.py")] if traced else ["-m", "qminority.cli"]
    return subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


def read_outputs(outputs: list[str]) -> dict:
    """The content of each output file, or None where none was written."""
    return {p: Path(p).read_text() if Path(p).exists() else None for p in outputs}


class CliWorkload:
    """cli-jobs: every query is a fresh CLI process."""

    def __init__(self, traced: bool):
        self.reference = json.loads(REFERENCE.read_text())
        self.traced = traced
        self.spans = Path(workloads.WORK_DIR) / "cli-spans.json"
        if traced:
            os.environ["PERFBENCH_SPANS"] = str(self.spans)
        self.process_s: dict[str, list[float]] = {}
        self.stdout_bytes = 0

    def warm_up(self, inputs):
        spawn_cli(["payoff", "--alpha", "1", "--strategy", "I"])

    def _check(self, job, answer):
        ref = self.reference[job["slot"]][job["variant"]]
        if ref["argv"] != job["argv"]:
            return [f"no reference table for {job['argv']}"]
        proc, files = answer
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        fails = checks.check_cli_text(job["argv"], proc.stdout, ref["stdout"])
        for path, want in ref["files"].items():
            if files.get(path) is None:
                fails.append(f"{path} was not written")
            else:
                fails += checks.check_cli_text(job["argv"], files[path], want)
        return fails

    def run(self, jobs, tracer):
        out = []
        for job in jobs:
            outputs = prepare_cli_job(job)
            self.spans.unlink(missing_ok=True)
            q = _timed(None, lambda: spawn_cli(job["argv"], self.traced),
                       lambda a, job=job: self._check(job, a), label=job["argv"][0])
            if tracer is not None:
                tracer.query_id += 1
                if self.spans.exists():
                    tracer.add(json.loads(self.spans.read_text()), tracer.query_id)
            if q.answer is not None:
                self.stdout_bytes += len(q.answer.stdout.encode())
            q.answer = (q.answer, read_outputs(outputs))
            self.process_s.setdefault(job["argv"][0], []).append(q.seconds)
            out.append(q)
        return out


# ---------------------------------------------------------------------------

def _truncate(inputs, n: int):
    if not n:
        return inputs
    if isinstance(inputs, dict):  # a lab session needs two estimates for its fit
        return {**inputs, "configs": inputs["configs"][:max(2, n)]}
    return inputs[:n]


def main(argv=None) -> int:
    args = _args(argv)
    import qminority

    Path(workloads.WORK_DIR).mkdir(exist_ok=True)
    if args.workload == "cli-jobs":
        wl = CliWorkload(traced=args.trace)
    elif args.workload == "lab-pipeline":
        wl = LabWorkload(qminority)
    else:
        wl = NeWorkload(qminority)
    tracer = None
    if args.trace:
        tracer = Tracer()
        if not isinstance(wl, CliWorkload):
            tracer.install()
    inputs = _truncate(workloads.make_round(args.workload, args.seed, 0), args.queries)
    wl.warm_up(inputs)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    round_s, queries = [], []
    cpu0, t_start = os.times(), time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        done = wl.run(inputs, tracer)
        round_s.append(time.perf_counter() - t0)
        queries += done
        r += 1
        elapsed = time.perf_counter() - t_start
        if (args.rounds and r >= args.rounds) or (
            not args.rounds and elapsed + statistics.median(round_s) > args.seconds
        ):
            break
        inputs = _truncate(workloads.make_round(args.workload, args.seed, r), args.queries)
    measured_s = time.perf_counter() - t_start
    cpu1 = os.times()
    cpu_s = sum(cpu1[:4]) - sum(cpu0[:4])

    failures, failed = [], 0
    for q in queries:
        msgs = q.failures()
        failed += bool(msgs)
        failures += [f"{q.label or 'query'}: {msg}" for msg in msgs]
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliWorkload) else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "round_s": round_s,
        "query_s": [q.seconds for q in queries],
        "attempted": len(queries),
        "failed": failed,
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "cpu_s": cpu_s,
        "measured_s": measured_s,
    }
    if isinstance(wl, CliWorkload):
        result["process_s"] = wl.process_s
        result["stdout_bytes"] = wl.stdout_bytes / len(round_s)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(round_s))
        tracer.write(Path(workloads.WORK_DIR) / f"spans-{args.workload}-{args.seed}.csv.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
