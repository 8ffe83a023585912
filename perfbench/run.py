"""qminority benchmark: one workload, end-to-end or per-layer metrics.

From the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are cli-jobs, ne-pure, ne-noisy and lab-pipeline (see
workloads.py and BENCHMARK.json).  Each runs closed loop: one client,
sequential queries, no added threads.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run, next to an untraced run of the same
queries that gives the tracing overhead.  The line before it is the run
record: code and environment identity, extra statistics and the first
failure messages.

The package is used straight from ``src/`` and never modified.  Scratch
files go to ``.perfbench_work/`` in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3  # set-up is timed this many times per run; the median is reported
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CLI_SUBCOMMANDS = ("payoff", "scan-alpha", "fidelity", "fit", "simulate-counts",
                   "waveplates", "deviation", "find-po")


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = _nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = 0
        env[var] = str(current if 0 < current <= nproc else nproc)
    return env


def _run(cmd, env, deadline: float) -> str:
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish in time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd[1:]))} exited with {proc.returncode}")
    return out


def run_worker(args, env, deadline, *extra) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           *extra, "--started", repr(time.monotonic())]
    lines = _run(cmd, env, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def import_times(env, deadline) -> tuple[dict, int]:
    """Median cumulative import time, in seconds, of qminority and of the
    scipy.optimize modules loaded while importing it, from ``-X importtime``,
    and the number of import runs that failed."""
    samples = {"qminority": [], "scipy.optimize": []}
    errors = 0
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qminority"],
                              capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            errors += 1
            continue
        for name, seconds in parse_importtime(proc.stderr).items():
            samples[name].append(seconds)
    return {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}, errors


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of ``qminority`` and of the outermost ``scipy.optimize``
    entries.  ``from scipy import optimize`` goes through scipy's lazy
    ``__getattr__``, which importtime does not log, so the package's own line
    can be missing; its logged submodules then stand in for it."""
    entries = []  # (depth, name, cumulative seconds), in import order
    for line in text.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
    # importtime prints children before their parent; reversed, every entry
    # follows its ancestors
    out = {"qminority": 0.0, "scipy.optimize": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_opt = name == "scipy.optimize" or name.startswith("scipy.optimize.")
        if is_opt and not any(a.startswith("scipy.optimize") for _, a in ancestors):
            out["scipy.optimize"] += cumulative
        if name == "qminority":
            out["qminority"] = cumulative
        ancestors.append((depth, name))
    return out


def run_record(root: Path, args, env) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 cwd=root, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": _nproc(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, env, deadline):
    setups = [run_worker(args, env, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(args, env, deadline, "--seconds", repr(args.seconds))
    setups.append(res["setup_s"])
    q_ms = sorted(1000.0 * s for s in res["query_s"])
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(res["round_s"]), "s"),
        "query_p50_ms": _metric(statistics.median(q_ms), "ms"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }
    extra = {"setup_samples_s": setups, "rounds": len(res["round_s"]), "queries": len(q_ms)}
    if len(q_ms) >= 100:  # at least ten samples beyond the 90th percentile
        extra["query_p90_ms"] = statistics.quantiles(q_ms, n=10)[-1]
    return metrics, [res], extra


def per_layer(args, env, deadline):
    imports, import_errors = import_times(env, deadline)
    half = repr(max(args.seconds / 2.0, 0.1))
    base = run_worker(args, env, deadline, "--seconds", half)
    traced = run_worker(args, env, deadline, "--rounds", str(len(base["round_s"])), "--trace")
    values = dict(traced["layers"])
    values["import.qminority_s"] = imports["qminority"]
    values["import.scipy_optimize_s"] = imports["scipy.optimize"]
    values["import.errors"] = import_errors
    process_s = base.get("process_s", {})
    values["cli.process_s"] = statistics.median(
        [s for v in process_s.values() for s in v]) if process_s else 0.0
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.process_s.{sub}"] = statistics.median(process_s[sub]) if sub in process_s else 0.0
    values["cli.stdout_bytes"] = base.get("stdout_bytes", 0)
    values["proc.cpu_s"] = base["cpu_s"] / len(base["round_s"])
    values["proc.cpu_per_wall"] = base["cpu_s"] / base["measured_s"]
    values["trace.overhead_frac"] = (
        statistics.median(traced["round_s"]) / statistics.median(base["round_s"]) - 1.0)
    metrics = {name: _metric(values[name], unit) for name, unit in layer_units().items()}
    return metrics, [base, traced], {"rounds": len(base["round_s"])}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit (the order of BENCHMARK.json)."""
    units = {"import.qminority_s": "s", "import.scipy_optimize_s": "s", "import.errors": "count",
             "cli.process_s": "s"}
    units.update({f"cli.process_s.{sub}": "s" for sub in CLI_SUBCOMMANDS})
    units["cli.stdout_bytes"] = "bytes"
    units.update(tracer.TRACED_METRICS)
    units.update({"proc.cpu_s": "s", "proc.cpu_per_wall": "ratio", "trace.overhead_frac": "ratio"})
    return units


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qminority" / "__init__.py").is_file():
        print(f"error: no package at {root / 'src' / 'qminority'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root)
    record = run_record(root, args, env)
    try:
        metrics, results, extra = (per_layer if args.trace else end_to_end)(args, env, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [msg for r in results for msg in r["failures"]]
    record.update(extra, failed_frac=failed / attempted if attempted else 1.0, failures=failures)
    print(json.dumps(record))
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
