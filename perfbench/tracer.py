"""In-memory span tracing of the package's public functions.

``Tracer.install`` wraps each public function of the traced modules (the
names in ``__all__``, or the public functions a module defines when it has
no ``__all__``) at every module attribute that binds it, plus
``scipy.optimize.minimize`` and ``least_squares`` as the package reaches
them.  Each call records a span: name, start, end, parent span and query id.
No package file is edited.

A span's self time is its duration minus the time its child spans cover.
Private helpers run inside the nearest public span, so a callback the
package hands to scipy counts towards ``scipy.optimize`` self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "qminority"
MODULES = ("cli", "equilibrium", "game", "states", "strategies", "qcore", "analysis")
SCIPY_LAYER = "scipy.optimize"
LAYERS = MODULES + (SCIPY_LAYER,)

# everything Tracer.layer_metrics reports, with its unit
TRACED_METRICS = {
    f"{layer}.{kind}": unit
    for layer in LAYERS
    for kind, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
}
TRACED_METRICS.update({
    "qcore.apply_local.calls": "count", "qcore.apply_local.self_s": "s",
    "equilibrium.deviation_gain.calls": "count", "equilibrium.deviation_gain.total_s": "s",
    "equilibrium.certify_yield": "ratio",
    "scipy.optimize.minimize.calls": "count", "scipy.optimize.least_squares.calls": "count",
    "scipy.optimize.nfev": "count", "scipy.optimize.nit": "count",
    "game.outcome_distribution.calls": "count", "game.expected_payoffs.calls": "count",
    "states.noisy_state.calls": "count", "states.stabilizer_fidelity.self_s": "s",
    "strategies.strategy_unitary.calls": "count", "strategies.solve_waveplate_angles.total_s": "s",
    "analysis.simulate_counts.self_s": "s", "analysis.counts_io.s": "s",
    "analysis.counts_io.bytes": "bytes", "analysis.fit_f.self_s": "s",
})


class Tracer:
    """Spans of one process, kept in flat arrays until the run ends.

    Span i has name id, parent span and query id at ``ints[3i:3i+3]`` and
    start and end at ``times[2i:2i+2]``; spans are numbered in call order.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ints = array("q")
        self.times = array("d")
        self.errors: set[int] = set()
        self.counters: Counter = Counter()
        self.active = False
        self.query_id = -1
        self._stack: list[int] = [-1]

    def __len__(self) -> int:
        return len(self.times) // 2

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        ints, times, stack, clock = self.ints, self.times, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(times) >> 1
            ints.extend((name_id, stack[-1], self.query_id))
            stack.append(span)
            times.append(clock())
            times.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors.add(span)
                raise
            finally:
                times[2 * span + 1] = clock()
                stack.pop()
            if after is not None:
                after(self.counters, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules; call once."""
        import importlib

        import scipy.optimize

        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        bound = [m for name, m in sys.modules.items()
                 if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module, short in zip(modules, MODULES):
            for attr in _public_functions(module):
                fn = getattr(module, attr)
                self._rebind(bound, fn, self.wrap(f"{short}.{attr}", fn, _AFTER.get(f"{short}.{attr}")))
        for attr in ("minimize", "least_squares"):
            fn = getattr(scipy.optimize, attr)
            setattr(scipy.optimize, attr, self.wrap(f"{SCIPY_LAYER}.{attr}", fn, _count_scipy))

    @staticmethod
    def _rebind(modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    def add(self, other: dict, query_id: int) -> None:
        """Merge spans exported by another process (see ``export``)."""
        offset = len(self)
        ids = [self._name_id(n) for n in other["names"]]
        src = other["ints"]
        for i in range(len(src) // 3):
            parent = src[3 * i + 1]
            self.ints.extend((ids[src[3 * i]], parent + offset if parent >= 0 else -1, query_id))
        self.times.extend(other["times"])
        self.errors.update(offset + i for i in other["errors"])
        self.counters.update(other["counters"])

    def export(self) -> dict:
        return {"names": self.names, "ints": self.ints.tolist(), "times": self.times.tolist(),
                "errors": sorted(self.errors), "counters": dict(self.counters)}

    def write(self, path) -> None:
        """Write the spans as gzip-compressed CSV, one span per line."""
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_s,end_s,parent,query,error\n")
            for i in range(len(self)):
                name, parent, query = self.ints[3 * i: 3 * i + 3]
                fh.write(f"{i},{self.names[name]},{self.times[2 * i]!r},{self.times[2 * i + 1]!r},"
                         f"{parent},{query},{int(i in self.errors)}\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, each divided by the number of rounds traced."""
        n = len(self)
        names = [self.names[k] for k in self.ints[0::3]]
        parents = self.ints[1::3]
        dur = [e - s for s, e in zip(self.times[0::2], self.times[1::2])]
        covered = [0.0] * n
        in_ne = [False] * n  # span runs inside find_symmetric_ne
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += dur[i]
                in_ne[i] = names[p] == "equilibrium.find_symmetric_ne" or in_ne[p]

        totals: Counter = Counter()
        for i in range(n):
            name, layer = names[i], names[i].rsplit(".", 1)[0]
            self_s = dur[i] - covered[i]
            totals[f"{layer}.calls"] += 1
            totals[f"{layer}.self_s"] += self_s
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += self_s
            totals[f"{name}.total_s"] += dur[i]
            if name == "equilibrium.deviation_gain" and in_ne[i]:
                totals["equilibrium.certify_attempts"] += 1
        for i in self.errors:
            totals[f"{names[i].rsplit('.', 1)[0]}.errors"] += 1
        totals.update(self.counters)

        metrics = {name: totals[name] / rounds for name in TRACED_METRICS}
        metrics["analysis.counts_io.s"] = (
            totals["analysis.format_counts.total_s"] + totals["analysis.load_counts.total_s"]
        ) / rounds
        attempts = totals["equilibrium.certify_attempts"]
        metrics["equilibrium.certify_yield"] = (
            totals["equilibrium.certified"] / attempts if attempts else 0.0
        )
        return metrics


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


def _count_scipy(counters, result) -> None:
    counters[f"{SCIPY_LAYER}.nfev"] += int(getattr(result, "nfev", 0))
    counters[f"{SCIPY_LAYER}.nit"] += int(getattr(result, "nit", 0))


# counts taken at a function boundary from its result
_AFTER = {
    "equilibrium.find_symmetric_ne": lambda c, r: c.update({"equilibrium.certified": len(r)}),
    "analysis.format_counts": lambda c, r: c.update({"analysis.counts_io.bytes": len(r)}),
}
