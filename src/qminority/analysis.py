"""Coincidence-counts pipeline: ingestion, detector-efficiency correction,
Poissonian error propagation, payoff estimation, synthetic-data generation,
and weighted least-squares fitting of the white-noise fidelity f.

A counts file holds the 16 fourfold-coincidence totals of one run.  Detector
ids combine the output mode letter (a-d, one per player) with the analyzed
polarization (H records outcome bit 0, V records bit 1), so an outcome bit
string selects one detector per mode; its raw count is corrected by the
product of those four efficiencies.  All errors are first-order (delta
method) from the Poisson variance of the raw counts, var(count) = count.

The fidelity fit uses the fact that every model payoff is linear in f:
payoff(alpha, f) = 1/8 + f * (payoff_pure(alpha) - 1/8) in every readout
basis, so the single-parameter weighted least squares has a closed solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import game
from .game import MINORITY_TABLE, MeasurementBasis
from .qcore import index_to_bits
from .states import _check_unit, family_state, noisy_state
from .strategies import STRATEGY_I, STRATEGY_II, StrategyParams

__all__ = [
    "N_OUTCOMES",
    "MODES",
    "STRATEGY_BY_NAME",
    "CountsTable",
    "PayoffEstimate",
    "FitPoint",
    "FitResult",
    "detector_ids",
    "load_counts",
    "format_counts",
    "save_counts",
    "bundled_fit_points",
    "corrected_probabilities",
    "payoff_estimate",
    "simulate_counts",
    "load_fit_points",
    "save_fit_points",
    "fit_f",
]

N_OUTCOMES = 16
MODES = "abcd"
_POLS = "HV"  # H -> outcome bit 0, V -> outcome bit 1

STRATEGY_BY_NAME = {"I": STRATEGY_I, "II": STRATEGY_II}


def detector_ids() -> tuple[str, ...]:
    """The eight detector labels, mode-major: aH, aV, bH, ... dV."""
    return tuple(m + p for m in MODES for p in _POLS)


def _parse_detector(label: str) -> tuple[int, int]:
    if len(label) == 2 and label[0] in MODES and label[1] in _POLS:
        return MODES.index(label[0]), _POLS.index(label[1])
    raise ValueError(f"unknown detector id {label!r} (expected one of {', '.join(detector_ids())})")


def _validated_efficiencies(eff) -> np.ndarray:
    arr = np.array(eff, dtype=float)
    if arr.shape != (4, 2):
        raise ValueError(f"efficiencies must have shape (4, 2), got {arr.shape}")
    if not np.all((arr > 0) & np.isfinite(arr)):
        raise ValueError("efficiencies must be finite and positive")
    return arr


@dataclass(frozen=True)
class CountsTable:
    """One run's 16 coincidence counts plus detector efficiencies and metadata."""

    counts: np.ndarray  # (16,) nonnegative integers by outcome index
    efficiencies: np.ndarray  # (4, 2) indexed by [mode, outcome bit]
    alpha: float | None = None
    strategy: str | None = None
    basis: str | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (N_OUTCOMES,):
            raise ValueError(f"counts must have {N_OUTCOMES} entries, got shape {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            rounded = np.asarray(counts, dtype=np.int64)
            if not np.array_equal(rounded, counts):
                raise ValueError("counts must be integers")
            counts = rounded
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        counts = counts.astype(np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        eff = _validated_efficiencies(self.efficiencies)
        eff.setflags(write=False)
        object.__setattr__(self, "efficiencies", eff)
        if self.strategy is not None and self.strategy not in STRATEGY_BY_NAME:
            raise ValueError(f"strategy must be one of {sorted(STRATEGY_BY_NAME)}, got {self.strategy!r}")
        if self.basis is not None:
            object.__setattr__(self, "basis", MeasurementBasis(self.basis).value)
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _check_unit("alpha", self.alpha))

    @property
    def total(self) -> int:
        return sum(self.counts.tolist())  # Python ints: an int64 sum can wrap


def _efficiency_products(eff: np.ndarray) -> np.ndarray:
    """Fourfold detection efficiency of each outcome bit string."""
    prods = np.empty(N_OUTCOMES)
    for idx in range(N_OUTCOMES):
        bits = index_to_bits(idx, 4)
        prods[idx] = np.prod([eff[i, int(b)] for i, b in enumerate(bits)])
    return prods


# ---------------------------------------------------------------------------
# counts file I/O

def _read_text(source) -> tuple[str, str]:
    if hasattr(source, "read"):
        return source.read(), getattr(source, "name", "<stream>")
    return Path(source).read_text(), str(source)


_MAX_COUNT = int(np.iinfo(np.int64).max)  # counts are stored as int64


def load_counts(source) -> CountsTable:
    """Parse a counts file (see save_counts for the format).

    All validation problems are collected and reported together, each with
    its line number.
    """
    text, name = _read_text(source)
    problems: list[str] = []
    eff = np.ones((4, 2))
    eff_seen: set[str] = set()
    meta: dict[str, object] = {}
    header_seen = False
    rows: dict[int, int] = {}

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("efficiency"):
                parts = body.split()
                if len(parts) != 3:
                    problems.append(f"line {ln}: expected '# efficiency <id> <value>'")
                    continue
                try:
                    mode, bit = _parse_detector(parts[1])
                    value = float(parts[2])
                except ValueError as exc:
                    problems.append(f"line {ln}: {exc}")
                    continue
                if not 0 < value < np.inf:
                    problems.append(
                        f"line {ln}: efficiency must be finite and positive, got {value}")
                    continue
                if parts[1] in eff_seen:
                    problems.append(f"line {ln}: duplicate efficiency for detector {parts[1]}")
                    continue
                eff_seen.add(parts[1])
                eff[mode, bit] = value
            elif body.startswith("meta"):
                for token in body.split()[1:]:
                    key, _, value = token.partition("=")
                    if key == "alpha":
                        try:
                            meta["alpha"] = float(value)
                        except ValueError:
                            problems.append(f"line {ln}: bad alpha value {value!r}")
                    elif key == "strategy":
                        if value in STRATEGY_BY_NAME:
                            meta["strategy"] = value
                        else:
                            problems.append(f"line {ln}: unknown strategy {value!r}")
                    elif key == "basis":
                        try:
                            meta["basis"] = MeasurementBasis(value).value
                        except ValueError:
                            problems.append(f"line {ln}: unknown basis {value!r}")
                    else:
                        problems.append(f"line {ln}: unknown meta key {key!r}")
            continue
        if not header_seen:
            header_seen = True
            if line.replace(" ", "") == "outcome,count":
                continue
            problems.append(f"line {ln}: missing 'outcome,count' header")
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            problems.append(f"line {ln}: expected 'outcome,count', got {raw!r}")
            continue
        outcome, count_text = parts
        if len(outcome) != 4 or set(outcome) - {"0", "1"}:
            problems.append(f"line {ln}: outcome must be a 4-char bit string, got {outcome!r}")
            continue
        idx = int(outcome, 2)
        if idx in rows:
            problems.append(f"line {ln}: duplicate outcome {outcome}")
            continue
        try:
            count = int(count_text)
        except ValueError:
            problems.append(f"line {ln}: count must be an integer, got {count_text!r}")
            continue
        if count < 0:
            problems.append(f"line {ln}: negative count {count} for outcome {outcome}")
            continue
        if count > _MAX_COUNT:
            problems.append(f"line {ln}: count {count} for outcome {outcome} exceeds {_MAX_COUNT}")
            continue
        rows[idx] = count

    missing = [index_to_bits(i, 4) for i in range(N_OUTCOMES) if i not in rows]
    if missing:
        problems.append("missing outcomes: " + ", ".join(missing))
    if problems:
        raise ValueError(f"invalid counts file {name}: " + "; ".join(problems))
    counts = np.array([rows[i] for i in range(N_OUTCOMES)], dtype=np.int64)
    return CountsTable(counts=counts, efficiencies=eff, **meta)


def _one_line_comments(kind: str, comments: tuple[str, ...]) -> tuple[str, ...]:
    """The comments, checked to be one line each: each is written as one
    '# ' line, and a line break inside it would start a line that the loader
    does not read as a comment."""
    for c in comments:
        if "".join(c.splitlines()) != c:
            raise ValueError(f"{kind} file comment must be one line, got {c!r}")
    return comments


def format_counts(table: CountsTable, comments: tuple[str, ...] = ()) -> str:
    """Render a counts file: comment block, meta line, efficiency lines,
    'outcome,count' header, then the 16 rows in outcome order.

    Raises ValueError for a comment that load_counts would not read back as
    a comment: one spanning several lines, or one starting with 'meta' or
    'efficiency' (after stripping), which it parses as a directive.
    """
    for c in _one_line_comments("counts", comments):
        if c.strip().startswith(("meta", "efficiency")):
            raise ValueError(f"counts file comment must not start with 'meta' or 'efficiency', got {c!r}")
    lines = [f"# {c}" for c in comments]
    meta_parts = []
    if table.alpha is not None:
        meta_parts.append(f"alpha={table.alpha!r}")
    if table.strategy is not None:
        meta_parts.append(f"strategy={table.strategy}")
    if table.basis is not None:
        meta_parts.append(f"basis={table.basis}")
    if meta_parts:
        lines.append("# meta " + " ".join(meta_parts))
    for mode_idx, mode in enumerate(MODES):
        for bit, pol in enumerate(_POLS):
            lines.append(f"# efficiency {mode}{pol} {float(table.efficiencies[mode_idx, bit])!r}")
    lines.append("outcome,count")
    for idx in range(N_OUTCOMES):
        lines.append(f"{index_to_bits(idx, 4)},{int(table.counts[idx])}")
    return "\n".join(lines) + "\n"


def save_counts(table: CountsTable, path, comments: tuple[str, ...] = ()) -> None:
    Path(path).write_text(format_counts(table, comments))


def bundled_fit_points() -> list[FitPoint]:
    """The reference Z-basis payoff dataset shipped with the package."""
    from importlib import resources

    with resources.files(__package__).joinpath("data/measured_payoffs_z.csv").open() as fh:
        return load_fit_points(fh)


# ---------------------------------------------------------------------------
# estimation

def corrected_probabilities(table: CountsTable) -> tuple[np.ndarray, np.ndarray]:
    """Efficiency-corrected outcome probabilities and their variances.

    Each raw count is divided by its fourfold detection efficiency and the
    result renormalized; variances follow by first-order propagation from
    var(count) = count through correction and normalization.
    """
    r = table.counts.astype(float)
    if r.sum() <= 0:
        raise ValueError("all counts are zero; probabilities are undefined")
    e = _efficiency_products(table.efficiencies)
    x = r / e
    s = x.sum()
    p = x / s
    jac = (np.eye(N_OUTCOMES) - p[:, None]) / (e[None, :] * s)  # dp_i/dr_j
    var = jac**2 @ r
    return p, var


@dataclass(frozen=True)
class PayoffEstimate:
    per_player: tuple[float, float, float, float]
    average: float
    std_error: float

    def __post_init__(self):
        if abs(self.average - float(np.mean(self.per_player))) > 1e-12:
            raise ValueError("average must equal the mean of the per-player payoffs")
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")


def payoff_estimate(table: CountsTable) -> PayoffEstimate:
    """Per-player and average payoffs from corrected probabilities, with the
    delta-method standard error of the average."""
    p, _ = corrected_probabilities(table)
    per_player = p @ MINORITY_TABLE
    avg = float(per_player.mean())
    a = MINORITY_TABLE.mean(axis=1)
    r = table.counts.astype(float)
    e = _efficiency_products(table.efficiencies)
    s = (r / e).sum()
    var_avg = float(((a - avg) / (e * s)) ** 2 @ r)
    return PayoffEstimate(
        per_player=tuple(float(v) for v in per_player),
        average=avg,
        std_error=float(np.sqrt(var_avg)),
    )


def simulate_counts(
    alpha: float,
    f: float,
    profile,
    basis: MeasurementBasis | str,
    total_events: int,
    seed: int,
    efficiencies=None,
    strategy_name: str | None = None,
) -> CountsTable:
    """Seeded multinomial draw of fourfold coincidences.

    Detection probabilities are the model outcome probabilities weighted by
    the fourfold efficiencies and renormalized (the draw conditions on a
    detected event), so corrected_probabilities recovers the model values.
    """
    total_events = int(total_events)
    if total_events <= 0:
        raise ValueError(f"total_events must be positive, got {total_events}")
    if total_events > _MAX_COUNT:
        raise ValueError(f"total_events must be at most {_MAX_COUNT}, got {total_events}")
    eff = np.ones((4, 2)) if efficiencies is None else _validated_efficiencies(efficiencies)
    basis = MeasurementBasis(basis)
    p = game.outcome_distribution(noisy_state(alpha, f), profile, basis)
    q = p * _efficiency_products(eff)
    q = q / q.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(total_events, q)
    return CountsTable(
        counts=counts,
        efficiencies=eff,
        alpha=float(alpha),
        strategy=strategy_name,
        basis=basis.value,
    )


# ---------------------------------------------------------------------------
# fidelity fit

@dataclass(frozen=True)
class FitPoint:
    alpha: float
    strategy: str
    basis: str
    payoff: float
    error: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_unit("alpha", self.alpha))
        if self.strategy not in STRATEGY_BY_NAME:
            raise ValueError(f"strategy must be one of {sorted(STRATEGY_BY_NAME)}, got {self.strategy!r}")
        object.__setattr__(self, "basis", MeasurementBasis(self.basis).value)
        for name in ("payoff", "error"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class FitResult:
    f_hat: float
    f_err: float
    chi_square: float
    n_points: int
    clamped: bool


def load_fit_points(source) -> list[FitPoint]:
    """Parse an 'alpha,strategy,basis,payoff,error' table; '#' comments and
    an optional header line are skipped."""
    text, name = _read_text(source)
    points: list[FitPoint] = []
    problems: list[str] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[0].lower() == "alpha":
            continue
        if len(parts) != 5:
            problems.append(f"line {ln}: expected 5 fields, got {len(parts)}")
            continue
        try:
            points.append(
                FitPoint(
                    alpha=float(parts[0]),
                    strategy=parts[1],
                    basis=parts[2],
                    payoff=float(parts[3]),
                    error=float(parts[4]),
                )
            )
        except ValueError as exc:
            problems.append(f"line {ln}: {exc}")
    if problems:
        raise ValueError(f"invalid fit-points file {name}: " + "; ".join(problems))
    return points


def save_fit_points(points, path, comments: tuple[str, ...] = ()) -> None:
    """Write a fit-points table; raises ValueError, writing nothing, for a
    comment that spans several lines."""
    lines = [f"# {c}" for c in _one_line_comments("fit-points", comments)]
    lines.append("alpha,strategy,basis,payoff,error")
    for p in points:
        lines.append(f"{float(p.alpha)!r},{p.strategy},{p.basis},{float(p.payoff)!r},{float(p.error)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def model_payoff(point: FitPoint, f: float, model: str = "engine") -> float:
    """Model average payoff for a fit point's configuration at fidelity f."""
    return 0.125 + f * _model_slope(point, model)


def _model_slope(point: FitPoint, model: str) -> float:
    if model == "engine":
        prof = (STRATEGY_BY_NAME[point.strategy],) * game.N_PLAYERS
        pure = game.average_payoff(family_state(point.alpha), prof, point.basis)
        return pure - 0.125
    if model == "closed":
        if point.strategy == "II":
            return game.average_payoff_closed_ii(point.alpha, 1.0) - 0.125
        return game.average_payoff_closed_i_alt(point.alpha, 1.0) - 0.125
    raise ValueError(f"model must be 'engine' or 'closed', got {model!r}")


def fit_f(points, model: str = "engine") -> FitResult:
    """Weighted least-squares fit of the single fidelity parameter.

    Every model payoff is linear in f (payoff = 1/8 + m*f with m the pure
    payoff minus 1/8), so the weighted normal equation solves in closed form;
    the error is the curvature of chi-square at the minimum.  model="engine"
    evaluates m with the simulation engine; model="closed" uses the two
    closed-form expressions as printed at their source, including the variant
    that is known to disagree with the engine (kept for comparison runs).
    """
    points = list(points)
    if len(points) < 2:
        raise ValueError(f"need at least 2 fit points, got {len(points)}")
    errors = np.array([p.error for p in points], dtype=float)
    if np.any(errors <= 0):
        raise ValueError("every fit point must have a positive error")
    y = np.array([p.payoff for p in points], dtype=float)
    m = np.array([_model_slope(p, model) for p in points])
    w = 1.0 / errors**2
    curvature = float(w @ m**2)
    # weighted rms slope below 1e-6 payoff units: f is not identifiable
    if curvature <= 1e-12 * float(w.sum()):
        raise ValueError("model payoffs are all flat in f; the fit is degenerate")
    raw = float(w @ (m * (y - 0.125))) / curvature
    f_hat = float(np.clip(raw, 0.0, 1.0))
    resid = y - 0.125 - m * f_hat
    return FitResult(
        f_hat=f_hat,
        f_err=float(curvature**-0.5),
        chi_square=float(w @ resid**2),
        n_points=len(points),
        clamped=bool(raw < 0.0 or raw > 1.0),
    )
