"""Single-qubit strategies and their wave-plate realizations.

A strategy is an SU(2) element parametrized as

    M(theta, b1, b2) = [[ e^{i b1} cos(theta/2),  i e^{i b2} sin(theta/2)],
                        [ i e^{-i b2} sin(theta/2), e^{-i b1} cos(theta/2)]]

with theta in [0, pi] and b1, b2 in [-pi, pi].  Two named strategies matter
throughout: STRATEGY_I = M(pi/2, pi/8, -pi/8) and STRATEGY_II = M(pi/4, 0, 0).

Optically a strategy is realized as a quarter-wave / half-wave / quarter-wave
plate triple.  Jones matrices use the convention

    hwp(phi) = R(phi) diag(1, -1) R(-phi)
    qwp(phi) = R(phi) diag(1, i)  R(-phi)

with R a real rotation by the plate's fast-axis angle phi; global phases are
dropped throughout, and plate angles are pi-periodic.  solve_waveplate_angles
finds the triple for any 2x2 unitary in closed form (an Euler decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import ALGEBRA_TOL, OPT_TOL
from .qcore import is_unitary

__all__ = [
    "StrategyParams",
    "strategy_unitary",
    "STRATEGY_I",
    "STRATEGY_II",
    "qwp",
    "hwp",
    "WaveplateTriple",
    "compose_waveplates",
    "solve_waveplate_angles",
    "phase_distance",
    "BENCH_TRIPLES",
    "bench_triple_report",
]


@dataclass(frozen=True)
class StrategyParams:
    """Strategy angles (theta, beta1, beta2)."""

    theta: float
    beta1: float
    beta2: float

    def __post_init__(self):
        eps = ALGEBRA_TOL
        if not -eps <= self.theta <= np.pi + eps:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not -np.pi - eps <= b <= np.pi + eps:
                raise ValueError(f"{name} must be in [-pi, pi], got {b}")

    @classmethod
    def symmetric(cls, theta: float, beta: float) -> "StrategyParams":
        """The phase-balanced slice beta1 = -beta2 = beta."""
        return cls(theta, beta, -beta)


def strategy_unitary(params: StrategyParams) -> np.ndarray:
    return _unitaries(params.theta, params.beta1, params.beta2)


def _unitaries(theta, beta1, beta2) -> np.ndarray:
    """M(theta, beta1, beta2) for broadcastable angles, shape (..., 2, 2).

    Angles are not validated: callers pass StrategyParams fields or grids
    built inside the parameter ranges.
    """
    c = np.cos(np.asarray(theta) / 2.0)
    s = np.sin(np.asarray(theta) / 2.0)
    e1 = np.exp(1j * np.asarray(beta1))
    e2 = np.exp(1j * np.asarray(beta2))
    u = np.empty(np.broadcast(c, e1, e2).shape + (2, 2), dtype=complex)
    u[..., 0, 0] = e1 * c
    u[..., 0, 1] = 1j * e2 * s
    u[..., 1, 0] = 1j * s / e2
    u[..., 1, 1] = c / e1
    return u


STRATEGY_I = StrategyParams(np.pi / 2, np.pi / 8, -np.pi / 8)
STRATEGY_II = StrategyParams(np.pi / 4, 0.0, 0.0)


def _rot(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def hwp(phi: float) -> np.ndarray:
    """Half-wave plate with fast axis at phi."""
    r = _rot(phi)
    return r @ np.diag([1.0, -1.0]).astype(complex) @ r.T


def qwp(phi: float) -> np.ndarray:
    """Quarter-wave plate with fast axis at phi."""
    r = _rot(phi)
    return r @ np.diag([1.0, 1.0j]) @ r.T


def _fold_plate_angle(angle: float) -> float:
    """Map a plate angle into (-pi/2, pi/2] (Jones matrices are pi-periodic)."""
    folded = (float(angle) + np.pi / 2) % np.pi - np.pi / 2
    if folded <= -np.pi / 2 + 1e-15:
        folded = np.pi / 2
    return folded


@dataclass(frozen=True)
class WaveplateTriple:
    """QWP-HWP-QWP settings; light passes qwp1 first."""

    qwp1: float
    hwp: float
    qwp2: float

    def __post_init__(self):
        for name in ("qwp1", "hwp", "qwp2"):
            object.__setattr__(self, name, _fold_plate_angle(getattr(self, name)))


def compose_waveplates(triple: WaveplateTriple) -> np.ndarray:
    """Jones matrix of the triple (first plate applied first)."""
    return qwp(triple.qwp2) @ hwp(triple.hwp) @ qwp(triple.qwp1)


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |tr(u^dag v)|/2; zero iff the 2x2 unitaries agree up to phase.

    Clamped at zero so floating-point noise never yields a negative distance.
    """
    return max(0.0, float(1.0 - abs(np.trace(np.asarray(u).conj().T @ np.asarray(v))) / 2.0))


def _aligned_difference(u: np.ndarray, v: np.ndarray) -> float:
    """Max entrywise |u - e^{i phi} v| with the best global phase."""
    tr = np.trace(np.asarray(u).conj().T @ np.asarray(v))
    phase = tr / abs(tr) if abs(tr) > 1e-15 else 1.0
    return float(np.max(np.abs(u - v / phase)))


def _closed_form_triple(u: np.ndarray) -> WaveplateTriple:
    """Plate angles with qwp(c) hwp(b) qwp(a) = u up to global phase.

    hwp(b) = R(2b) Z, Z R(a) = R(-a) Z and, with S = diag(1, i), Z S = S^-1
    and S R(p) S^-1 = cos(p) + i sin(p) X = E(p).  So the triple is the Y-X-Y
    Euler product R(c) E(2b - a - c) R(-a) (Simon & Mukunda, Phys. Lett. A
    143, 165 (1990)), read off u scaled into SU(2).  A vanishing cos(p) or
    sin(p) leaves its phase undefined but multiplies it by zero.
    """
    v = u / np.sqrt(np.linalg.det(u))
    cos_part = complex(v[0, 0].real, v[1, 0].real)  # cos(p) e^{i(c - a)}
    sin_part = complex(v[1, 0].imag, -v[0, 0].imag)  # sin(p) e^{i(c + a)}
    diff, total = np.angle(cos_part), np.angle(sin_part)
    p = np.arctan2(abs(sin_part), abs(cos_part))
    return WaveplateTriple((total - diff) / 2, (p + total) / 2, (total + diff) / 2)


def solve_waveplate_angles(u: np.ndarray, tol: float = OPT_TOL) -> WaveplateTriple:
    """Plate triple reproducing the unitary u up to global phase.

    Closed-form Euler decomposition, checked by recomposition.  Raises
    ValueError for non-unitary input or a tolerance that is not finite and
    > 0, and RuntimeError if the triple misses u by more than tol.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("waveplate solve requires a 2x2 unitary")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    triple = _closed_form_triple(u)
    miss = _aligned_difference(u, compose_waveplates(triple))
    if not miss <= tol:
        raise RuntimeError(f"waveplate triple misses the unitary by {miss!r}, above tol={tol!r}")
    return triple


# Plate settings used on the optical bench for the two named strategies.
BENCH_TRIPLES = {
    "I": WaveplateTriple(-np.pi / 8, 5 * np.pi / 16, 0.0),
    "II": WaveplateTriple(np.pi / 2, np.pi / 16, np.pi / 2),
}


def bench_triple_report(tol: float = 1e-9) -> list[dict]:
    """Check the bench plate settings against the strategy matrices.

    Returns one row per named strategy with the bench triple, whether its
    Jones matrix matches the strategy unitary up to global phase under this
    module's plate convention, and the residual phase distance.
    """
    targets = {"I": strategy_unitary(STRATEGY_I), "II": strategy_unitary(STRATEGY_II)}
    rows = []
    for name, triple in BENCH_TRIPLES.items():
        m = compose_waveplates(triple)
        d = phase_distance(targets[name], m)
        rows.append(
            {
                "strategy": name,
                "triple": triple,
                "matches": d <= tol,
                "phase_distance": d,
            }
        )
    return rows
