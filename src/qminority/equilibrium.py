"""Symmetric equilibrium and optimum search over the strategy family.

A symmetric point (theta, beta) means all four players use
M(theta, beta, -beta).  By the player-transitive swap symmetries of the
input family all payoffs then coincide, and a point is a Nash equilibrium
iff the last player (the designated deviator) cannot gain by a unilateral
change anywhere in her full (theta', beta1', beta2') space.

Against fixed opponents her Z-basis payoff is c^2 p1 + s^2 p2 +
sin(theta') Re(e^{i(beta2' - beta1')} zc), c, s = cos, sin(theta'/2), where
the corner moments (p1, p2, zc) come from the amplitudes of |1110>, |1111>,
|0000>, |0001> after the other three have played.  Certification is its
exact maximum, a closed form, and the symmetric payoff is its value at
theta' = theta, beta1' = -beta2' = beta.  Each corner amplitude is a cubic
in the entries of M(theta, beta, -beta), so one batched kernel evaluates the
moments over whole (theta, beta) grids.  Every observable is linear in the
state and local unitaries leave white noise unchanged, so noise is the
affine map f * pure + (1 - f) * uniform on pure-state results.

Equilibrium search: stationary points of the deviation payoff are seeded
from a (theta, beta) grid ranked by the norm of its exact gradient, polished
all at once by Newton on that gradient divided by sin(theta), and each
candidate is certified by deviation_gain <= gain_tol.  The optimum search
polishes the grid maximum of the symmetric payoff once with Nelder-Mead and
reports its canonical image under the exact theta <-> pi - theta and
beta <-> -beta symmetries.  Both searches refuse f = 0, where every
symmetric point is an equilibrium with payoff 1/8.  On this state family
the payoff is exactly pi/2-periodic in beta and invariant under
beta -> -beta, so scans cover beta in [-pi/4, pi/4) and report beta >= 0.
Only find_symmetric_po loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import ALGEBRA_TOL, GRID, NE_GAIN_TOL, OPT_TOL
from . import game
from .states import _check_unit, family_state, noisy_state
from .strategies import StrategyParams

__all__ = [
    "SymmetricPoint",
    "EquilibriumReport",
    "symmetric_profile",
    "symmetric_payoff",
    "deviation_gain",
    "ne_theta",
    "ne_payoff",
    "payoff_gradient_closed",
    "find_symmetric_ne",
    "find_symmetric_po",
]

ALPHA_STAR = np.sqrt(2.0 / 3.0)  # boundary of the closed-form equilibrium branch


@dataclass(frozen=True)
class SymmetricPoint:
    """Common strategy angles (theta, beta) of a symmetric profile."""

    theta: float
    beta: float

    def __post_init__(self):
        if not -ALGEBRA_TOL <= self.theta <= np.pi + ALGEBRA_TOL:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not -np.pi - ALGEBRA_TOL <= self.beta <= np.pi + ALGEBRA_TOL:
            raise ValueError(f"beta must be in [-pi, pi], got {self.beta}")


@dataclass(frozen=True)
class EquilibriumReport:
    point: SymmetricPoint
    payoff: float
    max_deviation_gain: float


def symmetric_profile(point: SymmetricPoint) -> tuple[StrategyParams, ...]:
    return (StrategyParams.symmetric(point.theta, point.beta),) * game.N_PLAYERS


def symmetric_payoff(alpha: float, f: float, point: SymmetricPoint) -> float:
    """Common expected payoff when all four play (theta, beta)."""
    return float(np.mean(game.expected_payoffs(noisy_state(alpha, f), symmetric_profile(point))))


# ---------------------------------------------------------------------------
# batched kernel: corner moments as a cubic in the strategy matrix entries

_UNIFORM_MOMENTS = (1.0 / 8.0, 1.0 / 8.0, 0.0)  # (p1, p2, zc) of the uniform mixture
_POWERS = np.arange(4)
# row m selects the basis states of qubits 0-2 with m ones
_BY_ONES = (np.array([bin(b).count("1") for b in range(8)]) == _POWERS[:, None]).astype(float)


def _family_tensor(alpha: float) -> np.ndarray:
    return family_state(alpha).amplitudes.reshape(2, 2, 2, 2)


def _symmetric_kernel(psi: np.ndarray, f: float, thetas, betas):
    """Corner moments (p1, p2, zc) at every (theta, beta) after the three
    non-deviating players have played M(theta, beta, -beta).

    psi is the pure family tensor, shape (2, 2, 2, 2); thetas and betas are
    arrays of one shape, which every moment takes.  The corners need qubits
    0-2 all 0 or all 1, so each corner amplitude is a cubic in the entries
    of M: an input with m ones on those qubits reaches 000 with weight
    M00^(3-m) M01^m and 111 with weight M10^(3-m) M11^m.  Summing psi by m
    first leaves two (G x 4) @ (4 x 2) products per call.
    """
    thetas = np.asarray(thetas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    half = thetas[..., None] / 2.0
    c, s = np.cos(half), 1j * np.sin(half)
    e = np.exp(1j * betas[..., None])
    sums = _BY_ONES @ psi.reshape(8, 2)  # (m, qubit 3)
    p, q = np.moveaxis((c * e) ** (3 - _POWERS) * (s / e) ** _POWERS @ sums, -1, 0)
    g, h = np.moveaxis((s * e) ** (3 - _POWERS) * (c / e) ** _POWERS @ sums, -1, 0)
    p1 = np.abs(g) ** 2 + np.abs(q) ** 2
    p2 = np.abs(h) ** 2 + np.abs(p) ** 2
    zc = 1j * (np.conj(g) * h - np.conj(p) * q)
    return tuple(f * x + (1.0 - f) * u for x, u in zip((p1, p2, zc), _UNIFORM_MOMENTS))


def _deviation_payoff(moments, theta, beta1, beta2):
    """Deviator payoff at M(theta', beta1', beta2'); broadcasts over arrays."""
    p1, p2, zc = moments
    c2 = np.cos(theta / 2.0) ** 2
    cross = np.sin(theta) * np.real(np.exp(1j * (beta2 - beta1)) * zc)
    return c2 * p1 + (1.0 - c2) * p2 + cross


def deviation_gain(alpha: float, f: float, point: SymmetricPoint) -> tuple[float, StrategyParams]:
    """Best unilateral improvement available to the deviating player.

    Exact best response: her payoff peaks at (p1 + p2)/2 + hypot((p1 - p2)/2,
    |zc|), reached at theta' = atan2(2|zc|, p1 - p2), beta1' = arg(zc)/2,
    beta2' = -arg(zc)/2.  Returns (gain, best deviation), the gain clamped at
    0.  No grid or tolerance enters the result.
    """
    alpha, f = _check_unit("alpha", alpha), _check_unit("f", f)
    p1, p2, zc = _symmetric_kernel(_family_tensor(alpha), f, point.theta, point.beta)
    p1, p2, zc = float(p1), float(p2), complex(zc)
    base = float(_deviation_payoff((p1, p2, zc), point.theta, point.beta, -point.beta))
    best = (p1 + p2) / 2.0 + float(np.hypot((p1 - p2) / 2.0, abs(zc)))
    phase = float(np.angle(zc))
    argmax = StrategyParams(float(np.arctan2(2.0 * abs(zc), p1 - p2)), phase / 2.0, -phase / 2.0)
    return max(best - base, 0.0), argmax


# ---------------------------------------------------------------------------
# closed forms

def ne_theta(alpha: float) -> float | None:
    """Polar angle of the phase-free symmetric equilibrium branch.

    cos(theta) = sqrt[(2 - 3a^2) / (2 - a^2 + 2a sqrt(2 - 2a^2))]; defined
    for alpha <= sqrt(2/3), None beyond (no equilibrium of that family).
    """
    alpha = _check_unit("alpha", alpha)
    num = 2.0 - 3.0 * alpha**2
    if num < -ALGEBRA_TOL:
        return None
    den = 2.0 - alpha**2 + 2.0 * alpha * np.sqrt(2.0 - 2.0 * alpha**2)
    return float(np.arccos(np.sqrt(max(num, 0.0) / den)))


def ne_payoff(alpha: float) -> float:
    """Equilibrium payoff on the branch covered by ne_theta."""
    alpha = _check_unit("alpha", alpha)
    if alpha > ALPHA_STAR + ALGEBRA_TOL:
        raise ValueError(f"equilibrium branch requires alpha <= sqrt(2/3), got {alpha}")
    r = np.sqrt(2.0 - 2.0 * alpha**2)
    return float(
        alpha * (2.0 - 3.0 * alpha**2) * (alpha + r) / (4.0 - 2.0 * alpha**2 + 4.0 * alpha * r)
    )


def payoff_gradient_closed(alpha: float, point: SymmetricPoint) -> tuple[float, float]:
    """Closed-form deviator-payoff derivatives at a symmetric point (f = 1).

    Returns (d/dtheta', d/dbeta') of the deviator payoff with the deviation
    phases locked to beta1' = -beta2', evaluated at the symmetric point.
    """
    a = _check_unit("alpha", alpha)
    th, be = point.theta, point.beta
    r = np.sqrt(2.0 - 2.0 * a**2)
    c4 = np.cos(4.0 * be)
    s2 = np.sin(th) ** 2
    dtheta = (np.sin(2.0 * th) / 8.0) * (
        2.0 * a**2
        + 2.0 * a * r * c4
        + (2.0 * a**2 - 2.0 - 2.0 * a * r * c4 - a**2 * c4**2) * s2
    )
    dbeta = (a / 2.0) * np.sin(4.0 * be) * s2 * ((r + a * c4) * s2 - 2.0 * r)
    return float(dtheta), float(dbeta)


# ---------------------------------------------------------------------------
# searches

_BETA_WINDOW = np.pi / 4.0


def _stationarity_gradient(moments, theta, beta):
    """Exact gradient (d/dtheta', d/dbeta') of the phase-balanced deviation
    payoff at theta' = theta, beta' = beta; broadcasts over arrays.

    With w = e^{-2i beta} zc it is (-(sin(theta)/2)(p1 - p2) + cos(theta) Re w,
    2 sin(theta) Im w).
    """
    p1, p2, zc = moments
    w = np.exp(-2j * beta) * zc
    return -0.5 * np.sin(theta) * (p1 - p2) + np.cos(theta) * w.real, 2.0 * np.sin(theta) * w.imag


_NEWTON_H = 1e-6
_NEWTON_OFFSETS = np.array([(0.0, 0.0), (_NEWTON_H, 0.0), (-_NEWTON_H, 0.0),
                            (0.0, _NEWTON_H), (0.0, -_NEWTON_H)])
_NEWTON_MAX_STEPS = 60
_NEWTON_STOP = 1e-14


def _newton_polish(psi: np.ndarray, f: float, thetas: np.ndarray, betas: np.ndarray):
    """Newton iteration for zeros of the stationarity gradient divided by
    sin(theta), all points at once; returns the polished (thetas, betas).

    The theta = 0 and pi lines are stationary for every beta, so the plain
    gradient has roots there that attract Newton away from interior
    equilibria; dividing by sin(theta) removes them.  Each step evaluates
    the point and its four central-difference neighbours (h = 1e-6) in one
    kernel call, solves the 2x2 system in closed form and clips to the search
    box.  A non-finite step (sin(theta) = 0 once clipping has put theta at 0
    or pi, or a singular Jacobian) leaves the point where it is.  Stops once
    no point moves by 1e-14, or after 60 steps.
    """
    th, be = np.array(thetas, dtype=float), np.array(betas, dtype=float)
    for _ in range(_NEWTON_MAX_STEPS):
        th5 = th + _NEWTON_OFFSETS[:, :1]
        be5 = be + _NEWTON_OFFSETS[:, 1:]
        gt, gb = _stationarity_gradient(_symmetric_kernel(psi, f, th5, be5), th5, be5)
        with np.errstate(divide="ignore", invalid="ignore"):
            gt, gb = gt / np.sin(th5), gb / np.sin(th5)
            a, b = (gt[1] - gt[2]) / (2.0 * _NEWTON_H), (gt[3] - gt[4]) / (2.0 * _NEWTON_H)
            c, d = (gb[1] - gb[2]) / (2.0 * _NEWTON_H), (gb[3] - gb[4]) / (2.0 * _NEWTON_H)
            det = a * d - b * c
            dth = (b * gb[0] - d * gt[0]) / det
            dbe = (c * gt[0] - a * gb[0]) / det
        finite = np.isfinite(dth) & np.isfinite(dbe)
        new_th = np.where(finite, np.clip(th + dth, 0.0, np.pi), th)
        new_be = np.where(finite, np.clip(be + dbe, -_BETA_WINDOW, _BETA_WINDOW), be)
        moved = np.maximum(np.abs(new_th - th), np.abs(new_be - be))
        th, be = new_th, new_be
        if not np.any(moved >= _NEWTON_STOP):
            break
    return th, be


def _canonicalize(theta: float, beta: float) -> tuple[float, float]:
    theta = float(np.clip(theta, 0.0, np.pi))
    beta = abs(float(beta))  # beta -> -beta is an exact payoff symmetry here
    if theta < 1e-6 or theta > np.pi - 1e-6:
        # at theta = 0 or pi the strategy is diagonal/antidiagonal phases,
        # invisible to Z readout; pin the phase to 0
        theta = 0.0 if theta < 1e-6 else float(np.pi)
        beta = 0.0
    return theta, beta


def _search_grid(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(grid + 1) x grid mesh of thetas over [0, pi] and betas over the window."""
    thetas = np.linspace(0.0, np.pi, grid + 1)
    betas = np.linspace(-_BETA_WINDOW, _BETA_WINDOW, grid, endpoint=False)
    return np.meshgrid(thetas, betas, indexing="ij")


def find_symmetric_ne(
    alpha: float,
    f: float = 1.0,
    grid: int = GRID,
    gain_tol: float = NE_GAIN_TOL,
    refine_tol: float = OPT_TOL,
) -> list[EquilibriumReport]:
    """All certified symmetric equilibria, canonical representatives only.

    Seeds are the interior local minima of the exact stationarity-gradient
    norm (see _stationarity_gradient) over a (grid + 1) x grid scan,
    polished all at once by Newton on that gradient divided by sin(theta)
    (see _newton_polish).  The boundary seeds (0, 0) and (pi, 0) are taken
    as they are.  A polished point is kept when its gradient norm is at most
    sqrt(refine_tol), and each deduplicated candidate is certified by the
    exact deviation_gain <= gain_tol.  Sorted by (theta, beta).  At f = 0
    the state is the uniform mixture and every symmetric point is an
    equilibrium, so ValueError is raised instead of a list.
    """
    alpha, f = _check_unit("alpha", alpha), _check_unit("f", f)
    if f == 0.0:
        raise ValueError("at f = 0 every symmetric point is an equilibrium with payoff 1/8")
    if grid < 8:
        raise ValueError("grid resolution must be at least 8")
    if not 0.0 <= gain_tol < np.inf:
        raise ValueError(f"gain_tol must be finite and >= 0, got {gain_tol}")
    if not 0.0 < refine_tol < np.inf:
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")
    psi = _family_tensor(alpha)

    th_mesh, be_mesh = _search_grid(grid)
    moments = _symmetric_kernel(psi, f, th_mesh, be_mesh)
    norm = np.hypot(*_stationarity_gradient(moments, th_mesh, be_mesh))

    # interior local minima of the gradient norm over their (edge-clipped)
    # 3x3 window, best first, at least 3 grid steps apart, at most 30
    padded = np.pad(norm, 1, constant_values=np.inf)
    window_min = np.min(
        [padded[di : di + norm.shape[0], dj : dj + norm.shape[1]] for di in range(3) for dj in range(3)],
        axis=0,
    )
    minimum = (norm <= window_min + 1e-15) & (norm <= 0.05)
    minimum[[0, -1]] = False
    order = np.argsort(norm, axis=None)
    taken: list[tuple[int, int]] = []
    for flat in order[minimum.ravel()[order]]:
        i, j = np.unravel_index(flat, norm.shape)
        if all(max(abs(i - a), abs(j - b)) >= 3 for a, b in taken):
            taken.append((int(i), int(j)))
            if len(taken) >= 30:
                break

    rows, cols = np.array(taken, dtype=int).reshape(-1, 2).T
    th, be = _newton_polish(psi, f, th_mesh[rows, cols], be_mesh[rows, cols])
    gt, gb = _stationarity_gradient(_symmetric_kernel(psi, f, th, be), th, be)
    converged = np.hypot(gt, gb) <= np.sqrt(refine_tol)
    # the theta = 0 and theta = pi rows are stationary for every beta on this
    # family (the deviator's cross moment vanishes there), so they enter once,
    # via their canonical representatives, instead of letting the flat
    # zero-gradient lines crowd out isolated interior minima
    boundary = [(0.0, 0.0), (float(np.pi), 0.0)]
    candidates: list[tuple[float, float]] = []
    for point in boundary + list(zip(th[converged], be[converged])):
        cand = _canonicalize(*point)
        if all(max(abs(cand[0] - a), abs(cand[1] - b)) > 1e-4 for a, b in candidates):
            candidates.append(cand)

    reports = []
    for th, be in sorted(candidates):
        point = SymmetricPoint(th, be)
        gain, _ = deviation_gain(alpha, f, point)
        if gain <= gain_tol:
            reports.append(EquilibriumReport(point, symmetric_payoff(alpha, f, point), gain))
    return reports


def find_symmetric_po(alpha: float, f: float = 1.0,
                      grid: int = GRID) -> tuple[SymmetricPoint, float]:
    """Global maximizer of the symmetric payoff over (theta, beta).

    The symmetric payoff is the deviator's payoff at the symmetric point
    itself, so it is read from the pure-state corner moments (noise only
    rescales it).  A batched (grid + 1) x grid scan gives the start of one
    Nelder-Mead polish, whose stopping tolerances are fixed.  The payoff is
    exactly invariant under theta <-> pi - theta and beta <-> -beta, so the
    polished point is reported as its canonical image (min(theta, pi - theta),
    |beta|).  At f = 0 the payoff is 1/8 everywhere and no point is singled
    out, so ValueError is raised.
    """
    alpha, f = _check_unit("alpha", alpha), _check_unit("f", f)
    if f == 0.0:
        raise ValueError("at f = 0 every symmetric point has payoff 1/8; there is no optimum")
    if grid < 8:
        raise ValueError("grid resolution must be at least 8")
    psi = _family_tensor(alpha)

    def pure_payoff(theta, beta):
        return _deviation_payoff(_symmetric_kernel(psi, 1.0, theta, beta), theta, beta, -beta)

    th_mesh, be_mesh = _search_grid(grid)
    vals = pure_payoff(th_mesh, be_mesh)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)

    from scipy import optimize  # lazy: only find_symmetric_po pays its import

    res = optimize.minimize(
        lambda x: -float(pure_payoff(x[0], x[1])),
        x0=np.array([th_mesh[i, j], be_mesh[i, j]]),
        method="Nelder-Mead",
        bounds=[(0.0, np.pi), (-_BETA_WINDOW, _BETA_WINDOW)],
        options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 1200},
    )
    th = float(np.clip(res.x[0], 0.0, np.pi))
    point = SymmetricPoint(min(th, np.pi - th), abs(float(res.x[1])))
    return point, symmetric_payoff(alpha, f, point)
