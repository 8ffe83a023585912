"""Shared independent oracles for the test suite.

Everything here recomputes results through a different route than the
package code under test: full tensor-product matrices instead of axis
contractions, probe evaluations instead of amplitude bookkeeping, and a
closed-form best-response bound instead of a grid scan.
"""

import numpy as np

from qminority import DensityMatrix, StrategyParams, expected_payoffs, noisy_state
from qminority.equilibrium import symmetric_profile


def kron_apply(amplitudes, ops):
    """Reference route for local operations: build the full 2^n matrix."""
    full = np.eye(1, dtype=complex)
    for op in ops:
        full = np.kron(full, np.asarray(op, dtype=complex))
    return full @ np.asarray(amplitudes, dtype=complex)


def random_unitary(rng):
    """Haar-ish random 2x2 unitary via QR with phase fixing."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state_vector(rng, dim=16):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def mixture(weights, states):
    """sum_i w_i |psi_i><psi_i| built member by member."""
    return DensityMatrix(sum(w * np.outer(s.amplitudes, s.amplitudes.conj())
                             for w, s in zip(weights, states)))


def random_density_matrix(rng, dim=16):
    """Random mixed state G G^dag / tr(G G^dag) of random rank."""
    rank = int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_params(rng):
    return StrategyParams(
        float(rng.uniform(0, np.pi)),
        float(rng.uniform(-np.pi, np.pi)),
        float(rng.uniform(-np.pi, np.pi)),
    )


def phase_gap(u, v):
    """1 - |tr(u^dag v)|/2; zero iff the unitaries agree up to global phase."""
    return 1.0 - abs(np.trace(np.asarray(u).conj().T @ np.asarray(v))) / 2.0


def probe_moments(alpha, f, point):
    """Corner moments (P1, P2, Z) of the fourth player's payoff.

    Her payoff against a fixed symmetric profile is
    c^2 P1 + s^2 P2 + sin(theta) Re(e^{i(b2-b1)} Z) in her own parameters,
    so four probe evaluations through the public game pipeline pin down
    (P1, P2, Re Z, Im Z).
    """
    ens = noisy_state(alpha, f)

    def debra(theta, b1, b2):
        prof = list(symmetric_profile(point))[:3] + [StrategyParams(theta, b1, b2)]
        return float(expected_payoffs(ens, prof)[3])

    p1 = debra(0.0, 0.0, 0.0)
    p2 = debra(np.pi, 0.0, 0.0)
    re_z = debra(np.pi / 2, 0.0, 0.0) - (p1 + p2) / 2
    im_z = (p1 + p2) / 2 - debra(np.pi / 2, 0.0, np.pi / 2)
    return p1, p2, complex(re_z, im_z)


def probe_deviation_max(alpha, f, point):
    """Closed-form global best-response payoff for the fourth player:
    the maximum over all unitaries is (P1+P2)/2 + sqrt(((P1-P2)/2)^2 + |Z|^2)
    with the probed moments of probe_moments.
    """
    p1, p2, z = probe_moments(alpha, f, point)
    return (p1 + p2) / 2 + float(np.hypot((p1 - p2) / 2, abs(z)))
