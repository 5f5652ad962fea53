"""Two-qubit game protocol: SU(2) strategy gates, Bell basis, trace payoffs.

Gates follow the half-angle phase convention

    U(theta, alpha, beta) = [[ exp(i*alpha/2)*cos(theta/2),  exp(i*beta/2)*sin(theta/2)],
                             [-exp(-i*beta/2)*sin(theta/2),  exp(-i*alpha/2)*cos(theta/2)]]

so that C = U(0,0,0) = I, D = U(pi,0,0) = [[0,1],[-1,0]] and
Q = U(0,pi,0) = diag(i,-i).  Both players act on the entangled state
(|00> + i|11>)/sqrt(2) and payoffs are traces against Bell-basis payoff
operators.

This module also owns the real form of the same game.  A gate is the unit
quaternion q of U = q0*I + q1*iZ + q2*iY + q3*iX, and the Bell amplitude of
outcome k (CC, CD, DC, DD) is p^T R_k q for Alice's quaternion p and Bob's q,
with fixed signed-permutation matrices R_k (Landsburg, Notices of the AMS
51(4), 2004).  So payoff = sum_k a_k (p^T R_k q)^2, and a payoff that is
quadratic in one player's quaternion is the symmetric form q^T Q q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import GameSpec

TWO_PI = 2.0 * math.pi

# Unitarity defect above which a caller's gate counts as corrupt.
VALIDATION_TOL = 1e-9


@dataclass(frozen=True)
class StrategyParams:
    """Point (theta, alpha, beta) on the strategy torus.

    ``dims`` counts the active parameters: 1 keeps only theta, 2 adds alpha,
    3 all three.  Angles must be finite and inactive angles zero.  Angles are
    canonicalized on construction, keeping the gate up to sign: alpha and beta
    into [0, 2*pi), with theta negated when the two took an odd number of
    2*pi wraps in all (U(theta, alpha + 2*pi, beta) = -U(-theta, alpha, beta),
    and likewise for beta), then theta into [-pi, pi] (both endpoints
    representable).
    """

    theta: float
    alpha: float = 0.0
    beta: float = 0.0
    dims: int = 3

    def __post_init__(self):
        if self.dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2 or 3, got {self.dims!r}")
        if not all(math.isfinite(float(x)) for x in (self.theta, self.alpha, self.beta)):
            raise ValueError(
                f"angles must be finite, got ({self.theta!r}, {self.alpha!r}, {self.beta!r})")
        alpha, odd_alpha = _wrap_phase(float(self.alpha))
        beta, odd_beta = _wrap_phase(float(self.beta))
        theta = -float(self.theta) if odd_alpha != odd_beta else float(self.theta)
        theta = math.remainder(theta, TWO_PI)
        if self.dims < 3 and beta != 0.0:
            raise ValueError("beta must be 0 when dims < 3")
        if self.dims < 2 and alpha != 0.0:
            raise ValueError("alpha must be 0 when dims < 2")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.theta, self.alpha, self.beta)

    @property
    def active(self) -> tuple[float, ...]:
        return self.angles[: self.dims]

    def with_dims(self, dims: int) -> "StrategyParams":
        """Same torus point re-declared with a different active-dimension count."""
        return StrategyParams(self.theta, self.alpha, self.beta, dims)


def _wrap_phase(angle: float) -> tuple[float, bool]:
    """``angle`` wrapped into [0, 2*pi), and whether that took an odd number of 2*pi wraps."""
    wrapped = angle % (2.0 * TWO_PI)
    # float modulo can round up to the period itself for tiny negative inputs
    if wrapped >= 2.0 * TWO_PI:
        wrapped = 0.0
    odd = wrapped >= TWO_PI
    return (wrapped - TWO_PI if odd else wrapped), odd


def strategy(name: str, dims: int = 3) -> StrategyParams:
    """Named pure strategy C, D or Q as a torus point with the given dims."""
    table = {"C": (0.0, 0.0, 0.0), "D": (math.pi, 0.0, 0.0), "Q": (0.0, math.pi, 0.0)}
    key = name.upper()
    if key not in table:
        raise ValueError(f"unknown strategy {name!r}; choose from C, D, Q")
    theta, alpha, beta = table[key]
    return StrategyParams(theta, alpha, beta, dims)


def su2_angles(theta, alpha, beta) -> np.ndarray:
    """SU(2) gate(s) for angle arrays; broadcasts and returns shape (..., 2, 2)."""
    theta = np.asarray(theta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    shape = np.broadcast_shapes(theta.shape, alpha.shape, beta.shape)
    c = np.broadcast_to(np.cos(theta / 2.0), shape)
    s = np.broadcast_to(np.sin(theta / 2.0), shape)
    ea = np.broadcast_to(np.exp(0.5j * alpha), shape)
    eb = np.broadcast_to(np.exp(0.5j * beta), shape)
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ea * c
    out[..., 0, 1] = eb * s
    out[..., 1, 0] = -np.conj(eb) * s
    out[..., 1, 1] = np.conj(ea) * c
    return out


def su2(params: StrategyParams) -> np.ndarray:
    """The 2x2 special-unitary gate for a canonicalized torus point."""
    return su2_angles(params.theta, params.alpha, params.beta)


def quaternion(params: StrategyParams) -> tuple[float, float, float, float]:
    """Unit quaternion q of ``su2(params)``, so that U = q0*I + q1*iZ + q2*iY + q3*iX.

    q = (cos(a/2)cos(t/2), sin(a/2)cos(t/2), cos(b/2)sin(t/2), sin(b/2)sin(t/2))
    for (t, a, b) = (theta, alpha, beta).
    """
    c, s = math.cos(params.theta / 2.0), math.sin(params.theta / 2.0)
    half_a, half_b = params.alpha / 2.0, params.beta / 2.0
    return (math.cos(half_a) * c, math.sin(half_a) * c,
            math.cos(half_b) * s, math.sin(half_b) * s)


def quaternions(angles: np.ndarray) -> np.ndarray:
    """Unit quaternions (4, n) of the gates of raw (n, 3) angle rows, as ``quaternion``."""
    c, s = np.cos(angles[:, 0] / 2.0), np.sin(angles[:, 0] / 2.0)
    half_a, half_b = angles[:, 1] / 2.0, angles[:, 2] / 2.0
    return np.array([np.cos(half_a) * c, np.sin(half_a) * c,
                     np.cos(half_b) * s, np.sin(half_b) * s])


def form_value(form: np.ndarray, q):
    """q^T Q q for one quaternion or a (4, n) stack, in the same operation order for both."""
    return sum(qm * (row[0] * q[0] + row[1] * q[1] + row[2] * q[2] + row[3] * q[3])
               for qm, row in zip(q, form.tolist()))


# Bell basis in the |00>,|01>,|10>,|11> ordering.
_BELL_KETS = {
    "CC": np.array([1.0, 0.0, 0.0, 1.0j]) / math.sqrt(2.0),
    "CD": np.array([0.0, 1.0, -1.0j, 0.0]) / math.sqrt(2.0),
    "DC": np.array([0.0, -1.0j, 1.0, 0.0]) / math.sqrt(2.0),
    "DD": np.array([1.0j, 0.0, 0.0, 1.0]) / math.sqrt(2.0),
}

BELL_ORDER = ("CC", "CD", "DC", "DD")


def _projector(ket: np.ndarray) -> np.ndarray:
    proj = np.outer(ket, ket.conj())
    proj.setflags(write=False)
    return proj


_BELL_PROJECTORS = tuple(_projector(_BELL_KETS[k]) for k in BELL_ORDER)


# R_k with <k|(U_A (x) U_B)|psi_0> = p^T R_k q, in BELL_ORDER.
BELL_FORMS = np.array([
    [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
    [[0, 0, -1, 0], [0, 0, 0, -1], [0, 1, 0, 0], [-1, 0, 0, 0]],
    [[0, 0, 0, -1], [0, 0, 1, 0], [-1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
], dtype=float)
BELL_FORMS.setflags(write=False)


def bell_projectors() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rank-1 projectors onto the Bell states, ordered CC, CD, DC, DD."""
    return _BELL_PROJECTORS


def initial_state() -> np.ndarray:
    """Density matrix of the shared entangled state (|00> + i|11>)/sqrt(2)."""
    return _BELL_PROJECTORS[0].copy()


def check_unitary(gate: np.ndarray, tol: float = VALIDATION_TOL) -> np.ndarray:
    """Validate a 2x2 unitary; returns the array, raises ValueError otherwise."""
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gate, got shape {gate.shape}")
    defect = np.abs(gate.conj().T @ gate - np.eye(2)).max()
    if defect > tol:
        raise ValueError(f"gate is not unitary (defect {defect:.3e} > {tol:.1e})")
    return gate


def final_state(gate_a: np.ndarray, gate_b: np.ndarray) -> np.ndarray:
    """Post-play state (A (x) B) rho_i (A (x) B)^dagger.

    Rejects inputs whose unitarity defect exceeds 1e-9, which signals
    corruption on the caller's side rather than roundoff.
    """
    gate_a = check_unitary(gate_a)
    gate_b = check_unitary(gate_b)
    joint = np.kron(gate_a, gate_b)
    return joint @ initial_state() @ joint.conj().T


def payoff_operators(game: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian payoff operators (P_A, P_B) with Bell-basis eigenvalues a_xy, b_xy."""
    entries = ((0, 0), (0, 1), (1, 0), (1, 1))
    op_a = sum(game.payoff_a[ij] * proj for ij, proj in zip(entries, _BELL_PROJECTORS))
    op_b = sum(game.payoff_b[ij] * proj for ij, proj in zip(entries, _BELL_PROJECTORS))
    return op_a, op_b


def expected_payoff(game: GameSpec, gate_a: np.ndarray, gate_b: np.ndarray) -> tuple[float, float]:
    """Expected payoffs Tr(P rho_f) for both players under pure gate play."""
    rho_f = final_state(gate_a, gate_b)
    op_a, op_b = payoff_operators(game)
    return float(np.trace(op_a @ rho_f).real), float(np.trace(op_b @ rho_f).real)


def gate_distance(gate_u: np.ndarray, gate_v: np.ndarray) -> float:
    """Max-entry distance between gates after aligning the global phase.

    The phase is chosen to maximize the Hilbert-Schmidt overlap, which makes
    the distance exactly zero for gates equal up to a global phase; phases are
    physically irrelevant here since they cancel in the final state.
    """
    gate_u = np.asarray(gate_u, dtype=complex)
    gate_v = np.asarray(gate_v, dtype=complex)
    inner = np.sum(gate_v.conj() * gate_u)
    phase = inner / abs(inner) if abs(inner) > 1e-12 else 1.0
    return float(np.abs(gate_u - phase * gate_v).max())


def gate_distances(gates: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Vectorized ``gate_distance`` of a batch (..., 2, 2) against one gate."""
    gates = np.asarray(gates, dtype=complex)
    inner = np.einsum("ij,...ij->...", reference.conj(), gates)
    mag = np.abs(inner)
    phase = np.where(mag > 1e-12, inner / np.where(mag > 1e-12, mag, 1.0), 1.0)
    diff = gates - phase[..., None, None] * reference
    return np.abs(diff).max(axis=(-2, -1))
