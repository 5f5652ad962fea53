"""Smeared expected payoffs over trembled strategies.

The deterministic path integrates each side's tremble into an averaged
one-qubit channel tensor M[a,c,i,k] = E[U[a,i] * conj(U[c,k])] with the
periodic trapezoidal rule, then contracts the two channels with the shared
state and the payoff operators.  Each gate entry is a product of one factor
per torus coordinate and the tremble is a product of von Mises factors, so M
is the entrywise product of one 2x2x2x2 moment tensor per active axis: a side
costs O(d*N) for N nodes per axis instead of O(N^d) on the full mesh, with the
same nodes and weights.  The rule is spectrally accurate along theta and at
the C, D and Q centres; off those axes the fixed alpha/beta window [0, 2*pi)
cuts the 4*pi-periodic gate at a seam and converges only at first order.
``smeared_payoff_direct`` keeps the plain double summation over the node mesh
as a reference, and ``smeared_payoff_mc`` provides an independent Monte Carlo
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import TrembleSpec, sample_torus_angles, torus_density_angles, vm_density
from .games import GameSpec
from .quantum import TWO_PI, StrategyParams, initial_state, payoff_operators, su2, su2_angles


# Fewest nodes per torus axis accepted by the quadrature and the best-response search.
MIN_NODES_PER_AXIS = 8
# Largest quadrature grid accepted per torus axis; larger requests are refused
# before anything is allocated.
MAX_NODES_PER_AXIS = 2**20


class GridResolutionError(RuntimeError):
    """Raised in self-check mode when doubling the grid moves the result."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform periodic grid on the active torus: spacing 2*pi/N, equal weights."""

    nodes_per_dim: int
    dims: int

    def __post_init__(self):
        if self.nodes_per_dim < MIN_NODES_PER_AXIS:
            raise ValueError(f"need at least {MIN_NODES_PER_AXIS} nodes per dimension")
        if self.nodes_per_dim > MAX_NODES_PER_AXIS:
            raise ValueError(f"{self.nodes_per_dim} quadrature nodes per dimension exceed "
                             f"the limit of {MAX_NODES_PER_AXIS}")
        if self.dims not in (1, 2, 3):
            raise ValueError("dims must be 1, 2 or 3")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.nodes_per_dim

    @property
    def weight(self) -> float:
        """Quadrature weight shared by every node, (2*pi/N)^dims."""
        return self.spacing**self.dims

    def axes(self) -> list[np.ndarray]:
        """Per-dimension node angles; theta starts at -pi, alpha/beta at 0."""
        steps = self.spacing * np.arange(self.nodes_per_dim)
        axes = [-math.pi + steps, steps, steps]
        return axes[: self.dims]

    def node_angles(self) -> np.ndarray:
        """All grid nodes as (N^dims, 3) angle rows, inactive angles zero."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        flat = np.zeros((mesh[0].size, 3))
        for axis, m in enumerate(mesh):
            flat[:, axis] = m.reshape(-1)
        return flat

    def doubled(self) -> "QuadratureGrid":
        return QuadratureGrid(2 * self.nodes_per_dim, self.dims)


def default_grid(dims: int, kappa: float) -> QuadratureGrid:
    """Grid dense enough for the concentration at hand.

    The trapezoidal error for exp(kappa*cos) decays like exp(-N^2/(2*kappa)),
    so N ~ sqrt(56*kappa) keeps it near 1e-12; below that the base resolution
    (64 nodes, 48 for three dimensions) dominates.
    """
    base = 64 if dims <= 2 else 48
    if kappa > 0:
        need = math.ceil(math.sqrt(56.0 * kappa) / 8.0) * 8
        base = max(base, need)
    return QuadratureGrid(base, dims)


@dataclass(frozen=True)
class StrategyDistribution:
    """A player's strategy distribution: pure point, tremble, or discrete mixture."""

    kind: str
    pure: StrategyParams | None = None
    tremble: TrembleSpec | None = None
    mixture: tuple[tuple[float, "StrategyDistribution"], ...] | None = None

    @classmethod
    def from_pure(cls, params: StrategyParams) -> "StrategyDistribution":
        return cls(kind="pure", pure=params)

    @classmethod
    def from_tremble(cls, spec: TrembleSpec) -> "StrategyDistribution":
        return cls(kind="trembled", tremble=spec)

    @classmethod
    def from_mixture(cls, components) -> "StrategyDistribution":
        """Discrete mixture of pure/trembled components as (weight, component) pairs."""
        comps = tuple((float(w), c) for w, c in components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for w, comp in comps:
            if w < 0:
                raise ValueError("mixture weights must be nonnegative")
            if not isinstance(comp, StrategyDistribution) or comp.kind == "mixture":
                raise ValueError("mixture components must be pure or trembled distributions")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")
        return cls(kind="mixture", mixture=comps)

    def __post_init__(self):
        if self.kind not in ("pure", "trembled", "mixture"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        needed = {"pure": self.pure, "trembled": self.tremble, "mixture": self.mixture}[self.kind]
        if needed is None:
            raise ValueError(f"{self.kind} distribution is missing its payload")

    def describe(self) -> str:
        if self.kind == "pure":
            t, a, b = self.pure.angles
            return f"pure ({t:.4g}, {a:.4g}, {b:.4g})"
        if self.kind == "trembled":
            s = self.tremble
            t, a, b = s.center.angles
            return f"tremble around ({t:.4g}, {a:.4g}, {b:.4g}), kappa={s.kappa:g}, dims={s.dims}"
        parts = ", ".join(f"{w:g}*[{c.describe()}]" for w, c in self.mixture)
        return f"mixture({parts})"


def _resolve_grid(spec: TrembleSpec, grid) -> QuadratureGrid:
    if grid is None:
        return default_grid(spec.dims, spec.kappa)
    if isinstance(grid, int):
        return QuadratureGrid(grid, spec.dims)
    if isinstance(grid, QuadratureGrid):
        if grid.dims == spec.dims:
            return grid
        return QuadratureGrid(grid.nodes_per_dim, spec.dims)
    raise TypeError("grid must be None, an int node count, or a QuadratureGrid")


def tremble_nodes(spec: TrembleSpec, grid=None) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (n, 3 angles) and weights (n,) of a tremble's full N^d mesh.

    Only the reference ``smeared_payoff_direct`` sums over this mesh.
    """
    grid = _resolve_grid(spec, grid)
    angles = grid.node_angles()
    dens = torus_density_angles(angles[:, : spec.dims], spec)
    return angles, dens * grid.weight


def side_tensor(dist: StrategyDistribution, grid=None) -> np.ndarray:
    """Averaged one-qubit channel tensor M[a,c,i,k] = E[U[a,i] conj(U[c,k])].

    The expectation is over the side's strategy distribution; a pure side
    gives the rank-1 tensor of its gate, a trembled side the entrywise product
    of its per-axis moments, and a mixture the weighted sum of its components.
    All smeared payoffs are bilinear in these tensors, which is what makes the
    factorized evaluation exact.
    """
    if dist.kind == "pure":
        gate = su2(dist.pure)
        return np.einsum("ai,ck->acik", gate, gate.conj())
    if dist.kind == "trembled":
        spec = dist.tremble
        grid = _resolve_grid(spec, grid)
        tensor = np.ones((2, 2, 2, 2), dtype=complex)
        for axis, (nodes, center) in enumerate(zip(grid.axes(), spec.center.active)):
            weights = vm_density(nodes, center, spec.kappa) * grid.spacing
            factor = _axis_factor(axis, nodes)
            tensor *= np.einsum("n,nai,nck->acik", weights, factor, factor.conj())
        return tensor
    return sum(w * side_tensor(comp, grid) for w, comp in dist.mixture)


def _axis_factor(axis: int, x: np.ndarray) -> np.ndarray:
    """Factors F[n,a,i] of one torus axis; the gate is their entrywise product.

    theta gives [[cos, sin], [-sin, cos]](x/2), alpha [[e^(ix/2), 1], [1, e^(-ix/2)]]
    and beta [[1, e^(ix/2)], [e^(-ix/2), 1]], matching ``su2_angles``.
    """
    if axis == 0:
        c, s = np.cos(x / 2.0), np.sin(x / 2.0)
        rows = [[c, s], [-s, c]]
    else:
        e, one = np.exp(0.5j * x), np.ones_like(x)
        rows = [[e, one], [one, e.conj()]] if axis == 1 else [[one, e], [e.conj(), one]]
    return np.moveaxis(np.array(rows, dtype=complex), -1, 0)


def _rho4() -> np.ndarray:
    return initial_state().reshape(2, 2, 2, 2)


def _contract_both(p4: np.ndarray, m_a: np.ndarray, m_b: np.ndarray) -> float:
    value = np.einsum("cdab,acik,bdjl,ijkl->", p4, m_a, m_b, _rho4(), optimize=True)
    return float(value.real)


def smeared_payoff(game: GameSpec, dist_a: StrategyDistribution, dist_b: StrategyDistribution,
                   grid=None, self_check: bool = False) -> tuple[float, float]:
    """Both players' expected payoffs under independently distributed strategies.

    Pure sides collapse to point evaluation; trembled sides are integrated on
    a periodic trapezoidal grid (``grid``: node count, QuadratureGrid, or None
    for a concentration-aware default); a mixture side is mixed linearly in
    its channel tensor.  With ``self_check`` the result is recomputed with
    every trembled side or component at doubled resolution and a
    GridResolutionError is raised when the two disagree by more than 1e-6.
    """
    op_a, op_b = payoff_operators(game)
    m_a = side_tensor(dist_a, grid)
    m_b = side_tensor(dist_b, grid)
    pay = (_contract_both(op_a.reshape(2, 2, 2, 2), m_a, m_b),
           _contract_both(op_b.reshape(2, 2, 2, 2), m_a, m_b))
    if self_check:
        m_a2 = _doubled_side_tensor(dist_a, grid)
        m_b2 = _doubled_side_tensor(dist_b, grid)
        pay2 = (_contract_both(op_a.reshape(2, 2, 2, 2), m_a2, m_b2),
                _contract_both(op_b.reshape(2, 2, 2, 2), m_a2, m_b2))
        drift = max(abs(pay[0] - pay2[0]), abs(pay[1] - pay2[1]))
        if drift > 1e-6:
            raise GridResolutionError(
                f"doubling the quadrature grid moved the payoff by {drift:.3e} (> 1e-06)"
            )
    return pay


def _doubled_side_tensor(dist: StrategyDistribution, grid) -> np.ndarray:
    """``side_tensor`` with every trembled component on twice its resolved grid."""
    if dist.kind == "trembled":
        return side_tensor(dist, _resolve_grid(dist.tremble, grid).doubled())
    if dist.kind == "mixture":
        return sum(w * _doubled_side_tensor(comp, grid) for w, comp in dist.mixture)
    return side_tensor(dist, grid)


def payoff_kernels(game: GameSpec, varying: str, opponent: StrategyDistribution,
                   grid=None) -> tuple[np.ndarray, np.ndarray]:
    """Kernels K with payoff(U) = Re sum K[a,c,i,k] U[a,i] conj(U[c,k]).

    ``varying`` names the player ("A" or "B") whose gate stays free; the
    opponent side is pre-integrated.  Returns the kernel pair for Alice's and
    Bob's payoff operators, in that order.
    """
    if varying not in ("A", "B"):
        raise ValueError("varying must be 'A' or 'B'")
    op_a, op_b = payoff_operators(game)
    m_opp = side_tensor(opponent, grid)
    rho = _rho4()
    kernels = []
    for op in (op_a, op_b):
        p4 = op.reshape(2, 2, 2, 2)
        if varying == "A":
            kernels.append(np.einsum("cdab,bdjl,ijkl->acik", p4, m_opp, rho, optimize=True))
        else:
            kernels.append(np.einsum("cdab,acik,ijkl->bdjl", p4, m_opp, rho, optimize=True))
    return kernels[0], kernels[1]


def kernel_payoff(kernel: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """Evaluate a payoff kernel on a batch of gates with shape (..., 2, 2)."""
    gates = np.asarray(gates, dtype=complex)
    return np.einsum("...ai,...ck,acik->...", gates, gates.conj(), kernel).real


def smeared_payoff_direct(game: GameSpec, dist_a: StrategyDistribution,
                          dist_b: StrategyDistribution, grid=None) -> tuple[float, float]:
    """Reference evaluation by explicit double summation over both grids.

    Exponentially slower than ``smeared_payoff`` but structurally independent
    of the factorized channel path; kept for validation.
    """
    nodes_a, weights_a = _side_nodes(dist_a, grid)
    nodes_b, weights_b = _side_nodes(dist_b, grid)
    gates_a = su2_angles(nodes_a[:, 0], nodes_a[:, 1], nodes_a[:, 2])
    gates_b = su2_angles(nodes_b[:, 0], nodes_b[:, 1], nodes_b[:, 2])
    psi = np.array([1.0, 0.0, 0.0, 1.0j]).reshape(2, 2) / math.sqrt(2.0)
    out = np.einsum("mik,njl,kl->mnij", gates_a, gates_b, psi, optimize=True)
    op_a, op_b = payoff_operators(game)
    pair = np.einsum("m,n,mnij,mnkl->ijkl", weights_a, weights_b, out, out.conj(),
                     optimize=True)
    pay_a = np.einsum("ijkl,ijkl->", op_a.reshape(2, 2, 2, 2).transpose(2, 3, 0, 1), pair)
    pay_b = np.einsum("ijkl,ijkl->", op_b.reshape(2, 2, 2, 2).transpose(2, 3, 0, 1), pair)
    return float(pay_a.real), float(pay_b.real)


def _side_nodes(dist: StrategyDistribution, grid) -> tuple[np.ndarray, np.ndarray]:
    if dist.kind == "pure":
        return np.array([dist.pure.angles]), np.array([1.0])
    if dist.kind == "trembled":
        return tremble_nodes(dist.tremble, grid)
    nodes, weights = [], []
    for w, comp in dist.mixture:
        n, v = _side_nodes(comp, grid)
        nodes.append(n)
        weights.append(w * v)
    return np.concatenate(nodes), np.concatenate(weights)


def discrete_mixture_payoff(game: GameSpec, mix_a: StrategyDistribution,
                            mix_b: StrategyDistribution, grid=None) -> tuple[float, float]:
    """Weighted payoff over all component pairs of two discrete mixtures.

    Non-mixture arguments are treated as one-component mixtures.  This is the
    pairwise reference for ``smeared_payoff``, which mixes each side linearly
    in its channel tensor instead of looping over component pairs.
    """
    comps_a = mix_a.mixture if mix_a.kind == "mixture" else ((1.0, mix_a),)
    comps_b = mix_b.mixture if mix_b.kind == "mixture" else ((1.0, mix_b),)
    total_a = 0.0
    total_b = 0.0
    for w_a, comp_a in comps_a:
        for w_b, comp_b in comps_b:
            pa, pb = smeared_payoff(game, comp_a, comp_b, grid)
            total_a += w_a * w_b * pa
            total_b += w_a * w_b * pb
    return total_a, total_b


def _sample_gates(rng: np.random.Generator, dist: StrategyDistribution, n: int) -> np.ndarray:
    if dist.kind == "pure":
        return np.broadcast_to(su2(dist.pure), (n, 2, 2))
    if dist.kind == "trembled":
        angles = sample_torus_angles(rng, dist.tremble, n)
        return su2_angles(angles[:, 0], angles[:, 1], angles[:, 2])
    weights = np.array([w for w, _ in dist.mixture])
    picks = rng.choice(len(weights), size=n, p=weights / weights.sum())
    gates = np.empty((n, 2, 2), dtype=complex)
    for idx, (_, comp) in enumerate(dist.mixture):
        mask = picks == idx
        count = int(mask.sum())
        if count:
            gates[mask] = _sample_gates(rng, comp, count)
    return gates


def smeared_payoff_mc(game: GameSpec, dist_a: StrategyDistribution,
                      dist_b: StrategyDistribution, n_samples: int,
                      seed: int = 0) -> tuple[float, float, float, float]:
    """Monte Carlo estimate of the smeared payoffs with standard errors.

    Draws both sides independently from their distributions and averages the
    pure-play payoff; unbiased, reproducible for a fixed seed.  Returns
    (payoff_a, payoff_b, stderr_a, stderr_b).
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    rng = np.random.default_rng(seed)
    gates_a = _sample_gates(rng, dist_a, n_samples)
    gates_b = _sample_gates(rng, dist_b, n_samples)
    joint = np.einsum("nik,njl->nijkl", gates_a, gates_b).reshape(n_samples, 4, 4)
    rho = initial_state()
    rho_f = joint @ rho @ joint.conj().transpose(0, 2, 1)
    op_a, op_b = payoff_operators(game)
    draws_a = np.einsum("mk,nkm->n", op_a, rho_f).real
    draws_b = np.einsum("mk,nkm->n", op_b, rho_f).real
    scale = math.sqrt(n_samples)
    return (float(draws_a.mean()), float(draws_b.mean()),
            float(draws_a.std(ddof=1) / scale), float(draws_b.std(ddof=1) / scale))
