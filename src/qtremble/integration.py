"""Smeared expected payoffs over trembled strategies.

A side enters every payoff only through the real symmetric moment
S = E[q q^T] of its gate quaternion q (``quantum.quaternion``): the payoffs are
sum_k a_k tr(R_k^T S_A R_k S_B) with ``quantum.BELL_FORMS`` R_k, and against a
fixed opponent a player's payoff is a form q^T Q q in their own quaternion.
A tremble's S is the entrywise product of one 3x3 moment E[g g^T] per axis,
g = (cos(x/2), sin(x/2), 1); on the centred window of ``TrembleSpec`` it needs
only the raw centre and ``vm_moments(kappa)``, so it costs the same at every
kappa.  An explicit grid uses the midpoint rule on that window instead.
``smeared_payoff_direct`` (a double sum over the node mesh) and
``smeared_payoff_mc`` (Monte Carlo) are independent references on SU(2) gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (TrembleSpec, sample_torus_angles, torus_density_angles, vm_density,
                            vm_moments)
from .games import GameSpec, Surface, surface_axes
from .quantum import (BELL_FORMS, TWO_PI, StrategyParams, form_value, initial_state,
                      payoff_operators, quaternion, quaternions, su2, su2_angles)


# Fewest nodes per torus axis accepted by the quadrature and the best-response search.
MIN_NODES_PER_AXIS = 8
# Largest quadrature grid accepted per torus axis; larger requests are refused
# before anything is allocated.
MAX_NODES_PER_AXIS = 2**20
# ``default_grid`` takes Gauss-Legendre nodes, built from an N x N eigenproblem,
# only up to this kappa, so at most 88 per axis; no grid takes more than 1024.
_LEGENDRE_KAPPA = 50.0
_MAX_LEGENDRE_NODES = 1024


class GridResolutionError(RuntimeError):
    """Raised in self-check mode when recomputing by quadrature moves the result."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor quadrature on a tremble's centred window, as offsets from its centre.

    Each axis has N midpoint nodes -pi + (k + 1/2) * 2*pi/N of weight 2*pi/N;
    ``legendre`` (the oracle default) puts Gauss-Legendre nodes on alpha and beta.
    """

    nodes_per_dim: int
    dims: int
    legendre: bool = False

    def __post_init__(self):
        if self.nodes_per_dim < MIN_NODES_PER_AXIS:
            raise ValueError(f"need at least {MIN_NODES_PER_AXIS} nodes per dimension")
        if self.nodes_per_dim > MAX_NODES_PER_AXIS:
            raise ValueError(f"{self.nodes_per_dim} quadrature nodes per dimension exceed "
                             f"the limit of {MAX_NODES_PER_AXIS}")
        if self.dims not in (1, 2, 3):
            raise ValueError("dims must be 1, 2 or 3")
        if self.legendre and self.nodes_per_dim > _MAX_LEGENDRE_NODES:
            raise ValueError(f"Gauss-Legendre grids take at most {_MAX_LEGENDRE_NODES} nodes")

    def axis(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Offsets in (-pi, pi) and weights of one axis (0 theta, 1 alpha, 2 beta)."""
        n = self.nodes_per_dim
        if self.legendre and axis > 0:
            x, w = np.polynomial.legendre.leggauss(n)
            return math.pi * x, math.pi * w
        step = TWO_PI / n
        return -math.pi + step * (np.arange(n) + 0.5), np.full(n, step)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """All N^dims offset rows (n, dims) and their product weights (n,)."""
        rules = [self.axis(axis) for axis in range(self.dims)]
        offsets = np.meshgrid(*(x for x, _ in rules), indexing="ij")
        weights = np.meshgrid(*(w for _, w in rules), indexing="ij")
        return (np.stack([x.reshape(-1) for x in offsets], axis=1),
                np.prod([w.reshape(-1) for w in weights], axis=0))


def default_grid(dims: int, kappa: float) -> QuadratureGrid:
    """Converged quadrature of the oracle and of the closed-form self-check.

    64 nodes per axis (48 in 3-D), or ~sqrt(150*kappa) for sharper peaks;
    Gauss-Legendre on alpha/beta up to ``_LEGENDRE_KAPPA``, past which the
    density at the window edge is below e^-100 and midpoint nodes are spectral.
    """
    base = 64 if dims <= 2 else 48
    if kappa > 0:
        need = math.sqrt(150.0 * kappa)
        if not need <= MAX_NODES_PER_AXIS:
            raise ValueError(f"kappa={kappa:g} needs quadrature nodes per dimension that "
                             f"exceed the limit of {MAX_NODES_PER_AXIS}")
        base = max(base, math.ceil(need / 8.0) * 8)
    return QuadratureGrid(base, dims, legendre=kappa <= _LEGENDRE_KAPPA)


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
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"mixture weights must be finite and nonnegative, got {w!r}")
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
        return replace(grid, dims=spec.dims)
    raise TypeError("grid must be None, an int node count, or a QuadratureGrid")


def tremble_nodes(spec: TrembleSpec, grid=None) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (n, 3 angles) and weights (n,) of a tremble's full N^d mesh.

    ``grid`` None takes the converged ``default_grid``.  Only the reference
    ``smeared_payoff_direct`` sums over this mesh.
    """
    offsets, weights = _resolve_grid(spec, grid).mesh()
    angles = spec.angles(offsets)
    return angles, weights * torus_density_angles(angles[:, : spec.dims], spec)


# Quaternion entries drawn from each axis's g = (cos(x/2), sin(x/2), 1): q is the
# entrywise product of g_theta[0, 0, 1, 1], g_alpha[0, 1, 2, 2] and g_beta[2, 2, 0, 1].
_AXIS_INDEX = ((0, 0, 1, 1), (0, 1, 2, 2), (2, 2, 0, 1))


def _closed_moment(mu: float, m1: float, m_h: float) -> np.ndarray:
    """E[g g^T] of x = mu + phi for an offset phi with moments (m1, m_h)."""
    cos_mu, sin_mu = math.cos(mu), math.sin(mu)
    half_c, half_s = m_h * math.cos(mu / 2.0), m_h * math.sin(mu / 2.0)
    return np.array([[(1.0 + m1 * cos_mu) / 2.0, m1 * sin_mu / 2.0, half_c],
                     [m1 * sin_mu / 2.0, (1.0 - m1 * cos_mu) / 2.0, half_s],
                     [half_c, half_s, 1.0]])


def _quadrature_moment(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """E[g g^T] summed over the nodes ``x`` of one axis with their weights."""
    g = np.array([np.cos(x / 2.0), np.sin(x / 2.0), np.ones_like(x)])
    return (weights * g) @ g.T


def side_moment(dist: StrategyDistribution, grid=None) -> np.ndarray:
    """A side's second moment S = E[q q^T] of its gate quaternion q.

    A pure side gives q q^T, a mixture the weighted sum of its components, and
    a tremble the entrywise product of its per-axis moments E[g g^T], expanded
    by ``_AXIS_INDEX``: in closed form when ``grid`` is None, otherwise by the
    midpoint rule of that grid on the centred window.
    """
    if dist.kind == "pure":
        q = np.array(quaternion(dist.pure))
        return np.outer(q, q)
    if dist.kind == "trembled":
        spec = dist.tremble
        if grid is None:
            pair = vm_moments(spec.kappa)
            moments = [_closed_moment(mu, *pair) for mu in spec.center.active]
        else:
            grid = _resolve_grid(spec, grid)
            rules = [grid.axis(axis) for axis in range(spec.dims)]
            angles = spec.angles(np.stack([offsets for offsets, _ in rules], axis=1))
            moments = [_quadrature_moment(angles[:, axis], w * vm_density(x, 0.0, spec.kappa))
                       for axis, (x, w) in enumerate(rules)]
        # An inactive angle sits at 0: the closed form with m1 = m_h = 1.
        moments += [_closed_moment(0.0, 1.0, 1.0)] * (3 - spec.dims)
        moment = np.ones((4, 4))
        for index, axis_moment in zip(_AXIS_INDEX, moments):
            moment *= axis_moment[np.ix_(index, index)]
        # tr S is the total weight, about 1; a grid far too coarse for kappa loses it.
        if grid is not None and not 0.0 < np.trace(moment) < math.inf:
            raise ValueError(f"{grid.nodes_per_dim} quadrature nodes per dimension cannot "
                             f"integrate kappa={spec.kappa:g}")
        return moment
    return sum(w * side_moment(comp, grid) for w, comp in dist.mixture)


def _forms(game: GameSpec, varying: str, moment: np.ndarray) -> np.ndarray:
    """Alice's and Bob's payoff forms (2, 4, 4) in the varying player's quaternion.

    Against an opponent moment S, Bob's outcome probabilities are
    q^T (R_k^T S R_k) q and Alice's are p^T (R_k S R_k^T) p.
    """
    r = BELL_FORMS if varying == "A" else BELL_FORMS.transpose(0, 2, 1)
    blocks = r @ moment @ r.transpose(0, 2, 1)
    forms = np.tensordot([game.payoff_a.ravel(), game.payoff_b.ravel()], blocks, axes=1)
    return 0.5 * (forms + forms.transpose(0, 2, 1))


def payoff_forms(game: GameSpec, varying: str, opponent: StrategyDistribution,
                 grid=None) -> np.ndarray:
    """Alice's and Bob's payoffs as symmetric forms q^T Q q in the varying player's q.

    ``varying`` names the player ("A" or "B") whose gate stays free; the
    opponent side is pre-integrated into its moment.  Returns shape (2, 4, 4).
    """
    if varying not in ("A", "B"):
        raise ValueError("varying must be 'A' or 'B'")
    return _forms(game, varying, side_moment(opponent, grid))


def _payoffs(game: GameSpec, moment_a: np.ndarray, moment_b: np.ndarray) -> tuple[float, float]:
    """Both payoffs sum_k a_k tr(R_k^T S_A R_k S_B) for two side moments."""
    form_a, form_b = _forms(game, "B", moment_a)
    return float(np.sum(form_a * moment_b)), float(np.sum(form_b * moment_b))


def smeared_payoff(game: GameSpec, dist_a: StrategyDistribution, dist_b: StrategyDistribution,
                   grid=None, self_check: bool = False) -> tuple[float, float]:
    """Both players' expected payoffs under independently distributed strategies.

    Pure sides collapse to point evaluation; trembled sides are integrated in
    closed form, or by the midpoint rule of ``grid`` (node count or
    QuadratureGrid) when one is given; a mixture side is mixed linearly in its
    moment.  With ``self_check`` every trembled side or component is
    recomputed by quadrature (twice ``grid``, or the converged
    ``default_grid`` when ``grid`` is None) and a GridResolutionError is
    raised when the two disagree by more than 1e-6.
    """
    pay = _payoffs(game, side_moment(dist_a, grid), side_moment(dist_b, grid))
    if self_check:
        pay2 = _payoffs(game, _check_moment(dist_a, grid), _check_moment(dist_b, grid))
        drift = max(abs(pay[0] - pay2[0]), abs(pay[1] - pay2[1]))
        if drift > 1e-6:
            raise GridResolutionError(
                f"recomputing the tremble by quadrature moved the payoff by {drift:.3e} "
                f"(> 1e-06)")
    return pay


def _check_moment(dist: StrategyDistribution, grid) -> np.ndarray:
    """``side_moment`` with every trembled component on the self-check quadrature."""
    if dist.kind == "trembled":
        check = _resolve_grid(dist.tremble, grid)
        if grid is not None:
            check = replace(check, nodes_per_dim=2 * check.nodes_per_dim)
        return side_moment(dist, check)
    if dist.kind == "mixture":
        return sum(w * _check_moment(comp, grid) for w, comp in dist.mixture)
    return side_moment(dist, grid)


def payoff_surface(game: GameSpec, varying: str, dims: int, opponent: StrategyDistribution,
                   grid_nodes: int = 65, quad_grid=None) -> Surface:
    """Evaluate both players' smeared payoffs while one player sweeps pure strategies.

    ``varying`` is "A" or "B"; the swept player plays every pure strategy on a
    ``grid_nodes``-per-axis grid over their active parameters while the
    opponent follows the fixed ``opponent`` distribution (pure, trembled, or a
    discrete mixture).  Nodes are ordered lexicographically in
    (theta, alpha, beta), and each node is scored at its raw plot angles.
    """
    axes = surface_axes(dims, grid_nodes)
    mesh = np.meshgrid(*(nodes for _, nodes in axes), *[[0.0]] * (3 - dims), indexing="ij")
    quats = quaternions(np.stack([m.reshape(-1) for m in mesh], axis=1))
    values_a, values_b = (form_value(form, quats).reshape((grid_nodes,) * dims)
                          for form in payoff_forms(game, varying, opponent, quad_grid))
    context = f"player {varying} varies ({dims} active parameter(s)); opponent: {opponent.describe()}"
    return Surface(tuple(axes), values_a, values_b, context)


def smeared_payoff_direct(game: GameSpec, dist_a: StrategyDistribution,
                          dist_b: StrategyDistribution, grid=None) -> tuple[float, float]:
    """Reference evaluation by explicit double summation over both node meshes.

    ``grid`` None takes the converged ``default_grid``.  Exponentially slower
    than ``smeared_payoff`` but structurally independent of the quaternion
    moments: it sums final states of SU(2) gates; kept for validation.
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
    in its moment instead of looping over component pairs.
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
