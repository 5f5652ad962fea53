"""Trembling-hand robustness of equilibria under von Mises strategy trembles.

An equilibrium strategy "holds" against a trembled opponent when it is still a
best response: either the best-response search lands back on it (within a gate
distance of 0.05), or no strategy away from it pays strictly more (ties count,
so weak equilibria survive).  Scanning the concentration parameter and
bisecting the verdict locates robustness thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import TrembleSpec
from .games import PAYOFF_TIE_TOL, GameSpec, classical_payoff
from .integration import StrategyDistribution, kernel_payoff, payoff_kernels
from .quantum import StrategyParams, gate_distance, gate_distances, su2, su2_angles

# Argmax within this gate distance of the equilibrium counts as "did not move".
ANGLE_TOL = 0.05
# Runner-up search ignores strategies within this gate distance of the peak,
# so a smooth maximum is not its own runner-up.
EXCLUSION_RADIUS = 0.5
REFINE_MIN_STEP = 1e-4

_DEFAULT_SEARCH_NODES = {1: 64, 2: 64, 3: 32}


class NoBracketError(ValueError):
    """threshold_search endpoints gave the same verdict; nothing to bisect."""


@dataclass(frozen=True)
class BestResponse:
    """Best strategy found against a fixed opponent distribution.

    ``runner_up_gap`` is the payoff margin of the maximum over the best grid
    strategy outside its exclusion neighborhood (0 for a tied/weak maximum,
    inf when the grid holds no point outside the neighborhood).
    """

    params: StrategyParams
    value: float
    runner_up_gap: float


@dataclass(frozen=True)
class RobustnessVerdict:
    """Outcome of one tremble test.

    ``distance`` is the gate distance from the equilibrium strategy to the
    best-response argmax; ``margin`` the equilibrium strategy's payoff minus
    the best payoff available away from it (negative when deviating pays).
    """

    kappa: float
    holds: bool
    distance: float
    margin: float


def _search_axes(dims: int, nodes: int) -> list[np.ndarray]:
    step = 2.0 * math.pi / nodes
    grid = step * np.arange(nodes)
    return [(-math.pi + grid), grid, grid][:dims]


def _search_nodes(dims: int, nodes: int) -> np.ndarray:
    mesh = np.meshgrid(*_search_axes(dims, nodes), indexing="ij")
    flat = np.zeros((mesh[0].size, 3))
    for axis, m in enumerate(mesh):
        flat[:, axis] = m.reshape(-1)
    return flat


def _refine(kernel: np.ndarray, start: StrategyParams, value: float, dims: int,
            step: float) -> tuple[StrategyParams, float]:
    """Greedy coordinate descent with a shrinking step until step < 1e-4 rad."""
    best, best_value = start, value
    evals = 0
    while step >= REFINE_MIN_STEP and evals < 20000:
        improved = False
        for axis in range(dims):
            for delta in (step, -step):
                angles = list(best.angles)
                angles[axis] += delta
                cand = StrategyParams(angles[0], angles[1], angles[2], dims)
                v = float(kernel_payoff(kernel, su2(cand)))
                evals += 1
                if v > best_value:
                    best, best_value = cand, v
                    improved = True
        if not improved:
            step *= 0.5
    return best, best_value


@dataclass(frozen=True)
class _ResponseAnalysis:
    best: BestResponse
    reference_payoff: float | None
    distance: float | None
    margin: float | None


def _analyze_response(game: GameSpec, responder: str, opponent: StrategyDistribution,
                      dims: int, grid_nodes: int | None, refine: bool,
                      reference: StrategyParams | None,
                      quad_grid=None) -> _ResponseAnalysis:
    if dims not in (1, 2, 3):
        raise ValueError("dims must be 1, 2 or 3")
    nodes = grid_nodes or _DEFAULT_SEARCH_NODES[dims]
    kernels = payoff_kernels(game, responder, opponent, quad_grid)
    kernel = kernels[0] if responder == "A" else kernels[1]

    angles = _search_nodes(dims, nodes)
    gates = su2_angles(angles[:, 0], angles[:, 1], angles[:, 2])
    values = kernel_payoff(kernel, gates)

    top = int(np.argmax(values))  # first maximum = lowest lexicographic node
    best = StrategyParams(angles[top, 0], angles[top, 1], angles[top, 2], dims)
    best_value = float(values[top])
    if refine:
        best, best_value = _refine(kernel, best, best_value, dims, 2.0 * math.pi / nodes)
    best_gate = su2(best)

    away = gate_distances(gates, best_gate) > EXCLUSION_RADIUS
    runner_up = float(values[away].max()) if away.any() else -math.inf
    gap = best_value - runner_up if math.isfinite(runner_up) else math.inf
    response = BestResponse(best, best_value, gap)

    if reference is None:
        return _ResponseAnalysis(response, None, None, None)

    ref_gate = su2(reference)
    ref_payoff = float(kernel_payoff(kernel, ref_gate))
    outside = gate_distances(gates, ref_gate) > EXCLUSION_RADIUS
    alternative = float(values[outside].max()) if outside.any() else -math.inf
    if gate_distance(best_gate, ref_gate) > EXCLUSION_RADIUS:
        alternative = max(alternative, best_value)
    margin = ref_payoff - alternative if math.isfinite(alternative) else math.inf
    distance = gate_distance(best_gate, ref_gate)
    return _ResponseAnalysis(response, ref_payoff, distance, margin)


def best_response(game: GameSpec, responder: str, opponent: StrategyDistribution,
                  dims: int = 2, grid_nodes: int | None = None, refine: bool = True,
                  quad_grid=None) -> BestResponse:
    """Maximize a player's smeared payoff over their pure-strategy torus.

    Coarse lexicographic grid search (first maximum wins on exact ties)
    followed, when ``refine`` is set, by coordinate descent down to 1e-4 rad.
    """
    return _analyze_response(game, responder, opponent, dims, grid_nodes, refine,
                             None, quad_grid).best


def check_equilibrium(game: GameSpec, profile: tuple[StrategyParams, StrategyParams],
                      dims: int = 2, grid_nodes: int | None = None) -> str:
    """Classify a pure profile against pure opponents: strict, weak, or neither.

    Each player's strategy is compared with their best response to the
    opponent's pure strategy; "strict" needs a unique maximizer for both,
    "weak" allows payoff ties, anything else is "not-equilibrium".
    """
    params_a, params_b = profile
    strict = True
    for responder, own, other in (("A", params_a, params_b), ("B", params_b, params_a)):
        own = own.with_dims(dims)
        opponent = StrategyDistribution.from_pure(other)
        result = _analyze_response(game, responder, opponent, dims, grid_nodes,
                                   refine=True, reference=own)
        holds = result.distance <= ANGLE_TOL or result.margin >= -PAYOFF_TIE_TOL
        if not holds:
            return "not-equilibrium"
        if result.best.runner_up_gap <= PAYOFF_TIE_TOL:
            strict = False
    return "strict" if strict else "weak"


def _verdict_at(game: GameSpec, profile: tuple[StrategyParams, StrategyParams],
                tremble_dims: int, kappa: float, response_dims: int,
                grid_nodes: int | None, quad_grid, both_sides: bool) -> RobustnessVerdict:
    sides = [("B", 0, 1)] if not both_sides else [("B", 0, 1), ("A", 1, 0)]
    holds = True
    distance = 0.0
    margin = math.inf
    for responder, trembler_idx, responder_idx in sides:
        center = profile[trembler_idx].with_dims(tremble_dims)
        opponent = StrategyDistribution.from_tremble(TrembleSpec(center, kappa))
        reference = profile[responder_idx].with_dims(response_dims)
        result = _analyze_response(game, responder, opponent, response_dims,
                                   grid_nodes, refine=True, reference=reference,
                                   quad_grid=quad_grid)
        side_holds = result.distance <= ANGLE_TOL or result.margin >= -PAYOFF_TIE_TOL
        holds = holds and side_holds
        distance = max(distance, result.distance)
        margin = min(margin, result.margin)
    return RobustnessVerdict(kappa=kappa, holds=holds, distance=distance, margin=margin)


def thp_scan(game: GameSpec, profile: tuple[StrategyParams, StrategyParams],
             tremble_dims: int, kappa_list: Sequence[float], response_dims: int = 2,
             grid_nodes: int | None = None, quad_grid=None,
             both_sides: bool = False) -> list[RobustnessVerdict]:
    """Tremble one player's equilibrium strategy and test the opponent per kappa.

    By default Alice trembles and Bob best-responds, which suffices for
    symmetric profiles; ``both_sides`` runs both directions and requires both
    to hold.  Kappas must be positive and ascending.
    """
    kappas = [float(k) for k in kappa_list]
    if any(k <= 0 for k in kappas):
        raise ValueError("kappa values must be positive")
    if any(b <= a for a, b in zip(kappas, kappas[1:])):
        raise ValueError("kappa values must be strictly ascending")
    return [
        _verdict_at(game, profile, tremble_dims, kappa, response_dims,
                    grid_nodes, quad_grid, both_sides)
        for kappa in kappas
    ]


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection output: the verdict flips inside [kappa_lo, kappa_hi]."""

    kappa_star: float
    kappa_lo: float
    kappa_hi: float
    holds_lo: bool
    holds_hi: bool
    tol: float


def threshold_search(game: GameSpec, profile: tuple[StrategyParams, StrategyParams],
                     tremble_dims: int, kappa_lo: float, kappa_hi: float,
                     tol: float = 0.01, response_dims: int = 2,
                     grid_nodes: int | None = None, quad_grid=None,
                     both_sides: bool = False) -> ThresholdResult:
    """Bisect the holds/fails verdict to locate the robustness threshold.

    The endpoints must disagree (NoBracketError otherwise); the bracket is
    narrowed until its width is at most ``tol`` and the midpoint is reported
    as kappa_star.
    """
    if not (0 < kappa_lo < kappa_hi):
        raise ValueError("need 0 < kappa_lo < kappa_hi")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def verdict(kappa: float) -> bool:
        return _verdict_at(game, profile, tremble_dims, kappa, response_dims,
                           grid_nodes, quad_grid, both_sides).holds

    lo, hi = float(kappa_lo), float(kappa_hi)
    holds_lo, holds_hi = verdict(lo), verdict(hi)
    if holds_lo == holds_hi:
        raise NoBracketError(
            f"verdict is {holds_lo} at both kappa={lo:g} and kappa={hi:g}; no threshold bracketed"
        )
    first_lo, first_hi = lo, hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if verdict(mid) == holds_lo:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(kappa_star=0.5 * (lo + hi), kappa_lo=lo, kappa_hi=hi,
                           holds_lo=holds_lo, holds_hi=holds_hi, tol=tol)


def classical_thp_check(game: GameSpec, profile: tuple[str, str], epsilon: float) -> bool:
    """Trembling-hand test for a pure bimatrix profile under (1-eps, eps) mixing.

    Each player's profile strategy must remain a best pure response when the
    opponent plays the profile strategy contaminated with the other one at
    probability ``epsilon``.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    names = ("C", "D")
    for name in profile:
        if name not in names:
            raise ValueError(f"profile entries must be 'C' or 'D', got {name!r}")

    def mix_prob(name: str) -> float:
        # probability of playing C under the contaminated strategy
        return 1.0 - epsilon if name == "C" else epsilon

    own_a, own_b = profile
    # Bob faces Alice's tremble; Alice faces Bob's.
    p_a = mix_prob(own_a)
    payoff_b = {s: classical_payoff(game, p_a, 1.0 if s == "C" else 0.0)[1] for s in names}
    if payoff_b[own_b] < max(payoff_b.values()) - PAYOFF_TIE_TOL:
        return False
    p_b = mix_prob(own_b)
    payoff_a = {s: classical_payoff(game, 1.0 if s == "C" else 0.0, p_b)[0] for s in names}
    if payoff_a[own_a] < max(payoff_a.values()) - PAYOFF_TIE_TOL:
        return False
    return True
