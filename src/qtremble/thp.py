"""Trembling-hand robustness of equilibria under von Mises strategy trembles.

An equilibrium strategy "holds" against a trembled opponent when it is still a
best response: either the refined best-response argmax lands back on it
(within a gate distance of ``ANGLE_TOL`` = 0.05), or nothing away from it pays
strictly more (ties count, so weak equilibria survive).  "Away" means the
search-grid nodes beyond gate distance ``EXCLUSION_RADIUS`` = 0.5 from it, and
the refined argmax when that lies beyond 0.5 as well.  Scanning the
concentration parameter and bisecting the verdict locates robustness
thresholds.

The best-response search scores each gate through its unit quaternion q: the
opponent's moment gives the responder's payoff as the real symmetric form
q^T Q q (``integration.payoff_forms``), so grid values, refinement steps and
reference payoffs are a few float operations per gate.  Two SU(2) gates have
the real overlap tr(V^dagger U) = 2 p.q, so their aligning phase is +-1 and
gate distances come from quaternion differences as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import TrembleSpec
from .games import MAX_MESH_NODES, PAYOFF_TIE_TOL, GameSpec, classical_payoff
from .integration import MIN_NODES_PER_AXIS, StrategyDistribution, payoff_forms
from .quantum import StrategyParams, form_value, quaternion, quaternions

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


def _distances(quats, p) -> np.ndarray:
    """``quantum.gate_distances`` of the gates of ``quats`` (4, ...) to the gate of ``p``.

    The aligning phase is sign(p.q), or 1 when |2 p.q| <= 1e-12; the entries
    of U - phase*V then have moduli |(d0, d1)| and |(d2, d3)|.
    """
    p = np.asarray(p)
    dot = p @ quats
    phase = np.where(np.abs(2.0 * dot) > 1e-12, np.sign(dot), 1.0)
    d = quats - np.multiply.outer(p, phase)
    return np.maximum(np.hypot(d[0], d[1]), np.hypot(d[2], d[3]))


@dataclass(frozen=True)
class _SearchGrid:
    """Lexicographic search nodes of a responder's torus and their quaternions."""

    dims: int
    step: float
    angles: np.ndarray  # (n, 3) node angles, inactive angles zero
    quats: np.ndarray  # (4, n)

    def outside(self, q: tuple[float, ...]) -> np.ndarray:
        """Mask of the nodes beyond ``EXCLUSION_RADIUS`` in gate distance from ``q``."""
        return _distances(self.quats, q) > EXCLUSION_RADIUS


def _search_grid(dims: int, grid_nodes: int | None) -> _SearchGrid:
    if dims not in (1, 2, 3):
        raise ValueError("dims must be 1, 2 or 3")
    nodes = _DEFAULT_SEARCH_NODES[dims] if grid_nodes is None else grid_nodes
    if nodes < MIN_NODES_PER_AXIS:
        raise ValueError(f"need at least {MIN_NODES_PER_AXIS} search nodes per axis, "
                         f"got {nodes}")
    if nodes**dims > MAX_MESH_NODES:
        raise ValueError(f"{nodes}^{dims} search nodes exceed the limit of {MAX_MESH_NODES}")
    step = 2.0 * math.pi / nodes
    grid = step * np.arange(nodes)
    mesh = np.meshgrid(*[(-math.pi + grid), grid, grid][:dims], *[[0.0]] * (3 - dims),
                       indexing="ij")
    angles = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return _SearchGrid(dims, step, angles, quaternions(angles))


def _refine(form: np.ndarray, start: StrategyParams, value: float, dims: int,
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
                v = form_value(form, quaternion(cand))
                evals += 1
                if v > best_value:
                    best, best_value = cand, v
                    improved = True
        if not improved:
            step *= 0.5
    return best, best_value


def _maximize(form: np.ndarray, grid: _SearchGrid,
              refine: bool) -> tuple[StrategyParams, float, np.ndarray]:
    """Best strategy, its value, and the values of all grid nodes."""
    values = form_value(form, grid.quats)
    top = int(np.argmax(values))  # first maximum = lowest lexicographic node
    best = StrategyParams(*grid.angles[top], grid.dims)
    best_value = float(values[top])
    if refine:
        best, best_value = _refine(form, best, best_value, grid.dims, grid.step)
    return best, best_value, values


def _runner_up_gap(grid: _SearchGrid, values: np.ndarray, best: StrategyParams,
                   best_value: float) -> float:
    away = grid.outside(quaternion(best))
    return best_value - float(values[away].max()) if away.any() else math.inf


def _deviation(form: np.ndarray, values: np.ndarray, best: StrategyParams,
               best_value: float, reference: tuple[float, ...],
               outside: np.ndarray) -> tuple[float, float]:
    """(distance, margin) of the reference quaternion against the best response.

    ``outside`` masks the grid nodes beyond ``EXCLUSION_RADIUS`` of the reference.
    """
    distance = float(_distances(quaternion(best), reference))
    alternative = float(values[outside].max()) if outside.any() else -math.inf
    if distance > EXCLUSION_RADIUS:
        alternative = max(alternative, best_value)
    ref_payoff = float(form_value(form, reference))
    margin = ref_payoff - alternative if math.isfinite(alternative) else math.inf
    return distance, margin


def _holds(distance: float, margin: float) -> bool:
    return distance <= ANGLE_TOL or margin >= -PAYOFF_TIE_TOL


def best_response(game: GameSpec, responder: str, opponent: StrategyDistribution,
                  dims: int = 2, grid_nodes: int | None = None, refine: bool = True,
                  quad_grid=None) -> BestResponse:
    """Maximize a player's smeared payoff over their pure-strategy torus.

    Coarse lexicographic grid search (first maximum wins on exact ties)
    followed, when ``refine`` is set, by coordinate descent down to 1e-4 rad.
    """
    grid = _search_grid(dims, grid_nodes)
    form = payoff_forms(game, responder, opponent, quad_grid)["AB".index(responder)]
    best, value, values = _maximize(form, grid, refine)
    return BestResponse(best, value, _runner_up_gap(grid, values, best, value))


def check_equilibrium(game: GameSpec, profile: tuple[StrategyParams, StrategyParams],
                      dims: int = 2, grid_nodes: int | None = None) -> str:
    """Classify a pure profile against pure opponents: strict, weak, or neither.

    Each player's strategy is compared with their best response to the
    opponent's pure strategy; "strict" needs a unique maximizer for both,
    "weak" allows payoff ties, anything else is "not-equilibrium".
    """
    grid = _search_grid(dims, grid_nodes)
    params_a, params_b = profile
    strict = True
    for responder, own, other in (("A", params_a, params_b), ("B", params_b, params_a)):
        own_q = quaternion(own.with_dims(dims))
        form = payoff_forms(game, responder, StrategyDistribution.from_pure(other))[
            "AB".index(responder)]
        best, value, values = _maximize(form, grid, refine=True)
        if not _holds(*_deviation(form, values, best, value, own_q, grid.outside(own_q))):
            return "not-equilibrium"
        if _runner_up_gap(grid, values, best, value) <= PAYOFF_TIE_TOL:
            strict = False
    return "strict" if strict else "weak"


class _Verdicts:
    """Verdicts of one profile across kappas.

    The search nodes, their quaternions and each side's reference quaternion
    and exclusion mask are built once and shared by every verdict.
    """

    def __init__(self, game: GameSpec, profile: tuple[StrategyParams, StrategyParams],
                 tremble_dims: int, response_dims: int, grid_nodes: int | None,
                 quad_grid, both_sides: bool):
        self.game = game
        self.quad_grid = quad_grid
        self.grid = _search_grid(response_dims, grid_nodes)
        self.sides = []
        sides = [("B", 0, 1)] if not both_sides else [("B", 0, 1), ("A", 1, 0)]
        for responder, trembler_idx, responder_idx in sides:
            center = profile[trembler_idx].with_dims(tremble_dims)
            reference = quaternion(profile[responder_idx].with_dims(response_dims))
            self.sides.append((responder, center, reference, self.grid.outside(reference)))

    def at(self, kappa: float) -> RobustnessVerdict:
        holds = True
        distance = 0.0
        margin = math.inf
        for responder, center, reference, outside in self.sides:
            opponent = StrategyDistribution.from_tremble(TrembleSpec(center, kappa))
            form = payoff_forms(self.game, responder, opponent,
                                self.quad_grid)["AB".index(responder)]
            best, value, values = _maximize(form, self.grid, refine=True)
            side_distance, side_margin = _deviation(form, values, best, value,
                                                    reference, outside)
            holds = holds and _holds(side_distance, side_margin)
            distance = max(distance, side_distance)
            margin = min(margin, side_margin)
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
    verdicts = _Verdicts(game, profile, tremble_dims, response_dims, grid_nodes,
                         quad_grid, both_sides)
    return [verdicts.at(kappa) for kappa in kappas]


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
    narrowed until its width is at most ``tol``, or until no float lies
    between its ends, and the midpoint is reported as kappa_star.
    """
    if not (0 < kappa_lo < kappa_hi):
        raise ValueError("need 0 < kappa_lo < kappa_hi")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    verdicts = _Verdicts(game, profile, tremble_dims, response_dims, grid_nodes,
                         quad_grid, both_sides)

    def verdict(kappa: float) -> bool:
        return verdicts.at(kappa).holds

    lo, hi = float(kappa_lo), float(kappa_hi)
    holds_lo, holds_hi = verdict(lo), verdict(hi)
    if holds_lo == holds_hi:
        raise NoBracketError(
            f"verdict is {holds_lo} at both kappa={lo:g} and kappa={hi:g}; no threshold bracketed"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # the bracket is down to adjacent floats
            break
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
