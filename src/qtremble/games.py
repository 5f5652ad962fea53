"""2x2 bimatrix games: builtin tables, classical mixing, payoff-landscape axes."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
import numpy as np

# Payoff ties within this margin are ties; protects weak maxima from roundoff.
PAYOFF_TIE_TOL = 1e-9
# Largest strategy mesh (plot or best-response search), counted over all axes;
# larger requests are refused before anything is allocated.
MAX_MESH_NODES = 2**20
# Largest payoff magnitude: sums of a few payoffs, and so every answer, stay finite.
MAX_PAYOFF = 1e300


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A 2x2 bimatrix game.

    Rows index Alice's pure strategy (C then D), columns Bob's.  ``payoff_a``
    holds Alice's entries, ``payoff_b`` Bob's.
    """

    name: str
    payoff_a: np.ndarray
    payoff_b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.payoff_a, dtype=float)
        b = np.asarray(self.payoff_b, dtype=float)
        if a.shape != (2, 2) or b.shape != (2, 2):
            raise ValueError("payoff matrices must be 2x2")
        if not (np.abs([a, b]) <= MAX_PAYOFF).all():
            raise ValueError(f"payoff entries must be finite and at most {MAX_PAYOFF:g} "
                             f"in magnitude")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "payoff_a", a)
        object.__setattr__(self, "payoff_b", b)

    @property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.payoff_b, self.payoff_a.T))


_BUILTINS = {
    "PD": (((3, 0), (5, 1)), ((3, 5), (0, 1))),
    "EG": (((1, 2), (0, 2)), ((1, 0), (2, 2))),
    "SH": (((10, 0), (8, 7)), ((10, 8), (0, 7))),
}


def builtin_game(name: str) -> GameSpec:
    """Return one of the builtin games PD, EG or SH."""
    key = name.upper()
    if key not in _BUILTINS:
        raise ValueError(f"unknown builtin game {name!r}; choose from {sorted(_BUILTINS)}")
    a, b = _BUILTINS[key]
    return GameSpec(key, np.array(a, float), np.array(b, float))


def game_from_dict(doc: dict) -> GameSpec:
    """Build a GameSpec from a ``{"name", "a", "b"}`` document."""
    if not isinstance(doc, dict):
        raise ValueError(f"game document must be an object, got {type(doc).__name__}")
    try:
        return GameSpec(str(doc["name"]), np.array(doc["a"], float), np.array(doc["b"], float))
    except KeyError as exc:
        raise ValueError(f"game document missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"game payoffs must be numbers: {exc}") from exc


def game_to_dict(game: GameSpec) -> dict:
    return {"name": game.name, "a": game.payoff_a.tolist(), "b": game.payoff_b.tolist()}


def load_game(path) -> GameSpec:
    """Read a game file (JSON with keys name, a, b; 2x2 arrays, rows C,D)."""
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_dict(json.load(fh))


def classical_payoff(game: GameSpec, p_a: float, p_b: float) -> tuple[float, float]:
    """Bilinear mixed payoff when each player cooperates with the given probability."""
    if not (0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0):
        raise ValueError("mixing probabilities must lie in [0, 1]")
    wa = np.array([p_a, 1.0 - p_a])
    wb = np.array([p_b, 1.0 - p_b])
    return float(wa @ game.payoff_a @ wb), float(wa @ game.payoff_b @ wb)


def classical_equilibria(game: GameSpec) -> list[tuple[tuple[str, str], str]]:
    """Enumerate pure-strategy Nash equilibria with strict/weak labels.

    A profile is an equilibrium when no unilateral deviation pays strictly
    more; it is weak when some deviation ties (within a 1e-9 payoff
    tolerance), strict otherwise.
    """
    labels = ("C", "D")
    a, b = game.payoff_a, game.payoff_b
    found = []
    for i in range(2):
        for j in range(2):
            da = a[1 - i, j] - a[i, j]
            db = b[i, 1 - j] - b[i, j]
            if da > PAYOFF_TIE_TOL or db > PAYOFF_TIE_TOL:
                continue
            weak = da > -PAYOFF_TIE_TOL or db > -PAYOFF_TIE_TOL
            found.append(((labels[i], labels[j]), "weak" if weak else "strict"))
    return found


@dataclass(frozen=True)
class Surface:
    """Sampled payoff landscape over a strategy-parameter grid.

    ``axes`` pairs each active parameter name with its node values;
    ``values_a``/``values_b`` are the players' payoffs on the grid (shape
    matches the axis lengths); ``context`` describes the fixed opponent.
    """

    axes: tuple[tuple[str, np.ndarray], ...]
    values_a: np.ndarray
    values_b: np.ndarray
    context: str = ""

    def __post_init__(self):
        shape = tuple(len(nodes) for _, nodes in self.axes)
        if self.values_a.shape != shape or self.values_b.shape != shape:
            raise ValueError("value tensors must match the axis lengths")


_AXIS_NAMES = ("theta", "alpha", "beta")


def surface_axes(dims: int, nodes: int) -> list[tuple[str, np.ndarray]]:
    """Plot axes: theta over [-pi, pi], alpha/beta over [0, 2pi], endpoints included."""
    if dims not in (1, 2, 3):
        raise ValueError("dims must be 1, 2 or 3")
    if nodes < 2:
        raise ValueError("need at least 2 nodes per axis")
    if nodes**dims > MAX_MESH_NODES:
        raise ValueError(f"{nodes}^{dims} plot nodes exceed the limit of {MAX_MESH_NODES}")
    spans = [(-math.pi, math.pi), (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)]
    return [
        (_AXIS_NAMES[k], np.linspace(spans[k][0], spans[k][1], nodes))
        for k in range(dims)
    ]
