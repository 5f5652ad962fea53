"""Correctness checks for one answer's result file, run outside the timed region.

Verdicts and thresholds are compared with ``reference.json``, recorded from
the library by ``reference.py``.  Surface rows are spot-checked with paths
independent of the kernel contraction that produced them: ``expected_payoff``
for pure and mixed opponents; ``smeared_payoff_direct``, ``smeared_payoff_mc``
and the benchmark's own quadrature of the tremble (nodes, weights and density
independent of the library's) for trembled ones.  Classical rows are recomputed from
the bilinear formula.

``check`` returns a list of failures as (message, known_defect) pairs.  A
known defect is one ROADMAP already records: a failure still counts against
the answer, but it does not make the run incorrect.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

from qtremble import (
    StrategyDistribution,
    StrategyParams,
    TrembleSpec,
    builtin_game,
    expected_payoff,
    initial_state,
    payoff_operators,
    smeared_payoff_direct,
    smeared_payoff_mc,
    strategy,
    su2,
    su2_angles,
)

PURE_TOL = 1e-12
DIRECT_TOL = 1e-6  # the library's own grid-doubling tolerance
MC_SAMPLES = 20_000
MC_SIGMAS = 5.0
SURFACE_SPOT_ROWS = 8
TREMBLE_SPOT_ROWS = 4
CLASSICAL_SPOT_ROWS = 8
# The benchmark's own quadrature of a trembled opponent: a periodic midpoint
# rule in theta and Gauss-Legendre over one 2*pi window in alpha and beta, with
# the von Mises density written out here.  At the low kappa of the workload it
# converges to 1e-13.  The gate is 4*pi-periodic in alpha and beta, so the
# integral depends on the window (ROADMAP open item 2): a row must match the
# window [0, 2*pi) that the library's quadrature uses or the window [-pi, pi)
# that its sampler uses, so that a fix of item 2 still passes.
REF_THETA_NODES = 64
REF_WINDOW_NODES = 48
REF_WINDOWS = (0.0, -math.pi)
# The default grid is only first-order accurate across the seam; on the
# benchmark's trembled surface it is up to 0.032 from the converged integral.
REF_TOL = 0.05
SEAM_DEFECT = "ROADMAP open item 2: quadrature and Monte Carlo use different alpha windows"
_AXES = ((-math.pi, math.pi), (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi))
_AXIS_NAMES = ("theta", "alpha", "beta")


def _tremble_quadrature(spec: dict, start: float) -> tuple[np.ndarray, np.ndarray]:
    """Gates and weights of a tremble on the benchmark's own nodes.

    Alpha and beta run over [start, start + 2*pi).
    """
    n = REF_THETA_NODES
    axes = [(-math.pi + 2.0 * math.pi * (np.arange(n) + 0.5) / n, np.full(n, 2.0 * math.pi / n))]
    x, w = np.polynomial.legendre.leggauss(REF_WINDOW_NODES)
    axes += [(start + math.pi * (x + 1.0), math.pi * w)] * (spec["dims"] - 1)
    nodes = np.meshgrid(*(a for a, _ in axes), indexing="ij")
    rule = np.meshgrid(*(w for _, w in axes), indexing="ij")
    angles = np.zeros((nodes[0].size, 3))
    weights = np.ones(nodes[0].size)
    kappa = spec["kappa"]
    for k in range(spec["dims"]):
        angles[:, k] = nodes[k].ravel()
        density = (np.exp(kappa * (np.cos(angles[:, k] - spec["center"][k]) - 1.0))
                   / (2.0 * math.pi * np.i0(kappa) * math.exp(-kappa)))
        weights *= rule[k].ravel() * density
    return su2_angles(angles[:, 0], angles[:, 1], angles[:, 2]), weights


def _quadrature_payoffs(game, gates, weights, own, vary) -> tuple[float, float]:
    """Payoffs of a pure gate ``own`` against the weighted gates of the other side."""
    own = np.broadcast_to(own, gates.shape)
    side_a, side_b = (own, gates) if vary == "A" else (gates, own)
    joint = np.einsum("nik,njl->nijkl", side_a, side_b).reshape(-1, 4, 4)
    rho = np.einsum("n,nij,jk,nlk->il", weights, joint, initial_state(), joint.conj(),
                    optimize=True)
    op_a, op_b = payoff_operators(game)
    return float(np.trace(op_a @ rho).real), float(np.trace(op_b @ rho).real)


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _table(text: str, fmt: str, rows_key: str = "rows") -> tuple[list[str], list, dict]:
    """Header, rows and (for JSON) the whole document of a tabular result.

    CSV rows stay unparsed lines; ``_row`` parses the few that are checked.
    """
    if fmt == "csv":
        lines = text.splitlines()
        return lines[0].split(","), lines[1:], {}
    doc = json.loads(text)
    return doc["columns"], doc[rows_key], doc


def _row(row) -> list:
    return [_cell(c) for c in row.split(",")] if isinstance(row, str) else row


def _literal(token: str, dims: int) -> StrategyParams:
    if token in ("C", "D", "Q"):
        return strategy(token, dims)
    theta, alpha, beta = (float(p) for p in token.split(","))
    return StrategyParams(theta, alpha, beta, dims)


class Checker:
    """Checks answers of one run; ``seed`` picks the spot-checked rows."""

    def __init__(self, reference: dict, seed: int):
        self.reference = reference
        self.rng = random.Random(f"checks:{seed}")

    def check(self, answer, text: str) -> list[tuple[str, bool]]:
        try:
            return getattr(self, f"_check_{answer.kind}")(answer, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [(f"unreadable {answer.kind} output: {exc!r}", False)]

    # -- verdicts ---------------------------------------------------------------

    def _check_thp(self, answer, text):
        if answer.fmt == "csv":
            header, rows, _ = _table(text, "csv")
            records = [dict(zip(header, _row(row))) for row in rows]
        else:
            records = json.loads(text)["verdicts"]
        kappas = [float(k) for k in answer.check["kappas"].split(",")]
        got = [bool(r["holds"]) for r in records]
        want = self.reference["verdicts"].get(answer.check["key"])
        if [float(r["kappa"]) for r in records] != kappas:
            return [("verdict kappas differ from the request", False)]
        if want is None:
            return [(f"no reference verdict for {answer.check['key']}", False)]
        if got != want:
            return [(f"holds {got} != reference {want} for {answer.check['key']}", False)]
        return []

    def _check_threshold(self, answer, text):
        if answer.fmt == "csv":
            header, rows, _ = _table(text, "csv")
            doc = dict(zip(header, _row(rows[0])))
        else:
            doc = json.loads(text)
        ref = self.reference["threshold"][answer.check["key"]]
        request = answer.check
        failures = []
        star = float(doc["kappa_star"])
        if (doc["holds_at_lo"], doc["holds_at_hi"]) != (ref["holds_at_lo"], ref["holds_at_hi"]):
            failures.append(("holds_at_lo/hi differ from the reference", False))
        if not request["lo"] <= star <= request["hi"]:
            failures.append((f"kappa_star {star} outside the requested bracket", False))
        if abs(star - ref["kappa_star"]) > request["tol"]:
            failures.append((f"kappa_star {star} is more than tol from the reference "
                             f"{ref['kappa_star']}", False))
        return failures

    # -- surfaces ---------------------------------------------------------------

    def _spot_rows(self, header, rows, dims, nodes, count, wrap_free=False):
        """Yield (index, angles, payoff_A, payoff_B) for ``count`` random rows.

        With ``wrap_free`` the alpha and beta endpoints 2*pi are never picked:
        StrategyParams wraps them to 0, which is a different gate (the gate is
        4*pi-periodic in alpha and beta, ROADMAP open item 2), so oracles that
        take StrategyParams cannot evaluate those rows.
        """
        names = list(_AXIS_NAMES[:dims]) + ["payoff_A", "payoff_B"]
        if header != names:
            raise ValueError(f"columns {header} != {names}")
        if len(rows) != nodes**dims:
            raise ValueError(f"{len(rows)} rows, expected {nodes ** dims}")
        axes = [np.linspace(lo, hi, nodes) for lo, hi in _AXES[:dims]]
        for _ in range(count):
            position = [self.rng.randrange(nodes - (wrap_free and k > 0)) for k in range(dims)]
            index = int(np.ravel_multi_index(position, (nodes,) * dims))
            row = _row(rows[index])
            for k in range(dims):
                if abs(row[k] - axes[k][position[k]]) > PURE_TOL:
                    raise ValueError(f"row {index} has {names[k]}={row[k]}, "
                                     f"expected {axes[k][position[k]]}")
            yield index, list(row[:dims]) + [0.0] * (3 - dims), row[dims], row[dims + 1]

    def _check_surface(self, answer, text):
        c = answer.check
        game = builtin_game(c["game"])
        header, rows, _ = _table(text, answer.fmt)
        if isinstance(c["opponent"], dict):
            return self._check_trembled_surface(answer, game, header, rows)
        failures = []
        components = [(w, su2(_literal(lit, c["dims"]))) for lit, w in c["opponent"]]
        for index, angles, pay_a, pay_b in self._spot_rows(
                header, rows, c["dims"], c["nodes"], SURFACE_SPOT_ROWS):
            own = su2_angles(*angles)
            want = [0.0, 0.0]
            for w, other in components:
                pair = (own, other) if c["vary"] == "A" else (other, own)
                want = [acc + w * v for acc, v in zip(want, expected_payoff(game, *pair))]
            if max(abs(pay_a - want[0]), abs(pay_b - want[1])) > PURE_TOL:
                failures.append((f"row {index}: ({pay_a}, {pay_b}) != expected_payoff "
                                 f"({want[0]}, {want[1]})", False))
        return failures

    def _check_trembled_surface(self, answer, game, header, rows):
        c = answer.check
        spec = c["opponent"]
        center = StrategyParams(*spec["center"], spec["dims"])
        trembled = StrategyDistribution.from_tremble(TrembleSpec(center, spec["kappa"]))
        # Only trembles centred on C, D or Q are free of the alpha-window seam.
        seam = not any(np.allclose(su2(center), su2(strategy(name))) for name in "CDQ")
        windows = [_tremble_quadrature(spec, start) for start in REF_WINDOWS]
        failures = []
        for index, angles, pay_a, pay_b in self._spot_rows(
                header, rows, c["dims"], c["nodes"], TREMBLE_SPOT_ROWS, wrap_free=True):
            own = StrategyParams(*angles, c["dims"])
            pure = StrategyDistribution.from_pure(own)
            sides = (pure, trembled) if c["vary"] == "A" else (trembled, pure)
            direct = smeared_payoff_direct(game, *sides)
            if max(abs(pay_a - direct[0]), abs(pay_b - direct[1])) > DIRECT_TOL:
                failures.append((f"row {index}: ({pay_a}, {pay_b}) != direct sum "
                                 f"{direct}", False))
            refs = [_quadrature_payoffs(game, gates, weights, su2(own), c["vary"])
                    for gates, weights in windows]
            if all(max(abs(pay_a - ref[0]), abs(pay_b - ref[1])) > REF_TOL for ref in refs):
                failures.append((f"row {index}: ({pay_a}, {pay_b}) is more than {REF_TOL} "
                                 f"from the benchmark's quadrature on both alpha windows "
                                 f"{refs}", False))
            mc_a, mc_b, se_a, se_b = smeared_payoff_mc(
                game, *sides, MC_SAMPLES, seed=self.rng.randrange(2**32))
            gap = max(abs(pay_a - mc_a) / se_a, abs(pay_b - mc_b) / se_b)
            if gap > MC_SIGMAS:
                note = f" ({SEAM_DEFECT})" if seam else ""
                failures.append((f"row {index}: quadrature ({pay_a:.5f}, {pay_b:.5f}) vs "
                                 f"Monte Carlo ({mc_a:.5f}, {mc_b:.5f}) differ by "
                                 f"{gap:.1f} standard errors{note}", seam))
        return failures

    # -- classical ----------------------------------------------------------------

    def _check_classical(self, answer, text):
        c = answer.check
        a = builtin_game(c["game"]).payoff_a
        b = builtin_game(c["game"]).payoff_b
        header, rows, doc = _table(text, answer.fmt, "surface")
        failures = []
        if header != ["p_A", "p_B", "payoff_A", "payoff_B"] or len(rows) != c["nodes"] ** 2:
            return [("classical table has the wrong shape", False)]
        probs = np.linspace(0.0, 1.0, c["nodes"])
        for index in self.rng.sample(range(len(rows)), CLASSICAL_SPOT_ROWS):
            p, q = probs[index // c["nodes"]], probs[index % c["nodes"]]
            wa, wb = (p, 1.0 - p), (q, 1.0 - q)
            want = [sum(wa[i] * m[i][j] * wb[j] for i in range(2) for j in range(2))
                    for m in (a, b)]
            row = _row(rows[index])
            if (row[0], row[1]) != (p, q) or max(abs(row[2] - want[0]),
                                                 abs(row[3] - want[1])) > PURE_TOL:
                failures.append((f"classical row {index} {row} != ({p}, {q}, {want})", False))
        if answer.fmt == "json":
            ref = self.reference["classical"][c["game"]]
            if doc["equilibria"] != ref["equilibria"] or doc["thp"] != ref["thp"]:
                failures.append(("classical equilibria or THP verdicts differ from the "
                                 "reference", False))
        return failures
