"""Command-line front end: payoff surfaces, tremble scans, thresholds, classical analysis.

Outputs are CSV or JSON, written atomically, with floats at 17 significant
digits so files round-trip losslessly and identical configurations produce
byte-identical results.  Exit codes: 0 success, 2 bad configuration, 3 no
threshold bracket, 4 quadrature self-check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import games as games_mod
from .distributions import TrembleSpec
from .integration import (GridResolutionError, StrategyDistribution, payoff_surface,
                          smeared_payoff)
from .quantum import StrategyParams, strategy
from .thp import NoBracketError, classical_thp_check, thp_scan, threshold_search

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_BRACKET = 3
EXIT_SELF_CHECK = 4


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _load_game(token: str) -> games_mod.GameSpec:
    if token.upper() in ("PD", "EG", "SH"):
        return games_mod.builtin_game(token)
    if os.path.exists(token):
        return games_mod.load_game(token)
    raise ConfigError(f"game {token!r} is neither a builtin name nor an existing file")


def _parse_strategy(token: str, dims: int) -> StrategyParams:
    token = token.strip()
    if token.upper() in ("C", "D", "Q"):
        return strategy(token, dims)
    parts = token.split(",")
    if len(parts) != 3:
        raise ConfigError(
            f"strategy {token!r} must be C, D, Q or a theta,alpha,beta triple in radians"
        )
    try:
        theta, alpha, beta = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"could not parse strategy {token!r}: {exc}") from exc
    return StrategyParams(theta, alpha, beta, dims)


def _parse_distribution(token: str, default_dims: int) -> StrategyDistribution:
    """Parse an opponent spec: pure:S | tremble:S,kappa=K[,dims=D] | mix:S=W,..."""
    if ":" not in token:
        raise ConfigError(f"opponent {token!r} needs a pure:/tremble:/mix: prefix")
    kind, rest = token.split(":", 1)
    kind = kind.lower()
    if kind == "pure":
        return StrategyDistribution.from_pure(_parse_strategy(rest, default_dims))
    if kind == "tremble":
        parts = rest.split(",")
        options = {}
        literal = []
        for part in parts:
            if "=" in part:
                key, value = part.split("=", 1)
                options[key.strip().lower()] = value
            else:
                literal.append(part)
        if "kappa" not in options:
            raise ConfigError(f"tremble spec {token!r} is missing kappa=<value>")
        try:
            kappa = float(options["kappa"])
            dims = int(options.get("dims", default_dims))
        except ValueError as exc:
            raise ConfigError(f"could not parse tremble spec {token!r}: {exc}") from exc
        center = _parse_strategy(",".join(literal), dims)
        return StrategyDistribution.from_tremble(TrembleSpec(center, kappa))
    if kind == "mix":
        components = []
        for part in rest.split(","):
            if "=" not in part:
                raise ConfigError(f"mixture component {part!r} must look like C=0.99")
            name, weight = part.split("=", 1)
            try:
                w = float(weight)
            except ValueError as exc:
                raise ConfigError(f"bad mixture weight in {part!r}") from exc
            components.append((w, StrategyDistribution.from_pure(
                _parse_strategy(name, default_dims))))
        return StrategyDistribution.from_mixture(components)
    raise ConfigError(f"unknown opponent kind {kind!r}; use pure, tremble or mix")


def _parse_profile(token: str, dims: int) -> tuple[StrategyParams, StrategyParams]:
    parts = token.split(":")
    if len(parts) != 2:
        raise ConfigError(f"profile {token!r} must be two strategies separated by ':'")
    return _parse_strategy(parts[0], dims), _parse_strategy(parts[1], dims)


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qtremble-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _metadata(args: argparse.Namespace, **extra) -> dict:
    meta = {"command": args.command, "game": args.game, "seed": args.seed}
    meta.update(extra)
    return meta


def cmd_surface(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    if args.vary not in ("A", "B"):
        raise ConfigError("--vary must be A or B")
    opponent = _parse_distribution(args.opponent, args.dims)
    surface = payoff_surface(game, args.vary, args.dims, opponent,
                             grid_nodes=args.nodes, quad_grid=args.quad_nodes)
    if args.self_check:
        # Probe one representative configuration against the self-check quadrature.
        mid = StrategyDistribution.from_pure(
            StrategyParams(0.0, 0.0, 0.0, args.dims))
        varying_first = (mid, opponent) if args.vary == "A" else (opponent, mid)
        smeared_payoff(game, varying_first[0], varying_first[1],
                       grid=args.quad_nodes, self_check=True)

    names = [name for name, _ in surface.axes]
    mesh = np.meshgrid(*(nodes for _, nodes in surface.axes), indexing="ij")
    columns = [m.reshape(-1) for m in mesh]
    columns.append(surface.values_a.reshape(-1))
    columns.append(surface.values_b.reshape(-1))
    header = names + ["payoff_A", "payoff_B"]
    rows = [list(entry) for entry in zip(*columns)]

    if args.format == "csv":
        _write_output(args.out, _csv(header, rows))
    else:
        payload = {
            "metadata": _metadata(args, vary=args.vary, dims=args.dims,
                                  opponent=opponent.describe(), nodes=args.nodes),
            "columns": header,
            "rows": rows,
        }
        _write_output(args.out, _json(payload))
    return EXIT_OK


def cmd_thp(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    profile = _parse_profile(args.profile, max(args.tremble_dims, args.response_dims))
    kappas = [float(k) for k in args.kappa.split(",")]
    verdicts = thp_scan(game, profile, args.tremble_dims, kappas,
                        response_dims=args.response_dims, grid_nodes=args.search_nodes,
                        quad_grid=args.quad_nodes, both_sides=args.both_sides)
    records = [
        {"kappa": v.kappa, "holds": bool(v.holds), "distance": v.distance, "margin": v.margin}
        for v in verdicts
    ]
    if args.format == "csv":
        header = ["kappa", "holds", "distance", "margin"]
        rows = [[r["kappa"], r["holds"], r["distance"], r["margin"]] for r in records]
        _write_output(args.out, _csv(header, rows))
    else:
        payload = {
            "metadata": _metadata(args, profile=args.profile,
                                  tremble_dims=args.tremble_dims,
                                  response_dims=args.response_dims,
                                  both_sides=args.both_sides),
            "verdicts": records,
        }
        _write_output(args.out, _json(payload))
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    profile = _parse_profile(args.profile, max(args.tremble_dims, args.response_dims))
    result = threshold_search(game, profile, args.tremble_dims, args.lo, args.hi,
                              tol=args.tol, response_dims=args.response_dims,
                              grid_nodes=args.search_nodes, quad_grid=args.quad_nodes,
                              both_sides=args.both_sides)
    payload = {
        "metadata": _metadata(args, profile=args.profile,
                              tremble_dims=args.tremble_dims,
                              response_dims=args.response_dims),
        "kappa_star": result.kappa_star,
        "bracket": [result.kappa_lo, result.kappa_hi],
        "tol": result.tol,
        "holds_at_lo": result.holds_lo,
        "holds_at_hi": result.holds_hi,
    }
    if args.format == "csv":
        header = ["kappa_star", "bracket_lo", "bracket_hi", "tol", "holds_at_lo", "holds_at_hi"]
        rows = [[result.kappa_star, result.kappa_lo, result.kappa_hi, result.tol,
                 result.holds_lo, result.holds_hi]]
        _write_output(args.out, _csv(header, rows))
    else:
        _write_output(args.out, _json(payload))
    return EXIT_OK


def cmd_classical(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    if args.nodes < 2:
        raise ConfigError(f"need at least 2 nodes per axis, got {args.nodes}")
    if args.nodes**2 > games_mod.MAX_MESH_NODES:
        raise ConfigError(f"{args.nodes}^2 classical nodes exceed the limit of "
                          f"{games_mod.MAX_MESH_NODES}")
    # Computed before the format branch so that CSV output validates epsilon too.
    thp_verdicts = {
        f"{a},{b}": classical_thp_check(game, (a, b), args.epsilon)
        for a in ("C", "D")
        for b in ("C", "D")
    }
    probs = np.linspace(0.0, 1.0, args.nodes)
    rows = []
    for p_a in probs:
        for p_b in probs:
            pay_a, pay_b = games_mod.classical_payoff(game, float(p_a), float(p_b))
            rows.append([float(p_a), float(p_b), pay_a, pay_b])
    header = ["p_A", "p_B", "payoff_A", "payoff_B"]

    if args.format == "csv":
        _write_output(args.out, _csv(header, rows))
        return EXIT_OK

    equilibria = [
        {"profile": list(profile), "kind": kind}
        for profile, kind in games_mod.classical_equilibria(game)
    ]
    payload = {
        "metadata": _metadata(args, epsilon=args.epsilon, nodes=args.nodes),
        "equilibria": equilibria,
        "thp": thp_verdicts,
        "columns": header,
        "surface": rows,
    }
    _write_output(args.out, _json(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtremble",
        description="Trembling-hand analysis of quantized 2x2 games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--game", required=True,
                       help="builtin name (PD, EG, SH) or path to a JSON game file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in metadata (all outputs are deterministic)")

    p_surface = sub.add_parser("surface", help="payoff landscape for one sweeping player")
    common(p_surface)
    p_surface.add_argument("--vary", required=True, choices=("A", "B"))
    p_surface.add_argument("--dims", type=int, default=2, choices=(1, 2, 3))
    p_surface.add_argument("--opponent", required=True,
                           help="pure:S, tremble:S,kappa=K[,dims=D], or mix:S=w,S=w")
    p_surface.add_argument("--nodes", type=int, default=65,
                           help="plot nodes per axis, endpoints included")
    p_surface.add_argument("--quad-nodes", type=int, default=None,
                           help="midpoint nodes per tremble dimension, not the closed form")
    p_surface.add_argument("--self-check", action="store_true",
                           help="recompute trembles by quadrature (twice --quad-nodes, or a "
                                "converged default) and fail on drift > 1e-6")

    p_thp = sub.add_parser("thp", help="tremble one side of a profile and scan kappa")
    common(p_thp)
    p_thp.add_argument("--profile", required=True, help="two strategies, e.g. Q:Q or D:D")
    p_thp.add_argument("--tremble-dims", type=int, default=2, choices=(1, 2, 3))
    p_thp.add_argument("--response-dims", type=int, default=2, choices=(1, 2, 3))
    p_thp.add_argument("--kappa", required=True, help="comma-separated ascending list")
    p_thp.add_argument("--search-nodes", type=int, default=None)
    p_thp.add_argument("--quad-nodes", type=int, default=None)
    p_thp.add_argument("--both-sides", action="store_true",
                       help="tremble each side in turn and require both to hold")

    p_thr = sub.add_parser("threshold", help="bisect the kappa where the verdict flips")
    common(p_thr)
    p_thr.add_argument("--profile", required=True)
    p_thr.add_argument("--tremble-dims", type=int, default=2, choices=(1, 2, 3))
    p_thr.add_argument("--response-dims", type=int, default=2, choices=(1, 2, 3))
    p_thr.add_argument("--lo", type=float, required=True)
    p_thr.add_argument("--hi", type=float, required=True)
    p_thr.add_argument("--tol", type=float, default=0.01)
    p_thr.add_argument("--search-nodes", type=int, default=None)
    p_thr.add_argument("--quad-nodes", type=int, default=None)
    p_thr.add_argument("--both-sides", action="store_true")

    p_cls = sub.add_parser("classical", help="classical mixed payoffs, equilibria, THP")
    common(p_cls)
    p_cls.add_argument("--epsilon", type=float, default=0.01)
    p_cls.add_argument("--nodes", type=int, default=65)

    return parser


_HANDLERS = {
    "surface": cmd_surface,
    "thp": cmd_thp,
    "threshold": cmd_threshold,
    "classical": cmd_classical,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except NoBracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_BRACKET
    except GridResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
