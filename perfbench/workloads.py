"""Seeded answer generators for the three benchmark workloads.

An *answer* is one ``qtremble`` CLI invocation that writes one result file.
A *pass* is one answer per template of a workload, in a fixed order; the seed
only picks each answer's jitter.  Runs measure whole passes, so every run sees
the same mix of answer kinds and its medians do not depend on where the clock
stopped.

Jitter is drawn from small discrete pools so that every verdict the benchmark
can ask for has a reference answer recorded in ``reference.json``
(``python3 perfbench/reference.py`` enumerates the same pools).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Multiplicative jitter applied to kappa values and ladder rungs.
KAPPA_JITTER = (0.95, 0.975, 1.0, 1.025, 1.05)
# Where the known flip sits inside a threshold bracket of fixed width.
BRACKET_OFFSETS = (0.3, 0.4, 0.5, 0.6, 0.7)
THRESHOLD_TOL = "0.01"
MIX_WEIGHTS = (0.6, 0.65, 0.7, 0.75, 0.8)
SURFACE_NODES_2D = tuple(range(121, 139, 2))
SURFACE_NODES_3D = tuple(range(25, 35, 2))
CLASSICAL_NODES = (57, 61, 65, 69, 73)

# The trembled opponent of ``surface_response`` sits off the C/D/Q axes on
# purpose: there quadrature and Monte Carlo integrate over different alpha
# windows (ROADMAP open item 2), so its Monte Carlo spot check fails.
OFF_AXIS_TREMBLE = {"center": (0.7, 0.3, 0.0), "kappa": 1.0, "dims": 2}


@dataclass(frozen=True)
class Answer:
    """One CLI invocation; ``argv`` excludes ``--out``, which the runner adds."""

    kind: str  # surface | thp | threshold | classical
    argv: tuple[str, ...]
    fmt: str
    check: dict  # what the correctness check needs beyond argv


def _kappa_text(value: float) -> str:
    return format(value, ".6g")


# --- threshold -------------------------------------------------------------

# (game, profile, tremble dims, response dims, known flip, bracket width)
THRESHOLD_PROFILES = (
    ("SH", "C:C", 2, 2, 1.605, 1.6),
    ("SH", "C:C", 3, 2, 1.0195, 1.0),
    ("SH", "C:C", 3, 3, 1.0195, 1.0),
    ("EG", "C:C", 2, 2, 1.366, 1.4),
    ("EG", "C:C", 3, 2, 0.7065, 0.7),
    ("SH", "D:D", 3, 2, 3.115, 3.1),
    ("PD", "C:D", 2, 2, 0.812, 0.8),
)


def threshold_key(game: str, profile: str, td: int, rd: int) -> str:
    return f"{game} {profile} {td}/{rd}"


def threshold_bracket(flip: float, width: float, offset: float) -> tuple[str, str]:
    lo = round(flip - width * offset, 4)
    return format(lo, ".4f"), format(round(lo + width, 4), ".4f")


def _threshold_pass(rng: random.Random, tiny: bool) -> list[Answer]:
    answers = []
    for idx, (game, profile, td, rd, flip, width) in enumerate(THRESHOLD_PROFILES):
        if tiny and td == 3:
            continue
        lo, hi = threshold_bracket(flip, width, rng.choice(BRACKET_OFFSETS))
        fmt = ("json", "csv")[idx % 2]
        argv = ("threshold", "--game", game, "--profile", profile,
                "--tremble-dims", str(td), "--response-dims", str(rd),
                "--lo", lo, "--hi", hi, "--tol", THRESHOLD_TOL, "--format", fmt)
        answers.append(Answer("threshold", argv, fmt,
                              {"key": threshold_key(game, profile, td, rd),
                               "lo": float(lo), "hi": float(hi),
                               "tol": float(THRESHOLD_TOL)}))
    return answers


# --- sharp_scan --------------------------------------------------------------

SHARP_PROFILES = (("SH", "C:C"), ("PD", "Q:Q"), ("EG", "D:D"))
# Geometric ladders.  The 3-D top rung keeps default_grid at 136 nodes per
# axis over the whole jitter pool, so peak memory does not depend on the seed.
SHARP_LADDERS = {
    2: (10.0, 31.6, 100.0, 316.0, 1000.0, 3160.0, 10000.0),
    3: (10.0, 31.0, 100.0, 310.0),
}
TINY_SHARP_TOP = 100.0


def verdict_key(game: str, profile: str, td: int, rd: int, both: bool, kappas: str) -> str:
    return f"{game} {profile} {td}/{rd}{' both' if both else ''} kappa={kappas}"


def sharp_kappas(rung: float, jitter: float) -> str:
    return _kappa_text(rung * jitter)


def _sharp_pass(rng: random.Random, tiny: bool) -> list[Answer]:
    answers = []
    for dims, rungs in SHARP_LADDERS.items():
        for idx, (game, profile) in enumerate(SHARP_PROFILES):
            for rung in rungs:
                if tiny and (rung > TINY_SHARP_TOP or dims == 3 and rung > 10.0):
                    continue
                kappas = sharp_kappas(rung, rng.choice(KAPPA_JITTER))
                fmt = ("csv", "json")[idx % 2]
                argv = ("thp", "--game", game, "--profile", profile,
                        "--tremble-dims", str(dims), "--kappa", kappas, "--format", fmt)
                answers.append(Answer("thp", argv, fmt, {
                    "key": verdict_key(game, profile, dims, 2, False, kappas),
                    "kappas": kappas}))
    return answers


# --- surface_response ----------------------------------------------------------

# (game, profile, tremble dims) for thp answers with a 3-D best response on both sides.
SURFACE_THP = (("SH", "C:C", 1), ("PD", "Q:Q", 2), ("EG", "D:D", 2))
SURFACE_THP_LADDER = (0.5, 1.0, 2.0)
CLASSICAL_GAMES = (("EG", "json"), ("SH", "csv"))


def surface_thp_kappas(jitter: float) -> str:
    return ",".join(_kappa_text(k * jitter) for k in SURFACE_THP_LADDER)


def _surface(game, vary, dims, opponent, nodes, fmt) -> Answer:
    """``opponent`` is a list of (strategy literal, weight) pairs or a tremble dict."""
    if isinstance(opponent, dict):
        center = ",".join(format(a, "g") for a in opponent["center"])
        spec = f"tremble:{center},kappa={opponent['kappa']:g},dims={opponent['dims']}"
    elif len(opponent) == 1:
        spec = f"pure:{opponent[0][0]}"
    else:
        spec = "mix:" + ",".join(f"{lit}={w:g}" for lit, w in opponent)
    argv = ("surface", "--game", game, "--vary", vary, "--dims", str(dims),
            "--opponent", spec, "--nodes", str(nodes), "--format", fmt)
    return Answer("surface", argv, fmt, {"game": game, "vary": vary, "dims": dims,
                                         "opponent": opponent, "nodes": nodes})


def _surface_pass(rng: random.Random, tiny: bool) -> list[Answer]:
    n2 = (lambda: 17) if tiny else (lambda: rng.choice(SURFACE_NODES_2D))
    # Three different 3-D sizes per pass, so the slowest answers, which set
    # the tail, come in the same proportion in every run.
    n3 = [9, 9, 9] if tiny else rng.sample(SURFACE_NODES_3D, 3)
    w = rng.choice(MIX_WEIGHTS)
    answers = [
        _surface("PD", "B", 2, [("Q", 1.0)], n2(), "csv"),
        _surface("SH", "A", 2, [("C", w), ("D", round(1.0 - w, 2))], n2(), "json"),
        _surface("EG", "B", 3, [("D", 1.0)], n3[0], "csv"),
        _surface("PD", "A", 3, [("Q", 0.5), ("C", 0.25), ("D", 0.25)], n3[1], "json"),
        _surface("SH", "B", 3, [("0.4,1.0,0.5", 1.0)], n3[2], "csv"),
        _surface("SH", "B", 2, OFF_AXIS_TREMBLE, n2(), "csv"),
    ]
    for idx, (game, profile, td) in enumerate(SURFACE_THP):
        kappas = surface_thp_kappas(rng.choice(KAPPA_JITTER))
        fmt = ("json", "csv")[idx % 2]
        argv = ("thp", "--game", game, "--profile", profile, "--tremble-dims", str(td),
                "--response-dims", "3", "--both-sides", "--kappa", kappas, "--format", fmt)
        answers.append(Answer("thp", argv, fmt, {
            "key": verdict_key(game, profile, td, 3, True, kappas), "kappas": kappas}))
    for game, fmt in CLASSICAL_GAMES:
        nodes = 9 if tiny else rng.choice(CLASSICAL_NODES)
        argv = ("classical", "--game", game, "--nodes", str(nodes), "--format", fmt)
        answers.append(Answer("classical", argv, fmt, {"game": game, "nodes": nodes}))
    return answers


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    make_pass: object  # (random.Random, tiny) -> list[Answer]
    tail_pct: int  # percentile reported as answer_ms_tail
    trace_passes: int  # passes in the answer set a traced run replays


WORKLOADS = {
    w.name: w for w in (
        Workload("threshold", _threshold_pass, 80, 2),
        Workload("sharp_scan", _sharp_pass, 85, 1),
        Workload("surface_response", _surface_pass, 90, 3),
    )
}


def make_passes(workload: Workload, seed: int, tiny: bool = False):
    """Endless stream of passes; the same seed gives the same answers."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.make_pass(rng, tiny)
