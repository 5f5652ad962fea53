"""Record the reference answers behind the benchmark's correctness checks.

    python3 perfbench/reference.py     # rewrites perfbench/reference.json

Every verdict the workloads can request (they draw jitter from the discrete
pools in ``workloads.py``) is answered once through ``qtremble.cli.main`` and
its holds flags are stored.  For each threshold profile the script checks that
the verdict flips exactly once across every bracket the workload can send,
then locates that flip with a 1e-6 bisection.  Classical equilibria and
epsilon-tremble verdicts are stored per game.

Re-record only when a change is meant to alter answers, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run  # caps BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

from qtremble import __version__, cli  # noqa: E402
from workloads import (  # noqa: E402
    BRACKET_OFFSETS,
    CLASSICAL_GAMES,
    KAPPA_JITTER,
    SHARP_LADDERS,
    SHARP_PROFILES,
    SURFACE_THP,
    THRESHOLD_PROFILES,
    sharp_kappas,
    surface_thp_kappas,
    threshold_bracket,
    threshold_key,
    verdict_key,
)

SCAN_POINTS = 25
FINE_TOL = "1e-6"


def answer(argv: list[str]) -> dict:
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        path = os.path.join(tmp, "answer.json")
        code = cli.main(argv + ["--format", "json", "--out", path])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited with {code}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def holds(game, profile, td, rd, both, kappas: list[str]) -> list[bool]:
    argv = ["thp", "--game", game, "--profile", profile, "--tremble-dims", str(td),
            "--response-dims", str(rd), "--kappa", ",".join(kappas)]
    return [v["holds"] for v in answer(argv + (["--both-sides"] if both else []))["verdicts"]]


def record_verdicts() -> dict:
    verdicts = {}
    for dims, rungs in SHARP_LADDERS.items():
        for game, profile in SHARP_PROFILES:
            kappas = sorted({sharp_kappas(r, j) for r in rungs for j in KAPPA_JITTER}, key=float)
            for kappa, flag in zip(kappas, holds(game, profile, dims, 2, False, kappas)):
                verdicts[verdict_key(game, profile, dims, 2, False, kappa)] = [flag]
            print(f"sharp_scan {game} {profile} {dims}-D: {len(kappas)} verdicts", flush=True)
    for game, profile, td in SURFACE_THP:
        for jitter in KAPPA_JITTER:
            kappas = surface_thp_kappas(jitter)
            verdicts[verdict_key(game, profile, td, 3, True, kappas)] = holds(
                game, profile, td, 3, True, kappas.split(","))
    return verdicts


def record_thresholds() -> dict:
    thresholds = {}
    for game, profile, td, rd, flip, width in THRESHOLD_PROFILES:
        lo = threshold_bracket(flip, width, max(BRACKET_OFFSETS))[0]
        hi = threshold_bracket(flip, width, min(BRACKET_OFFSETS))[1]
        grid = [format(k, ".6g") for k in np.linspace(float(lo), float(hi), SCAN_POINTS)]
        scan = holds(game, profile, td, rd, False, grid)
        flips = sum(a != b for a, b in zip(scan, scan[1:]))
        if flips != 1:
            raise RuntimeError(f"{game} {profile} {td}/{rd}: {flips} flips in [{lo}, {hi}]")
        fine = answer(["threshold", "--game", game, "--profile", profile,
                       "--tremble-dims", str(td), "--response-dims", str(rd),
                       "--lo", lo, "--hi", hi, "--tol", FINE_TOL])
        thresholds[threshold_key(game, profile, td, rd)] = {
            "kappa_star": fine["kappa_star"], "holds_at_lo": fine["holds_at_lo"],
            "holds_at_hi": fine["holds_at_hi"], "scan_range": [float(lo), float(hi)],
            "tol": float(FINE_TOL)}
        print(f"threshold {game} {profile} {td}/{rd}: {fine['kappa_star']:.6f}", flush=True)
    return thresholds


def record_classical() -> dict:
    out = {}
    for game, _ in CLASSICAL_GAMES:
        doc = answer(["classical", "--game", game])
        out[game] = {"equilibria": doc["equilibria"], "thp": doc["thp"]}
    return out


def main() -> None:
    reference = {
        "recorded_with": {"qtremble": __version__, "numpy": np.__version__,
                          "python": sys.version.split()[0]},
        "threshold": record_thresholds(),
        "classical": record_classical(),
        "verdicts": record_verdicts(),
    }
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {len(reference['verdicts'])} verdicts")


if __name__ == "__main__":
    main()
