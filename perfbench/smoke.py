"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--tiny`` (one small
pass) and checks that each metric named in BENCHMARK.json is printed with its
unit, both in the table and in the last JSON line; that ``failed_frac`` is
counted against the answers attempted; and that the benchmark refuses to run
in a directory holding only BENCHMARK.json and perfbench/.  Exits 1 on the
first mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

FAILURES = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def check_failed_frac_arithmetic() -> None:
    """Three of eight answers fail: one exits non-zero, two fail a check."""
    records = [{"lat_ms": float(i + 1), "scale": 1.0, "rc": 0, "failures": []}
               for i in range(8)]
    records[1]["rc"] = 2
    records[4]["failures"] = [("mismatch", False)]
    records[6]["failures"] = [("known", True)]
    records[3]["lat_ms"] = 28.0  # the eight answers take 60 ms in all
    metrics = run.summarize(records, setup=[0.1, 0.5, 0.3, 0.2, 0.4], rss_mb=1.0, tail_pct=50)
    expect(metrics["failed_frac"] == 3 / 8, f"failed_frac {metrics['failed_frac']} != 3/8")
    expect(metrics["ok_frac"] == 5 / 8, f"ok_frac {metrics['ok_frac']} != 5/8")
    expect(abs(metrics["answers_per_s"] - 8 / 0.06) < 1e-9,
           "answers_per_s must count every attempt")
    scales = run.answer_scales(3, [(0, 10.0), (2, 30.0), (3, 50.0)])
    ref = run.PROBE_REF_MS
    expect(scales == [ref / 20.0, ref / 20.0, ref / 40.0],
           f"answer_scales {scales} must average the probes around each answer")
    expect(metrics["setup_s"] == 0.3, "setup_s must be the median sample")


def check_workload(name: str, trace: int, declared: dict) -> None:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    label = f"{name} --trace {trace}"
    expect(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr[-500:]}")
    if done.returncode != 0:
        return
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: last line keys {sorted(result)}")
    wanted = declared["per_layer" if trace else "end_to_end"]
    expect(set(result["metrics"]) == set(wanted),
           f"{label}: metrics {sorted(result['metrics'])} != {sorted(wanted)}")
    table = [line.split() for line in lines if line.startswith(" ") or line.startswith(name)]
    printed = {row[1]: row[3] for row in table if len(row) == 4}
    for metric, unit in wanted.items():
        got = result["metrics"].get(metric, {})
        expect(got.get("unit") == unit, f"{label}: {metric} unit {got.get('unit')} != {unit}")
        expect(printed.get(metric) == unit, f"{label}: {metric} not printed with unit {unit}")
    expect(printed.get("failed_frac") == "ratio", f"{label}: failed_frac not printed")
    attempted = result["attempted"]
    expect(attempted == context["answers"] and attempted >= 1,
           f"{label}: attempted {attempted} != answers {context['answers']}")
    expect(context["failed_frac"] == result["failed"] / attempted,
           f"{label}: failed_frac {context['failed_frac']} != failed/attempted")
    expect(result["correct"], f"{label}: outputs incorrect:\n{done.stdout[-1500:]}")
    print(f"ok: {label}: {attempted} answers, {result['failed']} failed")


def check_refuses_without_sources() -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero and print no result."""
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "threshold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    print("ok: refuses to run without the sources")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    check_failed_frac_arithmetic()
    check_refuses_without_sources()
    from workloads import WORKLOADS

    for workload in bench["workloads"]:
        pct = WORKLOADS[workload["name"]].tail_pct
        expect(f"p{pct} " in workload["why"],
               f"{workload['name']}: BENCHMARK.json why does not name the tail p{pct}")
        for trace in (0, 1):
            check_workload(workload["name"], trace, declared)
    print("smoke test passed" if not FAILURES else f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
