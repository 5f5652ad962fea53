"""qtremble benchmark: closed-loop CLI answers, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client (``worker.py``, a fresh process per workload) sends the workload's
answers to ``qtremble.cli.main`` back to back, in whole passes, until at least
``--seconds`` of answer time has been measured.  Every answer is checked by
this process between passes, outside the timed region.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` replays a fixed answer set, running each
answer untraced and traced in turn, and reports per-layer metrics from the
traced runs.  There is one client and no queue, so no answer ever waits: the
benchmark reports no waiting time because there is none.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the machine and workload context and a readable table.
"""

from __future__ import annotations

import os
import sys

# Cap BLAS/OpenMP threads before numpy loads, here and in every child process.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from probe import PROBE_REF_MS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 20  # at least; more are taken between batches, SETUP_EVERY_S apart
SETUP_EVERY_S = 1.0
HARD_LIMIT_S = 170  # one workload, set-up and checks included
LAST_PASS_START_S = 110  # no new pass starts after this much wall time
MIN_BEYOND_TAIL = 10  # samples beyond the tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("answers_per_s", "1/s"),
    ("answer_ms_p50", "ms"),
    ("answer_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

SETUP_CODE = ("import time; t0 = time.perf_counter(); import qtremble.cli as c; "
              "c.build_parser(); print(time.perf_counter() - t0)")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_sample() -> float:
    """Seconds to import qtremble.cli and build its parser in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


class Client:
    """The worker process and its line protocol."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")], env=_child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8")

    def _request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def batch(self, answers: list[tuple[int, list[str], bool]]) -> dict:
        """Run answers (id, argv ending in --out PATH, traced) back to back."""
        return self._request({"op": "batch", "answers": answers})

    def quit(self, trace_file: str | None) -> float:
        rss = self._request({"op": "quit", "trace_file": trace_file})["rss_mb"]
        self.proc.wait(timeout=30)
        return rss

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def percentile(values: list[float], pct: int) -> float:
    """Linear-interpolation percentile, as statistics.quantiles(method='inclusive')."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _failed(record: dict) -> bool:
    return record["rc"] != 0 or bool(record["failures"])


def answer_scales(count: int, probes: list[list]) -> list[float]:
    """Per-answer factor PROBE_REF_MS / mean of the probes just before and after it.

    ``probes`` holds (answers completed before the probe, probe ms) and
    starts at 0 and ends at ``count``.
    """
    scales = []
    for done in range(count):
        before = max((p for p in probes if p[0] <= done), key=lambda p: p[0])[1]
        after = min((p for p in probes if p[0] > done), key=lambda p: p[0])[1]
        scales.append(PROBE_REF_MS / ((before + after) / 2))
    return scales


def summarize(records: list[dict], setup: list[float], rss_mb: float, tail_pct: int,
              calibrated: bool = True) -> dict[str, float]:
    """End-to-end metrics from per-answer records {lat_ms, scale, rc, failures}.

    Answers run back to back, so measured answer time is the sum of their
    latencies.  With ``calibrated`` every answer time is multiplied by its
    scale, which maps it to the reference machine speed (``probe.py``).
    Set-up time is never scaled: importing is file and loader work that the
    probe does not track.

    ``failed`` answers are those with a non-zero exit code or any failed
    check; ``ok_frac`` and ``failed_frac`` both divide by answers attempted.
    """
    def scaled(value: float, scale: float) -> float:
        return value * scale if calibrated else value

    latencies = [scaled(r["lat_ms"], r["scale"]) for r in records]
    timed_s = sum(latencies) / 1e3
    failed = sum(1 for r in records if _failed(r))
    return {
        "setup_s": statistics.median(setup),
        "answers_per_s": len(records) / timed_s,
        "answer_ms_p50": statistics.median(latencies),
        "answer_ms_tail": percentile(latencies, tail_pct),
        "peak_rss_mb": rss_mb,
        "ok_frac": (len(records) - failed) / len(records),
        "failed_frac": failed / len(records),
    }


def _record(answer, lat_ms: float, scale: float, rc: int, path: str, checker) -> dict:
    failures = []
    if rc == 0:
        with open(path, encoding="utf-8") as fh:
            failures = checker.check(answer, fh.read())
    if os.path.exists(path):
        os.unlink(path)
    return {"kind": answer.kind, "argv": list(answer.argv), "lat_ms": lat_ms, "scale": scale,
            "rc": rc, "failures": failures}


class Session:
    """One workload run: the worker, the answer stream, the checks and set-up samples.

    Set-up is sampled while the worker is idle between batches, so the
    samples spread over the whole run like the answers do.
    """

    def __init__(self, workload, seed: int, tiny: bool, answers_dir: str):
        from checks import Checker
        from workloads import make_passes

        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.checker = Checker(json.load(fh), seed)
        self.passes = make_passes(workload, seed, tiny)
        self.warmup = next(make_passes(workload, seed, tiny=True))
        self.answers_dir = answers_dir
        self.next_id = 0
        self.records: list[dict] = []
        self.probes: list[float] = []
        setup_sample()  # writes the bytecode caches, which users do not pay every run
        self.setup = [setup_sample() for _ in range(3)]
        self.last_setup = time.monotonic()
        self.client = Client()

    def run(self, answers, traced=None, record: bool = True) -> dict:
        """Send one batch, then check and delete its outputs.

        ``traced`` holds one flag per answer; by default nothing is traced.
        """
        requests, paths = [], []
        for answer, flag in zip(answers, traced or [False] * len(answers)):
            path = os.path.join(self.answers_dir, f"{self.next_id}.{answer.fmt}")
            requests.append((self.next_id, list(answer.argv) + ["--out", path], flag))
            paths.append(path)
            self.next_id += 1
        reply = self.client.batch(requests)
        scales = answer_scales(len(answers), reply["probes"])
        for answer, lat, scale, rc, path in zip(answers, reply["lat_ms"], scales, reply["rc"],
                                                paths):
            checked = _record(answer, lat, scale, rc, path, self.checker)
            if record:
                self.records.append(checked)
        if record:
            self.probes.extend(ms for _, ms in reply["probes"])
            if time.monotonic() - self.last_setup >= SETUP_EVERY_S:
                self.setup.append(setup_sample())
                self.last_setup = time.monotonic()
        return reply


def run_timed(session: Session, workload, seconds: int, tiny: bool, started: float) -> dict:
    timed = 0.0
    while True:
        timed += sum(session.run(next(session.passes))["lat_ms"]) / 1e3
        enough = len(session.records) * (1 - workload.tail_pct / 100) >= MIN_BEYOND_TAIL
        if tiny or (timed >= seconds and enough) or time.monotonic() - started > LAST_PASS_START_S:
            return {"timed_s_raw": timed}


def run_traced(session: Session, workload, seconds: int, tiny: bool, started: float) -> dict:
    """Replay one fixed answer set with every answer run untraced and traced.

    The two runs of an answer follow each other, in alternating order, so
    drifts in machine speed cancel in the overhead ratio.
    """
    passes = 1 if tiny else workload.trace_passes
    answers = [a for _ in range(passes) for a in next(session.passes)]
    doubled = [a for a in answers for _ in range(2)]
    flags = [(i // 2 + i) % 2 == 1 for i in range(len(doubled))]
    begun = time.monotonic()
    layers, ratios = [], []
    while True:
        replay_start = time.monotonic()
        reply = session.run(doubled, flags)
        layers.append(reply["layers"])
        traced = sum(t for t, flag in zip(reply["lat_ms"], flags) if flag)
        plain = sum(t for t, flag in zip(reply["lat_ms"], flags) if not flag)
        ratios.append(traced / plain)
        now = time.monotonic()
        if (tiny or now - begun + (now - replay_start) > seconds
                or now - started > LAST_PASS_START_S):
            break
    metrics = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return {"layers": metrics, "replays": len(ratios), "answers_per_replay": len(answers)}


def machine_context() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def workload_why(name: str) -> str:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return next(w["why"] for w in json.load(fh)["workloads"] if w["name"] == name)


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool) -> dict:
    """Run one workload with a fresh worker; print its tables and return its result."""
    from tracing import METRICS as LAYER_METRICS
    from workloads import WORKLOADS

    started = time.monotonic()
    workload = WORKLOADS[name]
    why = workload_why(name)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    answers_dir = os.path.join(OUT, f"answers-{tag}-{os.getpid()}")
    os.makedirs(answers_dir)
    session = None
    try:
        session = Session(workload, seed, tiny, answers_dir)
        # One small pass first, so lazy imports and first-call costs stay out
        # of the measurement.
        session.run(session.warmup, record=False)
        loop = run_traced if trace else run_timed
        details = loop(session, workload, seconds, tiny, started)
        trace_file = os.path.join(OUT, f"spans-{tag}.tsv") if trace else None
        rss_mb = session.client.quit(trace_file)
        while len(session.setup) < SETUP_SAMPLES:
            session.setup.append(setup_sample())
    finally:
        if session is not None:
            session.client.close()
        shutil.rmtree(answers_dir, ignore_errors=True)

    records, setup = session.records, session.setup
    # A traced run's end-to-end numbers mix traced and untraced answers, so
    # they are context only.
    e2e = summarize(records, setup, rss_mb, workload.tail_pct)
    raw = summarize(records, setup, rss_mb, workload.tail_pct, calibrated=False)
    failures = [(r["argv"], msg, known) for r in records for msg, known in r["failures"]]
    failures += [(r["argv"], f"exit code {r['rc']}", False) for r in records if r["rc"] != 0]
    correct = not any(not known for _, _, known in failures)
    failed = sum(1 for r in records if _failed(r))

    context = {
        "machine": machine_context(),
        "workload": name, "why": why, "seed": seed, "seconds": seconds,
        "trace": trace, "tiny": tiny, "answers": len(records),
        "tail_percentile": workload.tail_pct,
        "setup_samples_s": setup,
        "failed_frac": e2e["failed_frac"],
        "probe_ref_ms": PROBE_REF_MS,
        "probe_ms_median": statistics.median(session.probes),
        "uncalibrated": {m: raw[m] for m, _ in END_TO_END},
        "known_defect_failures": sum(1 for _, _, known in failures if known),
        **{k: v for k, v in details.items() if k != "layers"},
    }
    if trace:
        metrics = {m: {"value": details["layers"][m], "unit": u} for m, u in LAYER_METRICS}
    else:
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END}

    print(f"# {name}: {why}")
    print(f"# seed {seed}, {len(records)} answers, tail = p{workload.tail_pct}, "
          f"BLAS threads {BLAS_THREADS}, one closed-loop client, zero queueing by construction")
    for metric, unit in END_TO_END + (("failed_frac", "ratio"),):
        print(f"{name:>16} {metric:<42} {e2e[metric]:>14.6g} {unit}")
    if trace:
        for metric, unit in LAYER_METRICS:
            print(f"{name:>16} {metric:<42} {details['layers'][metric]:>14.6g} {unit}")
    for argv, msg, known in failures[:10]:
        label = "known defect" if known else "FAILED"
        print(f"# {label}: {' '.join(argv)}: {msg}")
    print(f"# correct={correct} attempted={len(records)} failed={failed}")
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"context": context, "result": result,
                   "latencies_ms": [r["lat_ms"] for r in records],
                   "failures": failures}, fh, indent=1)
    print(json.dumps({"context": context}))
    return result


def combined(results: dict[str, dict]) -> dict:
    """One result line for several workloads; metric names get the workload as prefix."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {HARD_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="threshold, sharp_scan, surface_response, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="answer time to measure (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small pass per run, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qtremble", "cli.py")):
        print(f"error: no qtremble sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, _timeout)
    results = {}
    for name in names:
        signal.alarm(HARD_LIMIT_S)
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.tiny)
        finally:
            signal.alarm(0)
    print(json.dumps(results[names[0]] if len(names) == 1 else combined(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
