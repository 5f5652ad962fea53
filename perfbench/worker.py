"""The benchmark's closed-loop client: one process that runs answers in-process.

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and BLAS threads capped,
then drives it with one JSON request per line on stdin; each reply is one
JSON line on stdout.

    {"op": "batch", "answers": [[id, argv, traced], ...]}
        -> {"lat_ms": [...], "rc": [...], "bytes": [...],
            "probes": [[answers done before it, ms], ...], "layers": {...}}
    {"op": "quit", "trace_file": path or null}
        -> {"rss_mb": peak resident memory of this process}

Answers run back to back through ``qtremble.cli.main``; the next starts only
when the previous returned.  Traced answers run with the tracer installed and
``layers`` sums their spans.  The machine-speed probe (``probe.py``) runs
before the batch, after it, and between answers once ``PROBE_EVERY_S`` has
passed; it and the output sizes are outside every answer's timing.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

import tracing
from probe import probe_ms

PROBE_EVERY_S = 1.0


def _answer(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed answer, not a failed benchmark
        traceback.print_exc()
        return -1


def _batch(cli, tracer: tracing.Tracer, answers: list) -> dict:
    lat_ms, codes = [], []
    tracer.new_batch()
    clock = time.perf_counter
    probes = [(0, probe_ms())]
    last_probe = clock()
    for done, (answer_id, argv, traced) in enumerate(answers, start=1):
        tracer.answer = answer_id
        with tracer.active() if traced else contextlib.nullcontext():
            t0 = clock()
            codes.append(_answer(cli, argv))
            lat_ms.append((clock() - t0) * 1e3)
        if clock() - last_probe >= PROBE_EVERY_S or done == len(answers):
            probes.append((done, probe_ms()))
            last_probe = clock()
    sizes = [os.path.getsize(argv[-1]) if os.path.exists(argv[-1]) else 0
             for _, argv, _ in answers]
    reply = {"lat_ms": lat_ms, "rc": codes, "bytes": sizes, "probes": probes}
    traced = [i for i, answer in enumerate(answers) if answer[2]]
    if traced:
        reply["layers"] = tracing.layer_metrics(
            tracer.spans, len(traced), sum(sizes[i] for i in traced))
    return reply


def main() -> None:
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr  # nothing the program prints may reach the reply stream
    from qtremble import cli

    tracer = tracing.Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "quit":
            if request.get("trace_file"):
                tracer.dump(request["trace_file"])
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply = {"rss_mb": rss_kib * 1024 / 1e6}
        else:
            reply = _batch(cli, tracer, request["answers"])
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if request["op"] == "quit":
            break


if __name__ == "__main__":
    main()
