"""Span collector that times qtremble's public functions from outside.

``Tracer.active()`` replaces every public function of the package modules
(the layers) with a timing wrapper, in every module that holds a reference to
it: ``thp`` binds ``payoff_kernels`` and ``kernel_payoff`` from
``integration``, ``cli`` binds ``thp_scan`` and ``threshold_search`` from
``thp``, and so on.  Leaving the context restores the originals, so untraced
runs execute the unmodified program.

Spans are kept in memory as (name, start, end, parent, answer, extra), one
list per batch (``new_batch``), and written out by ``dump``.
``layer_metrics`` derives the per-layer numbers; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "thp", "integration", "distributions", "quantum", "games")
PACKAGE = "qtremble"


def _gate_count(shape) -> int:
    return math.prod(shape[:-2]) if len(shape) >= 2 else 0


def _kernel_payoff_extra(args, kwargs, result):
    shape = np.shape(kwargs["gates"] if "gates" in kwargs else args[1])
    return {"gates": _gate_count(shape), "single": len(shape) == 2}


def _su2_angles_extra(args, kwargs, result):
    return {"gates": _gate_count(result.shape)}


def _tremble_nodes_extra(args, kwargs, result):
    angles, weights = result
    nodes = len(weights)
    # Node angles and weights as returned, plus the (nodes, 2, 2) complex gate
    # array side_tensor builds from them.
    return {"nodes": nodes, "bytes": angles.nbytes + weights.nbytes + nodes * 4 * 16}


EXTRAS = {
    "integration.kernel_payoff": _kernel_payoff_extra,
    "quantum.su2_angles": _su2_angles_extra,
    "integration.tremble_nodes": _tremble_nodes_extra,
}

# Per-layer metric names, all printed in the traced run.
METRICS = (
    ("cli.self_ms", "ms"), ("cli.bytes_out", "bytes"),
    ("games.payoff_surface.ms", "ms"), ("games.self_ms", "ms"),
    ("thp.verdicts", "count"), ("thp.verdicts_per_answer", "count"),
    ("thp.self_ms", "ms"), ("thp.search_gates", "count"), ("thp.refine_evals", "count"),
    ("integration.side_tensor.ms", "ms"), ("integration.side_tensor.calls", "count"),
    ("integration.nodes", "count"), ("integration.nodes_max", "count"),
    ("integration.mesh_mb_computed", "MB"),
    ("integration.payoff_kernels.self_ms", "ms"),
    ("integration.kernel_payoff.ms", "ms"), ("integration.kernel_payoff.calls", "count"),
    ("integration.self_ms", "ms"),
    ("distributions.torus_density_angles.ms", "ms"),
    ("distributions.torus_density_angles.calls", "count"),
    ("distributions.self_ms", "ms"),
    ("quantum.su2_angles.ms", "ms"), ("quantum.su2_angles.calls", "count"),
    ("quantum.su2_angles.gates", "count"), ("quantum.su2.calls", "count"),
    ("quantum.gate_distances.ms", "ms"), ("quantum.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Collects spans while active; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.batches: list[list[list]] = []
        self.answer = None
        self._stack: list[int] = []
        self._modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]

    def _wrap(self, name: str, fn):
        spans, stack, extra_of = self.spans, self._stack, EXTRAS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.answer, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra_of is not None:
                span[5] = extra_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _public_functions(self):
        for module in self._modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    yield f"{layer}.{attr}", value

    def new_batch(self) -> None:
        """Send the spans of the following activations to a fresh ``self.spans`` list."""
        self.spans = []
        self.batches.append(self.spans)

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers in every module binding each function; restore on exit."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._public_functions()}
        namespaces = self._modules + [importlib.import_module(PACKAGE)]
        patched = []
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def dump(self, path: str) -> None:
        """Write all spans as tab-separated lines; index and parent count within a batch."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("answer\tindex\tparent\tname\tstart_ns\tend_ns\textra\n")
            for spans in self.batches:
                for index, (name, start, end, parent, answer, extra) in enumerate(spans):
                    fh.write(f"{answer}\t{index}\t{parent}\t{name}\t{start}\t{end}"
                             f"\t{extra or ''}\n")


def layer_metrics(spans: list[list], answers: int, bytes_out: int) -> dict[str, float]:
    """Per-layer totals over ``spans`` (all of one batch of ``answers`` answers).

    Parent indices must refer to positions inside ``spans``.
    """
    duration = [s[2] - s[1] for s in spans]
    child_ns = [0] * len(spans)
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            child_ns[s[3]] += d
    self_ms = defaultdict(float)
    total_ms = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        name, parent = s[0], s[3]
        self_ms[name.split(".", 1)[0]] += (duration[i] - child_ns[i]) / 1e6
        calls[name] += 1
        # Inclusive time counts only the outermost call of a recursive function.
        if parent < 0 or spans[parent][0] != name:
            total_ms[name] += duration[i] / 1e6

    def parent_layer(s):
        return spans[s[3]][0].split(".", 1)[0] if s[3] >= 0 else ""

    kernel_calls = [s for s in spans if s[0] == "integration.kernel_payoff"]
    from_thp = [s for s in kernel_calls if parent_layer(s) == "thp"]
    node_calls = [s[5] for s in spans if s[0] == "integration.tremble_nodes"]
    verdicts = sum(1 for s in spans
                   if s[0] == "integration.payoff_kernels" and parent_layer(s) == "thp")
    payoff_kernels_self = sum(
        (duration[i] - child_ns[i]) / 1e6
        for i, s in enumerate(spans) if s[0] == "integration.payoff_kernels")
    return {
        "cli.self_ms": self_ms["cli"],
        "cli.bytes_out": bytes_out,
        "games.payoff_surface.ms": total_ms["games.payoff_surface"],
        "games.self_ms": self_ms["games"],
        "thp.verdicts": verdicts,
        "thp.verdicts_per_answer": verdicts / answers,
        "thp.self_ms": self_ms["thp"],
        "thp.search_gates": sum(s[5]["gates"] for s in from_thp if not s[5]["single"]),
        "thp.refine_evals": sum(1 for s in from_thp if s[5]["single"]),
        "integration.side_tensor.ms": total_ms["integration.side_tensor"],
        "integration.side_tensor.calls": calls["integration.side_tensor"],
        "integration.nodes": sum(e["nodes"] for e in node_calls),
        "integration.nodes_max": max((e["nodes"] for e in node_calls), default=0),
        "integration.mesh_mb_computed": max((e["bytes"] for e in node_calls), default=0) / 1e6,
        "integration.payoff_kernels.self_ms": payoff_kernels_self,
        "integration.kernel_payoff.ms": total_ms["integration.kernel_payoff"],
        "integration.kernel_payoff.calls": calls["integration.kernel_payoff"],
        "integration.self_ms": self_ms["integration"],
        "distributions.torus_density_angles.ms": total_ms["distributions.torus_density_angles"],
        "distributions.torus_density_angles.calls": calls["distributions.torus_density_angles"],
        "distributions.self_ms": self_ms["distributions"],
        "quantum.su2_angles.ms": total_ms["quantum.su2_angles"],
        "quantum.su2_angles.calls": calls["quantum.su2_angles"],
        "quantum.su2_angles.gates": sum(s[5]["gates"] for s in spans
                                        if s[0] == "quantum.su2_angles"),
        "quantum.su2.calls": calls["quantum.su2"],
        "quantum.gate_distances.ms": total_ms["quantum.gate_distances"],
        "quantum.self_ms": self_ms["quantum"],
    }
