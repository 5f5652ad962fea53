"""Machine-speed probe: rescales measured times to a reference machine speed.

On a small shared machine the speed available to one process drifts by 20-50%
in phases that last from seconds to minutes, and no statistic taken within a
single run removes that.  The probe is a fixed job that does not use qtremble:
a 50k-gate channel contraction in numpy (memory traffic, as in the mesh
layers) plus a pure-Python loop (interpreter work, as in formatting and
refinement).  It runs in the client process between answers, about once a
second and always before and after a batch, outside every answer's timing.
It allocates no large arrays, so the heap the answers see stays the same.
An answer time t is reported as ``t * PROBE_REF_MS / p``, where p is the
mean of the probes just before and just after the answer: the time the
answer would take on a machine where the probe takes ``PROBE_REF_MS``.  Raw
values are kept in each result's context.
"""

from __future__ import annotations

import time

import numpy as np

# Reference probe time, within the 15-26 ms the probe takes on a 2-vCPU
# Intel Xeon VM with numpy 2.4 and Python 3.11.  Fixed: changing it rescales
# every recorded time.
PROBE_REF_MS = 20.0
_REPEATS = 3
_rng = np.random.default_rng(20070705)
_GATES = _rng.standard_normal((50_000, 2, 2)) + 1j * _rng.standard_normal((50_000, 2, 2))
_GATES_CONJ = _GATES.conj()
_WEIGHTS = _rng.random(50_000)
_OUT = np.empty((2, 2, 2, 2), dtype=complex)


def probe_ms() -> float:
    """Milliseconds of the probe job: the best of three runs of each part."""
    contraction, loop = [], []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        np.einsum("n,nai,nck->acik", _WEIGHTS, _GATES, _GATES_CONJ, out=_OUT)
        t1 = time.perf_counter()
        sum(i * i for i in range(60_000))
        t2 = time.perf_counter()
        contraction.append(t1 - t0)
        loop.append(t2 - t1)
    return (min(contraction) + min(loop)) * 1e3
