"""Machine-speed probes: timings scaled to a reference speed.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent within a second (other tenants' load), and that drift moves
every timing of the same code far more than the bounds allow. A probe times
a fixed computation that uses no varipade code, between the benchmark's
units of work and inside them. A unit's time is reported scaled by
REFERENCE_S / (mean probe time before, during and after it): the seconds it
would take on a host where the probe takes REFERENCE_S. A change to
varipade moves the scaled times as it moves the raw ones; a slower host
moves the probe with them. Raw times are printed beside the scaled ones.

Other tenants slow some kinds of work more than others, so each workload is
probed with the kind of work it does itself: `small_arrays` (numpy calls on
a 1000-point grid) for matrix-analytic, `stream` (a fresh pass over an array
the size of an MLP jet's gradient) for matrix-mlp, and `python_loop`
(interpreted bytecode; parsing and per-solve set-up dominate there) for
solve-requests. Over six runs of each workload, each probed by all of them,
the quartile spread of the scaled round time over its median was

                     raw   small_arrays  stream  python_loop
    matrix-analytic  0.17  0.008         0.06    0.03
    solve-requests   0.20  0.09          0.19    0.05

and for short MLP solves, over 200 s in 20-solve windows, 0.18 raw, 0.03
with `stream` and 0.11 with a probe like `small_arrays`.

A probe should not depend on what the program did just before it. Over a
minute of probes each following no work, a short Pade solve or a short MLP
solve (at random), the median probe times were

                    none     Pade     MLP
    small_arrays    2.12 ms  2.10 ms  2.13 ms
    python_loop     2.24     2.25     2.26
    stream          1.98     2.14     2.03

so a change to the program's memory traffic can move matrix-mlp's scaled
times by a few percent that its raw times do not show; compare both.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# probe time, in seconds, that scaled timings are expressed against; each
# probe takes about this long during the workloads on a 2-vCPU Intel Xeon VM
REFERENCE_S = 0.002
# seconds between probes inside a unit of work
SAMPLE_EVERY = 0.05

_A = np.linspace(0.0, 1.0, 51 * 16 * 1000)  # the size of an MLP-[[16]] jet gradient
_X = np.linspace(-1.0, 1.0, 1000)
_W = np.linspace(0.5, 1.5, 64).reshape(8, 8)


def stream():
    """Allocate and fill a 6.5 MB array: page faults and memory bandwidth."""
    return float((_A * 0.5 + 1.0)[-1])


def small_arrays():
    """Element-wise maths, an einsum and a matrix product on a 1000-point grid."""
    acc = 0.0
    w = _W
    for i in range(30):
        y = np.sin(_X * (1.0 + 1e-3 * i)) * _X + np.exp(-_X * _X)
        h = np.tanh(np.outer(_X[:125], w[0]))
        z = np.einsum("nh,hk->nk", h, w) @ w[:, 0]
        acc += float(y.sum()) + float(z[-1])
        w = w * 0.999
    return acc


def python_loop():
    """Integer arithmetic and dict stores in interpreted bytecode."""
    table = {}
    total = 0
    for i in range(12000):
        total += (i * 7) % 13
        table[i & 255] = total
    return total


class Meter:
    """Times units of work between runs of `kernel` and scales them to REFERENCE_S.

    With `sample_every` set, the kernel also runs inside each unit, from a
    SIGALRM handler every `sample_every` seconds, because the host's speed
    changes within a unit that lasts longer than a tenth of a second; the
    time those probes take is left out of the unit's raw time. Only for units
    that run on the main thread alone: probes would compete with a thread
    pool for the cores and the GIL, and so time the program as well.
    """

    def __init__(self, kernel, sample_every=None):
        self.kernel = kernel
        self.sample_every = sample_every
        self.probes = []  # (start, raw probe time), seconds
        self.probe()

    def probe(self):
        start = time.perf_counter()
        self.kernel()
        self.probes.append((start, time.perf_counter() - start))

    def time(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) once; returns (result, raw_s, scaled_s)."""
        first = len(self.probes) - 1
        if self.sample_every is not None:
            # left installed afterwards, so a SIGALRM delivered late still
            # only probes; the default action would end the process
            signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            if self.sample_every is not None:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = time.perf_counter()
        inside = sum(d for t, d in self.probes[first + 1:] if t + d <= end)
        raw = end - start - inside
        self.probe()
        samples = [d for _, d in self.probes[first:]]
        return result, raw, raw * REFERENCE_S * len(samples) / sum(samples)
