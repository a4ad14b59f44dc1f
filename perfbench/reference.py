"""A fixed reference kernel, timed in its own process, that tells how fast
the machine is running at the moment.

On a shared host the same code runs up to ~1.5x slower for stretches of
seconds to minutes while other tenants load it, and a slow stretch can
cover a whole run. A kernel whose code never changes, timed right next to
each measured command, moves with those stretches; the program's time
divided by the kernel's does not. The kernel does the kind of work the
measured commands do: small matrix products through numpy's BLAS (with
its thread count as the environment sets it) and many small numpy calls.

It runs in a fresh child process each time, so nothing the engine does
to its own process (BLAS thread counts, garbage collection, environment
variables) changes the kernel.

    python3 perfbench/reference.py --once    # prints the kernel's seconds
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

MATMULS = 3000
STEPS = 200
TIMEOUT_S = 60.0
ENV = dict(os.environ)  # as seen when the benchmark started


def kernel() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 80))
    b = rng.standard_normal((80, 160))
    h = rng.standard_normal((200, 40))
    w = rng.standard_normal((80, 160))  # keeps h near +-1, clear of subnormals
    t0 = time.perf_counter()
    # Products the size of a training batch's gate GEMM ...
    for _ in range(MATMULS):
        a @ b
    # ... then LSTM-like steps on 200 rows, as in decoding 200 sample
    # paths: small numpy calls whose per-call cost dominates.
    for _ in range(STEPS):
        z = np.concatenate([h, h], axis=1) @ w
        gate = 0.5 + 0.5 * np.tanh(0.5 * z[:, :120])  # the sigmoid, without overflow
        h = np.tanh(z[:, 120:]) * gate[:, :40]
    return time.perf_counter() - t0


def time_once() -> float:
    """Time the kernel once in a fresh process; returns its seconds.

    The process exits after the kernel, so its BLAS threads cannot spin
    on through the next measured command. (A long-lived kernel process
    slowed the train command more than tenfold that way.) The environment
    is the one this process was started with, taken before the engine
    was imported, so nothing the engine sets at import reaches the kernel."""
    proc = subprocess.run([sys.executable, __file__, "--once"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=ENV, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"reference kernel exited with {proc.returncode}: {proc.stderr[-500:]}")
    return float(proc.stdout)


if __name__ == "__main__":
    if sys.argv[1:] != ["--once"]:
        sys.exit(f"usage: {sys.argv[0]} --once")
    print(repr(kernel()))
