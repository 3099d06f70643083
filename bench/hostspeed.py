"""Host-speed sampler, used to take host drift out of the timings.

On a shared host the speed of one CPU changes by tens of percent within a
second, as neighbours come and go, and the two CPUs of a small VM change
independently. So a sampler process runs on the same CPU as the measured
process. Every ``INTERVAL_S`` it times a short fixed kernel by its own CPU
time. The benchmark scales each timed operation by ``nominal / measured``
kernel time over the operation's window, so an operation run in a slow
stretch reads like one run in a typical stretch. The kernels use numpy and
plain Python only, never acamsim, so a change to the program does not move
them.

Each kernel imitates one kind of work the workloads do:

- ``vector``: large-array numpy arithmetic, like the match kernel on a batch;
- ``scalar``: scalar numpy calls, like per-cell lowering;
- ``interp``: plain interpreter loops, like compilation, decode and the CLI.

A busy neighbour slows these kinds of work differently, so every workload
names the mix it resembles.

Run as a script, this module is the sampler:
``hostspeed.py --cpu N --mix scalar,interp``. It prints ``ready``, samples
until its standard input closes, then prints the samples as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import select
import subprocess
import sys
import time

INTERVAL_S = 0.03

# CPU time of each kernel (s) on the host the benchmark was tuned on:
# 2 vCPUs of a shared x86-64 VM, Python 3.11.7, numpy 2.4.6.
NOMINAL_S = {"vector": 0.00095, "scalar": 0.00071, "interp": 0.00067}


def _kernels():
    import numpy as np

    x = np.linspace(0.1, 1.0, 40_000)

    def vector():
        y = np.power(10.0, x) / (x + 1.0)
        return float(np.where(x > 0.5, y, np.exp(-x)).sum())

    def scalar():
        acc = 0.0
        for k in range(50):
            u = np.asarray(0.2 + k * 1e-3, dtype=float) - 0.3
            sub = 1e-6 * np.power(10.0, np.minimum(u, 0.0) / 0.1)
            blend = np.clip(u / 0.01, 0.0, 1.0)
            acc += float(np.where(u <= 0.0, sub, np.where(u >= 0.01, 2e-4 * u, blend)))
        return acc

    def interp():
        s, d = 0, {}
        for i in range(6_000):
            s += i * i % 7
            d[i & 255] = s
        return s

    return {"vector": vector, "scalar": scalar, "interp": interp}


class Timed:
    """Wall-clock window and CPU time of the calling thread over a block."""

    def __enter__(self):
        self.start = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, *exc):
        self.cpu = time.thread_time() - self._cpu0
        self.end = time.perf_counter()


class Sampler:
    """A sampler process on ``cpu``; ``stop`` collects its samples."""

    def __init__(self, mix: tuple[str, ...], cpu: int):
        self.mix = mix
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu),
             "--mix", ",".join(mix)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("host-speed sampler did not start")
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def stop(self):
        out, _ = self.proc.communicate(timeout=60)
        samples = json.loads(out)
        self.times = [t for t, _ in samples]
        self.kernel_s = [k for _, k in samples]

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured kernel time in [start, end]: below 1 when slow.

        Uses the samples taken in the window, or the nearest one when the
        window is shorter than the sampling interval.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi == lo:
            candidates = [j for j in (lo - 1, lo) if 0 <= j < len(self.times)]
            lo = min(candidates, key=lambda j: abs(self.times[j] - start))
            hi = lo + 1
        measured = sum(self.kernel_s[lo:hi]) / (hi - lo)
        return sum(NOMINAL_S[name] for name in self.mix) / measured

    def corrected(self, t: Timed) -> float:
        """CPU time of a timed block, scaled to the nominal host speed."""
        return t.cpu * self.factor(t.start, t.end)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int, required=True)
    ap.add_argument("--mix", required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    kernels = [_kernels()[name] for name in args.mix.split(",")]
    samples = []
    print("ready", flush=True)
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.read():
            break
        c0 = time.thread_time()
        t0 = time.perf_counter()
        for kernel in kernels:
            kernel()
        samples.append(((t0 + time.perf_counter()) / 2, time.thread_time() - c0))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
