"""A fixed calibration loop, timed during the passes to read the machine's speed.

The benchmark runs on a share of a host whose speed drifts by up to a
factor of two within seconds to minutes, and no run is long enough to
average that out.  The loop below is fixed work that does not call rvmix,
so no change to the program can change its time.  Timed in the same
process as a pass, in short chunks spread over the pass, it reads the
speed the pass ran at; ``pass_cal`` (a pass's wall time divided by one
repetition's time) cancels the drift.

A timer interrupts a pass after every ``every`` seconds of its own work and
runs the loop for ``chunk`` seconds in the signal handler.  ``clock()``
leaves that time out, so the pass and its operations are timed as if the
loop had not run.  This needs a pass whose work all runs in the main
thread: a loop run beside a pool of threads would compete with it.

One repetition mixes the kinds of work the workloads do, about half of
its time each: scalar Python (the root search and the per-element loops),
numpy calls on short arrays and small Cholesky solves; and batched
matrix products and solves shaped like the lasso MM step.  Over ten
classical-grid runs, the first half alone cut the spread of the pass
time from 0.11 to 0.06, the second alone to 0.04, and both to 0.025
(on the 2-vCPU machine described in README.md).
"""

import contextlib
import math
import signal
import time

import numpy as np

_spent = 0.0  # seconds spent in the calibration loop so far


def clock():
    """``time.perf_counter()`` without the time spent in the calibration loop."""
    return time.perf_counter() - _spent


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20160125)
        a = rng.standard_normal((96, 96))
        self.spd = a @ a.T + 96.0 * np.eye(96)
        self.rhs = rng.standard_normal((96, 8))
        self.vec = rng.standard_normal(64)
        # shaped like a batch of lasso MM steps: (T, N, S) @ (S, N), then (T, N, N) solves
        self.kd = rng.standard_normal((16, 31, 200))
        self.kt = rng.standard_normal((200, 31))
        m = rng.standard_normal((16, 31, 31))
        self.m = m @ np.transpose(m, (0, 2, 1)) + 31.0 * np.eye(31)
        self.chunks = []  # (elapsed, reps) of every chunk, in order
        self.rep()  # first touch of the arrays and of the code paths

    def rep(self):
        x, s = 0.5, 0.0
        for i in range(6000):
            x = math.exp(-x) + 1e-3 * math.log1p(i)
            s += x if x > 0.5 else -x
        y = self.vec
        for _ in range(250):
            y = np.tanh(0.9 * y + 0.1) * np.sqrt(np.abs(y) + 1.0)
        for _ in range(6):
            c = np.linalg.cholesky(self.spd)
            np.linalg.solve(c, self.rhs)
        for _ in range(8):
            mm = self.kd @ self.kt
            np.linalg.solve(self.m, mm[:, :, :1])
            s += float((self.kd / 1.5).sum())
        return s + float(y[0])

    def measure(self, seconds):
        """Repeat the loop for at least ``seconds`` as one chunk."""
        global _spent
        t0 = time.perf_counter()
        reps, elapsed = 0, 0.0
        while reps == 0 or elapsed < seconds:
            self.rep()
            reps += 1
            elapsed = time.perf_counter() - t0
        _spent += elapsed
        self.chunks.append((elapsed, reps))

    @contextlib.contextmanager
    def interleaved(self, every, chunk):
        """Run a chunk after every ``every`` seconds of other work."""
        def on_alarm(signum, frame):
            self.measure(chunk)
            signal.setitimer(signal.ITIMER_REAL, every)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def rep_seconds(self, first):
        """One repetition's time over the chunks from index ``first`` on."""
        elapsed = sum(c[0] for c in self.chunks[first:])
        return elapsed / sum(c[1] for c in self.chunks[first:])
