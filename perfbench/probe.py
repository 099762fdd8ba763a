"""Machine-speed probe: times in seconds at a fixed reference speed.

The CPU speed this benchmark gets drifts by a factor of two over
seconds on a shared host, in process time as much as in wall time, so
a raw pass time measures the neighbours as much as multikd. The probe
runs a fixed reference loop, written here and sharing no code with
multikd, every SAMPLE_EVERY_S from a timer signal while the program
runs. The program's time between two samples (without the probe's own
loops) is scaled by REFERENCE_S / (the reference loop's local
duration). So a span of program time reads as the seconds it would take
at the speed the reference machine gave the reference loop: a faster
program still reads faster, a momentarily slower machine does not.

The local duration is the mean of SMOOTH_SAMPLES consecutive samples.
Sampling every 0.1 s tracked the drift better than every 0.2 or 0.4 s
(FINDINGS.md); the loop costs about 2 % of the program's time.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.1
SMOOTH_SAMPLES = 3
# About the median duration of reference_loop() on the reference machine (see
# FINDINGS.md); it only sets the scale of the figures.
REFERENCE_S = 0.0022

_rng = np.random.default_rng(20230818)
_A = _rng.normal(size=(4, 64))
_B = _rng.normal(size=(64, 8))
_TEXT = " ".join(repr(float(x)) for x in _rng.normal(size=64))


def _softmax_row_sums(z: np.ndarray) -> float:
    z = np.exp(z - z.max(axis=1, keepdims=True))
    return float((z / z.sum(axis=1, keepdims=True)).sum())


def reference_loop() -> float:
    """A fixed mix of what multikd spends its time on: small-batch numpy
    arithmetic behind Python calls, and parsing floats from text."""
    total = 0.0
    for _ in range(40):
        total += _softmax_row_sums(_A @ _B)
        total += float(np.array(_TEXT.split(), dtype=float).sum())
    return total


class SpeedProbe:
    """Samples the reference loop while installed and converts spans of
    perf_counter time into seconds at the reference speed."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True  # a timer signal meanwhile must not nest a sample
        started = time.perf_counter()
        reference_loop()
        self.starts.append(started)
        self.ends.append(time.perf_counter())
        self._sampling = False

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @contextlib.contextmanager
    def paused(self):
        """No samples meanwhile, so that a child process has the cores to itself."""
        self.sample()
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
            self.sample()

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def _pieces(self):
        """(from, to, local reference duration) for the program time between samples."""
        d, half = self.durations(), SMOOTH_SAMPLES // 2
        local = [statistics.fmean(d[max(0, i - half): i + half + 1]) for i in range(len(d))]
        yield -math.inf, self.starts[0], local[0]
        for i in range(len(d) - 1):
            yield self.ends[i], self.starts[i + 1], (local[i] + local[i + 1]) / 2
        yield self.ends[-1], math.inf, local[-1]

    def raw_seconds(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1], without the probe's own loops."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b, _ in self._pieces())

    def seconds(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1] at the reference speed."""
        return sum(
            max(0.0, min(b, t1) - max(a, t0)) * REFERENCE_S / local
            for a, b, local in self._pieces()
        )
