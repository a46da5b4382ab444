"""How fast the host runs, sampled inside the processes under test.

Shared hosts change speed while a benchmark runs.  On the 2-core VM this
benchmark was tuned on, the same rep took up to 1.6x longer in a slow state
that lasts from seconds to minutes, with CPU time equal to wall time and
almost no steal, so a neighbour shares the core or its caches.  All reps of a
run can fall into one state, so a median over reps does not remove it.

A :class:`Probe` times a fixed interpreted spin every ``INTERVAL_S`` from a
``SIGALRM`` handler in the process under test, so every sample runs on the
same CPU, in the same state, as the work around it.  A time is then reported
at probe speed: multiplied by ``NOMINAL_S`` over the median spin time sampled
while it ran (:func:`scale`).  The spin uses no code of the program, so no
change to the program moves it; it costs about 1% of the process's time.

When ``PERFBENCH_PROBE_DIR`` is set, :func:`start_from_env` starts a probe in
every process that imports the benchmark's child module, spawned pool
workers included, and each process appends its samples to its own file in
that directory every ``FLUSH_EVERY`` samples (pool workers are terminated
without exit hooks, so at most their last few samples are lost).
"""
from __future__ import annotations

import os
import signal
import statistics
import time
from typing import List, Optional, Sequence, Tuple

PROBE_DIR_ENV = "PERFBENCH_PROBE_DIR"

#: Seconds between samples.
INTERVAL_S = 0.02
#: Nominal spin time, seconds: roughly one spin on the 2-core host the
#: benchmark was tuned on.
NOMINAL_S = 200e-6
FLUSH_EVERY = 10
_SPIN = 2000

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


def scale(value: float, spin_s: float) -> float:
    """A time measured while a spin took ``spin_s``, at probe speed."""
    return value * NOMINAL_S / spin_s


def median_between(samples: Sequence[Sequence[float]], start: float, end: float) -> float:
    """Median spin time of the ``(time, spin seconds)`` samples taken in ``[start, end]``."""
    inside = [spin for at, spin in samples if start <= at <= end]
    if not inside:
        raise ValueError(f"no probe sample between {start:.3f} and {end:.3f}")
    return statistics.median(inside)


class Probe:
    """The sampler of one process, appending ``time spin`` lines to ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.pending: List[Tuple[float, float]] = []

    def _sample(self, *_) -> None:
        t0 = _clock()
        total = 0
        for i in range(_SPIN):
            total += i * i % 7
        self.pending.append((t0, _clock() - t0))
        if len(self.pending) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        lines = "".join(f"{at!r} {spin!r}\n" for at, spin in self.pending)
        self.pending = []
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(lines)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.flush()


def start_from_env() -> Optional[Probe]:
    directory = os.environ.get(PROBE_DIR_ENV)
    if not directory:
        return None
    probe = Probe(os.path.join(directory, f"{os.getpid()}.txt"))
    probe.start()
    return probe


def load_samples(directory: str) -> List[Tuple[float, float]]:
    """Every process's samples in ``directory``, in time order."""
    samples = []
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            for line in handle:
                if line.endswith("\n"):  # not cut short by a terminated worker
                    at, spin = line.split()
                    samples.append((float(at), float(spin)))
    return sorted(samples)
