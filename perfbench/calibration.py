"""Rescaling measured seconds to a reference machine speed.

On a shared machine the CPU speed seen by one process drifts by up to 2x
between runs and over tens of seconds (CPU time tracks wall time, so this
is not preemption).  A fixed calibration kernel is run before the first
measurement of a phase of a run and after each one; the phase's
measurements are rescaled by REFERENCE_S over the mean kernel time of the
phase, which cancels most of that drift.  On a shared 2-core x86_64 VM one
kernel time varies more than a long pass does (log sd ~0.1 against ~0.06
for a 9 s pass), so averaging the whole phase's kernel times is steadier
than rescaling each pass by the two kernel times next to it.  The kernel
mixes the kinds of work the workloads do -- interpreter-bound Python, many
small matrix products, and mid-size array work (einsum over stacked 3x3
matrices, FFTs) -- on small arrays, so it does not raise peak memory.  It
never calls the program, so only a change to this file changes it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "ReferenceClock", "calibrate"]

# kernel seconds at the reference speed (its median on a 2-core x86_64 VM)
REFERENCE_S = 0.14

_rng = np.random.default_rng(0)
_G = _rng.standard_normal((3, 3))
_MATS = _rng.standard_normal((8000, 3, 3))
_SMALL = _rng.standard_normal((18, 18))
_SIGNAL = _rng.standard_normal(8192) + 0j


def calibrate() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    acc = 0
    for i in range(160000):
        d = {"a": i, "b": (i, i + 1)}
        acc += d["b"][1] - d["a"]
    v = _SMALL
    for _ in range(8000):
        v = np.tanh(_SMALL @ v * 0.1)
    for _ in range(40):
        np.einsum("ab,jbc->jac", _G, _MATS)
        np.fft.ifft(np.fft.fft(_SIGNAL))
    return time.perf_counter() - start


class ReferenceClock:
    """Calibration kernel times taken through one phase of a run."""

    def __init__(self):
        self.samples = [calibrate()]

    def sample(self) -> None:
        """Time the kernel once more; call after each measurement."""
        self.samples.append(calibrate())

    def rescale(self, seconds: float) -> float:
        """Reference seconds for raw seconds measured in this phase."""
        return seconds * REFERENCE_S / statistics.fmean(self.samples)
