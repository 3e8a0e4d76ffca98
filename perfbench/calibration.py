"""Host-speed calibration for the benchmark's time metrics.

On a shared host the same call can take twice as long from one ten-second
window to the next, because of load the benchmark does not control.  So
the benchmark runs a fixed piece of calibration work, independent of
opentropy, right after every call and reports each call's time scaled by
``NOMINAL_MS / (calibration time read around that call)``: the time the
call would have taken on a host where the calibration work takes
``NOMINAL_MS``.  The raw wall-clock figures are printed beside them.

The work is written apart from opentropy but is made of the same kinds of
steps as its calls: small frozen dataclasses, norms and reductions,
``eigh``, sorting, per-column loops, matmuls and column rotations on small
arrays.  A tight arithmetic loop tracked the host's slow periods about
half as well.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

# typical calibration time on the host the benchmark was
# defined on (a 2-vCPU VM, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31)
NOMINAL_MS = 1.3
# after a call, calibration runs for about this share of the call's time
# (at least once), so long calls get a precise reading of the host speed
SHARE = 0.01
# a call is scaled by the mean of this many readings centred on it
WINDOW = 11

_MATS = [(lambda g: (g + g.T) / 2.0)(
    np.random.default_rng(i).standard_normal((6, 6))) for i in range(16)]


@dataclasses.dataclass(frozen=True)
class _Box:
    data: np.ndarray


def sample() -> float:
    """Run the calibration work once; return its wall time in ms."""
    start = time.perf_counter()
    acc = 0.0
    for m in _MATS:
        x = _Box(np.array(m, dtype=np.float64, order="C"))
        scale = max(1.0, float(np.linalg.norm(x.data)))
        asym = float(np.max(np.abs(x.data - x.data.conj().T)))
        w, v = np.linalg.eigh(x.data)
        order = np.argsort(w, kind="stable")
        v = np.ascontiguousarray(v[:, order])
        for col in range(v.shape[1]):
            lead = int(np.argmax(np.abs(v[:, col])))
            v[:, col] = v[:, col] * np.sign(v[lead, col])
        r = (v * w[order]) @ v.conj().T
        for p in range(5):
            rotated = 0.8 * r[:, p] - 0.6 * r[:, p + 1]
            r[:, p] = rotated
        acc += float(r[0, 0]) + scale + asym
    return (time.perf_counter() - start) * 1e3


def _trimmed_mean(values) -> float:
    """Mean without the top and bottom tenth: the host switches between fast
    and slow states, which a median would pick between instead of mixing,
    while a stalled sample would drag a plain mean."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def samples_for(call_ms: float) -> int:
    """How many samples to read after a call of ``call_ms``."""
    return max(1, int(call_ms * SHARE / NOMINAL_MS))


def reading(count: int) -> float:
    """Calibration time (ms) over ``count`` samples."""
    return _trimmed_mean([sample() for _ in range(count)])


def run_factor(readings: list[float]) -> float:
    """One scale factor for a whole run, from all its readings."""
    return NOMINAL_MS / _trimmed_mean(readings)


def factors(readings: list[float]) -> list[float]:
    """Per-call scale factors from the readings taken after each call."""
    half = WINDOW // 2
    return [NOMINAL_MS / _trimmed_mean(readings[max(0, i - half):i + half + 1])
            for i in range(len(readings))]
