"""Host calibration: a fixed reference kernel timed around every measured span.

Host speed on small shared VMs drifts by tens of percent over stretches of a
few seconds, and pure-Python and NumPy work drift together.  Raw seconds of
the same code therefore do not repeat within a tenth.  Each timed span is
bracketed by two samples of the reference kernel below, and the span's
calibrated time is

    calibrated = raw * KERNEL_NOMINAL_S / mean(kernel before, kernel after)

i.e. the span's time on a host where the kernel takes exactly
``KERNEL_NOMINAL_S``.  The kernel only ever runs between calls into the
program, never while program code is running.  Every record keeps the raw
seconds and both kernel samples, so each calibrated number can be audited.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: Fixed nominal duration of one reference-kernel sample.  Calibrated
#: numbers are seconds on a host where a sample takes exactly this long.
KERNEL_NOMINAL_S = 0.006

#: A kernel sample that ended less than this long before a span starts is
#: reused as that span's "before" sample (adjacent spans share one kernel).
_REUSE_WINDOW_S = 0.002

_RUNS_PER_SAMPLE = 2
_PY_LOOP_ITERATIONS = 30_000
_MATMUL_REPEATS = 8


class Calibrator:
    """Times program calls between two reference-kernel samples.

    ``timed(phase, fn, ...)`` runs ``fn`` and appends one record to
    :attr:`records`; every kernel run is appended to :attr:`kernel_samples`.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20250101)
        self._a = rng.standard_normal((128, 128))
        self._b = rng.standard_normal((128, 128))
        self._keys = rng.standard_normal(200_000)
        self.kernel_samples: List[float] = []
        self.records: List[Dict[str, Any]] = []
        self._last_sample = 0.0
        self._last_end = -1.0
        self.origin = time.perf_counter()

    def _kernel_body(self) -> int:
        acc = 0
        for i in range(_PY_LOOP_ITERATIONS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        product = self._a
        for _ in range(_MATMUL_REPEATS):
            product = self._a @ self._b
        ordered = np.sort(self._keys)
        return acc + int(product[0, 0] > ordered[0])

    def kernel(self) -> float:
        """Take one kernel sample: the faster of two back-to-back runs.

        A single run is sometimes preempted and reads 2-5x its neighbours;
        the faster of two rejects such one-off stalls, while a host that is
        slow for longer slows both runs and still shows.
        """
        seconds = float("inf")
        for _ in range(_RUNS_PER_SAMPLE):
            started = time.perf_counter()
            self._kernel_body()
            ended = time.perf_counter()
            seconds = min(seconds, ended - started)
        self.kernel_samples.append(seconds)
        self._last_sample = seconds
        self._last_end = ended
        return seconds

    def _before(self) -> float:
        if time.perf_counter() - self._last_end <= _REUSE_WINDOW_S:
            return self._last_sample
        return self.kernel()

    def timed(
        self, phase: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Tuple[Any, Dict[str, Any]]:
        """Call ``fn(*args, **kwargs)`` between two kernel samples.

        Returns ``(result, record)``; the record holds the phase, start
        offset, raw seconds, both kernel samples and the calibration factor.
        """
        before = self._before()
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - started
        after = self.kernel()
        factor = KERNEL_NOMINAL_S / (0.5 * (before + after))
        record = {
            "phase": phase,
            "start_s": started - self.origin,
            "end_s": started + raw - self.origin,
            "raw_s": raw,
            "kernel_before_s": before,
            "kernel_after_s": after,
            "factor": factor,
            "calibrated_s": raw * factor,
        }
        self.records.append(record)
        return result, record
