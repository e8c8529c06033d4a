"""Shared timing and memory capture for the benchmark harness.

Every suite measures through the same :class:`Timer` so artifacts are
comparable across suites and across runs: wall-clock via
``time.perf_counter`` (monotonic, highest available resolution) and memory
via the peak RSS (``VmHWM`` from ``/proc/self/status``, else
``resource.getrusage`` — stdlib, no external profiler).  On Linux the
high-water mark is reset before each suite (:func:`reset_peak_rss`), so a
suite's peak is its own, not that of the largest suite before it.  The
harness runs each suite ``repeats`` times and reports the *minimum*
wall-clock alongside mean±std: the minimum is the least noisy
estimator of the true cost on a time-shared machine (every perturbation —
scheduler preemption, cache eviction, GC — only ever adds time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover - Windows fallback
    resource = None  # type: ignore[assignment]

__all__ = ["Timer", "Measurement", "peak_rss_bytes", "reset_peak_rss"]

_CLEAR_REFS = "/proc/self/clear_refs"
_STATUS = "/proc/self/status"


def reset_peak_rss() -> bool:
    """Reset this process's RSS high-water mark to its current RSS.

    Writes ``5`` to ``/proc/self/clear_refs`` (Linux >= 4.0), which resets
    ``VmHWM``.  Returns ``False`` where that is unavailable; the peak then
    stays process-scoped (it includes everything allocated before).
    """
    try:
        with open(_CLEAR_REFS, "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _vm_hwm_bytes() -> Optional[int]:
    try:
        with open(_STATUS) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def peak_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process in bytes (``None`` if unknown).

    Reads ``VmHWM`` (which :func:`reset_peak_rss` resets) where ``/proc`` is
    available, else ``ru_maxrss``, which is kilobytes on Linux and bytes on
    macOS and never resets.
    """
    hwm = _vm_hwm_bytes()
    if hwm is not None:
        return hwm
    if resource is None:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS only
        return int(usage)
    return int(usage) * 1024


@dataclass
class Measurement:
    """Repeated wall-clock samples of one operation, plus the RSS high-water mark.

    ``rss_scope`` is ``"suite"`` when the high-water mark was reset before
    the measured suite, else ``"process"``.
    """

    wall_seconds: List[float] = field(default_factory=list)
    rss_peak_bytes: Optional[int] = None
    rss_scope: str = "process"

    @property
    def best_seconds(self) -> float:
        """The minimum sample — the canonical number artifacts compare on."""
        if not self.wall_seconds:
            raise ValueError("no samples recorded")
        return min(self.wall_seconds)

    @property
    def mean_seconds(self) -> float:
        if not self.wall_seconds:
            raise ValueError("no samples recorded")
        return sum(self.wall_seconds) / len(self.wall_seconds)

    @property
    def std_seconds(self) -> float:
        """Population standard deviation (the samples *are* the set summarised)."""
        if not self.wall_seconds:
            raise ValueError("no samples recorded")
        mean = self.mean_seconds
        return (
            sum((s - mean) ** 2 for s in self.wall_seconds) / len(self.wall_seconds)
        ) ** 0.5


class Timer:
    """Context-manager stopwatch feeding a :class:`Measurement`.

    >>> measurement = Measurement()
    >>> with Timer(measurement):
    ...     do_work()
    >>> measurement.best_seconds

    Each ``with`` block appends one wall-clock sample and refreshes the
    measurement's RSS high-water mark.  ``Timer()`` without a measurement
    works as a bare stopwatch (read ``timer.elapsed`` after the block).
    """

    def __init__(self, measurement: Optional[Measurement] = None) -> None:
        self.measurement = measurement
        self.elapsed: float = 0.0
        self._started: float = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._started
        if self.measurement is not None:
            self.measurement.wall_seconds.append(self.elapsed)
            self.measurement.rss_peak_bytes = peak_rss_bytes()
