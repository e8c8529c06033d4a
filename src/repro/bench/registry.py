"""The benchmark registry: suites as first-class, discoverable objects.

A benchmark suite is a class with a ``setup`` / ``run`` / ``teardown``
lifecycle, registered under a stable ``group/name`` identifier with the
:func:`benchmark` decorator.  The harness (:func:`run_benchmark`) drives the
lifecycle uniformly — optional warm-up call, ``repeats`` timed calls through
the shared :class:`~repro.bench.timer.Timer`, best/mean±std/RSS capture —
and every suite comes out as a :class:`BenchResult` that the artifact layer
(:mod:`repro.bench.artifact`) serialises into schema-versioned
``BENCH_<n>.json`` files.

Speed floors are declared, not asserted inline: a suite carries a
:class:`FloorSpec` naming the metric, the minimum, and the arming
requirements, and :func:`check_floor` routes the decision through the shared
guard (:mod:`repro.bench.guard`) so every floor in the repository uses the
same "full scale + enough CPUs + enough signal" rule.  The pytest wrappers
under ``benchmarks/`` call :func:`assert_floor`; ``repro-bench run`` reports
floor status in the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.bench.guard import FloorDecision, arm_floor, check_memory
from repro.bench.timer import Measurement, Timer, reset_peak_rss

__all__ = [
    "FloorSpec",
    "Benchmark",
    "BenchResult",
    "benchmark",
    "registered_benchmarks",
    "create_benchmark",
    "select_benchmarks",
    "run_benchmark",
    "check_floor",
    "assert_floor",
]


@dataclass(frozen=True)
class FloorSpec:
    """A declared speed floor: ``metrics[metric] >= minimum`` when armed.

    ``min_cpus`` and ``min_baseline_seconds`` parameterise the shared guard;
    whether the run was *full scale* (and what the baseline duration was) is
    suite-specific, so suites report it through
    :meth:`Benchmark.floor_context`.
    """

    metric: str
    minimum: float
    min_cpus: int = 2
    min_baseline_seconds: float = 0.0


class Benchmark:
    """Base class for a registered benchmark suite.

    Subclasses set the class attributes and implement :meth:`run` (the timed
    body, returning a metrics dict); :meth:`setup` / :meth:`teardown` bracket
    the timed calls and are untimed.  ``default_repeats`` / ``default_warmup``
    let expensive suites (a whole orchestrator grid) opt out of repetition.
    """

    #: Stable identifier, ``group/name`` (e.g. ``"gossip/sparse"``).
    name: str = ""
    #: One-line description shown by ``repro-bench list`` and in reports.
    description: str = ""
    #: Declared speed floor, or ``None`` for purely informational suites.
    floor: Optional[FloorSpec] = None
    default_repeats: int = 3
    default_warmup: bool = True

    def params(self) -> Dict[str, object]:
        """The knob values this instance resolved (recorded in the artifact)."""
        return {}

    def required_memory_bytes(self) -> Optional[int]:
        """Steady-state RAM this suite needs, or ``None`` for "no declared need".

        Suites that allocate fleet-scale matrices declare their footprint so
        :func:`run_benchmark` can *skip* (not fail) them on machines too
        small to hold it — the skip and its reason are recorded in the
        artifact.  Sweep-style suites that guard per point internally (see
        the scaling sweep) should return ``None`` here and use
        :func:`~repro.bench.guard.check_memory` themselves.
        """
        return None

    def notes(self) -> Dict[str, str]:
        """Free-form annotations recorded in the artifact after :meth:`run`.

        The scaling sweep uses this for per-point memory skips
        (``"skip@262144" -> "needs 6.0 GiB, ..."``) so a partially-guarded
        sweep documents exactly which points it dropped and why.
        """
        return {}

    def setup(self) -> None:
        """Build inputs; untimed."""

    def run(self) -> Dict[str, float]:
        """The timed body; returns suite metrics (ratios, per-size timings)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release resources; untimed."""

    def floor_context(self, metrics: Dict[str, float]) -> Tuple[bool, Optional[float]]:
        """``(full_scale, baseline_seconds)`` for the shared floor guard.

        Default: full scale (no scale knob), no baseline signal check.
        """
        return True, None


@dataclass
class BenchResult:
    """One suite's outcome: timings, metrics, parameters and floor status."""

    name: str
    description: str
    wall_seconds: List[float]
    best_seconds: float
    mean_seconds: float
    std_seconds: float
    rss_peak_bytes: Optional[int]
    repeats: int
    warmup: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)
    floor: Optional[Dict[str, object]] = None
    skipped: bool = False
    skip_reason: Optional[str] = None
    notes: Dict[str, str] = field(default_factory=dict)
    #: ``"suite"``: the peak RSS was reset before this suite; ``"process"``:
    #: it is the process high-water mark, including earlier suites.
    rss_scope: str = "process"

    @property
    def floored(self) -> bool:
        """Whether this suite declares a speed floor (the regression-gate set)."""
        return self.floor is not None


_REGISTRY: Dict[str, Type[Benchmark]] = {}


def benchmark(cls: Type[Benchmark]) -> Type[Benchmark]:
    """Class decorator: register a suite under its ``name``.

    Names must be unique and non-empty; registration order is irrelevant
    (listings are sorted).
    """
    if not issubclass(cls, Benchmark):
        raise TypeError(f"@benchmark expects a Benchmark subclass, got {cls!r}")
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty 'name'")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"benchmark name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def registered_benchmarks() -> List[str]:
    """All registered suite names, sorted."""
    return sorted(_REGISTRY)


def create_benchmark(name: str) -> Benchmark:
    """Instantiate the suite registered under ``name``."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no benchmark named {name!r}; known: {', '.join(sorted(_REGISTRY)) or '-'}"
        ) from None
    return cls()


def select_benchmarks(filters: Sequence[str] = ()) -> List[str]:
    """Suite names matching any of the substring ``filters`` (all when empty)."""
    names = registered_benchmarks()
    if not filters:
        return names
    return [name for name in names if any(f in name for f in filters)]


def run_benchmark(
    bench: Benchmark,
    repeats: Optional[int] = None,
    warmup: Optional[bool] = None,
) -> BenchResult:
    """Drive one suite's lifecycle and measure it.

    ``setup`` → optional untimed warm-up ``run`` → ``repeats`` timed ``run``
    calls → ``teardown`` (always, even when a timed call raises).  The
    metrics dict from the *last* timed call is kept — suites are expected to
    produce stable metrics across repeats (their internal comparisons do
    their own best-of timing where it matters).
    """
    repeats = bench.default_repeats if repeats is None else max(1, int(repeats))
    warmup = bench.default_warmup if warmup is None else bool(warmup)
    required = bench.required_memory_bytes()
    if required is not None:
        decision = check_memory(required)
        if not decision.fits:
            # Skip, don't fail: a machine too small for the suite's fleet
            # is an environment fact, and the artifact records why.
            return BenchResult(
                name=bench.name,
                description=bench.description,
                wall_seconds=[],
                best_seconds=0.0,
                mean_seconds=0.0,
                std_seconds=0.0,
                rss_peak_bytes=None,
                repeats=0,
                warmup=False,
                metrics={},
                params=bench.params(),
                floor=None,
                skipped=True,
                skip_reason=decision.reason,
            )
    measurement = Measurement(rss_scope="suite" if reset_peak_rss() else "process")
    metrics: Dict[str, float] = {}
    bench.setup()
    try:
        if warmup:
            bench.run()
        for _ in range(repeats):
            with Timer(measurement):
                metrics = dict(bench.run() or {})
    finally:
        bench.teardown()
    decision, floor_payload = check_floor(bench, metrics)
    del decision  # recorded inside the payload; assert_floor re-derives it
    return BenchResult(
        name=bench.name,
        description=bench.description,
        wall_seconds=list(measurement.wall_seconds),
        best_seconds=measurement.best_seconds,
        mean_seconds=measurement.mean_seconds,
        std_seconds=measurement.std_seconds,
        rss_peak_bytes=measurement.rss_peak_bytes,
        rss_scope=measurement.rss_scope,
        repeats=repeats,
        warmup=warmup,
        metrics=metrics,
        params=bench.params(),
        floor=floor_payload,
        notes=bench.notes(),
    )


def check_floor(
    bench: Benchmark, metrics: Dict[str, float]
) -> Tuple[Optional[FloorDecision], Optional[Dict[str, object]]]:
    """Evaluate a suite's floor against its metrics through the shared guard.

    Returns ``(decision, payload)`` where ``payload`` is the JSON-ready floor
    record stored in the artifact (``None`` for floorless suites).
    """
    spec = bench.floor
    if spec is None:
        return None, None
    full_scale, baseline_seconds = bench.floor_context(metrics)
    decision = arm_floor(
        full_scale=full_scale,
        min_cpus=spec.min_cpus,
        baseline_seconds=baseline_seconds,
        min_baseline_seconds=spec.min_baseline_seconds,
    )
    value = metrics.get(spec.metric)
    passed: Optional[bool] = None
    if decision.armed:
        passed = value is not None and value >= spec.minimum
    payload: Dict[str, object] = {
        "metric": spec.metric,
        "minimum": spec.minimum,
        "value": value,
        "armed": decision.armed,
        "reason": decision.reason,
        "passed": passed,
    }
    return decision, payload


def assert_floor(result: BenchResult) -> None:
    """Raise ``AssertionError`` when an armed floor failed; print disarm reasons.

    The single assertion path every pytest benchmark wrapper shares: armed
    and below the floor fails loudly; disarmed floors report why and pass.
    """
    floor = result.floor
    if floor is None:
        return
    if not floor["armed"]:
        print(f"[{result.name}] floor not armed: {floor['reason']}")
        return
    assert floor["passed"], (
        f"[{result.name}] {floor['metric']} = {floor['value']} fell below the "
        f"declared floor {floor['minimum']} (armed: {floor['reason']})"
    )
