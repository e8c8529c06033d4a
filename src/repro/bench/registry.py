"""The benchmark registry: suites as first-class, discoverable objects.

A benchmark suite is a class registered under a stable ``group/name``
identifier with the :func:`benchmark` decorator.  :func:`run_benchmark`
drives its ``setup`` / timed work / ``teardown`` lifecycle and returns a
:class:`BenchResult` that the artifact layer (:mod:`repro.bench.artifact`)
serialises into schema-versioned ``BENCH_<n>.json`` files.  A comparison
suite yields :class:`Case` objects, which the registry times with one shared
protocol (:func:`_time_cases`); any other suite's ``run`` is timed whole.

Speed floors are declared, not asserted inline: a suite carries a
:class:`FloorSpec` naming the metric, the minimum, the two sides whose
minima it divides and the arming requirements, and :func:`check_floor`
routes the decision through the shared guard (:mod:`repro.bench.guard`), so
every floor uses the same "full scale + enough CPUs + enough signal" rule.
``benchmarks/test_bench_floors.py`` asserts every floor with
:func:`assert_floor`; ``repro-bench run`` records them in the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.bench.guard import arm_floor, check_memory
from repro.bench.timer import Measurement, Timer, peak_rss_bytes, reset_peak_rss

__all__ = [
    "Case",
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


def _metric_key(name: str, label: str) -> str:
    """``name@label``, or plain ``name`` for a suite's unlabelled case."""
    return f"{name}@{label}" if label else name


@dataclass(frozen=True)
class Case:
    """One comparison a suite exposes to the registry's timing protocol.

    ``sides`` maps a side name to a zero-argument callable; each timed call
    runs ``units`` units of work (rounds, kernel applies), so the side's
    metric ``{side}_s@{label}`` is its fastest call divided by ``units``.
    ``check`` receives every round's ``{side: return value}``, raises when
    the sides disagree, and may return metrics describing the outputs.
    """

    label: str
    sides: Dict[str, Callable[[], object]]
    check: Optional[Callable[[Dict[str, object]], Optional[Dict[str, float]]]] = None
    units: int = 1


@dataclass(frozen=True)
class FloorSpec:
    """A declared speed floor: ``metrics[metric] >= minimum`` when armed.

    ``ratio`` names the ``(baseline, candidate)`` sides of a comparison
    suite: every case gets ``metric@label`` = the baseline's minimum over
    the candidate's.  ``min_cpus`` and ``min_baseline_seconds`` (checked
    against the baseline's fastest call) parameterise the shared guard;
    whether the run was *full scale*, and which case the floor reads, is
    suite-specific (:meth:`Benchmark.floor_context`).
    """

    metric: str
    minimum: float
    min_cpus: int = 2
    min_baseline_seconds: float = 0.0
    ratio: Tuple[str, ...] = ()


class Benchmark:
    """Base class for a registered benchmark suite.

    Subclasses set the class attributes and implement either :meth:`cases`
    (a comparison the registry times) or :meth:`run` (a timed body returning
    a metrics dict); :meth:`setup` / :meth:`teardown` bracket the timed
    calls and are untimed.  ``default_repeats`` is the number of timed
    rounds (``k``); ``default_warmup`` applies to :meth:`run` suites only,
    since every comparison is warmed up.
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

    def cases(self) -> Optional[Iterable[Case]]:
        """The comparisons to time, built lazily; ``None`` times :meth:`run`."""
        return None

    def run(self) -> Dict[str, float]:
        """The timed body; returns suite metrics (ratios, per-size timings)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release resources; untimed."""

    def floor_context(self) -> Tuple[bool, str]:
        """``(full_scale, label)``: whether this run is at the scale the floor
        was calibrated for, and the label of the case the floor reads.

        Default: full scale (no scale knob), the unlabelled case.
        """
        return True, ""


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
    #: Comparison suites: every timed call of each side, in seconds, keyed
    #: like the side's metric (``repeats`` samples per side).
    samples: Dict[str, List[float]] = field(default_factory=dict)

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

    ``setup`` → the timed work → ``teardown`` (always, even when a timed
    call raises).  A comparison suite's cases go through
    :func:`_time_cases` with ``k = repeats`` rounds; ``wall_seconds`` then
    holds each round's total.  Otherwise an optional untimed warm-up
    ``run`` precedes ``repeats`` timed ``run`` calls, and the metrics of
    the last one are kept.
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
                params=bench.params(),
                skipped=True,
                skip_reason=decision.reason,
            )
    measurement = Measurement(rss_scope="suite" if reset_peak_rss() else "process")
    metrics: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    bench.setup()
    try:
        cases = bench.cases()
        if cases is not None:
            warmup = True
            metrics, samples = _time_cases(bench, cases, repeats, measurement)
        else:
            if warmup:
                bench.run()
            for _ in range(repeats):
                with Timer(measurement):
                    metrics = dict(bench.run() or {})
    finally:
        bench.teardown()
    floor_payload = check_floor(bench, metrics, samples)
    if floor_payload is not None and floor_payload["value"] is not None:
        metrics[bench.floor.metric] = floor_payload["value"]  # type: ignore[union-attr]
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
        samples=samples,
    )


def _time_cases(
    bench: Benchmark,
    cases: Iterable[Case],
    repeats: int,
    measurement: Measurement,
) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """The timing protocol every comparison suite shares.

    Per case: one untimed warm-up call of each side, then ``repeats``
    rounds that call every side once, the first side alternating between
    rounds (so a burst of load on a shared host hits one sample of each
    side, not the whole of one), with the check on every round.  The
    minimum is the estimator: every perturbation only ever adds time.
    """
    metrics: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    totals = [0.0] * repeats
    floor = bench.floor
    for case in cases:
        names = list(case.sides)
        keys = {name: _metric_key(f"{name}_s", case.label) for name in names}
        for name in names:
            case.sides[name]()
        for round_index in range(repeats):
            outputs: Dict[str, object] = {}
            for name in names if round_index % 2 == 0 else names[::-1]:
                with Timer() as timer:
                    outputs[name] = case.sides[name]()
                samples.setdefault(keys[name], []).append(timer.elapsed)
                totals[round_index] += timer.elapsed
            if case.check is not None:
                metrics.update(case.check(outputs) or {})
        for name in names:
            metrics[keys[name]] = min(samples[keys[name]]) / case.units
        if floor is not None and floor.ratio:
            slow, fast = (metrics[keys[side]] for side in floor.ratio)
            ratio = slow / fast if fast > 0 else float("inf")
            metrics[_metric_key(floor.metric, case.label)] = ratio
    measurement.wall_seconds.extend(totals)
    measurement.rss_peak_bytes = peak_rss_bytes()
    return metrics, samples


def check_floor(
    bench: Benchmark,
    metrics: Dict[str, float],
    samples: Optional[Dict[str, List[float]]] = None,
) -> Optional[Dict[str, object]]:
    """Evaluate a suite's floor against its metrics through the shared guard.

    Returns the JSON-ready floor record stored in the artifact (``None``
    for floorless suites).  The signal check reads the fastest call of the
    ratio's baseline side from ``samples``.
    """
    spec = bench.floor
    if spec is None:
        return None
    full_scale, label = bench.floor_context()
    baseline = None
    if spec.ratio:
        baseline = (samples or {}).get(_metric_key(f"{spec.ratio[0]}_s", label))
    decision = arm_floor(
        full_scale=full_scale,
        min_cpus=spec.min_cpus,
        baseline_seconds=min(baseline) if baseline else None,
        min_baseline_seconds=spec.min_baseline_seconds,
    )
    value = metrics.get(_metric_key(spec.metric, label))
    passed: Optional[bool] = None
    if decision.armed:
        passed = value is not None and value >= spec.minimum
    return {
        "metric": spec.metric,
        "minimum": spec.minimum,
        "value": value,
        "armed": decision.armed,
        "reason": decision.reason,
        "passed": passed,
    }


def assert_floor(result: BenchResult) -> None:
    """Raise ``AssertionError`` when an armed floor failed; print disarm reasons.

    The single assertion path of the floor test: armed and below the floor
    fails loudly; disarmed floors report why and pass.
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
