"""The benchmark registry lifecycle and the shared floor guard."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.bench import registry as registry_module
from repro.bench.artifact import load_artifact, results_to_artifact, write_artifact
from repro.bench.guard import (
    MemoryDecision,
    arm_floor,
    available_cpus,
    available_memory_bytes,
    check_memory,
)
from repro.bench.registry import (
    Benchmark,
    Case,
    FloorSpec,
    assert_floor,
    benchmark,
    check_floor,
    create_benchmark,
    registered_benchmarks,
    run_benchmark,
    select_benchmarks,
)
from repro.bench.timer import reset_peak_rss


class LifecycleProbe(Benchmark):
    """Counts lifecycle calls and returns a fixed metric."""

    name = "test/lifecycle-probe"
    description = "probe"
    default_repeats = 2
    default_warmup = True

    def __init__(self) -> None:
        self.setup_calls = 0
        self.run_calls = 0
        self.teardown_calls = 0

    def setup(self) -> None:
        self.setup_calls += 1

    def run(self):
        self.run_calls += 1
        return {"answer": 42.0}

    def teardown(self) -> None:
        self.teardown_calls += 1


class TestLifecycle:
    def test_setup_warmup_repeats_teardown(self):
        probe = LifecycleProbe()
        result = run_benchmark(probe)
        assert probe.setup_calls == 1
        assert probe.run_calls == 3  # 1 warm-up + 2 timed
        assert probe.teardown_calls == 1
        assert result.repeats == 2
        assert len(result.wall_seconds) == 2
        assert result.best_seconds <= result.mean_seconds
        assert result.metrics == {"answer": 42.0}
        assert result.floor is None and not result.floored

    def test_explicit_repeats_and_warmup_override(self):
        probe = LifecycleProbe()
        run_benchmark(probe, repeats=4, warmup=False)
        assert probe.run_calls == 4

    def test_teardown_runs_even_when_run_raises(self):
        class Exploding(LifecycleProbe):
            name = "test/exploding"

            def run(self):
                raise RuntimeError("boom")

        probe = Exploding()
        with pytest.raises(RuntimeError):
            run_benchmark(probe, warmup=False)
        assert probe.teardown_calls == 1

    def test_rss_captured_on_linux(self):
        result = run_benchmark(LifecycleProbe())
        assert result.rss_peak_bytes is None or result.rss_peak_bytes > 0

    def test_small_suite_after_large_allocation_reports_less(self):
        class Large(Benchmark):
            name = "test/rss-large"

            def run(self):
                block = np.ones(128 * 1024 * 1024 // 8)  # 128 MiB, touched
                return {"sum": float(block[::4096].sum())}

        class Small(Benchmark):
            name = "test/rss-small"

            def run(self):
                return {}

        large = run_benchmark(Large(), repeats=1, warmup=False)
        small = run_benchmark(Small(), repeats=1, warmup=False)
        if not reset_peak_rss():
            # No resettable high-water mark: the value is labelled as the
            # process-wide peak instead of a per-suite one.
            assert small.rss_scope == large.rss_scope == "process"
            pytest.skip("/proc/self/clear_refs is unavailable")
        assert small.rss_scope == large.rss_scope == "suite"
        assert small.rss_peak_bytes < large.rss_peak_bytes - 64 * 1024 * 1024


class TestRegistry:
    def test_builtin_suites_are_registered(self):
        names = registered_benchmarks()
        for expected in (
            "engine/round",
            "gossip/compressed",
            "gossip/sparse",
            "gossip/scaling-sweep",
            "topology/dynamic-cache",
            "orchestrator/pool",
            "checkpoint/roundtrip",
            "game/shapley-mc",
            "privacy/noise-rows",
            "eval/test-accuracy",
        ):
            assert expected in names
        assert names == sorted(names)

    def test_select_by_substring(self):
        assert select_benchmarks(["gossip"]) == [
            "gossip/compressed",
            "gossip/scaling-sweep",
            "gossip/sparse",
        ]
        assert select_benchmarks([]) == registered_benchmarks()

    def test_create_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no benchmark named"):
            create_benchmark("nope/nothing")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @benchmark
            class Duplicate(Benchmark):  # noqa: F811 - deliberately clashing
                name = "engine/round"

                def run(self):
                    return {}

    def test_unnamed_registration_rejected(self):
        with pytest.raises(ValueError, match="non-empty 'name'"):

            @benchmark
            class Nameless(Benchmark):
                def run(self):
                    return {}


class TestGuard:
    def test_reduced_scale_never_arms(self):
        decision = arm_floor(full_scale=False, min_cpus=0)
        assert not decision.armed
        assert "reduced scale" in decision.reason

    def test_cpu_requirement(self):
        decision = arm_floor(full_scale=True, min_cpus=available_cpus() + 1)
        assert not decision.armed
        assert "CPU" in decision.reason

    def test_baseline_signal_requirement(self):
        decision = arm_floor(
            full_scale=True,
            min_cpus=1,
            baseline_seconds=0.001,
            min_baseline_seconds=0.5,
        )
        assert not decision.armed
        assert "too short" in decision.reason

    def test_arms_when_all_conditions_hold(self):
        decision = arm_floor(
            full_scale=True,
            min_cpus=1,
            baseline_seconds=2.0,
            min_baseline_seconds=0.5,
        )
        assert decision.armed and bool(decision)


class FlooredProbe(Benchmark):
    """A suite whose floor outcome is controlled by the test."""

    name = "test/floored-probe"
    description = "floored probe"
    floor = FloorSpec(metric="speedup", minimum=5.0, min_cpus=1)
    default_repeats = 1
    default_warmup = False

    def __init__(self, speedup: float, full_scale: bool = True) -> None:
        self._speedup = speedup
        self._full_scale = full_scale

    def run(self):
        return {"speedup": self._speedup}

    def floor_context(self):
        return self._full_scale, ""


class TestFloors:
    def test_armed_floor_passes_and_fails(self):
        passing = run_benchmark(FlooredProbe(speedup=9.0))
        assert passing.floor["armed"] and passing.floor["passed"]
        assert_floor(passing)  # no raise

        failing = run_benchmark(FlooredProbe(speedup=1.5))
        assert failing.floor["armed"] and failing.floor["passed"] is False
        with pytest.raises(AssertionError, match="fell below the declared floor"):
            assert_floor(failing)

    def test_disarmed_floor_never_fails(self, capsys):
        result = run_benchmark(FlooredProbe(speedup=0.1, full_scale=False))
        assert result.floor["armed"] is False
        assert result.floor["passed"] is None
        assert_floor(result)  # prints the reason instead of raising
        assert "floor not armed" in capsys.readouterr().out

    def test_missing_metric_fails_when_armed(self):
        class NoMetric(FlooredProbe):
            name = "test/floored-no-metric"

            def run(self):
                return {}

        payload = check_floor(NoMetric(speedup=0.0), {})
        assert payload["armed"] and payload["passed"] is False


class Clock:
    """Fake time: the probe's sides advance it, the registry's timer reads it."""

    def __init__(self) -> None:
        self.now = 0.0


@pytest.fixture
def clock(monkeypatch):
    clock = Clock()

    class ClockTimer:
        def __enter__(self):
            self.started = clock.now
            return self

        def __exit__(self, *exc_info):
            self.elapsed = clock.now - self.started

    monkeypatch.setattr(registry_module, "Timer", ClockTimer)
    return clock


class SidesProbe(Benchmark):
    """A comparison suite whose sides cost scripted fake seconds per call.

    ``costs[side][i]`` is what the side's ``i``-th call costs (call 0 is the
    warm-up); each call returns ``(side, i)``.
    """

    name = "test/sides-probe"
    description = "protocol probe"
    floor = FloorSpec(
        metric="speedup", minimum=5.0, min_cpus=1, ratio=("slow", "fast")
    )
    default_repeats = 5

    def __init__(self, clock, costs, check=None) -> None:
        self.clock = clock
        self.costs = costs
        self.check = check
        self.calls = []
        self.checked = []
        self.teardown_calls = 0

    def cases(self):
        sides = {name: partial(self.call, name) for name in self.costs}
        yield Case("", sides, self.check_outputs)

    def call(self, name):
        index = self.calls.count(name)
        self.calls.append(name)
        self.clock.now += self.costs[name][index]
        return name, index

    def check_outputs(self, outputs):
        self.checked.append(dict(outputs))
        if self.check is not None:
            self.check(outputs)

    def teardown(self) -> None:
        self.teardown_calls += 1


def steady(seconds, calls=6):
    return [seconds] * calls


def costs(slow=1.0, fast=0.125):
    """Steady per-call costs: a warm-up plus five rounds of each side."""
    return {"slow": steady(slow), "fast": steady(fast)}


class TestTimingProtocol:
    def test_warm_up_then_rounds_alternating_the_first_side(self, clock):
        probe = SidesProbe(clock, costs())
        result = run_benchmark(probe)
        warm_up, ordered, flipped = ["slow", "fast"], ["slow", "fast"], ["fast", "slow"]
        assert probe.calls == warm_up + ordered + flipped + ordered + flipped + ordered
        assert result.repeats == 5 and result.warmup
        assert result.samples == {"slow_s": steady(1.0, 5), "fast_s": steady(0.125, 5)}
        assert result.metrics["slow_s"] == 1.0 and result.metrics["fast_s"] == 0.125
        assert result.metrics["speedup"] == 8.0
        assert result.wall_seconds == steady(1.125, 5)

    def test_warm_up_is_not_sampled(self, clock):
        expensive_warm_up = costs()
        expensive_warm_up["slow"][0] = expensive_warm_up["fast"][0] = 64.0
        result = run_benchmark(SidesProbe(clock, expensive_warm_up))
        assert max(result.samples["slow_s"]) == 1.0
        assert max(result.samples["fast_s"]) == 0.125

    def test_repeats_sets_the_round_count(self, clock):
        probe = SidesProbe(clock, costs())
        result = run_benchmark(probe, repeats=2)
        assert len(probe.calls) == 6 and result.repeats == 2
        assert all(len(seconds) == 2 for seconds in result.samples.values())

    def test_check_runs_on_every_round(self, clock):
        probe = SidesProbe(clock, costs())
        run_benchmark(probe)
        assert probe.checked == [
            {"slow": ("slow", i), "fast": ("fast", i)} for i in range(1, 6)
        ]

    def test_failing_check_raises(self, clock):
        def disagree_on_round_three(outputs):
            assert outputs["fast"][1] != 3, "sides disagree"

        probe = SidesProbe(clock, costs(), disagree_on_round_three)
        with pytest.raises(AssertionError, match="sides disagree"):
            run_benchmark(probe)
        assert len(probe.checked) == 3
        assert probe.teardown_calls == 1

    def test_one_slow_candidate_sample_does_not_fail_the_floor(self, clock):
        outlier = costs()
        outlier["fast"][3] = 4.0
        result = run_benchmark(SidesProbe(clock, outlier))
        assert result.floor["armed"] and result.floor["passed"]
        assert result.floor["value"] == 8.0
        assert_floor(result)

    def test_uniformly_2x_slower_candidate_fails_the_floor(self, clock):
        assert_floor(run_benchmark(SidesProbe(clock, costs(fast=0.125))))
        slowed = run_benchmark(SidesProbe(clock, costs(fast=0.25)))
        assert slowed.floor["armed"] and slowed.floor["passed"] is False
        with pytest.raises(AssertionError, match="fell below the declared floor"):
            assert_floor(slowed)

    def test_signal_check_reads_the_fastest_baseline_call(self, clock):
        class NeedsSignal(SidesProbe):
            floor = FloorSpec(
                metric="speedup",
                minimum=5.0,
                min_cpus=1,
                min_baseline_seconds=2.0,
                ratio=("slow", "fast"),
            )

        one_short_call = costs(slow=8.0)
        one_short_call["slow"][2] = 1.0
        result = run_benchmark(NeedsSignal(clock, one_short_call))
        assert not result.floor["armed"] and "too short" in result.floor["reason"]

    def test_units_divide_the_metric_not_the_samples(self, clock):
        class PerRound(SidesProbe):
            def cases(self):
                sides = {name: partial(self.call, name) for name in self.costs}
                yield Case("64", sides, units=4)

            def floor_context(self):
                return True, "64"

        result = run_benchmark(PerRound(clock, costs(slow=2.0, fast=0.25)))
        assert result.samples["slow_s@64"] == steady(2.0, 5)
        assert result.metrics["slow_s@64"] == 0.5
        assert result.metrics["speedup@64"] == 8.0
        assert result.metrics["speedup"] == result.floor["value"]

    def test_samples_and_k_survive_the_artifact(self, clock, tmp_path):
        result = run_benchmark(SidesProbe(clock, costs()), repeats=3)
        artifact = results_to_artifact([result])
        path = write_artifact(tmp_path / "BENCH_probe.json", artifact)
        suite = load_artifact(path)["suites"]["test/sides-probe"]
        assert suite["repeats"] == 3
        assert suite["samples"] == {"slow_s": steady(1.0, 3), "fast_s": steady(0.125, 3)}


class TestMemoryGuard:
    def test_available_memory_reads_meminfo(self):
        available = available_memory_bytes()
        # /proc/meminfo exists on the Linux CI hosts; elsewhere None is fine.
        assert available is None or available > 0

    def test_tiny_requirement_fits(self):
        decision = check_memory(1024)
        assert decision.fits and bool(decision)
        assert decision.required_bytes >= 1024

    def test_absurd_requirement_does_not_fit(self):
        if available_memory_bytes() is None:
            pytest.skip("no memory availability signal on this platform")
        decision = check_memory(1 << 60)  # an exbibyte
        assert not decision.fits and not bool(decision)
        assert "available" in decision.reason

    def test_unknown_availability_errs_toward_running(self):
        decision = MemoryDecision(
            fits=True, reason="", required_bytes=10, available_bytes=None
        )
        assert bool(decision)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_memory(-1)
        with pytest.raises(ValueError):
            check_memory(100, safety_factor=0.5)


class TestMemorySkip:
    def test_oversized_suite_skips_not_fails(self):
        class Gigantic(LifecycleProbe):
            name = "test/gigantic"

            def required_memory_bytes(self):
                return 1 << 60

        probe = Gigantic()
        result = run_benchmark(probe)
        if available_memory_bytes() is None:
            pytest.skip("no memory availability signal on this platform")
        assert result.skipped
        assert result.skip_reason and "available" in result.skip_reason
        assert result.repeats == 0
        # setup/run never execute for a skipped suite.
        assert probe.setup_calls == 0 and probe.run_calls == 0

    def test_fitting_suite_runs_normally(self):
        class Modest(LifecycleProbe):
            name = "test/modest"

            def required_memory_bytes(self):
                return 1024

        result = run_benchmark(Modest())
        assert not result.skipped and result.skip_reason is None

    def test_notes_flow_into_result(self):
        class Noted(LifecycleProbe):
            name = "test/noted"

            def notes(self):
                return {"skip@262144": "needs 48 GiB"}

        result = run_benchmark(Noted())
        assert result.notes == {"skip@262144": "needs 48 GiB"}
