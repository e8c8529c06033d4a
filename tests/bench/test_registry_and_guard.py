"""The benchmark registry lifecycle and the shared floor guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.guard import (
    MemoryDecision,
    arm_floor,
    available_cpus,
    available_memory_bytes,
    check_memory,
)
from repro.bench.registry import (
    Benchmark,
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

    def floor_context(self, metrics):
        return self._full_scale, None


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

        decision, payload = check_floor(NoMetric(speedup=0.0), {})
        assert decision.armed and payload["passed"] is False


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
