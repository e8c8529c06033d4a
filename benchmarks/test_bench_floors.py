"""Every declared speed floor, asserted through one test.

Each registered suite that declares a floor (``repro-bench list`` marks
them ``[floored]``) runs once at its configured scale through
:func:`repro.bench.registry.run_benchmark` — the same call ``repro-bench
run`` makes — prints its metrics, and goes through
:func:`repro.bench.registry.assert_floor`.  Comparison suites are timed by
the registry's shared protocol (a warm-up call per side, ``k`` interleaved
rounds, each side's minimum) and check on every round that their sides
agree.  A floor arms only under the shared guard (full scale, enough CPUs,
enough baseline signal); a disarmed floor prints why and passes.

The scale knobs are the suites' ``REPRO_BENCH_*`` environment variables;
``docs/BENCHMARKING.md`` lists them.
"""

from __future__ import annotations

import pytest

from repro.bench import suites as _suites  # noqa: F401 - registers the suites
from repro.bench.registry import (
    assert_floor,
    create_benchmark,
    registered_benchmarks,
    run_benchmark,
)

FLOORED = [
    name for name in registered_benchmarks() if create_benchmark(name).floor is not None
]


@pytest.mark.parametrize("name", FLOORED)
def test_bench_floor(name):
    result = run_benchmark(create_benchmark(name))
    print(f"\n[{name}] {result.description}")
    for key in sorted(result.metrics):
        print(f"    {key:<28s} {result.metrics[key]:.6g}")
    assert_floor(result)
