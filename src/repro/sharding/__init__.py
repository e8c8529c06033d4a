"""Row-blocked execution of the fleet matrix for large-N simulation.

The engine's canonical representation of the fleet is one ``(num_agents,
dimension)`` matrix, in RAM or memory-mapped
(:meth:`repro.core.base.DecentralizedAlgorithm._alloc_fleet_matrix`).  This
package makes that representation *scalable*: :func:`row_blocks` and
:func:`resolve_block_rows` cut it into configurable ``(block_rows, d)`` row
blocks, so gossip, clip+noise and codec passes never materialise
whole-fleet temporaries.  The blocked gossip path is bit-identical to the
one-shot product (see
:meth:`repro.topology.mixing.MixingOperator.mix_rows_blocked`), so blocking
is purely a memory/performance knob — configured per algorithm through
``AlgorithmConfig.block_rows`` and per experiment through
``ExperimentSpec.block_rows``.

:class:`RoundScheduler` executes the independent row blocks of a round
stage on a thread pool (``AlgorithmConfig.block_workers``); because every
block owns disjoint rows and draws from its own agents' addresses in the
counter-based streams, the parallel schedule is bit-identical to the
serial one.
"""

from repro.sharding.fleet import DEFAULT_BLOCK_BYTES, resolve_block_rows, row_blocks
from repro.sharding.scheduler import RoundScheduler

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "RoundScheduler",
    "resolve_block_rows",
    "row_blocks",
]
