"""Parallel execution of independent row blocks within a round stage.

The blocked round pipeline (``core/base.py``) decomposes every stage of a
training round — batch drawing + gradient evaluation, clip+noise, momentum
and state updates, gossip — into work over disjoint ``(block_rows, d)`` row
blocks.  Each block owns its rows exclusively and consumes only the
stream addresses of those rows' agents, so blocks of one stage are
*independent*: they can run in any order, or concurrently, and produce
bit-identical results.

:class:`RoundScheduler` is the small dispatcher that exploits this.  With
``workers=1`` (the default) it runs blocks serially in ascending row order
— exactly the historical loop.  With ``workers > 1`` it submits the blocks
to a shared :class:`~concurrent.futures.ThreadPoolExecutor`; the heavy
per-block work is NumPy kernels (matmuls, reductions, RNG fills), which
release the GIL, so on multi-core hosts the blocks genuinely overlap.
Results are still collected in submission (ascending-block) order, and
exceptions from any block propagate to the caller.

Threads — not processes — are the right tool here: blocks write into
disjoint row ranges of shared (possibly memmap-backed) fleet matrices, so
a fork/pickle boundary would force fleet-sized copies, defeating the
out-of-core design.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["RoundScheduler"]

T = TypeVar("T")


class RoundScheduler:
    """Run per-block stage callables, serially or on a thread pool.

    Parameters
    ----------
    workers:
        Number of worker threads.  ``1`` (default) executes blocks inline
        on the calling thread in ascending order — no pool is ever
        created, so the serial path has zero scheduling overhead and is
        trivially bit-identical.  Values > 1 lazily create a persistent
        ``ThreadPoolExecutor`` reused across stages and rounds.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether this scheduler may run blocks concurrently."""
        return self.workers > 1

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-block"
            )
        return self._pool

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[int, int], T],
        blocks: Iterable[Tuple[int, int]],
        serial: bool = False,
    ) -> List[T]:
        """Apply ``fn(start, stop)`` to every block; results in block order.

        ``serial=True`` forces inline execution regardless of ``workers``
        — stages that touch state which is not safe to share across
        threads (e.g. a mutable scalar :class:`~repro.nn.model.Model`
        without a stacked evaluator) use this escape hatch.  A single
        block also runs inline: there is nothing to overlap.

        Exceptions raised by any block propagate to the caller (after all
        submitted blocks have settled, so partially-written disjoint rows
        are never silently abandoned mid-flight).
        """
        block_list: Sequence[Tuple[int, int]] = list(blocks)
        if serial or not self.parallel or len(block_list) <= 1:
            return [fn(start, stop) for start, stop in block_list]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, start, stop) for start, stop in block_list]
        results: List[T] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (idempotent; pool recreated on demand)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "RoundScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundScheduler(workers={self.workers})"
