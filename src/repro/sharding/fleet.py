"""Row blocks of the ``(N, d)`` fleet matrix.

The round pipeline keeps the fleet's parameters as one ``(num_agents,
dimension)`` matrix.  At the scales the paper's production story targets
(10^5–10^6 agents) the matrix itself still fits — 262144 agents at d=64 in
float64 is 128 MiB — but *whole-fleet temporaries* do not: a single
careless ``astype``/``copy``/intermediate in a kernel doubles or triples
the working set exactly where memory is tightest.  So every stage of a
round streams over ``(block_rows, d)`` row blocks (:func:`row_blocks`).

``resolve_block_rows`` centralises the default block size: large enough to
amortise per-block Python overhead, small enough that one block plus its
CSR gather stays comfortably inside cache-friendly territory.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "resolve_block_rows",
    "row_blocks",
]

#: Target size of one ``(block_rows, d)`` chunk when no explicit
#: ``block_rows`` is configured: 32 MiB keeps the per-block Python/dispatch
#: overhead negligible (a few hundred blocks even at fleet scale) while the
#: chunk plus its gathered CSR inputs stay far below typical RAM headroom.
DEFAULT_BLOCK_BYTES = 32 * 1024 * 1024


def resolve_block_rows(
    num_agents: int,
    dimension: int,
    block_rows: Optional[int] = None,
    itemsize: int = 8,
    target_bytes: Optional[int] = None,
) -> int:
    """The row-block size streaming kernels should use.

    An explicit ``block_rows`` wins (clamped to ``[1, num_agents]``);
    otherwise the block is sized so one ``(block_rows, dimension)`` chunk is
    about ``target_bytes`` (default :data:`DEFAULT_BLOCK_BYTES`, read at
    call time).
    """
    if num_agents < 1 or dimension < 1:
        raise ValueError("num_agents and dimension must be positive")
    if block_rows is not None:
        if block_rows < 1:
            raise ValueError("block_rows must be a positive integer")
        return min(int(block_rows), num_agents)
    if target_bytes is None:
        target_bytes = DEFAULT_BLOCK_BYTES
    per_row = max(1, dimension * itemsize)
    return max(1, min(num_agents, target_bytes // per_row))


def row_blocks(num_rows: int, block_rows: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` half-open row ranges covering ``0..num_rows``."""
    if block_rows < 1:
        raise ValueError("block_rows must be a positive integer")
    for start in range(0, num_rows, block_rows):
        yield start, min(start + block_rows, num_rows)
