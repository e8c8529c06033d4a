"""Doubly stochastic mixing matrices and their spectral diagnostics.

Notation (matching the paper's Sec. III-A / Assumption 3): the communication
graph has ``M`` agents; ``W = (omega_{ij})`` is the ``(M, M)`` mixing matrix
whose entry ``omega_{ij}`` weights the message agent ``i`` receives from
agent ``j`` during gossip averaging (``x_i <- sum_j omega_{ij} x_j``,
eqs. 24–25); ``M_i = {j : omega_{ij} > 0}`` is agent ``i``'s closed
neighbourhood; ``lambda_1 >= lambda_2 >= ... >= lambda_M`` are the
eigenvalues of ``W``.

Assumption 3 requires two structural properties and one spectral one:

* **symmetry** — ``W = W^T`` (undirected communication, equal weights both
  ways);
* **double stochasticity** — non-negative entries with every row *and*
  column summing to 1, so gossip preserves the network average and every
  agent's contribution has equal total influence;
* **contraction** — ``lambda_1(W) = 1`` with
  ``max(|lambda_2|, |lambda_M|) <= sqrt(rho) < 1``, i.e. a strictly positive
  spectral gap.  This is what makes repeated gossip shrink the consensus
  distance geometrically (Lemma 6) and is equivalent to the graph being
  connected and ``W`` not flipping sign on a bipartition (guaranteed here by
  strictly positive diagonals).

Symmetry and double stochasticity are *structural* requirements checked by
:func:`validate_mixing_matrix` unconditionally; the contraction property is
optional there (``require_contraction=True``) because a disconnected or
zero-diagonal-bipartite ``W`` is still a valid averaging operator, it just
does not converge to consensus.  Metropolis–Hastings weights
(:func:`metropolis_hastings_weights`) satisfy all three conditions for any
connected undirected graph, which is why they are the default.

Storage
-------

``W`` is always a ``scipy.sparse`` CSR matrix.  On a sparse communication
graph (ring, torus, random-regular, small-world) it has O(M) nonzeros, so
the weight builders take the graph as ``(num_agents, edges)`` — an
``(E, 2)`` array of agent ids — assemble ``W`` *edge-wise* and never
materialise the dense ``(M, M)`` array: at M = 4096 a dense ring matrix
would hold 16.7M entries of which only ~12k are nonzero.  ``W`` is then
the topology's only representation; neighbourhoods, degrees, edges and
connectivity are all read back from its CSR.  Every helper in this module
(:func:`is_symmetric`, :func:`is_doubly_stochastic`,
:func:`validate_mixing_matrix`, the spectral diagnostics) works on the CSR
structure without densifying (ndarray input is converted first), and
:class:`MixingOperator` applies ``W @ X`` in O(nnz * d).  Above
``DENSE_EIG_MAX_AGENTS`` the spectral diagnostics switch from a full
O(M^3) ``eigvalsh`` decomposition to a Lanczos iteration
(``scipy.sparse.linalg.eigsh``) that only needs matrix–vector products.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

__all__ = [
    "MixingOperator",
    "as_csr",
    "metropolis_hastings_weights",
    "uniform_neighbor_weights",
    "is_symmetric",
    "is_doubly_stochastic",
    "second_largest_eigenvalue",
    "spectral_gap",
    "validate_mixing_matrix",
    "DENSE_EIG_MAX_AGENTS",
]

_TOLERANCE = 1e-9

#: Largest matrix for which the spectral diagnostics use a full dense
#: eigendecomposition; above this they switch to Lanczos (``eigsh``).
DENSE_EIG_MAX_AGENTS = 512


def as_csr(matrix) -> sp.csr_array:
    """``matrix`` (ndarray or any sparse format) as canonical float64 CSR.

    Duplicates are summed and each row's column indices sorted ascending —
    the order :class:`MixingOperator` accumulates in.  An ndarray keeps its
    nonzero entries exactly.
    """
    if not sp.issparse(matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
    csr = sp.csr_array(matrix, dtype=np.float64)
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def _square_csr(matrix) -> Optional[sp.csr_array]:
    """:func:`as_csr` of ``matrix``, or ``None`` unless it is square and 2-D."""
    if not sp.issparse(matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return None
    return as_csr(matrix)


def _assemble_csr(m: int, edges: np.ndarray, edge_weights: np.ndarray) -> sp.csr_array:
    """Symmetric CSR matrix from per-edge weights plus the stochastic diagonal.

    ``edges`` is an ``(E, 2)`` array of agent ids, one row per undirected
    edge.  Built entirely from edge arrays — the dense matrix is never
    materialised, so this scales to graphs with millions of nodes.  The
    diagonal receives the residual mass ``1 - sum_j w_{ij}`` with the
    off-diagonal row sums accumulated in ascending column order (CSR
    canonical order), so the result does not depend on the edge order.
    """
    edge_weights = np.asarray(edge_weights, dtype=np.float64)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    data = np.concatenate([edge_weights, edge_weights])
    off_diagonal = as_csr(sp.coo_array((data, (rows, cols)), shape=(m, m)))
    row_sums = np.asarray(off_diagonal.sum(axis=1)).reshape(-1)
    diagonal = sp.dia_array(
        (np.asarray([1.0 - row_sums]), [0]), shape=(m, m)
    )
    return as_csr(off_diagonal + diagonal)


def _edge_array(edges) -> np.ndarray:
    """``edges`` as an ``(E, 2)`` int64 array (an empty input gives ``(0, 2)``)."""
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def metropolis_hastings_weights(num_agents: int, edges) -> sp.csr_array:
    """Metropolis–Hastings mixing matrix for an undirected graph, as CSR.

    The graph is ``num_agents`` agents and ``edges``, an ``(E, 2)`` array
    listing each undirected edge ``(i, j)``, ``i != j``, once.
    ``w_{ij} = 1 / (1 + max(deg_i, deg_j))`` for each edge, zero for
    non-edges, and ``w_{ii} = 1 - sum_j w_{ij}``.  The result is symmetric,
    doubly stochastic and has strictly positive diagonal, so every agent's
    neighbourhood ``M_i`` includes itself as the paper assumes.  It is
    assembled edge-wise, never materialising the dense ``(M, M)`` array.
    """
    ij = _edge_array(edges)
    degrees = np.bincount(ij.ravel(), minlength=num_agents).astype(np.float64)
    edge_weights = 1.0 / (1.0 + np.maximum(degrees[ij[:, 0]], degrees[ij[:, 1]]))
    return _assemble_csr(num_agents, ij, edge_weights)


def uniform_neighbor_weights(num_agents: int, edges) -> sp.csr_array:
    """Uniform averaging over the *regular* closed neighbourhood, as CSR.

    ``w_{ij} = 1 / (d_max + 1)`` for each edge where ``d_max`` is the maximum
    degree, and the remaining mass goes to the diagonal.  Like
    Metropolis–Hastings this is symmetric and doubly stochastic for any
    graph; on regular graphs (rings, complete graphs) it equals uniform
    neighbourhood averaging.  Takes the same ``(num_agents, edges)`` input
    and is assembled edge-wise, exactly as in
    :func:`metropolis_hastings_weights`.
    """
    ij = _edge_array(edges)
    d_max = int(np.bincount(ij.ravel(), minlength=num_agents).max(initial=0))
    return _assemble_csr(num_agents, ij, np.full(len(ij), 1.0 / (d_max + 1.0)))


def is_symmetric(matrix, tol: float = _TOLERANCE) -> bool:
    """True if the matrix equals its transpose within tolerance.

    Checked via the sparse difference ``W - W^T`` (O(nnz), no
    densification); ndarray input is converted to CSR first.
    """
    csr = _square_csr(matrix)
    if csr is None:
        return False
    difference = (csr - csr.T).tocoo()
    if difference.nnz == 0:
        return True
    return bool(np.max(np.abs(difference.data)) <= tol)


def is_doubly_stochastic(matrix, tol: float = 1e-8) -> bool:
    """True if all entries are non-negative and all rows and columns sum to 1.

    Checked on the stored entries and axis sums only (O(nnz), no
    densification); ndarray input is converted to CSR first.
    """
    csr = _square_csr(matrix)
    if csr is None:
        return False
    if csr.nnz and float(csr.data.min()) < -tol:
        return False
    ones = np.ones(csr.shape[0])
    row_sums = np.asarray(csr.sum(axis=1)).reshape(-1)
    col_sums = np.asarray(csr.sum(axis=0)).reshape(-1)
    return bool(
        np.allclose(row_sums, ones, atol=tol)
        and np.allclose(col_sums, ones, atol=tol)
    )


def second_largest_eigenvalue(matrix) -> float:
    """``max(|lambda_2|, |lambda_M|)`` for a symmetric stochastic matrix.

    For the mixing matrices used here this equals ``sqrt(rho)`` in
    Assumption 3: the contraction factor by which one gossip step shrinks
    the disagreement component (everything orthogonal to the consensus
    direction ``1``).  Values close to 0 mean near-instant consensus (e.g.
    the complete graph's ``W = 11^T / M``); values close to 1 mean slow
    mixing (long rings).

    Up to ``DENSE_EIG_MAX_AGENTS`` agents the full spectrum is computed with
    a dense ``eigvalsh`` (O(M^3), exact); above it a Lanczos iteration
    (``scipy.sparse.linalg.eigsh``) extracts only the two largest-magnitude
    eigenvalues — which are exactly ``{lambda_1, max(|lambda_2|, |lambda_M|)}``
    — at O(nnz) per matrix–vector product, so the diagnostic no longer pays
    an O(M^3) decomposition before training even starts.
    """
    n = matrix.shape[0]
    if n < 2:
        return 0.0
    if n <= DENSE_EIG_MAX_AGENTS:
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
        eigenvalues = np.linalg.eigvalsh(dense)
        # eigvalsh returns ascending order; the largest should be ~1.
        sorted_by_magnitude = np.sort(np.abs(eigenvalues))[::-1]
        return float(sorted_by_magnitude[1])
    operand = matrix if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
    # Deterministic, non-special start vector (all-ones is the consensus
    # eigenvector of a doubly stochastic W and would degenerate the Krylov
    # space; a generic oscillating vector has mass on every eigenvector).
    v0 = np.cos(np.arange(n, dtype=np.float64))
    try:
        # ncv=64 Krylov vectors and a 1e-8 residual tolerance: slow-mixing
        # graphs (long rings) cluster lambda_1 and lambda_2 within ~1/n^2 of
        # each other, and the wider subspace cuts ARPACK's restarts several
        # fold while the achieved eigenvalue error stays < 1e-12.
        eigenvalues = eigsh(
            operand,
            k=2,
            which="LM",
            return_eigenvectors=False,
            tol=1e-8,
            v0=v0,
            ncv=min(n, 64),
        )
    except ArpackNoConvergence as error:
        eigenvalues = error.eigenvalues
        if eigenvalues is None or len(eigenvalues) < 2:
            raise
    sorted_by_magnitude = np.sort(np.abs(np.asarray(eigenvalues)))[::-1]
    return float(sorted_by_magnitude[1])


def spectral_gap(matrix) -> float:
    """``1 - max(|lambda_2|, |lambda_M|)`` = ``1 - sqrt(rho)``.

    Larger gap means faster consensus; this is the quantity that enters the
    denominator of the paper's convergence bound (Theorem 2).
    """
    return float(1.0 - second_largest_eigenvalue(matrix))


def validate_mixing_matrix(matrix, require_contraction: bool = False) -> None:
    """Raise ``ValueError`` unless the matrix satisfies Assumption 3's structure.

    Checks, in order: squareness, symmetry (``W = W^T``) and double
    stochasticity (non-negative entries, rows and columns summing to 1).
    These are the properties gossip averaging relies on — without them the
    ``W @ X`` step would not preserve the network-average model.
    :class:`~repro.topology.graphs.Topology` validates at construction and
    :class:`~repro.core.base.DecentralizedAlgorithm` re-validates at
    algorithm construction, so a matrix mutated in between fails fast.

    The checks run on the CSR structure (ndarray input is converted first):
    they are O(nnz) and never densify, so validation stays cheap even for
    fleet-scale graphs where the dense matrix would not fit in memory.

    ``require_contraction`` additionally demands ``sqrt(rho) < 1`` (strict
    positive spectral gap, the third part of Assumption 3), which holds for
    every connected graph with positive self-weights but can be violated by,
    e.g., a disconnected graph or a bipartite graph with zero diagonal.
    """
    matrix = _square_csr(matrix)
    if matrix is None:
        raise ValueError("mixing matrix must be square")
    if not is_symmetric(matrix):
        raise ValueError("mixing matrix must be symmetric")
    if not is_doubly_stochastic(matrix):
        raise ValueError("mixing matrix must be doubly stochastic with non-negative entries")
    if require_contraction and second_largest_eigenvalue(matrix) >= 1.0 - 1e-12:
        raise ValueError("mixing matrix must have spectral gap > 0 (connected topology)")


class MixingOperator:
    """The gossip step's ``W``, held as canonical CSR.

    ``apply(X)`` computes ``W @ X`` in O(nnz * d).  The CSR product
    accumulates each output row over its stored entries in ascending column
    order with one separate multiply-add per term — the same order as a
    sequential sum-of-products over the dense row (``np.einsum``), since
    adding an exact zero never changes a partial sum.  The tests pin the
    kernel bitwise against that dense reference; it is what makes the
    blocked, parallel and storage variants of a round bit-identical.
    """

    __slots__ = ("matrix", "_f32_matrix")

    def __init__(self, matrix) -> None:
        self.matrix = _square_csr(matrix)
        if self.matrix is None:
            raise ValueError("mixing operator requires a square matrix")
        self._f32_matrix: Optional[sp.csr_array] = None

    @property
    def num_agents(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def nnz(self) -> int:
        """Number of stored nonzero entries."""
        return int(self.matrix.nnz)

    @property
    def density(self) -> float:
        """Fraction of matrix entries that are nonzero."""
        n = self.num_agents
        return self.nnz / float(n * n) if n else 0.0

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        """Coerce ``rows`` to a valid ``(M, d)`` float stack, preserving float32."""
        rows = np.asarray(rows)
        if rows.dtype != np.float32:
            rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] != self.num_agents:
            raise ValueError(
                f"expected a ({self.num_agents}, d) stack of agent rows, "
                f"got shape {rows.shape}"
            )
        return rows

    def _matrix_for(self, dtype: np.dtype) -> sp.csr_array:
        """``W`` in the kernel dtype (the float32 cast is built once and cached)."""
        if dtype != np.float32:
            return self.matrix
        if self._f32_matrix is None:
            self._f32_matrix = self.matrix.astype(np.float32)
        return self._f32_matrix

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """One gossip step for a stack of vectors: ``W @ rows``.

        ``rows`` is an ``(M, d)`` matrix whose row ``i`` is agent ``i``'s
        vector; the result is a new ``(M, d)`` dense matrix.  Float32 input
        selects the float32 kernel (``W`` cast once, cached) so low-precision
        fleet state never pays a transient float64 copy; every other input is
        coerced to float64.
        """
        rows = self._check_rows(rows)
        return self._matrix_for(rows.dtype) @ rows

    def mix_rows_blocked(
        self,
        rows: np.ndarray,
        block_rows: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``W @ rows`` computed over ``(block_rows, d)`` output chunks.

        Each output block is the product of the corresponding row slice of
        ``W`` with the full input — and because the CSR kernel accumulates
        each output row independently over its columns in ascending order,
        slicing the rows of ``W`` changes *nothing* about any row's
        accumulation: the blocked product is **bit-identical** to
        :meth:`apply` for every ``block_rows``.  What it buys is peak-memory
        control — the largest transient is one ``(block_rows, d)`` chunk —
        and the ability to stream the output into a caller-owned buffer
        (``out``), e.g. a fleet matrix, in RAM or memory-mapped.
        """
        rows = self._check_rows(rows)
        if block_rows < 1:
            raise ValueError("block_rows must be a positive integer")
        if out is None:
            out = np.empty_like(rows)
        elif out.shape != rows.shape:
            raise ValueError(
                f"out buffer has shape {out.shape}, expected {rows.shape}"
            )
        matrix = self._matrix_for(rows.dtype)
        for start in range(0, self.num_agents, block_rows):
            stop = start + block_rows
            out[start:stop] = matrix[start:stop] @ rows
        return out

    def mix_block(
        self, rows: np.ndarray, start: int, stop: int, out: np.ndarray
    ) -> None:
        """One output block of ``W @ rows``: ``out[start:stop] = W[start:stop] @ rows``.

        This is exactly the loop body of :meth:`mix_rows_blocked`, exposed
        so a caller (the :class:`~repro.sharding.RoundScheduler`) can run
        independent output blocks concurrently: each call reads all of
        ``rows`` but writes only its own disjoint ``out`` slice, so the
        parallel schedule is bit-identical to the serial one.
        """
        rows = self._check_rows(rows)
        out[start:stop] = self._matrix_for(rows.dtype)[start:stop] @ rows

    def apply_mixed(
        self,
        rows: np.ndarray,
        block_rows: Optional[int] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``W @ rows`` for float32 state with float64 accumulation.

        The mixed-precision gossip kernel: state stays float32 (half the
        memory), but each output row is accumulated in float64 so repeated
        gossip does not compound single-precision rounding.  Each block
        gathers only the block's referenced input rows
        (``rows[block.indices]``, ~nnz_block rows) and upcasts *those* to
        float64 — never the whole fleet — then segment-reduces per output
        row; the result is rounded back to float32.  No bitwise guarantee is
        made against :meth:`apply` (the segmented reduction may reorder
        sums); accuracy is pinned by the precision tests instead.
        """
        rows = np.asarray(rows, dtype=np.float32)
        if rows.ndim != 2 or rows.shape[0] != self.num_agents:
            raise ValueError(
                f"expected a ({self.num_agents}, d) stack of agent rows, "
                f"got shape {rows.shape}"
            )
        n = self.num_agents
        if block_rows is None:
            block_rows = n
        if block_rows < 1:
            raise ValueError("block_rows must be a positive integer")
        if out is None:
            out = np.empty_like(rows)
        elif out.shape != rows.shape or out.dtype != np.float32:
            raise ValueError("out buffer must be a float32 array of matching shape")
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            block = self.matrix[start:stop]
            if block.nnz == 0:
                out[start:stop] = 0.0
                continue
            contrib = block.data[:, None] * rows[block.indices].astype(np.float64)
            counts = np.diff(block.indptr)
            if counts.all():
                acc = np.add.reduceat(contrib, block.indptr[:-1], axis=0)
            else:
                # reduceat mishandles empty segments; scatter-add instead.
                acc = np.zeros((stop - start, rows.shape[1]), dtype=np.float64)
                np.add.at(
                    acc,
                    np.repeat(np.arange(stop - start), counts),
                    contrib,
                )
            out[start:stop] = acc.astype(np.float32)
        return out

    def toarray(self) -> np.ndarray:
        """The matrix as a dense ndarray (entries are preserved exactly)."""
        return self.matrix.toarray()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MixingOperator(num_agents={self.num_agents}, nnz={self.nnz})"
