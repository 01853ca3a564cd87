"""The shared CSR builder: one graph → scipy-CSR conversion for everyone.

Grown out of ``graph/distance.py::graph_to_csr`` (which now re-exports
it): the distance/stretch analytics, the array backend's bulk export,
and any future numpy consumer all build their sparse adjacency here, so
the row-order contract ("``order[i]`` is the node label of matrix row
``i``") and its validation exist exactly once.

Two paths, equal by construction (cross-tested in
``tests/graph/test_csr.py``):

* the **generic path** walks ``neighbors_view`` per node and works for
  any ``Graph``-interface object and any explicit ``order``;
* the **bulk path** engages for an
  :class:`~repro.graph.array_backend.ArrayGraph` in default (ascending)
  order with no dead slots: node labels equal row indices, so the
  ``indptr``/``indices`` arrays are built directly from the slot store
  with ``numpy`` — no per-edge Python dict lookups, no COO detour. An
  edgeless slot (the shared empty ``EDGELESS`` marker) reads as an empty
  row, like an empty set.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.array_backend import ArrayGraph
from repro.graph.graph import Graph

__all__ = ["graph_to_csr"]

Node = Hashable


def graph_to_csr(graph: Graph, order: Sequence[Node] | None = None):
    """Convert ``graph`` to a scipy CSR adjacency matrix.

    Returns ``(csr_matrix, order)`` where ``order[i]`` is the node label
    of matrix row ``i``. Passing an explicit ``order`` lets callers keep
    a consistent indexing across the original and healed graphs (needed
    for stretch, where the two graphs share surviving labels).
    """
    from scipy.sparse import csr_matrix

    if (
        order is None
        and isinstance(graph, ArrayGraph)
        and graph.num_nodes == len(graph._nbrs)
    ):
        return _array_graph_csr(graph, csr_matrix)

    if order is None:
        order = list(graph.nodes())
    index = {u: i for i, u in enumerate(order)}
    if len(index) != len(order):
        raise ValueError("order contains duplicate node labels")
    rows: list[int] = []
    cols: list[int] = []
    for u in order:
        if not graph.has_node(u):
            raise NodeNotFoundError(u)
        iu = index[u]
        for v in graph.neighbors_view(u):
            iv = index.get(v)
            if iv is not None:
                rows.append(iu)
                cols.append(iv)
    n = len(order)
    data = np.ones(len(rows), dtype=np.int8)
    mat = csr_matrix((data, (rows, cols)), shape=(n, n))
    return mat, list(order)


def _array_graph_csr(graph: ArrayGraph, csr_matrix):
    """Bulk CSR from a hole-free slot store: labels == row indices, so
    ``indptr`` is one cumulative sum over the degree vector and
    ``indices`` one flattening pass — no per-edge index mapping."""
    nbrs = graph._nbrs
    n = len(nbrs)
    counts = graph.degree_array()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(
        (v for s in nbrs for v in s), dtype=np.int32, count=nnz
    )
    data = np.ones(nnz, dtype=np.int8)
    mat = csr_matrix((data, indices, indptr), shape=(n, n))
    return mat, list(range(n))
