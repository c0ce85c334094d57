"""Graph Hamiltonians as sparse minus-adjacency matrices.

The walk graph consists of a runway (a path on sites r = -M..M), a perfect
binary tree of depth n whose root hangs off runway site 0, and one pendant
"extra" node per leaf, attached exactly when that leaf bit is 1.  Every
graph lives on one node layout (NodeIndexMap), addressed by closed-form
index ranges: nodes carry no labels.  The driver H_D is the
instance-independent part (runway + tree), the oracle H_O the pendant
edges, and the full Hamiltonian is H = H_D + H_O, entrywise.  Every edge
is -1 and the diagonal is 0.  build_full also stores every empty pendant
slot as an explicit 0, so its sparsity pattern is a function of the
layout alone, shared by every tree of one (depth, M).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .nand_core import TreeInput, _check_int


class NodeIndexMap:
    """Offsets and index ranges of the three blocks of the node layout.

    Order: runway sites -M..M (site r at r + M), then the tree in heap
    order (level l, position p at tree_off + 2^l - 1 + p, root first,
    leaf i at extras_off - n_leaves + i), then extra i at extras_off + i.
    depth=None leaves the tree and extras blocks empty: the bare runway.
    """

    def __init__(self, depth, M: int):
        if depth is not None:
            _check_int("depth", depth, 0)
        _check_int("M", M, 1)
        self.depth = depth
        self.M = M
        self.n_leaves = 0 if depth is None else 2 ** depth
        self.tree_off = 2 * M + 1
        self.extras_off = self.tree_off + max(2 * self.n_leaves - 1, 0)
        self.dim = self.extras_off + self.n_leaves

    def runway_indices(self, rs) -> np.ndarray:
        """Flat indices of runway sites rs; ValueError outside -M..M."""
        rs = np.asarray(rs, dtype=int)
        if np.any(np.abs(rs) > self.M):
            raise ValueError("runway site out of range")
        return rs + self.M

    def right_runway_slice(self) -> slice:
        return slice(self.M + 1, self.tree_off)

    def tree_indices(self) -> np.ndarray:
        return np.arange(self.tree_off, self.extras_off)

    def extra_indices(self) -> np.ndarray:
        return np.arange(self.extras_off, self.dim)

    def sublattice(self) -> np.ndarray:
        """Two-colouring of the walk graph as 0/1 classes per flat index.

        Runway site r is in class r mod 2, tree level l in class
        (l + 1) mod 2 (the root hangs off site 0), extras in class
        depth mod 2.  Every edge of every graph joins opposite classes.
        """
        parts = [np.arange(-self.M, self.M + 1) % 2]
        if self.depth is not None:
            levels = np.repeat(np.arange(self.depth + 1), 2 ** np.arange(self.depth + 1))
            parts += [(levels + 1) % 2, np.full(self.n_leaves, self.depth % 2)]
        return np.concatenate(parts).astype(np.int8)


@dataclass
class HamiltonianGraph:
    """Sparse symmetric minus-adjacency matrix with its node indexing."""

    matrix: sp.csr_matrix
    index_map: NodeIndexMap

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _graph_from_edges(imap: NodeIndexMap, u, v) -> HamiltonianGraph:
    """-1 on both (u, v) and (v, u) for every edge in the paired arrays."""
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    m = sp.coo_matrix((-np.ones(rows.size), (rows, cols)), shape=(imap.dim, imap.dim)).tocsr()
    m.sort_indices()
    return HamiltonianGraph(matrix=m, index_map=imap)


def build_runway(M: int) -> HamiltonianGraph:
    """Bare runway path, no tree: the free-propagation reference graph."""
    return _graph_from_edges(NodeIndexMap(None, M), np.arange(2 * M), np.arange(1, 2 * M + 1))


def _driver_edges(imap: NodeIndexMap):
    """Runway edges (r, r+1), the root on site 0, heap edges p -> 2p+1, 2p+2."""
    M = imap.M
    sites = np.arange(2 * M)
    parents = imap.tree_off + np.arange(imap.n_leaves - 1)
    children = 2 * parents - imap.tree_off + 1
    return (np.concatenate([sites, [M], parents, parents]),
            np.concatenate([sites + 1, [imap.tree_off], children, children + 1]))


def _oracle_edges(imap: NodeIndexMap, tree: TreeInput):
    """One edge from leaf i to extra i per 1-bit."""
    ones = np.flatnonzero(np.asarray(tree.bits) == 1)
    return imap.extras_off - imap.n_leaves + ones, imap.extras_off + ones


def build_driver(depth: int, M: int) -> HamiltonianGraph:
    """H_D: the runway, the root on site 0 and the heap-ordered tree."""
    imap = NodeIndexMap(depth, M)
    return _graph_from_edges(imap, *_driver_edges(imap))


def build_oracle(tree: TreeInput, M: int) -> HamiltonianGraph:
    """H_O: the pendant leaf-extra edges, on the full layout."""
    imap = NodeIndexMap(tree.depth, M)
    return _graph_from_edges(imap, *_oracle_edges(imap, tree))


@functools.lru_cache(maxsize=8)
def _full_pattern(depth: int, M: int):
    """Read-only (indptr, indices) of the all-ones tree, H_D plus every
    leaf-extra slot: the pattern every tree of the layout shares.  The
    last 8 layouts are cached (a sweep uses one M per gamma)."""
    imap = NodeIndexMap(depth, M)
    ones = TreeInput((1,) * imap.n_leaves)
    (du, dv), (ou, ov) = _driver_edges(imap), _oracle_edges(imap, ones)
    m = _graph_from_edges(imap, np.concatenate([du, ou]), np.concatenate([dv, ov])).matrix
    m.indptr.flags.writeable = m.indices.flags.writeable = False
    return m.indptr, m.indices


def build_full(tree: TreeInput, M: int) -> HamiltonianGraph:
    """H = H_D + H_O entrywise, on the pattern of every pendant slot.

    -1 on every edge and an explicit 0 on the slot of each 0-bit, so the
    pattern (indptr, indices) is a function of (depth, M), shared
    read-only by every tree of that layout, and only `data` is built per
    tree.  A stored 0 adds 0.0 terms to a product and keeps the row
    lengths of the sparse product independent of the bits.
    """
    imap = NodeIndexMap(tree.depth, M)
    indptr, indices = _full_pattern(tree.depth, M)
    slots = np.where(tree.bits, -1.0, 0.0)
    data = np.full(indices.size, -1.0)
    # indices are sorted within a row: a leaf's extra follows its parent,
    # and an extra's row holds its leaf alone
    data[indptr[imap.extras_off - imap.n_leaves:imap.extras_off] + 1] = slots
    data[indptr[imap.extras_off:imap.dim]] = slots
    m = sp.csr_matrix((data, indices, indptr), shape=(imap.dim, imap.dim), copy=False)
    return HamiltonianGraph(matrix=m, index_map=imap)


DENSE_EIG_CAP = 4000


def dense_eig(H: HamiltonianGraph):
    """Full symmetric eigendecomposition (ascending eigenvalues).

    The reference oracle for propagation and spectral diagnostics; refuses
    dimensions above DENSE_EIG_CAP.
    """
    if H.dim > DENSE_EIG_CAP:
        raise ValueError(f"dim {H.dim} exceeds dense eigensolver cap {DENSE_EIG_CAP}")
    w, V = scipy.linalg.eigh(H.matrix.toarray())
    return w, V
