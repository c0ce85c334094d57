"""Graph Hamiltonians as sparse minus-adjacency matrices.

The walk graph consists of a runway (a path on sites r = -M..M), a perfect
binary tree of depth n whose root hangs off runway site 0, and one pendant
"extra" node per leaf, attached exactly when that leaf bit is 1.  Every
graph lives on one node layout per (depth, M), addressed by closed-form
index ranges: nodes carry no labels.  The driver H_D is the
instance-independent part (runway + tree), the oracle H_O the pendant
edges, and the full Hamiltonian is H = H_D + H_O, entrywise.  Every edge
is -1 and the diagonal is 0.  The layout record (NodeIndexMap) holds the
sparsity pattern of H_D plus every pendant slot; build_full fills only
`data` on it, with an explicit 0 on each empty slot.  NodeIndexMap.check
gates propagation: the pattern once per layout, the values on every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .nand_core import TreeInput, _check_int

MAX_DEGREE = 3


class NodeIndexMap:
    """The layout record of one (depth, M), built once by _layout.

    Order: runway sites -M..M (site r at r + M), then the tree in heap
    order (level l, position p at tree_off + 2^l - 1 + p, root first,
    leaf i at extras_off - n_leaves + i), then extra i at extras_off + i.
    Read-only arrays: `classes`, the two-colouring (runway site r in class
    r mod 2, tree level l in (l + 1) mod 2, extras in depth mod 2);
    `indptr` and `indices`, the CSR pattern of H_D plus every leaf-extra
    slot, checked by _check_pattern; `mirror`, the position of (v, u) per
    stored (u, v); `pendant_slots`, the (2, n_leaves) positions in `data` of
    (leaf i, extra i) and (extra i, leaf i).
    """

    def __init__(self, depth: int, M: int):
        _check_int("depth", depth, 0)
        _check_int("M", M, 1)
        self.depth, self.M = depth, M
        self.n_leaves = 2 ** depth
        self.tree_off = 2 * M + 1
        self.extras_off = self.tree_off + 2 * self.n_leaves - 1
        self.dim = self.extras_off + self.n_leaves
        levels = np.repeat(np.arange(depth + 1), 2 ** np.arange(depth + 1))
        self.classes = np.concatenate([np.arange(-M, M + 1) % 2, (levels + 1) % 2,
                                       np.full(self.n_leaves, depth % 2)]).astype(np.int8)
        (du, dv), (ou, ov) = _driver_edges(self), _oracle_edges(self, np.ones(self.n_leaves))
        m = _graph_from_edges(self, np.concatenate([du, ou]), np.concatenate([dv, ov])).matrix
        self.mirror = _check_pattern(m, self.classes)
        self.indptr, self.indices = m.indptr, m.indices
        # indices are sorted within a row: a leaf's extra follows its
        # parent, and an extra's row holds its leaf alone
        self.pendant_slots = np.stack([self.indptr[ou] + 1, self.indptr[ov]])
        for a in (self.classes, self.indptr, self.indices, self.mirror, self.pendant_slots):
            a.flags.writeable = False

    def check(self, m: sp.csr_matrix) -> None:
        """The one gate before propagation: ValueError unless |m_ij| <= 1
        (first, so NaN fails as a weight), data == data[mirror] (m == m^T),
        and the pattern passes _check_pattern: once, for m on this record's
        own indptr and indices (same array interface), else on every call."""
        own = all(a.__array_interface__ == b.__array_interface__
                  for a, b in ((m.indptr, self.indptr), (m.indices, self.indices)))
        mirror = self.mirror if own else _check_pattern(m, self.classes)
        if not np.all(np.abs(m.data) <= 1.0):
            raise ValueError(f"walk graph exceeds degree {MAX_DEGREE} or unit edge weight")
        if not np.array_equal(m.data, m.data[mirror]):
            raise ValueError("walk graph matrix is not equal to its transpose")

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


# Every builder takes its record from here.  The last 8 layouts are cached
# (a sweep uses one M per gamma); typed, so that a float M misses the record
# of its integer value and fails _check_int.
_layout = functools.lru_cache(maxsize=8, typed=True)(NodeIndexMap)


def _check_pattern(m: sp.csr_matrix, classes: np.ndarray) -> np.ndarray:
    """Raise ValueError unless m is a canonical CSR matrix of the layout's
    dim, with the pattern of its transpose, that `classes` two-colours, and
    whose graph is a forest of maximum degree MAX_DEGREE; return the int32
    mirror, read off the transposed positions.  The check reads the stored
    pattern, not the values: an explicit 0 counts as an edge, so it holds
    for the graph with every stored slot attached, and so for each subgraph."""
    # csgraph adds ~1 MB and ~20 ms at import, needed only to propagate
    from scipy.sparse.csgraph import connected_components

    t = sp.csr_matrix((np.arange(m.nnz, dtype=np.int32), m.indices, m.indptr), shape=m.shape).T.tocsr()
    if m.shape != (classes.size,) * 2 or not (m.has_canonical_format and all(
            np.array_equal(getattr(m, a), getattr(t, a)) for a in ("indptr", "indices"))):
        raise ValueError("walk graph matrix is not canonical CSR on the layout, equal to its transpose")
    degree = np.diff(m.indptr)
    if np.any(classes[np.repeat(np.arange(m.shape[0]), degree)] == classes[m.indices]):
        raise ValueError("an edge joins two nodes of the same sublattice class")
    components = connected_components(m, directed=False, return_labels=False)
    if m.nnz // 2 != m.shape[0] - components:
        raise ValueError("walk graph is not a forest")
    if degree.max() > MAX_DEGREE:
        raise ValueError(f"walk graph exceeds degree {MAX_DEGREE} or unit edge weight")
    return t.data


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


def _driver_edges(imap: NodeIndexMap):
    """Runway edges (r, r+1), the root on site 0, heap edges p -> 2p+1, 2p+2."""
    M = imap.M
    sites = np.arange(2 * M)
    parents = imap.tree_off + np.arange(imap.n_leaves - 1)
    children = 2 * parents - imap.tree_off + 1
    return (np.concatenate([sites, [M], parents, parents]),
            np.concatenate([sites + 1, [imap.tree_off], children, children + 1]))


def _oracle_edges(imap: NodeIndexMap, bits):
    """One edge from leaf i to extra i per 1-bit."""
    ones = np.flatnonzero(np.asarray(bits) == 1)
    return imap.extras_off - imap.n_leaves + ones, imap.extras_off + ones


def build_driver(depth: int, M: int) -> HamiltonianGraph:
    """H_D: the runway, the root on site 0 and the heap-ordered tree."""
    imap = _layout(depth, M)
    return _graph_from_edges(imap, *_driver_edges(imap))


def build_oracle(tree: TreeInput, M: int) -> HamiltonianGraph:
    """H_O: the pendant leaf-extra edges, on the full layout."""
    imap = _layout(tree.depth, M)
    return _graph_from_edges(imap, *_oracle_edges(imap, tree.bits))


def build_full(tree: TreeInput, M: int) -> HamiltonianGraph:
    """H = H_D + H_O entrywise, on the pattern of every pendant slot.

    -1 on every edge and an explicit 0 on the slot of each 0-bit, so the
    pattern (indptr, indices) is the layout record's, shared read-only by
    every tree of that (depth, M), and only `data` is built per tree.  A
    stored 0 adds 0.0 terms to a product and keeps the row lengths of the
    sparse product independent of the bits.
    """
    imap = _layout(tree.depth, M)
    data = np.full(imap.indices.size, -1.0)
    data[imap.pendant_slots] = np.where(tree.bits, -1.0, 0.0)
    m = sp.csr_matrix((data, imap.indices, imap.indptr), shape=(imap.dim, imap.dim), copy=False)
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
