"""Graph Hamiltonians as sparse minus-adjacency matrices.

The walk graph consists of a runway (a path on sites r = -M..M), a perfect
binary tree of depth n whose root hangs off runway site 0, and one pendant
"extra" node per leaf, attached exactly when that leaf bit is 1.  The
instance-independent part (runway + tree) is the driver; the pendant edges
are the oracle; the full Hamiltonian is their entrywise sum.  All entries
are exactly -1 off the diagonal and 0 on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .nand_core import TreeInput

RUNWAY = "r"
TREE = "t"
EXTRA = "x"


def runway_node(r: int):
    return (RUNWAY, r)


def tree_node(level: int, pos: int):
    return (TREE, level, pos)


def extra_node(leaf: int):
    return (EXTRA, leaf)


class NodeIndexMap:
    """Bijection between graph nodes and flat vector indices.

    Canonical order: runway sites -M..M, then tree nodes level by level
    (root first, leaves last), then extras in leaf order.  Layouts for the
    partial graphs simply omit blocks; the oracle layout keeps only the
    leaf level of the tree so that leaves share their identity with the
    full layout.
    """

    def __init__(self, depth=None, M=None, with_runway=False, with_tree=False,
                 leaves_only=False, with_extras=False):
        self.depth = depth
        self.M = M
        self._runway = with_runway
        self._tree = with_tree
        self._leaves_only = leaves_only
        self._extras = with_extras
        off = 0
        self._runway_off = None
        self._tree_off = None
        self._extras_off = None
        if with_runway:
            self._runway_off = off
            off += 2 * M + 1
        if with_tree:
            self._tree_off = off
            off += (2 ** depth) if leaves_only else (2 ** (depth + 1) - 1)
        if with_extras:
            self._extras_off = off
            off += 2 ** depth
        self.dim = off

    # -- layouts --------------------------------------------------------

    @classmethod
    def full(cls, depth: int, M: int) -> "NodeIndexMap":
        return cls(depth=depth, M=M, with_runway=True, with_tree=True, with_extras=True)

    @classmethod
    def driver(cls, depth: int, M: int) -> "NodeIndexMap":
        return cls(depth=depth, M=M, with_runway=True, with_tree=True)

    @classmethod
    def oracle(cls, depth: int) -> "NodeIndexMap":
        return cls(depth=depth, with_tree=True, leaves_only=True, with_extras=True)

    @classmethod
    def runway_only(cls, M: int) -> "NodeIndexMap":
        return cls(M=M, with_runway=True)

    # -- node -> flat ----------------------------------------------------

    def index(self, node) -> int:
        kind = node[0]
        if kind == RUNWAY:
            r = node[1]
            if self._runway_off is None or abs(r) > self.M:
                raise KeyError(node)
            return self._runway_off + r + self.M
        if kind == TREE:
            _, level, pos = node
            if self._tree_off is None or not (0 <= level <= self.depth) or not (0 <= pos < 2 ** level):
                raise KeyError(node)
            if self._leaves_only:
                if level != self.depth:
                    raise KeyError(node)
                return self._tree_off + pos
            return self._tree_off + (2 ** level - 1 + pos)
        if kind == EXTRA:
            leaf = node[1]
            if self._extras_off is None or not (0 <= leaf < 2 ** self.depth):
                raise KeyError(node)
            return self._extras_off + leaf
        raise KeyError(node)

    # -- flat -> node ----------------------------------------------------

    def node(self, i: int):
        if not 0 <= i < self.dim:
            raise IndexError(i)
        if self._runway_off is not None and i < self._runway_off + 2 * self.M + 1:
            return runway_node(i - self._runway_off - self.M)
        if self._tree_off is not None and (self._extras_off is None or i < self._extras_off):
            j = i - self._tree_off
            if self._leaves_only:
                return tree_node(self.depth, j)
            level = (j + 1).bit_length() - 1
            return tree_node(level, j - (2 ** level - 1))
        return extra_node(i - self._extras_off)

    def nodes(self):
        return [self.node(i) for i in range(self.dim)]

    # -- convenience -----------------------------------------------------

    def runway_indices(self, rs) -> np.ndarray:
        if self._runway_off is None:
            raise KeyError("layout has no runway block")
        rs = np.asarray(rs, dtype=int)
        if np.any(np.abs(rs) > self.M):
            raise KeyError("runway site out of range")
        return self._runway_off + rs + self.M

    def right_runway_slice(self) -> slice:
        if self._runway_off is None:
            raise KeyError("layout has no runway block")
        return slice(self._runway_off + self.M + 1, self._runway_off + 2 * self.M + 1)

    def tree_indices(self) -> np.ndarray:
        if self._tree_off is None:
            raise KeyError("layout has no tree block")
        size = (2 ** self.depth) if self._leaves_only else (2 ** (self.depth + 1) - 1)
        return np.arange(self._tree_off, self._tree_off + size)

    def extra_indices(self) -> np.ndarray:
        if self._extras_off is None:
            raise KeyError("layout has no extras block")
        return np.arange(self._extras_off, self._extras_off + 2 ** self.depth)

    def sublattice(self) -> np.ndarray:
        """Two-colouring of the walk graph as 0/1 classes per flat index.

        Runway site r is in class r mod 2, tree level l in class
        (l + 1) mod 2 (the root hangs off site 0), extras in class
        depth mod 2.  Every edge of every layout joins opposite classes.
        """
        parts = []
        if self._runway_off is not None:
            parts.append(np.arange(-self.M, self.M + 1) % 2)
        if self._tree_off is not None:
            if self._leaves_only:
                levels = np.full(2 ** self.depth, self.depth)
            else:
                levels = np.repeat(np.arange(self.depth + 1), 2 ** np.arange(self.depth + 1))
            parts.append((levels + 1) % 2)
        if self._extras_off is not None:
            parts.append(np.full(2 ** self.depth, self.depth % 2))
        return np.concatenate(parts).astype(np.int8)


@dataclass
class HamiltonianGraph:
    """Sparse symmetric minus-adjacency matrix with its node indexing."""

    matrix: sp.csr_matrix
    index_map: NodeIndexMap
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def edges(self) -> set:
        """Undirected edges as frozensets of node labels."""
        coo = self.matrix.tocoo()
        out = set()
        for u, v in zip(coo.row, coo.col):
            if u < v:
                out.add(frozenset((self.index_map.node(int(u)), self.index_map.node(int(v)))))
        return out

    def edge_list_text(self) -> str:
        """Plain 'u v' flat-index pairs, one undirected edge per line."""
        coo = self.matrix.tocoo()
        pairs = sorted((int(u), int(v)) for u, v in zip(coo.row, coo.col) if u < v)
        return "\n".join(f"{u} {v}" for u, v in pairs) + "\n"


def _graph_from_pairs(pairs, index_map: NodeIndexMap, meta: dict) -> HamiltonianGraph:
    if pairs:
        arr = np.asarray(pairs, dtype=int)
        rows = np.concatenate([arr[:, 0], arr[:, 1]])
        cols = np.concatenate([arr[:, 1], arr[:, 0]])
        data = -np.ones(rows.size, dtype=float)
    else:
        rows = cols = np.zeros(0, dtype=int)
        data = np.zeros(0, dtype=float)
    m = sp.coo_matrix((data, (rows, cols)), shape=(index_map.dim, index_map.dim)).tocsr()
    m.sort_indices()
    return HamiltonianGraph(matrix=m, index_map=index_map, meta=meta)


def _tree_edge_pairs(imap: NodeIndexMap, depth: int):
    pairs = []
    for level in range(depth):
        for pos in range(2 ** level):
            parent = imap.index(tree_node(level, pos))
            pairs.append((parent, imap.index(tree_node(level + 1, 2 * pos))))
            pairs.append((parent, imap.index(tree_node(level + 1, 2 * pos + 1))))
    return pairs


def build_oracle(tree: TreeInput) -> HamiltonianGraph:
    """Instance-dependent part: one leaf-to-extra edge per 1-bit."""
    imap = NodeIndexMap.oracle(tree.depth)
    pairs = [
        (imap.index(tree_node(tree.depth, i)), imap.index(extra_node(i)))
        for i, b in enumerate(tree.bits)
        if b == 1
    ]
    meta = {"N": tree.n_leaves, "n": tree.depth, "M": None}
    return _graph_from_pairs(pairs, imap, meta)


def build_driver(depth: int, M: int) -> HamiltonianGraph:
    """Instance-independent part: runway path plus tree, root at site 0."""
    if M < 1:
        raise ValueError("M must be >= 1")
    imap = NodeIndexMap.driver(depth, M)
    pairs = [
        (imap.index(runway_node(r)), imap.index(runway_node(r + 1)))
        for r in range(-M, M)
    ]
    pairs.append((imap.index(runway_node(0)), imap.index(tree_node(0, 0))))
    pairs.extend(_tree_edge_pairs(imap, depth))
    meta = {"N": 2 ** depth, "n": depth, "M": M}
    return _graph_from_pairs(pairs, imap, meta)


def build_full(tree: TreeInput, M: int) -> HamiltonianGraph:
    """Driver plus oracle over the combined node set."""
    if M < 1:
        raise ValueError("M must be >= 1")
    n = tree.depth
    imap = NodeIndexMap.full(n, M)
    pairs = [
        (imap.index(runway_node(r)), imap.index(runway_node(r + 1)))
        for r in range(-M, M)
    ]
    pairs.append((imap.index(runway_node(0)), imap.index(tree_node(0, 0))))
    pairs.extend(_tree_edge_pairs(imap, n))
    for i, b in enumerate(tree.bits):
        if b == 1:
            pairs.append((imap.index(tree_node(n, i)), imap.index(extra_node(i))))
    meta = {"N": tree.n_leaves, "n": n, "M": M}
    return _graph_from_pairs(pairs, imap, meta)


def build_runway(M: int) -> HamiltonianGraph:
    """Bare runway path, no tree: the free-propagation reference graph."""
    if M < 1:
        raise ValueError("M must be >= 1")
    imap = NodeIndexMap.runway_only(M)
    pairs = [
        (imap.index(runway_node(r)), imap.index(runway_node(r + 1)))
        for r in range(-M, M)
    ]
    return _graph_from_pairs(pairs, imap, {"N": None, "n": None, "M": M})


def apply_h(H: HamiltonianGraph, v: np.ndarray) -> np.ndarray:
    """w = H v (sparse matvec)."""
    v = np.asarray(v)
    if v.shape[0] != H.dim:
        raise ValueError(f"vector length {v.shape[0]} != dim {H.dim}")
    return H.matrix @ v


def degrees(H: HamiltonianGraph) -> np.ndarray:
    """Node degrees (row sums of |entries|)."""
    return np.asarray(np.abs(H.matrix).sum(axis=1)).ravel()


DENSE_EIG_CAP = 4000


def dense_eig(H: HamiltonianGraph, cap: int = DENSE_EIG_CAP):
    """Full symmetric eigendecomposition (ascending eigenvalues).

    The reference oracle for propagation and spectral diagnostics; refuses
    dimensions above `cap`.
    """
    if H.dim > cap:
        raise ValueError(f"dim {H.dim} exceeds dense eigensolver cap {cap}")
    w, V = scipy.linalg.eigh(H.to_dense())
    return w, V
