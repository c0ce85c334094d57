import os

# One BLAS thread: the suite's matrices are small, and starting a pool of
# OpenBLAS threads costs more than it saves.  Set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
import scipy.sparse as sp

from nandwalk import HamiltonianGraph, TreeInput
from nandwalk.lattice import _layout


def random_tree(rng, n_leaves: int) -> TreeInput:
    return TreeInput.from_bits(rng.integers(0, 2, n_leaves).tolist())


def build_runway(M: int) -> HamiltonianGraph:
    """The free-propagation reference graph: the runway path on sites
    -M..M of the depth-0 layout, with the root and its extra left isolated
    (dim 2M + 3).  Its pattern is not the layout's, so evolve_cheb checks
    it in full."""
    imap = _layout(0, M)
    sites = np.arange(2 * M)
    rows, cols = np.r_[sites, sites + 1], np.r_[sites + 1, sites]
    m = sp.csr_matrix((-np.ones(rows.size), (rows, cols)), shape=(imap.dim, imap.dim))
    return HamiltonianGraph(matrix=m, index_map=imap)


def nand_fold_reference(bits):
    """Independent recursive truth-table fold used as the oracle for
    eval_nand."""

    def go(lo, hi):
        if hi - lo == 1:
            return bits[lo]
        mid = (lo + hi) // 2
        a, b = go(lo, mid), go(mid, hi)
        return { (0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0 }[(a, b)]

    return go(0, len(bits))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240809)
