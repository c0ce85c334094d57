import os

# One BLAS thread: the suite's matrices are small, and starting a pool of
# OpenBLAS threads costs more than it saves.  Set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from nandwalk import TreeInput


def random_tree(rng, n_leaves: int) -> TreeInput:
    return TreeInput.from_bits(rng.integers(0, 2, n_leaves).tolist())


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
