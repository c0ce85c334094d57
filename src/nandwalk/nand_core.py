"""Classical NAND-tree semantics.

A problem instance is a string of N = 2^n leaf bits on a perfect binary
tree whose internal nodes each compute the NAND of their two children.
This module holds the instance type, exact and randomized evaluation
(the randomized rule short-circuits on a 0-child and achieves ~N^0.753
expected queries on adversarial instances), the exact law of that query
count on the adversarial distribution (a recursion on pmfs, from which
hard_query_samples draws), and the construction that rewrites the parity
of k bits as a k^2-leaf NAND-tree instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonPowerOfTwoError(ValueError):
    """Raised when an instance length is not a power of two (>= 2)."""


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class TreeInput:
    """A NAND-tree instance: N = 2^n leaf bits, depth n >= 1.

    bits[i] = 1 means leaf i carries its extra pendant node in the
    oracle graph; leaves are numbered left to right.
    """

    bits: tuple

    def __post_init__(self):
        if not _is_power_of_two(len(self.bits)) or len(self.bits) < 2:
            raise NonPowerOfTwoError(
                f"instance length {len(self.bits)} is not a power of two >= 2"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("leaf bits must be 0 or 1")

    @classmethod
    def from_bits(cls, bits) -> "TreeInput":
        return cls(bits=tuple(int(b) for b in bits))

    @property
    def depth(self) -> int:
        return len(self.bits).bit_length() - 1

    @property
    def n_leaves(self) -> int:
        return len(self.bits)

    def to_text(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class EvalTrace:
    """Result of one randomized evaluation: the value and how many
    distinct leaves were read."""

    value: int
    queries: int


def parse_input(text: str) -> TreeInput:
    """Parse a '0'/'1' string into a TreeInput.

    Rejects empty strings, non-power-of-two lengths and any character
    outside {0, 1}.
    """
    if not text:
        raise ValueError("empty instance string")
    if any(c not in "01" for c in text):
        raise ValueError(f"illegal character in instance string: {text!r}")
    return TreeInput.from_bits(int(c) for c in text)


def eval_nand(tree: TreeInput) -> int:
    """Exact root value: fold NAND pairwise from the leaves down."""
    vals = list(tree.bits)
    while len(vals) > 1:
        vals = [1 - (vals[2 * i] & vals[2 * i + 1]) for i in range(len(vals) // 2)]
    return vals[0]


def randomized_eval(tree: TreeInput, seed: int) -> EvalTrace:
    """Zero-error randomized evaluation with leaf-query accounting.

    At every internal node a uniformly random child is evaluated first;
    if it is 0 the node is 1 without touching the sibling, otherwise the
    sibling is evaluated and negated.  The returned value always equals
    eval_nand(tree); only the query count is random.
    """
    rng = np.random.default_rng(seed)
    bits = tree.bits
    depth = tree.depth
    queries = 0

    def node(level: int, pos: int) -> int:
        nonlocal queries
        if level == depth:
            queries += 1
            return bits[pos]
        first = int(rng.integers(2))
        a = node(level + 1, 2 * pos + first)
        if a == 0:
            return 1
        return 1 - node(level + 1, 2 * pos + 1 - first)

    value = node(0, 0)
    return EvalTrace(value=value, queries=queries)


# ---------------------------------------------------------------------------
# Adversarial ("hard") instances.
#
# The worst-case input distribution for the randomized rule is built top
# down: a 0-node forces both children to 1, a 1-node places a 0 on one
# uniformly random child and a 1 on the other.  As the evaluator reads a
# random child first, the query count of a height-h subtree with root value
# v has a law Qv(h): with * the convolution of pmfs and Q0(0) = Q1(0) = delta_1,
#   Q0(h) = Q1(h-1) * Q1(h-1),   Q1(h) = Q0(h-1)/2 + (Q1(h-1) * Q0(h-1))/2,
# whose means E0(h) = 2 E1(h-1), E1(h) = E0(h-1) + E1(h-1)/2 grow by
# log2((1+sqrt(33))/4) = 0.7537... per level (Saks-Wigderson 1986).
# ---------------------------------------------------------------------------


def _check_hard_args(depth: int, root_value: int) -> None:
    if depth < 0 or root_value not in (0, 1):
        raise ValueError(f"need depth >= 0 and root_value 0 or 1, got {depth}, {root_value!r}")


def hard_instance(depth: int, seed: int, root_value: int = 1) -> TreeInput:
    """Draw one instance from the adversarial distribution."""
    _check_hard_args(depth, root_value)
    rng = np.random.default_rng(seed)
    level = np.array([root_value], dtype=np.int8)
    for _ in range(depth):
        coins = rng.integers(0, 2, size=level.size).astype(np.int8)
        left = np.where(level == 0, 1, coins)
        right = np.where(level == 0, 1, 1 - coins)
        nxt = np.empty(2 * level.size, dtype=np.int8)
        nxt[0::2] = left
        nxt[1::2] = right
        level = nxt
    return TreeInput.from_bits(level.tolist())


def expected_hard_queries(depth: int, root_value: int = 1) -> float:
    """Exact expected query count of randomized_eval on the adversarial
    distribution (average over instances and evaluation coins)."""
    _check_hard_args(depth, root_value)
    e0, e1 = 1.0, 1.0
    for _ in range(depth):
        e0, e1 = 2.0 * e1, e0 + e1 / 2.0
    return e0 if root_value == 0 else e1


def hard_query_law(depth: int, root_value: int = 1) -> np.ndarray:
    """Exact law of randomized_eval's query count on the adversarial
    distribution: law[q] = P(q leaves read), for q = 0 .. 2^depth.  Direct
    convolution (cost ~4^depth) keeps every term non-negative; an FFT
    would leave negative round-off in the tails."""
    _check_hard_args(depth, root_value)
    q0 = q1 = np.array([0.0, 1.0])
    for _ in range(depth):
        q10 = np.convolve(q1, q0)
        q10[: q0.size] += q0
        q0, q1 = np.convolve(q1, q1), 0.5 * q10
    return q0 if root_value == 0 else q1


def hard_query_samples(depth: int, trials: int, seed: int, root_value: int = 1) -> np.ndarray:
    """Query counts of randomized_eval over `trials` fresh adversarial
    instances: i.i.d. int64 draws from hard_query_law by inverse CDF."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    cdf = np.cumsum(hard_query_law(depth, root_value))
    u = np.random.default_rng(seed).random(trials)
    return np.searchsorted(cdf, u * cdf[-1], side="right").astype(np.int64)


# ---------------------------------------------------------------------------
# Parity embedding.
#
# A 4-leaf NAND tree on leaves (p, q, r, s) computes (p AND q) OR (r AND s).
# With leaves (a, b, ~a, ~b) that is XNOR(a, b) = (1 + a + b) mod 2, and with
# (a, ~b, ~a, b) it is XOR(a, b).  Composing the two gadgets recursively
# writes the parity of k variables as a k^2-leaf instance in which every
# leaf is a literal of exactly one variable.
# ---------------------------------------------------------------------------


def parity_layout(k: int):
    """Leaf literals for the k-variable parity instance.

    Returns a list of (variable_index, negated) pairs, one per leaf of the
    k^2-leaf tree that evaluates to (1 + x_0 + ... + x_{k-1}) mod 2.
    """
    if not _is_power_of_two(k) or k < 2:
        raise NonPowerOfTwoError(f"variable count {k} is not a power of two >= 2")

    def xor(vs):
        if len(vs) == 1:
            return [(vs[0], False)]
        h = len(vs) // 2
        u, v = vs[:h], vs[h:]
        return xor(u) + xnor(v) + xnor(u) + xor(v)

    def xnor(vs):
        if len(vs) == 1:
            return [(vs[0], True)]
        h = len(vs) // 2
        u, v = vs[:h], vs[h:]
        return xor(u) + xor(v) + xnor(u) + xnor(v)

    return xnor(list(range(k)))


def embed_parity(parity_bits) -> TreeInput:
    """Instance whose root value is (1 + sum(parity_bits)) mod 2.

    The instance has N = k^2 leaves for k input bits; flipping input bit j
    only changes the leaves whose literal references variable j.
    """
    x = [int(b) for b in parity_bits]
    if any(b not in (0, 1) for b in x):
        raise ValueError("parity bits must be 0 or 1")
    layout = parity_layout(len(x))
    return TreeInput.from_bits(x[var] ^ int(neg) for var, neg in layout)


def parity_blocks(k: int):
    """Leaf positions occupied by each variable, as k disjoint tuples."""
    layout = parity_layout(k)
    blocks = [[] for _ in range(k)]
    for pos, (var, _) in enumerate(layout):
        blocks[var].append(pos)
    return [tuple(b) for b in blocks]
