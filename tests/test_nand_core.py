import itertools
import json

import numpy as np
import pytest
from scipy.stats import chi2

from nandwalk import (
    NonPowerOfTwoError,
    TreeInput,
    embed_parity,
    eval_nand,
    expected_hard_queries,
    hard_instance,
    hard_query_law,
    hard_query_samples,
    parity_blocks,
    parity_layout,
    parse_input,
    randomized_eval,
)
from conftest import nand_fold_reference, random_tree

# Every chi-square test below uses fixed seeds, so it is deterministic; its
# threshold is the upper 1e-6 quantile of chi-square with the pooled degrees
# of freedom, so that a correct sampler would fail for about one seed in a
# million.  Moving 2% of the mass in the Q1 recursion from its short-circuit
# branch to a both-children branch raises the depth-4 statistic from 9.1
# to 75, above that threshold of 48.9 (11 degrees of freedom).
CHI2_FALSE_ALARM = 1e-6


def chi_square(samples, law):
    """Pearson statistic of integer samples against a pmf indexed by value.

    Adjacent bins are pooled left to right until each expects >= 5 counts
    (the remainder joins the last bin).  A sample in a bin of probability 0
    fails outright.  Returns (statistic, degrees of freedom).
    """
    observed = np.bincount(samples, minlength=law.size)
    assert observed.size == law.size and not observed[law == 0].any()
    exp_bins, obs_bins, e, o = [], [], 0.0, 0
    for ei, oi in zip(samples.size * law, observed):
        e, o = e + ei, o + oi
        if e >= 5.0:
            exp_bins.append(e)
            obs_bins.append(o)
            e, o = 0.0, 0
    exp_bins[-1] += e
    obs_bins[-1] += o
    ex, ob = np.array(exp_bins), np.array(obs_bins)
    return float(((ob - ex) ** 2 / ex).sum()), ex.size - 1


@pytest.fixture(scope="module")
def depth4_hard_queries(rng):
    """Query counts of the recursive evaluator on 4,000 fresh depth-4
    adversarial instances: the simulation the exact law is checked against."""
    return np.array([
        randomized_eval(hard_instance(4, int(rng.integers(2**32))),
                        int(rng.integers(2**32))).queries
        for _ in range(4000)
    ])


class TestParse:
    def test_basic(self):
        t = parse_input("0110")
        assert t.n_leaves == 4 and t.depth == 2
        t = parse_input("01")
        assert t.n_leaves == 2 and t.depth == 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(NonPowerOfTwoError):
            parse_input("011")

    def test_rejects_empty_and_illegal(self):
        with pytest.raises(ValueError):
            parse_input("")
        with pytest.raises(ValueError):
            parse_input("01a1")

    def test_rejects_single_leaf(self):
        with pytest.raises(NonPowerOfTwoError):
            parse_input("1")

    def test_json_round_trip(self):
        t = parse_input("0110")
        assert t.to_json() == json.dumps({"bits": "0110", "n": 2}, sort_keys=True)
        assert TreeInput.from_json(t.to_json()) == t

    def test_json_inconsistent_depth(self):
        with pytest.raises(ValueError):
            TreeInput.from_json('{"n": 3, "bits": "0110"}')


class TestEval:
    def test_two_leaves(self):
        assert eval_nand(parse_input("11")) == 0
        assert eval_nand(parse_input("00")) == 1
        assert eval_nand(parse_input("01")) == 1

    def test_four_leaves(self):
        # NAND(NAND(0,1), NAND(1,0)) = NAND(1,1)
        assert eval_nand(parse_input("0110")) == 0

    def test_exhaustive_small(self):
        for n_leaves in (2, 4):
            for bits in itertools.product((0, 1), repeat=n_leaves):
                assert eval_nand(TreeInput.from_bits(bits)) == nand_fold_reference(bits)

    def test_random_medium(self, rng):
        for n_leaves in (8, 16):
            for _ in range(512):
                t = random_tree(rng, n_leaves)
                assert eval_nand(t) == nand_fold_reference(t.bits)

    def test_parity_embedding_example(self):
        # (1 + 1 + 0 + 0 + 0) mod 2 = 0 on the 16-leaf embedding
        t = embed_parity([1, 0, 0, 0])
        assert t.n_leaves == 16
        assert eval_nand(t) == 0


class TestRandomizedEval:
    def test_both_ones_reads_both(self):
        for seed in range(8):
            trace = randomized_eval(parse_input("11"), seed)
            assert trace.value == 0 and trace.queries == 2

    def test_both_zeros_short_circuits(self):
        for seed in range(8):
            trace = randomized_eval(parse_input("00"), seed)
            assert trace.value == 1 and trace.queries == 1

    def test_zero_error(self, rng):
        # > 10^3 (instance, seed) pairs across sizes
        pairs = 0
        for n_leaves in (2, 4, 8, 16, 64):
            for k in range(230):
                t = random_tree(rng, n_leaves)
                trace = randomized_eval(t, seed=int(rng.integers(2**32)))
                assert trace.value == eval_nand(t)
                assert 1 <= trace.queries <= n_leaves
                pairs += 1
        assert pairs >= 1000

    def test_recursive_mean_matches_exact_expectation(self, depth4_hard_queries):
        # CLT check of the per-run evaluator against the closed recursion
        qs = depth4_hard_queries.astype(float)
        expect = expected_hard_queries(4)
        assert abs(qs.mean() - expect) < 5.0 * qs.std() / np.sqrt(qs.size)

    def test_recursive_histogram_matches_law(self, depth4_hard_queries):
        # the simulation shares no code with hard_query_law
        stat, dof = chi_square(depth4_hard_queries, hard_query_law(4))
        assert dof >= 8
        assert stat < chi2.isf(CHI2_FALSE_ALARM, dof)

    def test_vectorized_sampler_matches_exact_expectation(self):
        for depth in (6, 8):
            qs = hard_query_samples(depth, trials=20000, seed=99)
            expect = expected_hard_queries(depth)
            assert abs(qs.mean() - expect) < 5.0 * qs.std() / np.sqrt(qs.size)
            assert qs.min() >= 1 and qs.max() <= 2**depth

    def test_hard_instance_shape(self):
        t = hard_instance(5, seed=3)
        assert t.n_leaves == 32
        assert eval_nand(t) == 1
        t0 = hard_instance(5, seed=3, root_value=0)
        assert eval_nand(t0) == 0


class TestHardQueryLaw:
    def test_is_a_pmf(self):
        for depth in range(15):
            for root in (0, 1):
                law = hard_query_law(depth, root)
                assert law.shape == (2**depth + 1,)
                assert law[0] == 0.0 and law.min() >= 0.0
                assert abs(law.sum() - 1.0) < 1e-12

    def test_mean_matches_exact_expectation(self):
        for depth in range(15):
            for root in (0, 1):
                law = hard_query_law(depth, root)
                mean = float(np.arange(law.size) @ law)
                expect = expected_hard_queries(depth, root)
                assert abs(mean - expect) <= 1e-12 * expect

    def test_small_depths_by_hand(self):
        # Q1(1): the 0-child first (1 query) or the 1-child then the 0 (2)
        assert hard_query_law(0, 0).tolist() == hard_query_law(0, 1).tolist() == [0, 1]
        assert hard_query_law(1, 0).tolist() == [0, 0, 1]
        assert hard_query_law(1, 1).tolist() == [0, 0.5, 0.5]
        assert hard_query_law(2, 0).tolist() == [0, 0, 0.25, 0.5, 0.25]
        assert hard_query_law(2, 1).tolist() == [0, 0, 0.5, 0.25, 0.25]

    def test_sampler_is_reproducible(self):
        a = hard_query_samples(10, 5000, seed=7)
        assert a.dtype == np.int64 and a.shape == (5000,)
        assert np.array_equal(a, hard_query_samples(10, 5000, seed=7))
        assert not np.array_equal(a, hard_query_samples(10, 5000, seed=8))

    def test_root_zero_sampler_follows_q0(self):
        depth = 6
        qs = hard_query_samples(depth, 20000, seed=11, root_value=0)
        stat, dof = chi_square(qs, hard_query_law(depth, 0))
        assert dof > 0 and stat < chi2.isf(CHI2_FALSE_ALARM, dof)
        # and not Q1: E0(6) and E1(6) lie about 70 standard errors apart
        se = qs.std() / np.sqrt(qs.size)
        assert abs(qs.mean() - expected_hard_queries(depth, 0)) < 5.0 * se
        assert abs(qs.mean() - expected_hard_queries(depth, 1)) > 50.0 * se

    def test_zero_trials(self):
        qs = hard_query_samples(4, 0, 1)
        assert qs.dtype == np.int64 and qs.shape == (0,)

    @pytest.mark.parametrize("call", [
        lambda: hard_instance(3, 1, 2),
        lambda: hard_instance(-1, 1),
        lambda: expected_hard_queries(3, 2),
        lambda: expected_hard_queries(-1),
        lambda: hard_query_law(3, 2),
        lambda: hard_query_law(-1),
        lambda: hard_query_samples(3, 10, 1, root_value=2),
        lambda: hard_query_samples(-1, 10, 1),
        lambda: hard_query_samples(3, -1, 1),
    ])
    def test_rejects_invalid_arguments(self, call):
        with pytest.raises(ValueError):
            call()


class TestParityEmbedding:
    def test_two_variable_captions(self):
        # k=2 gadget: (1 + a + b) mod 2
        assert eval_nand(embed_parity([0, 0])) == 1
        assert eval_nand(embed_parity([1, 0])) == 0
        assert eval_nand(embed_parity([0, 1])) == 0
        assert eval_nand(embed_parity([1, 1])) == 1

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_exhaustive_parity(self, k):
        for m in range(2**k):
            x = [(m >> j) & 1 for j in range(k)]
            t = embed_parity(x)
            assert t.n_leaves == k * k
            assert eval_nand(t) == (1 + sum(x)) % 2

    def test_rejects_bad_sizes(self):
        with pytest.raises(NonPowerOfTwoError):
            embed_parity([0, 1, 1])
        with pytest.raises(NonPowerOfTwoError):
            embed_parity([1])

    def test_layout_is_single_variable_per_leaf(self):
        for k in (2, 4, 8):
            layout = parity_layout(k)
            assert len(layout) == k * k
            blocks = parity_blocks(k)
            assert sorted(p for b in blocks for p in b) == list(range(k * k))
            assert all(len(b) == k for b in blocks)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_flipping_one_variable_touches_only_its_block(self, k, rng):
        blocks = parity_blocks(k)
        for _ in range(8):
            x = rng.integers(0, 2, k).tolist()
            base = embed_parity(x).bits
            for j in range(k):
                y = list(x)
                y[j] ^= 1
                flipped = embed_parity(y).bits
                changed = {i for i, (a, b) in enumerate(zip(base, flipped)) if a != b}
                assert changed == set(blocks[j])
