import itertools
import math

import numpy as np
import pytest

from udec import (
    InputError,
    UnsupportedCombinationError,
    additive_family,
    class_key,
    feedback_tree_ensemble,
    iid_ensemble,
    linear_dithered_ensemble,
    sample_codebook,
    seq,
    uniform_ensemble,
    uniform_over_type_ensemble,
)
from udec.ensembles import FeedbackStateMachine, class_probability, log_prob, message_count
from udec.typeclasses import all_sequences


def two_state_machine():
    return FeedbackStateMachine(
        num_states=2,
        initial_state=0,
        x_alphabet_size=2,
        y_alphabet_size=2,
        next_state=tuple(x ^ y for t in range(2) for x in range(2) for y in range(2)),
        emit=((0.7, 0.3), (0.4, 0.6)),
    )


class TestLogProb:
    def test_uniform(self):
        ens = uniform_ensemble(2, 4)
        for x in all_sequences(2, 4):
            assert log_prob(ens, x) == -4.0

    def test_uniform_over_type_in_support(self):
        ens = uniform_over_type_ensemble((2, 2), 4)
        assert log_prob(ens, seq([0, 0, 1, 1])) == pytest.approx(-math.log2(6))

    def test_uniform_over_type_outside_support(self):
        ens = uniform_over_type_ensemble((2, 2), 4)
        assert log_prob(ens, seq([0, 0, 0, 1])) == -math.inf

    def test_iid(self):
        ens = iid_ensemble((0.75, 0.25), 2)
        assert log_prob(ens, seq([0, 1])) == pytest.approx(math.log2(0.75 * 0.25))

    def test_feedback_requires_output(self):
        ens = feedback_tree_ensemble(two_state_machine(), 3)
        with pytest.raises(InputError):
            log_prob(ens, seq([0, 1, 0]))

    def test_feedback_product_form(self):
        machine = two_state_machine()
        ens = feedback_tree_ensemble(machine, 3)
        x, y = seq([1, 0, 1]), seq([0, 1, 1])
        # states: t1=0; t2 = 1^0 = 1; t3 = 0^1 = 1
        expected = math.log2(0.3) + math.log2(0.4) + math.log2(0.6)
        assert log_prob(ens, x, y) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 6, 10, 12])
    def test_normalization(self, n):
        ensembles_under_test = [
            uniform_ensemble(2, n),
            iid_ensemble((0.3, 0.7), n),
            uniform_over_type_ensemble((n // 2, n - n // 2), n),
            linear_dithered_ensemble(n, 2),
        ]
        for ens in ensembles_under_test:
            total = math.fsum(
                2.0 ** log_prob(ens, x)
                for x in all_sequences(2, n)
                if log_prob(ens, x) != -math.inf
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_feedback_normalization_per_output(self):
        ens = feedback_tree_ensemble(two_state_machine(), 6)
        for y in (seq([0] * 6), seq([0, 1, 1, 0, 1, 0])):
            total = math.fsum(2.0 ** log_prob(ens, x, y) for x in all_sequences(2, 6))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestClassProbability:
    def test_two_member_class(self):
        fam = additive_family(2, 2)
        ens = iid_ensemble((0.5, 0.5), 2)
        key = class_key(fam, seq([0, 1]), seq([0, 0]))
        assert class_probability(ens, key, seq([0, 0])) == pytest.approx(-1.0)

    def test_singleton_class(self):
        fam = additive_family(2, 2)
        ens = iid_ensemble((0.5, 0.5), 2)
        key = class_key(fam, seq([0, 0]), seq([0, 0]))
        assert class_probability(ens, key, seq([0, 0])) == pytest.approx(-2.0)

    def test_uniform_over_type_class(self):
        fam = additive_family(2, 2)
        ens = uniform_over_type_ensemble((1, 1), 2)
        key = class_key(fam, seq([0, 1]), seq([0, 1]))
        assert class_probability(ens, key, seq([0, 1])) == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_closed_forms_match_exhaustive_sums(self, n):
        fam = additive_family(2, 2)
        rng = np.random.default_rng(7)
        ensembles_under_test = [
            uniform_ensemble(2, n),
            iid_ensemble((0.2, 0.8), n),
            uniform_over_type_ensemble((n // 2, n - n // 2), n),
            linear_dithered_ensemble(n, 2),
        ]
        for ens in ensembles_under_test:
            for _ in range(10):
                x = seq(rng.integers(0, 2, n))
                y = seq(rng.integers(0, 2, n))
                key = class_key(fam, x, y)
                direct = math.fsum(
                    2.0 ** log_prob(ens, c)
                    for c in all_sequences(2, n)
                    if class_key(fam, c, y) == key
                    and log_prob(ens, c) != -math.inf
                )
                got = class_probability(ens, key, y)
                if direct == 0.0:
                    assert got == -math.inf
                else:
                    assert 2.0**got == pytest.approx(direct, abs=1e-9)

    def test_feedback_class_mass_exhaustive(self):
        fam = additive_family(2, 2)
        ens = feedback_tree_ensemble(two_state_machine(), 4)
        y = seq([0, 1, 1, 0])
        x = seq([1, 0, 0, 1])
        key = class_key(fam, x, y)
        direct = math.fsum(
            2.0 ** log_prob(ens, c, y)
            for c in all_sequences(2, 4)
            if class_key(fam, c, y) == key
        )
        assert 2.0 ** class_probability(ens, key, y) == pytest.approx(direct, abs=1e-12)


class TestSampling:
    def test_determinism(self):
        ens = uniform_ensemble(2, 8)
        a = sample_codebook(ens, 16, 99)
        b = sample_codebook(ens, 16, 99)
        assert a.codewords == b.codewords

    def test_small_codebook_rejected(self):
        with pytest.raises(InputError):
            sample_codebook(uniform_ensemble(2, 4), 1, 0)

    def test_message_count(self):
        assert message_count(16, 0.25) == 16
        assert message_count(4, 0.01) == 2

    def test_message_count_past_the_float_range(self):
        """Below n*R = 1024 the count is the float floor it always was, so
        no realization changes; from 1024 on, 2.0 ** (n * R) raised
        OverflowError (a traceback and exit 1 from `udec simulate`)."""
        for n in (1, 2, 5, 8, 16, 31, 64, 100, 257, 1000, 1023, 1024, 2000, 5000):
            for rate in (0.0, 0.01, 0.1, 0.25, 1 / 3, 0.5, 0.6, 0.999, 1.0, 1.5):
                e = n * rate
                m = message_count(n, rate)
                if e < 1024:
                    assert m == max(2, int(math.floor(2.0 ** (n * rate))))
                else:
                    k = math.floor(e)
                    assert m.bit_length() == k + 1
                    assert m / 2**k == pytest.approx(2.0 ** (e - k), rel=2**-52)
        assert message_count(2048, 0.5) == 2**1024

    def test_uniform_over_type_words_have_composition(self):
        ens = uniform_over_type_ensemble((3, 5), 8)
        book = sample_codebook(ens, 8, 5)
        for w in book.codewords:
            assert sum(w) == 5

    def test_feedback_cannot_be_materialized(self):
        ens = feedback_tree_ensemble(two_state_machine(), 4)
        with pytest.raises(UnsupportedCombinationError):
            sample_codebook(ens, 4, 0)

    def test_linear_dithered_capacity(self):
        ens = linear_dithered_ensemble(4, 2)
        with pytest.raises(InputError):
            sample_codebook(ens, 5, 0)

    def test_linear_dithered_pairwise_independence_exact(self):
        # enumerate every generator matrix (2x3) and dither word (3 bits):
        # 2^9 equally likely outcomes; check the joint law of any two of the
        # four codewords factorizes exactly, in integer arithmetic
        n, k = 3, 2
        m = 4
        joint = {}
        marg = {}
        total = 0
        for bits in itertools.product(range(2), repeat=k * n + n):
            rows = [bits[r * n : (r + 1) * n] for r in range(k)]
            d = bits[k * n :]
            words = []
            for i in range(m):
                w = list(d)
                for j in range(k):
                    if (i >> j) & 1:
                        w = [a ^ b for a, b in zip(w, rows[j])]
                words.append(tuple(w))
            total += 1
            for i in range(m):
                marg[(i, words[i])] = marg.get((i, words[i]), 0) + 1
                for j in range(i + 1, m):
                    joint[(i, j, words[i], words[j])] = (
                        joint.get((i, j, words[i], words[j]), 0) + 1
                    )
        for i in range(m):
            for a in itertools.product(range(2), repeat=n):
                assert marg.get((i, tuple(a)), 0) * 8 == total  # uniform marginal
                for j in range(i + 1, m):
                    for b in itertools.product(range(2), repeat=n):
                        c = joint.get((i, j, tuple(a), tuple(b)), 0)
                        assert c * total == marg[(i, tuple(a))] * marg[(j, tuple(b))]
