import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from udec import (
    InputError,
    InstanceTooLargeError,
    UnsupportedCombinationError,
    additive_family,
    class_key,
    count_classes,
    feedback_tree_ensemble,
    finite_state_family,
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

    def test_finite_state_masses_match_enumeration(self):
        """On finite-state keys the mass, y's class size times one member's
        probability, is within 1e-12 in log2 of the enumerated fsum of its
        members' probabilities, under every static codeword law."""
        fam = finite_state_family(2, 2, 2, lambda x, y, s: x ^ y ^ s)
        rng = np.random.default_rng(11)
        gap = 0.0
        for n in (4, 6, 8):
            for ens in (
                uniform_ensemble(2, n),
                iid_ensemble((0.2, 0.8), n),
                uniform_over_type_ensemble((n // 2, n - n // 2), n),
                linear_dithered_ensemble(n, 2),
            ):
                for _ in range(10):
                    x, y = seq(rng.integers(0, 2, n)), seq(rng.integers(0, 2, n))
                    key = class_key(fam, x, y)
                    direct = math.fsum(
                        2.0 ** log_prob(ens, c) for c in all_sequences(2, n) if class_key(fam, c, y) == key
                    )
                    got = class_probability(ens, key, y)
                    if direct == 0.0:
                        assert got == -math.inf
                    else:
                        gap = max(gap, abs(got - math.log2(direct)))
        assert gap <= 1e-12
        print(f"largest log2 gap {gap:.3g}")

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

    def test_absurd_message_count_refused_before_it_is_built(self):
        """The count 2^(8e7) would take about 10 MB; it is refused before
        any power is formed."""
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLargeError):
                message_count(8, 1e7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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

    def test_numpy_integer_block_length(self):
        assert uniform_ensemble(2, np.int64(8)).n == 8
        assert count_classes(additive_family(2, 2), np.int64(4)).n == 4


# total false-alarm rate of each law test, split over its binomial tests by
# the union bound
FALSE_ALARM = 1e-6


def binomial_p_value(k: int, trials: int, p: float) -> float:
    """Exact two-sided p-value of k successes in Binomial(trials, p): twice
    the tail on k's side of the mean, walked outward from k until the
    terms no longer change the sum."""
    def pmf(i):
        return math.exp(
            math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
            + i * math.log(p) + (trials - i) * math.log1p(-p)
        )

    step = -1 if k <= trials * p else 1
    terms = []
    for i in range(k, -1 if step < 0 else trials + 1, step):
        terms.append(pmf(i))
        if terms[-1] < 1e-20 * terms[0]:
            break
    return min(1.0, 2.0 * math.fsum(terms))


class TestSamplerLaw:
    """A codebook is m independent draws from the ensemble: every word's
    frequency, and every symbol's frequency at every position, passes an
    exact binomial test against the ensemble's law."""

    @pytest.mark.parametrize(
        "ens, m",
        [
            (uniform_over_type_ensemble((5, 3), 8), 56 * 300),  # C(8, 3) = 56 words
            (uniform_ensemble(3, 3), 27 * 300),
            (iid_ensemble((0.2, 0.8), 4), 5000),
        ],
        ids=["uniform_over_type", "uniform", "iid"],
    )
    def test_word_frequencies(self, ens, m):
        counts = collections.Counter(w.symbols for w in sample_codebook(ens, m, 7).codewords)
        support = [x for x in all_sequences(ens.alphabet_size, ens.n) if log_prob(ens, x) != -math.inf]
        assert set(counts) <= {x.symbols for x in support}
        for x in support:
            p = 2.0 ** log_prob(ens, x)
            assert binomial_p_value(counts[x.symbols], m, p) >= FALSE_ALARM / len(support), x.symbols

    @pytest.mark.parametrize(
        "ens", [uniform_ensemble(3, 32), iid_ensemble((0.2, 0.8), 200)], ids=["uniform", "iid"]
    )
    def test_symbol_frequencies(self, ens):
        m = 4096
        probs = ens.probs or (1 / ens.alphabet_size,) * ens.alphabet_size
        words = np.array([w.symbols for w in sample_codebook(ens, m, 11).codewords])
        tests = ens.n * len(probs)
        for a, p in enumerate(probs):
            for count in np.count_nonzero(words == a, axis=0).tolist():
                assert binomial_p_value(count, m, p) >= FALSE_ALARM / tests, (a, count)


def linear_reference(ens, m: int, seed: int):
    """A dithered linear codebook word by word: the dither XOR the generator
    rows at each message's one bits."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0DE)))
    gen_rows = rng.integers(0, 2, size=(ens.message_bits, ens.n), dtype=np.uint8)
    dither = rng.integers(0, 2, size=ens.n, dtype=np.uint8)
    words = []
    for i in range(m):
        word = dither.copy()
        for j in range(ens.message_bits):
            if (i >> j) & 1:
                word ^= gen_rows[j]
        words.append(tuple(int(v) for v in word))
    return words


@pytest.mark.parametrize("n, k, m", [(8, 3, 8), (33, 10, 1000), (70, 66, 300), (20, 12, 4096)])
def test_linear_codebook_matches_the_word_loop(n, k, m):
    ens = linear_dithered_ensemble(n, k)
    for seed in (0, 5, 2**40 + 3):
        book = sample_codebook(ens, m, seed)
        assert [w.symbols for w in book.codewords] == linear_reference(ens, m, seed)


@pytest.mark.parametrize(
    "ens",
    [
        uniform_ensemble(3, 32),
        iid_ensemble((0.2, 0.8), 200),
        uniform_over_type_ensemble((40, 60), 100),
        linear_dithered_ensemble(64, 20),
    ],
    ids=["uniform", "iid", "uniform_over_type", "linear_dithered"],
)
def test_codebook_memory_within_the_scalar_guard(ens):
    """The traced peak of drawing a codebook stays within the bytes per word
    that simulator._scalar_histograms passes to _check_codebook, 8 n + 400: a
    Sequence of n symbols and its objects, with the draw's own arrays."""
    m = 8192
    sample_codebook(ens, 2, 0)  # first-call allocations of numpy and the module
    tracemalloc.start()
    try:
        book = sample_codebook(ens, m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(book) == m
    assert peak / m <= 8 * ens.n + 400
