import collections
import copy
import dataclasses
import decimal
import itertools
import math
import pickle
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udec import (
    InputError,
    InstanceTooLargeError,
    MetricIndex,
    UnsupportedCombinationError,
    additive_family,
    bsc,
    count_classes,
    dmc,
    iid_ensemble,
    linear_dithered_ensemble,
    mac_xor,
    mac_xor_additive_family,
    mod_additive_fixed,
    mod_additive_iid,
    seq,
    uniform_ensemble,
)
from udec import channels, decoders, ensembles, families, jointtypes, simulator, typeclasses
from udec.ensembles import FeedbackStateMachine, feedback_tree_ensemble
from udec.typeclasses import Sequence, all_sequences, class_key
from udec.simulator import (
    DecoderSpec,
    EventFamilySpec,
    default_theta_grid,
    exact_bound_audit,
    mac_envelope_audit,
    mac_pairwise_error_exact,
    mac_run_experiment,
    monte_carlo_audit,
    pairwise_error_exact,
    projective_line_family,
    random_pairwise_independent_family,
    run_experiment,
    shulman_check,
    surrogate_condition_check,
    wilson_interval,
    xor_parity_family,
)

FAM = additive_family(2, 2)
MATCH = MetricIndex.additive(((1, 0), (0, 1)))
SPECS = [
    DecoderSpec("universal"),
    DecoderSpec("ml"),
    DecoderSpec("metric", theta=((1.0, 0.0), (0.0, 1.0))),
    DecoderSpec("metric", theta=((0.3, -0.7), (0.1, 0.9))),
]
#: (ensemble, channel, rate, decoders) runs that the joint-type paths take;
#: ML is not a joint-type score on a fixed noise word
JOINT_TYPE_CASES = [
    (uniform_ensemble(2, 8), bsc(0.15), 0.5, SPECS),
    (iid_ensemble((0.5, 0.5), 16), dmc(((0.9, 0.1), (0.2, 0.8))), 0.25, SPECS),
    (uniform_ensemble(2, 16), mod_additive_iid((0.85, 0.15)), 0.25, SPECS),
    (linear_dithered_ensemble(32, 6), bsc(0.25), 0.125, SPECS),
    (uniform_ensemble(2, 32), dmc(((1.0, 0.0), (0.5, 0.5))), 0.125, SPECS),
    (uniform_ensemble(2, 16), mod_additive_fixed([1, 0, 0, 0] * 3 + [0, 1, 0, 0]), 0.25, [SPECS[0]] + SPECS[2:]),
]


def _unpack(word, n):
    """Symbols of a bit-packed word: symbol i is bit i."""
    return seq([(int(word) >> i) & 1 for i in range(n)])


def _fast(ens, ch, specs, m, trials, seed, ties_as_errors, source, fam=FAM):
    """Per-trial error indicators (trials x decoders), the groups that
    ``source`` yields, with fresh type tables for these decoders, or their
    scorers for the scalar source."""
    if source is simulator._scalar_histograms:
        scores = simulator._scorers(specs, fam, ens, ch)
    else:
        scores = jointtypes.tables(specs, ens, ch, kept=source is simulator._packed_histograms)
    return np.concatenate(list(source(ens, ch, m, seed, trials, ties_as_errors, scores)))


def _type_word(n: int, ny: int, flat: int):
    """(x, y): a y of weight ny, ones first, and an x of the joint type at
    flat index ``flat`` with it."""
    a11, a10 = divmod(flat, n - ny + 1)
    x = [1] * a11 + [0] * (ny - a11) + [1] * a10 + [0] * (n - ny - a10)
    return seq(x), seq([1] * ny + [0] * (n - ny))


def _class_sizes(n: int, ny: int) -> list[int]:
    """Reference class sizes C(ny, a11) * C(n - ny, a10) as Python ints, in
    flat order."""
    return [math.comb(ny, a11) * math.comb(n - ny, a10) for a11 in range(ny + 1) for a10 in range(n - ny + 1)]


def _fisher_p(a: int, b: int, trials: int) -> float:
    """Two-sided p-value of Fisher's exact test that a and b errors, each
    in ``trials`` trials, share one error probability: the hypergeometric
    mass of the splits of a + b no likelier than (a, b)."""

    def log_weight(i):  # log C(trials, i) C(trials, k - i), up to a constant
        return -sum(math.lgamma(v + 1) for v in (i, trials - i, k - i, trials - k + i))

    k = a + b
    seen = log_weight(a)
    logs = [log_weight(i) for i in range(max(0, k - trials), min(k, trials) + 1)]
    top = max(logs)
    return math.fsum(math.exp(v - top) for v in logs if v <= seen + 1e-7) / math.fsum(
        math.exp(v - top) for v in logs
    )


def _conditional(above: int, equal: int, n: int, m: int, ties_as_errors: bool) -> float:
    """The error of M uniform codewords given the sent pair, from how many
    of the 2^n words score above and equal to it: 1 - q<^(M - 1) with ties
    as errors; else (lowest index wins, over a uniform sent index) one
    less P(correct) = (q<=^M - q<^M) / (M q=), taken as
    q<=^M (-expm1(M log1p(-q= / q<=))) / (M q=), which does not cancel;
    log q<= is log1p(-q>) while q> < 1/2, which keeps a q> below 2^-53
    that M amplifies."""
    if ties_as_errors:
        q = (above + equal) / 2**n
        return 1.0 if q == 1 else -math.expm1((m - 1) * math.log1p(-q))
    le, eq = (2**n - above) / 2**n, equal / 2**n
    below = math.log1p(-eq / le) if eq < le else -math.inf  # log(q< / q<=)
    gt = above / 2**n
    log_le = math.log1p(-gt) if gt < 0.5 else math.log(le)
    return 1.0 - math.exp(m * log_le) * -math.expm1(m * below) / (m * eq)


def _scalar_scorer(spec, ens, ch, fam=FAM):
    if spec.kind == "universal":
        return decoders.universal_scorer(fam, ens)
    if spec.kind == "ml":
        return decoders.ml_scorer(ch)
    if spec.kind == "lz":
        return decoders.lz_scorer(ens)
    return decoders.metric_scorer(fam, MetricIndex.additive(spec.theta))


def _packed_realization(ens, ch, m, seed):
    """Trial t of the bit-packed kernel, unpacked into sequences."""

    def realize(t):
        code, true_idx, y = simulator._packed_trial(ens, ch, m, seed, t)
        return [_unpack(w, ens.n) for w in code], true_idx, _unpack(y, ens.n)

    return realize


def _sampled_realization(ens, ch, m, seed):
    """Trial t of the scalar path: the same draws it makes."""

    def realize(t):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        book = simulator.ensembles.sample_codebook(ens, m, int(rng.integers(1 << 62)))
        true_idx = int(rng.integers(m))
        return book.codewords, true_idx, channels.transmit(ch, book.codewords[true_idx], (seed, t, 1))

    return realize


def _scalar_errors(ens, ch, specs, trials, realize, ties_as_errors, fam=FAM):
    """Per-trial error indicators of the scalar scores on given realizations."""
    scorers = [_scalar_scorer(spec, ens, ch, fam) for spec in specs]
    errors = np.zeros((trials, len(specs)), dtype=bool)
    for t in range(trials):
        words, true_idx, y = realize(t)
        for d, scorer in enumerate(scorers):
            scores = [scorer(w, y).value for w in words]
            s_true = scores[true_idx]
            if ties_as_errors:
                errors[t, d] = sum(s >= s_true for s in scores) > 1
            else:
                best = max(scores)
                errors[t, d] = s_true < best or best in scores[:true_idx]
    return errors


probs = st.floats(0.0, 1.0)
letters = st.floats(-8.0, 8.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=24),
    theta=st.tuples(letters, letters, letters, letters),
    p0=probs,
    p1=probs,
)
@example(bits=[(0, 1), (1, 1), (1, 0)], theta=(0.1, -0.2, 0.3, 0.7), p0=0.0, p1=1.0)
# subnormal and wide-exponent letters: the exact numerators span 2^1074
@example(
    bits=[(0, 0), (0, 1), (1, 0), (1, 1), (1, 1), (0, 0)],
    theta=(5e-324, 2.0**-1000, 7.5, -(2.0**-1070)),
    p0=1e-300,
    p1=0.5,
)
@example(bits=[(1, 1)] * 3 + [(0, 0)] * 20, theta=(2.0**-60, 0.1, -(2.0**-53), 1.0), p0=0.3, p1=0.0)
def test_type_tables_equal_scalar_scores(bits, theta, p0, p1):
    x, y = seq([a for a, _ in bits]), seq([b for _, b in bits])
    n, ny = len(bits), sum(y)
    k = sum(a & b for a, b in bits) * (n - ny) + sum(x)
    specs, want = [], []
    for ens in (
        uniform_ensemble(2, n),
        linear_dithered_ensemble(n, 3),
        iid_ensemble((0.5, 0.5), n),
    ):
        specs.append((DecoderSpec("universal"), ens, None))
        want.append(decoders.universal_score(FAM, ens, x, y).value)
    # p0 or p1 of 0 or 1 puts zeros in W, so some ML entries are -inf
    for ch in (bsc(p0), dmc(((1.0 - p0, p0), (p1, 1.0 - p1))), mod_additive_iid((1.0 - p1, p1))):
        specs.append((DecoderSpec("ml"), None, ch))
        want.append(decoders.ml_score(ch, x, y).value)
    th = (theta[:2], theta[2:])
    specs.append((DecoderSpec("metric", theta=th), None, None))
    want.append(decoders.metric_score(FAM, MetricIndex.additive(th), x, y).value)
    rules = [jointtypes._type_rule(spec, ens, ch) for spec, ens, ch in specs]
    got = [table[k] for table in jointtypes._Types(rules, n, ny).scores]
    assert got == want


#: letters (00, 01, 10, 11) at the edges of the integer metric rows, whose
#: numerator num = base + a11 * b + a10 * c over 2^k is split as
#: hi * 2^32 + lo when every |num| < 2^85 and k <= 1022
EDGE_THETAS = {
    # at n = 2, y = (1, 0), x = (1, .): num = -2^85 + 2^31 - 2^29 + 1 over
    # 2^32, so hi = -2^53 only once the low parts' carry is added
    "num just below -2^85": (-(2.0**53), (2**31 + 1) * 2.0**-32, -(2.0**53), (2**31 - 2**29 + 1) * 2.0**-32),
    # at n = 2, ny = 1: num = -2^85 - 1 over 2^32, whose hi is not exact
    "num just past -2^85": (-(2.0**53), -(2.0**-32), -(2.0**53), -(2.0**-32)),
    "k = 1022": (2.0**-1022, 3 * 2.0**-1000, -5 * 2.0**-960, 7 * 2.0**-950),
    "k = 1023": (2.0**-1023, 1.0, 2.5, -3.0),
    # b = c11 - c01 is huge, but a11 is only ever 0 at ny = 0
    "b = 2^200": (1.0, 0.0, 0.5, 2.0**200),
    # c = c10 - c00 is huge, but a10 is only ever 0 at ny = n
    "c = 2^200": (1.0, 0.0, 2.0**200, 0.5),
    # num = 2^53 + 1 and 2^53 + 3 over 2^3: ties in the low limb, to even
    "tie in the low limb": (2.0**50, 0.125, 2.0**50, 0.375),
}


@pytest.mark.parametrize("theta", EDGE_THETAS.values(), ids=EDGE_THETAS.keys())
def test_integer_metric_rows_at_their_edges(theta):
    """At every output weight, each entry of a metric row equals
    decoders.metric_score on a pair of its joint type, on both sides of
    the integer rows' bounds |num| < 2^85 and k <= 1022, with a 2^200
    coefficient that only ny = 0 or ny = n leaves unused, and on
    round-half-even ties decided in the low 32 bits."""
    th = (theta[:2], theta[2:])
    rule = jointtypes._type_rule(DecoderSpec("metric", theta=th), None, None)
    for n in (2, 5):
        for ny in range(n + 1):
            table = jointtypes._Types([rule], n, ny).scores[0]
            want = []
            for flat in range(len(table)):
                x, y = _type_word(n, ny, flat)
                want.append(decoders.metric_score(FAM, MetricIndex.additive(th), x, y).value)
            assert table.tolist() == want


@pytest.mark.parametrize("n", [1, 33, 63, 64, 65, 96, 130, 257])
def test_universal_rows_equal_per_type_scores(n):
    """The universal row, built in one pass over the class sizes, equals
    for every output weight the per-type class log mass of the ensemble
    (the scores decoders.universal_score gives), bit for bit, for each
    ensemble the joint-type paths take; a few entries per n are also
    scored by decoders.universal_score itself.  At n = 130 and 257 the
    sizes take 5 and 9 limbs, past uint64 and past one IEEE addition."""
    weights = range(n + 1) if n < 100 else sorted({0, 1, n // 2, n})
    for ens in (uniform_ensemble(2, n), iid_ensemble((0.5, 0.5), n), linear_dithered_ensemble(n, 3)):
        for ny in weights:
            table = jointtypes._Types([ens], n, ny).scores[0]
            want = [
                -ensembles._type_class_log_mass(ens, (n - a11 - a10, a11 + a10), math.comb(ny, a11) * math.comb(n - ny, a10)) / n
                for a11 in range(ny + 1)
                for a10 in range(n - ny + 1)
            ]
            assert table.tolist() == want
            if ny in (0, n // 3, n):
                for flat in {0, len(table) // 2, len(table) - 1}:
                    x, y = _type_word(n, ny, flat)
                    assert table[flat] == decoders.universal_score(FAM, ens, x, y).value


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 96, 130, 257])
def test_class_limbs_equal_python_ints(n):
    """The class sizes, built as one limb-by-limb outer product of two
    Pascal rows with one carry pass, are the Python-int products, limb for
    limb, and the float limbs of a _Types are those limbs."""
    for ny in sorted({0, 1, n // 3, n // 2, n - 1, n}):
        limbs = jointtypes._class_limbs(n, ny)
        assert limbs.dtype == np.uint64 and limbs.shape == ((n + 31) // 32, (ny + 1) * (n - ny + 1))
        got = [sum(int(v) << (32 * k) for k, v in enumerate(col)) for col in limbs.T.tolist()]
        assert got == _class_sizes(n, ny)
        assert (limbs < 2**32).all()
        assert (jointtypes._Types([uniform_ensemble(2, n)], n, ny)._limbs == limbs).all()


#: few distinct scores, so that rows are full of ties, and both infinities
TAIL_SCORES = st.sampled_from([-math.inf, -1.5, -0.25, 0.0, 0.1, 0.25, 3.0, math.inf])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 12))
def test_tail_masses_equal_brute_force(data, rows, cols):
    """tail_masses, read off the dense ranks of the rows (dense_ranks), is
    the per-row `>=` broadcast that the exact audit held in O(N^2) memory,
    ties included, and its equal masses the `==` broadcast.  The float
    masses are dyadic, so every order of summation is exact.  Masses with a
    leading limb axis (limbs x cols), here the 32-bit limbs of integers up
    to 2^100, give each limb row its own broadcast.  The rank rows are the
    distinct rankings, in order of first occurrence, and each score row's
    index picks its own ranking."""
    row = st.lists(TAIL_SCORES, min_size=cols, max_size=cols)
    scores = np.array(data.draw(st.lists(row, min_size=rows, max_size=rows)))
    ranks, rank_of = jointtypes.dense_ranks(scores)
    assert len({r.tobytes() for r in ranks}) == len(ranks)
    assert list(dict.fromkeys(rank_of.tolist())) == list(range(len(ranks)))
    for r, k in zip(scores, rank_of.tolist()):
        assert sorted(set(ranks[k].tolist())) == list(range(len(set(r.tolist()))))
        assert ((ranks[k][None, :] >= ranks[k][:, None]) == (r[None, :] >= r[:, None])).all()
    ints = data.draw(st.lists(st.integers(0, 2**100), min_size=cols, max_size=cols))
    masses = np.array([i % 2**20 for i in ints]) * 2.0**-10
    got, equal = (g[rank_of] for g in jointtypes.tail_masses(ranks, masses))
    assert got.tolist() == [((r[None, :] >= r[:, None]) @ masses).tolist() for r in scores]
    assert equal.tolist() == [((r[None, :] == r[:, None]) @ masses).tolist() for r in scores]
    limbs = np.array([[(i >> (32 * k)) % 2**32 for i in ints] for k in range(4)], dtype=float)
    got, equal = (g[:, rank_of] for g in jointtypes.tail_masses(ranks, limbs))
    assert got.shape == equal.shape == (len(limbs),) + scores.shape
    for limb, tails, ties in zip(limbs, got, equal):
        assert tails.tolist() == [((r[None, :] >= r[:, None]) @ limb).tolist() for r in scores]
        assert ties.tolist() == [((r[None, :] == r[:, None]) @ limb).tolist() for r in scores]
    # read at some entries only, the same floats
    at = np.array(sorted(data.draw(st.sets(st.integers(0, cols - 1), min_size=1))))
    for part, whole in zip(jointtypes.tail_masses(ranks, limbs, at), jointtypes.tail_masses(ranks, limbs)):
        assert part.tolist() == whole[..., at].tolist()


@pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64])
def test_packed_words_are_masked_raw_draws(n):
    # the words are the generator's raw 64-bit draws, masked to n bits, and
    # later draws continue the same stream
    for count in (1, 7, 4097):
        a = np.random.default_rng(np.random.SeedSequence((n, count)))
        b = np.random.default_rng(np.random.SeedSequence((n, count)))
        raw = [int(v) for v in a.bit_generator.random_raw(count)]
        words = simulator._packed_words(b, count, n)
        assert words.dtype == np.uint64
        assert words.tolist() == [v % 2**n for v in raw]
        assert a.integers(count) == b.integers(count)
        assert (a.random(n) == b.random(n)).all()
    # the output flips the sent symbols, each through W(.|its own symbol),
    # or XORs a fixed noise word, all in symbol order
    ch, fixed = dmc(((0.9, 0.1), (0.4, 0.6))), [1, 0, 1] * 22
    for t in range(20):
        a = np.random.default_rng(t)
        b = np.random.default_rng(t)
        word = simulator._packed_words(a, 1, n)[0]
        simulator._packed_words(b, 1, n)
        x = np.array(_unpack(word, n).symbols)
        noise = b.random(n) < np.where(x == 1, 0.4, 0.1)
        assert _unpack(simulator._transmit_packed(a, word, n, ch), n).symbols == tuple(x ^ noise)
        y = simulator._transmit_packed(a, word, n, mod_additive_fixed(fixed[:n]))
        assert _unpack(y, n).symbols == tuple(x ^ fixed[:n])


def test_linear_codebook_words_are_dither_plus_rows():
    # message i's word is the dither XOR the generator rows at i's one bits
    for n, k, m in ((32, 6, 64), (20, 9, 300), (64, 16, 1 << 16), (8, 3, 1)):
        ens = linear_dithered_ensemble(n, k)
        for t in range(3):
            code, _, _ = simulator._packed_trial(ens, bsc(0.1), m, 4, t)
            rng = np.random.default_rng(np.random.SeedSequence((4, t)))
            rows = simulator._packed_words(rng, k, n)
            dither = simulator._packed_words(rng, 1, n)[0]
            assert len(code) == m
            for i in list(range(min(m, 70))) + [m - 1]:
                want = dither
                for j in range(k):
                    if i >> j & 1:
                        want ^= rows[j]
                assert code[i] == want


class TestWilson:
    def test_contains_estimate(self):
        lo, hi = wilson_interval(3, 100)
        assert lo <= 0.03 <= hi

    def test_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1.0


class TestPairwiseExact:
    def test_tight_lower_bound(self):
        ens = iid_ensemble((0.5, 0.5), 2)
        scorer = decoders.metric_scorer(FAM, MATCH)
        r = pairwise_error_exact(ens, scorer, seq([0, 0]), seq([0, 0]), family=FAM)
        assert r.mass == pytest.approx(0.25)
        assert r.log2_lower == pytest.approx(-2.0)
        assert r.lower_ok

    def test_loose_lower_bound(self):
        ens = iid_ensemble((0.5, 0.5), 2)
        scorer = decoders.metric_scorer(FAM, MATCH)
        r = pairwise_error_exact(ens, scorer, seq([0, 1]), seq([0, 0]), family=FAM)
        assert r.mass == pytest.approx(0.75)
        assert 2.0**r.log2_lower == pytest.approx(0.5)
        assert r.lower_ok

    def test_universal_upper_bound(self):
        ens = iid_ensemble((0.5, 0.5), 2)
        scorer = decoders.universal_scorer(FAM, ens)
        for x in (seq([0, 0]), seq([0, 1]), seq([1, 1])):
            r = pairwise_error_exact(
                ens, scorer, x, seq([0, 0]), family=FAM, universal=True
            )
            assert r.upper_ok


class TestExactAudit:
    def test_uniform_small_instance(self):
        thetas = [MetricIndex.additive(m) for m in default_theta_grid(8, bsc(0.1))]
        report = exact_bound_audit(
            uniform_ensemble(2, 4), bsc(0.1), FAM, thetas, 0.25, 4
        )
        assert report.pointwise_ok
        assert report.aggregate_ok
        assert report.violations == ()

    def test_noiseless_channel(self):
        thetas = [MetricIndex.additive(m) for m in default_theta_grid(4, bsc(0.0))]
        report = exact_bound_audit(
            uniform_ensemble(2, 4), bsc(0.0), FAM, thetas, 0.25, 4
        )
        assert report.pointwise_ok and report.aggregate_ok

    def test_finite_state_words_of_one_class_score_alike(self):
        """A finite-state metric is summed exactly, so the words of one
        class score alike: position-order float sums put x = 000011 an ulp
        above the rest of its class against y = 000000 and reported a false
        lower-bound violation for metric 3."""
        family = families.finite_state_family(2, 2, 2, lambda x, y, s: x ^ y ^ s)
        rng = np.random.default_rng(3)
        thetas = [MetricIndex.finite_state(rng.uniform(-1, 1, (2, 2, 2)).tolist()) for _ in range(6)]
        y = seq([0] * 6)
        for theta in thetas:
            by_class = {}
            for x in all_sequences(2, 6):
                score = decoders.metric_score(family, theta, x, y).value
                by_class.setdefault(class_key(family, x, y), set()).add(score)
            assert all(len(scores) == 1 for scores in by_class.values())
        report = exact_bound_audit(uniform_ensemble(2, 6), bsc(0.1), family, thetas, 0.25, 6)
        assert report.pointwise_ok and report.violations == ()

    def test_clipped_union_past_the_float_range(self):
        """min(1, M q) for M = 2^(nR) past 2^1024, where M is no float:
        below it the terms are the plain product, bit for bit; above it a
        tiny mass still gives its product, a zero mass stays 0, and no
        overflow or invalid value is raised (RuntimeWarnings are errors)."""
        masses = np.array([0.0, 2.0**-1074, 2.0**-1040, 2.0**-1030, 1e-300, 0.5, 1.0])
        for log2_m in (0.0, 3.7, 600.0, 1023.9):
            want = np.minimum(1.0, 2.0**log2_m * masses)
            assert simulator._clipped_union(masses, log2_m).tolist() == want.tolist()
        got = simulator._clipped_union(masses, 1034.0)
        assert got.tolist() == pytest.approx([0.0, 2.0**-40, 2.0**-6, 1.0, 1.0, 1.0, 1.0], rel=1e-13)
        assert simulator._clipped_union(masses, 1200.0).tolist() == [0.0] + [1.0] * 6
        thetas = [MetricIndex.additive(m) for m in default_theta_grid(3, bsc(0.1))]
        report = exact_bound_audit(uniform_ensemble(2, 2), bsc(0.1), FAM, thetas, 600.0, 2)
        assert report.lhs_universal == pytest.approx(1.0) and report.rhs_by_theta == pytest.approx((1.0,) * 3)
        assert report.pointwise_ok and report.aggregate_ok

    @pytest.mark.parametrize("instance", ["additive", "finite_state", "feedback"])
    def test_masses_and_violations_equal_the_broadcast(self, instance):
        """The competitor masses of every (x, y), and the violations found
        with a negative tol (forced), in order and message for message,
        equal those of the O(N^2) broadcast the audit used before."""
        ensemble, family, thetas = _audit_instance(instance, 5)
        report = exact_bound_audit(ensemble, bsc(0.1), family, thetas, 0.25, 5, collect_cases=True)
        cases, violations = _audit_by_broadcast(ensemble, family, thetas, 5, 1e-9)
        assert [c[:2] for c in report.cases] == [c[:2] for c in cases]
        for (*_, mass_u, mass_theta, _k), (_, _, want_u, want_theta) in zip(report.cases, cases):
            # feedback masses are not dyadic; sorted sums may round apart
            assert (mass_u,) + mass_theta == pytest.approx((want_u,) + want_theta, rel=1e-12, abs=0)
        assert report.violations == tuple(violations)
        # a tol this negative forces lower- and upper-bound violations
        forced = exact_bound_audit(ensemble, bsc(0.1), family, thetas, 0.25, 5, tol=-0.2)
        _, want = _audit_by_broadcast(ensemble, family, thetas, 5, -0.2)
        assert {v.split()[0] for v in want} == {"lower", "upper"}
        assert forced.violations == tuple(want)
        assert not forced.pointwise_ok


def _audit_instance(kind: str, n: int):
    """(ensemble, family, metrics) of one small exact audit."""
    rng = np.random.default_rng(np.random.SeedSequence((n, 0xA0D)))
    if kind == "finite_state":
        family = families.finite_state_family(2, 2, 2, lambda x, y, s: x ^ y ^ s)
        thetas = [MetricIndex.finite_state(rng.uniform(-1, 1, (2, 2, 2)).tolist()) for _ in range(4)]
        return uniform_ensemble(2, n), family, thetas
    thetas = [MetricIndex.additive(m) for m in default_theta_grid(6, bsc(0.1), seed=3)]
    if kind == "additive":
        return uniform_ensemble(2, n), FAM, thetas
    machine = FeedbackStateMachine(
        num_states=2, initial_state=0, x_alphabet_size=2, y_alphabet_size=2,
        next_state=tuple(x ^ y for t in range(2) for x in range(2) for y in range(2)),
        emit=((0.7, 0.3), (0.4, 0.6)),
    )
    return feedback_tree_ensemble(machine, n), FAM, thetas


def _audit_by_broadcast(ensemble, family, thetas, n, tol):
    """Per (y, x): the universal and per-metric competitor masses by the
    |theta| x N x N comparison broadcast, and the audit's violations in its
    order (y, then x, then lower bounds by metric, then the upper bound)."""
    xs = list(all_sequences(family.x_alphabet_size, n))
    cases, violations = [], []
    for y in all_sequences(family.y_alphabet_size, n):
        q = np.array([2.0 ** ensembles.log_prob(ensemble, x, y) for x in xs])
        if q.sum() == 0.0:
            continue
        keys = [class_key(family, x, y) for x in xs]
        key_mass = {}
        for k, qi in zip(keys, q):
            key_mass[k] = key_mass.get(k, 0.0) + qi
        u = np.array([math.inf if key_mass[k] == 0.0 else -math.log2(key_mass[k]) / n for k in keys])
        scores = np.array([[decoders.metric_score(family, th, x, y).value for x in xs] for th in thetas])
        mass_theta = ((scores[:, None, :] >= scores[:, :, None]) * q).sum(axis=2)
        mass_u = ((u[None, :] >= u[:, None]) * q).sum(axis=1)
        for ix, x in enumerate(xs):
            class_mass = 2.0 ** (-n * u[ix]) if u[ix] != math.inf else 0.0
            violations += [
                f"lower bound violated at x={x.symbols} y={y.symbols} theta#{it}"
                for it in range(len(thetas))
                if mass_theta[it, ix] < class_mass - tol
            ]
            if mass_u[ix] > len(key_mass) * class_mass + tol:
                violations.append(f"upper bound violated at x={x.symbols} y={y.symbols}")
            cases.append((y.symbols, x.symbols, float(mass_u[ix]), tuple(mass_theta[:, ix].tolist())))
    return cases, violations


class TestShulman:
    def test_disjoint_events(self):
        events = (
            [True] * 1 + [False] * 9,
            [False] * 5 + [True] + [False] * 4,
        )
        report = shulman_check(
            EventFamilySpec(10, tuple(np.array(e) for e in events)),
            require_independence=False,
        )
        assert report.union_prob == pytest.approx(0.2)
        assert report.holds

    def test_xor_family_15_events(self):
        report = shulman_check(xor_parity_family(4))
        assert report.num_events == 15
        assert report.union_prob == pytest.approx(15 / 16)
        assert report.sum_prob == pytest.approx(7.5)
        assert report.bound == pytest.approx(0.5)
        assert report.holds

    def test_three_independent_fair_events(self):
        report = shulman_check(xor_parity_family(3, subsets=[1, 2, 4]))
        assert report.union_prob == pytest.approx(7 / 8)
        assert report.holds

    def test_projective_lines(self):
        report = shulman_check(projective_line_family(5))
        assert report.holds

    def test_certificate_rejection(self):
        # two nested events are never pairwise independent
        a = np.array([True, True, False, False])
        b = np.array([True, False, False, False])
        with pytest.raises(InputError):
            shulman_check(EventFamilySpec(4, (a, b)))

    def test_random_families(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            report = shulman_check(random_pairwise_independent_family(rng))
            assert report.holds


class TestSurrogate:
    def test_uniform_sum_at_least_one(self):
        report = surrogate_condition_check(
            lambda n: uniform_ensemble(2, n), [8], samples_per_y=3, seed=1
        )
        # the candidate x = y contributes 2^0 = 1 to every sum
        for _, kappa in report.per_n[8]:
            assert kappa >= 0.0

    def test_trend(self):
        report = surrogate_condition_check(
            lambda n: uniform_ensemble(2, n), [8, 12], samples_per_y=10, seed=0
        )
        assert report.non_increasing


class TestRunExperiment:
    def test_noiseless_channel_no_errors(self):
        # n large enough that codeword collisions (which tie and would count
        # as errors) have negligible probability over these trials
        specs = [DecoderSpec("universal"), DecoderSpec("ml"), DecoderSpec("metric", theta=((1.0, 0.0), (0.0, 1.0)))]
        for est in run_experiment(
            uniform_ensemble(2, 32), bsc(0.0), FAM, specs, 0.25, 300, 5
        ):
            assert est.errors == 0

    def test_determinism(self):
        specs = [DecoderSpec("universal"), DecoderSpec("ml")]
        a = run_experiment(uniform_ensemble(2, 10), bsc(0.1), FAM, specs, 0.3, 400, 11)
        b = run_experiment(uniform_ensemble(2, 10), bsc(0.1), FAM, specs, 0.3, 400, 11)
        assert [(e.errors, e.estimate) for e in a] == [(e.errors, e.estimate) for e in b]

    def test_fast_path_matches_scalar_scorers_per_trial(self):
        # identical realizations, decoded by the bit-packed core and by the
        # scalar decoders.* scores: the per-trial error indicators agree
        for ens, ch, rate, specs in JOINT_TYPE_CASES:
            m = simulator.ensembles.message_count(ens.n, rate)
            assert simulator._select_path(ens, ch, FAM, specs) != "scalar"
            realize = _packed_realization(ens, ch, m, 21)
            for ties in (True, False):
                fast = _fast(ens, ch, specs, m, 150, 21, ties, simulator._packed_histograms)
                assert fast.shape == (150, len(specs))
                assert (fast == _scalar_errors(ens, ch, specs, 150, realize, ties)).all()
        # the scalar path, the only one for non-binary runs, on its own draws
        fam3 = additive_family(3, 3)
        ens, ch = uniform_ensemble(3, 4), mod_additive_iid((0.7, 0.2, 0.1))
        specs3 = SPECS[:2] + [DecoderSpec("metric", theta=np.eye(3).tolist())]
        realize = _sampled_realization(ens, ch, 8, 5)
        for ties in (True, False):
            slow = _fast(ens, ch, specs3, 8, 100, 5, ties, simulator._scalar_histograms, fam3)
            assert (slow == _scalar_errors(ens, ch, specs3, 100, realize, ties, fam3)).all()
        # and the two paths agree in distribution on a binary run
        ens, ch = uniform_ensemble(2, 8), bsc(0.15)
        fast = run_experiment(ens, ch, FAM, SPECS[1:2], 0.25, 3000, 21)[0]
        slow = int(_fast(ens, ch, SPECS[1:2], 4, 3000, 22, True, simulator._scalar_histograms).sum())
        lo, hi = wilson_interval(slow, 3000)
        assert fast.ci_lo <= hi and lo <= fast.ci_hi

    def test_lz_decoder_matches_scalar_scores_per_trial(self):
        # the lz decoder runs the scalar source: per trial it decides as the
        # decoders.* scores on the same draws, and run_experiment reports
        # their totals
        ens, ch = uniform_ensemble(2, 8), bsc(0.15)
        specs = SPECS + [DecoderSpec("lz")]
        assert simulator._select_path(ens, ch, FAM, specs) == "scalar"
        realize = _sampled_realization(ens, ch, 16, 3)
        for ties in (True, False):
            slow = _fast(ens, ch, specs, 16, 60, 3, ties, simulator._scalar_histograms)
            assert (slow == _scalar_errors(ens, ch, specs, 60, realize, ties)).all()
            est = run_experiment(ens, ch, FAM, specs, 0.5, 60, 3, ties_as_errors=ties)
            assert [e.errors for e in est] == slow.sum(axis=0).tolist()
            assert slow[:, -1].any()

    def test_finite_state_universal_walks_each_output_once(self, monkeypatch):
        """The scalar source scores a finite-state universal decoder off one
        class table per trial, not a walk of y per codeword: at n = 16, R =
        1/4 (16 codewords, s' = x XOR y) 5 trials walk 5 times, not 80, and
        no table outlives the run.  Every score, also under a feedback
        ensemble, equals decoders.universal_score bit for bit."""
        fam = families.finite_state_family(2, 2, 2, lambda x, y, s: x ^ y)
        ens, ch = uniform_ensemble(2, 16), bsc(0.1)
        walk, walked = typeclasses.class_table, []

        class Table(dict):  # a dict that a weak reference can follow
            pass

        def counted(*args):
            walked.append(weakref.ref(table := Table(walk(*args))))
            return table

        monkeypatch.setattr(typeclasses, "class_table", counted)
        run_experiment(ens, ch, fam, [DecoderSpec("universal"), DecoderSpec("ml")], 0.25, 5, 3)
        assert len(walked) == 5
        assert [ref() for ref in walked] == [None] * 5
        monkeypatch.undo()
        realize = _sampled_realization(ens, ch, 16, 3)
        scorer = simulator._scorers([DecoderSpec("universal")], fam, ens, ch)[0]
        for t in range(5):
            words, _, y = realize(t)
            want = [decoders.universal_score(fam, ens, w, y).value.hex() for w in words]
            assert [scorer(w, y).value.hex() for w in words] == want
        machine = FeedbackStateMachine(
            num_states=2, initial_state=0, x_alphabet_size=2, y_alphabet_size=2,
            next_state=tuple(x ^ y for t in range(2) for x in range(2) for y in range(2)),
            emit=((0.7, 0.3), (0.4, 0.6)),
        )
        feedback = feedback_tree_ensemble(machine, 6)
        scorer = decoders.universal_scorer(fam, feedback)
        for y in itertools.islice(all_sequences(2, 6), 0, 64, 7):
            want = [decoders.universal_score(fam, feedback, x, y).value.hex() for x in all_sequences(2, 6)]
            assert [scorer(x, y).value.hex() for x in all_sequences(2, 6)] == want

    def test_decode_matches_scalar_reader_under_both_tie_rules(self):
        # decoders.decode on each ternary n = 8 trial's codebook, where ties
        # are common, errs exactly where _read over _scalar_histograms does:
        # with ties as errors, when the sent word is not alone at the top;
        # otherwise when decode's lowest-index winner is another word
        fam3 = additive_family(3, 3)
        ens, ch = uniform_ensemble(3, 8), mod_additive_iid((0.7, 0.2, 0.1))
        identity3 = tuple(tuple(float(i == j) for j in range(3)) for i in range(3))
        specs = [SPECS[0], SPECS[1], DecoderSpec("metric", theta=identity3)]
        assert simulator._select_path(ens, ch, fam3, specs) == "scalar"
        trials, m = 80, 16
        realize = _sampled_realization(ens, ch, m, 5)
        scorers = simulator._scorers(specs, fam3, ens, ch)
        # per trial: the sent message (1-based) and each decoder's decision
        decisions = [
            (true_idx + 1, [decoders.decode(words, y, s) for s in scorers])
            for words, true_idx, y in map(realize, range(trials))
        ]
        by_rule = {
            True: [[r.tied != (sent,) for r in rs] for sent, rs in decisions],
            False: [[r.chosen != sent for r in rs] for sent, rs in decisions],
        }
        for ties, expected in by_rule.items():
            read = _fast(ens, ch, specs, m, trials, 5, ties, simulator._scalar_histograms, fam3)
            assert read.tolist() == expected
        # the sent word shares the top score in some trials, so the rules differ
        assert by_rule[True] != by_rule[False]

    def test_fixed_noise_length_checked_before_any_draw(self, monkeypatch):
        # a 3-symbol noise word at n = 16 is refused, naming both lengths,
        # before the types, packed or scalar source is reached
        def boom(*args):
            raise AssertionError("a source was reached")

        for name in ("_drawn_errors", "_packed_histograms", "_scalar_histograms"):
            monkeypatch.setattr(simulator, name, boom)
        ch = mod_additive_fixed([1, 0, 1])
        cases = [
            (uniform_ensemble(2, 16), [SPECS[0]], "types"),
            (linear_dithered_ensemble(16, 4), [SPECS[0]], "packed"),
            (uniform_ensemble(2, 16), [DecoderSpec("lz")], "scalar"),
        ]
        for ens, specs, path in cases:
            assert simulator._select_path(ens, ch, FAM, specs) == path
            with pytest.raises(InputError, match="3 symbols.*16"):
                run_experiment(ens, ch, FAM, specs, 0.25, 5, 0)

    def test_message_and_kind_refusals_come_before_any_draw(self, monkeypatch):
        # more codewords than a linear code has messages (M = 2^8 > 2^2) and
        # an unknown decoder kind are each refused with an InputError, before
        # any codebook, channel output or sent type is drawn
        def boom(*args):
            raise AssertionError("drew before refusing")

        draws = ((simulator, "_packed_words"), (simulator.ensembles, "sample_codebook"), (jointtypes, "_sent_types"))
        for module, name in draws:
            monkeypatch.setattr(module, name, boom)
        with pytest.raises(InputError, match="more codewords than linear messages available"):
            run_experiment(linear_dithered_ensemble(16, 2), bsc(0.1), FAM, SPECS, 0.5, 1, 0)
        with pytest.raises(InputError, match="unknown decoder kind: 'bogus'"):
            run_experiment(uniform_ensemble(2, 8), bsc(0.1), FAM, [SPECS[0], DecoderSpec("bogus")], 0.25, 1, 0)

    def test_type_domain_matches_packed_oracle(self):
        # the errors drawn from the sent types' conditional errors and the
        # materialized uniform codebooks give each decoder the same error
        # probability: Fisher's exact test, at a false-alarm rate of at most
        # 1e-6 over all comparisons
        cases = [c for c in JOINT_TYPE_CASES if c[0].kind != "linear_dithered"]
        alpha = 1e-6 / sum(2 * len(specs) for *_, specs in cases)
        trials = 3000
        for ens, ch, rate, specs in cases:
            m = simulator.ensembles.message_count(ens.n, rate)
            assert simulator._select_path(ens, ch, FAM, specs) == "types"
            for ties in (True, False):
                drawn = _fast(ens, ch, specs, m, trials, 8, ties, simulator._drawn_errors)
                packed = _fast(ens, ch, specs, m, trials, 9, ties, simulator._packed_histograms)
                for a, b in zip(drawn.sum(axis=0).tolist(), packed.sum(axis=0).tolist()):
                    assert _fisher_p(a, b, trials) > alpha, (ens, ch, ties, a, b)

    def test_ml_and_identity_metric_pair_on_a_bsc(self):
        # on a BSC both scores fall with the Hamming distance, so the paired
        # decoders decide alike in every trial, ties included
        specs = [DecoderSpec("ml"), DecoderSpec("metric", theta=((1.0, 0.0), (0.0, 1.0)))]
        for n, rate in ((16, 0.5), (64, 0.25)):
            ens = uniform_ensemble(2, n)
            m = simulator.ensembles.message_count(n, rate)
            for ties in (True, False):
                errors = _fast(ens, bsc(0.15), specs, m, 1500, 3, ties, simulator._drawn_errors)
                assert errors[:, 0].sum() > 20
                assert (errors[:, 0] == errors[:, 1]).all()

    def test_path_selection(self):
        fixed = mod_additive_fixed([1, 0, 0] * 5 + [1])
        cases = [
            (uniform_ensemble(2, 16), bsc(0.1), SPECS, "types"),
            (iid_ensemble((0.5, 0.5), 64), dmc(((0.9, 0.1), (0.2, 0.8))), SPECS, "types"),
            (uniform_ensemble(2, 16), fixed, [SPECS[0], SPECS[2]], "types"),
            (linear_dithered_ensemble(32, 6), bsc(0.1), SPECS, "packed"),
            (uniform_ensemble(3, 8), mod_additive_iid((0.8, 0.1, 0.1)), SPECS[:2], "scalar"),
            (uniform_ensemble(2, 16), bsc(0.1), SPECS + [DecoderSpec("lz")], "scalar"),
            (uniform_ensemble(2, 16), fixed, SPECS, "scalar"),
            (iid_ensemble((0.4, 0.6), 16), bsc(0.1), SPECS, "scalar"),
            # only the bit-packed source needs 64-bit words
            (uniform_ensemble(2, 65), bsc(0.1), SPECS, "types"),
            (linear_dithered_ensemble(65, 6), bsc(0.1), SPECS, "scalar"),
        ]
        for ens, ch, specs, want in cases:
            fam = additive_family(ens.alphabet_size, ch.y_alphabet_size)
            assert simulator._select_path(ens, ch, fam, specs) == want

    def test_exact_ties_are_counted(self):
        # on the bit-packed realizations the scalar scores give these
        # counts, trial by trial (_scalar_errors, about 40 s); the float
        # class-size ranking once reported fewer errors for U
        specs = [DecoderSpec("universal"), DecoderSpec("ml")]
        errors = _fast(
            uniform_ensemble(2, 32), bsc(0.1), specs, 256, 3000, 11, True, simulator._packed_histograms
        )
        assert errors.sum(axis=0).tolist() == [149, 59]

    def test_type_domain_past_64_bits_against_exact_averages(self):
        """Past n = 64, where no bit-packed oracle runs, the type-domain
        error counts of U and the identity metric over 200000 trials (n = 96,
        R = 0.25, and n = 128, R = 0.5, where M = 2^64; BSC(0.1)) lie in
        their z = 5.3 Wilson intervals (false alarm below 1e-6 for all
        eight) around the exact ensemble averages P(type) e(type), summed
        over the joint types, under both tie rules (_conditional).  The
        tails total the math.comb class sizes of the types that score above
        and equal to the sent type: for U a class smaller or as large, for
        the identity metric a scalar metric_score higher or equal on one
        word of the type."""
        for n, rate in ((96, 0.25), (128, 0.5)):
            self._check_exact_averages(n, rate)

    @staticmethod
    def _check_exact_averages(n, rate):
        p, trials = 0.1, 200000
        ens = uniform_ensemble(2, n)
        specs = [DecoderSpec("universal"), DecoderSpec("metric", theta=((1.0, 0.0), (0.0, 1.0)))]
        assert simulator._select_path(ens, bsc(p), FAM, specs) == "types"
        m = simulator.ensembles.message_count(n, rate)
        identity = _scalar_scorer(specs[1], ens, None)
        exact = {True: [0.0, 0.0], False: [0.0, 0.0]}
        for ny in range(n + 1):
            types = [(a11, a10) for a11 in range(ny + 1) for a10 in range(n - ny + 1)]
            sizes = [math.comb(ny, a11) * math.comb(n - ny, a10) for a11, a10 in types]
            y = Sequence((1,) * ny + (0,) * (n - ny), 2)
            words = (Sequence((1,) * a11 + (0,) * (ny - a11) + (1,) * a10 + (0,) * (n - ny - a10), 2) for a11, a10 in types)
            agreements = [identity(x, y).value for x in words]
            probs = [  # of the sent pair's joint type: flips = ny - a11 + a10
                math.comb(n, ny) * size * 2.0**-n * p ** (ny - a11 + a10) * (1 - p) ** (n - ny + a11 - a10)
                for (a11, a10), size in zip(types, sizes)
            ]
            for d, scores in enumerate(([-size for size in sizes], agreements)):
                equal = {}
                for score, size in zip(scores, sizes):
                    equal[score] = equal.get(score, 0) + size
                above, tails = 0, {}  # score -> words scoring above it, and equal
                for score in sorted(equal, reverse=True):
                    tails[score] = above, equal[score]
                    above += equal[score]
                for ties in exact:
                    exact[ties][d] += math.fsum(
                        prob * _conditional(*tails[score], n, m, ties) for prob, score in zip(probs, scores)
                    )
        for ties, want in exact.items():
            estimates = run_experiment(ens, bsc(p), FAM, specs, rate, trials, 96, ties_as_errors=ties)
            for est, mean in zip(estimates, want):
                lo, hi = wilson_interval(est.errors, trials, z=5.3)
                assert lo <= mean <= hi, (est.decoder, ties, est.errors, mean * trials)

    def test_calibration_against_exhaustive_truth(self):
        # M=2, n=2: enumerate codebooks, sent messages and outputs for the
        # exact error probability of each decoder; with ties broken toward
        # the lower index, a tie errs only when message 1 (of 0, 1) was sent
        ens = uniform_ensemble(2, 2)
        ch = bsc(0.1)
        words = list(all_sequences(2, 2))
        for ties in (True, False):
            est = run_experiment(ens, ch, FAM, SPECS[:3], 0.01, 150000, 13, ties_as_errors=ties)
            for spec, e in zip(SPECS[:3], est):
                scorer = _scalar_scorer(spec, ens, ch)
                terms = []
                for c1, c2, y in itertools.product(words, repeat=3):
                    s_true, s_other = scorer(c1, y).value, scorer(c2, y).value
                    err = 1.0 if s_other > s_true else (1.0 if ties else 0.5) if s_other == s_true else 0.0
                    terms.append(err * (1 / 16) * 2.0 ** channels.log_likelihood(ch, c1, y))
                exact = math.fsum(terms)
                # all six at a false-alarm rate of at most 1e-6 together;
                # at 150000 trials each interval is narrower than a 95 %
                # interval at 20000
                lo, hi = wilson_interval(e.errors, e.trials, z=5.3)
                lo95, hi95 = wilson_interval(round(e.estimate * 20000), 20000)
                assert hi - lo < hi95 - lo95
                assert lo <= exact <= hi, (spec, ties, e.estimate, exact)

    def test_paired_trial_dominance(self):
        # bookkeeping sanity: whenever the universal decoder errs, some
        # competitor scored at least the true codeword's score
        from udec import sample_codebook
        from udec.channels import transmit

        ens = uniform_ensemble(2, 8)
        scorer = decoders.universal_scorer(FAM, ens)
        rng = np.random.default_rng(3)
        for t in range(100):
            book = sample_codebook(ens, 4, int(rng.integers(1 << 32)))
            true_idx = int(rng.integers(4))
            y = transmit(bsc(0.2), book.codewords[true_idx], (55, t))
            scores = [scorer(w, y).value for w in book.codewords]
            err = sum(1 for s in scores if s >= scores[true_idx]) > 1
            if err:
                assert any(
                    s >= scores[true_idx]
                    for i, s in enumerate(scores)
                    if i != true_idx
                )

    def test_linear_dithered_fast_path(self):
        ens = simulator.ensembles.linear_dithered_ensemble(12, 4)
        specs = [DecoderSpec("universal"), DecoderSpec("ml")]
        est = run_experiment(ens, bsc(0.1), FAM, specs, 0.25, 500, 9)
        assert all(0.0 <= e.estimate <= 1.0 for e in est)

    def test_uniform_at_half_rate_runs_in_the_type_domain(self):
        # M = 2^32 codewords: no codebook is materialized
        ens = uniform_ensemble(2, 64)
        for ties in (True, False):
            a = run_experiment(ens, bsc(0.1), FAM, SPECS, 0.5, 30, 4, ties_as_errors=ties)
            b = run_experiment(ens, bsc(0.1), FAM, SPECS, 0.5, 30, 4, ties_as_errors=ties)
            assert a == b
            assert a[1].errors < 30

    def test_size_guards_refuse_before_allocating(self, monkeypatch):
        def boom(*args):
            raise AssertionError("allocated past the size guard")

        # each materialized path, at the sizes they would once have tried:
        # a 32 GB linear span, 2^38 two-user pairs, 2^20 scalar codewords
        monkeypatch.setattr(simulator, "_packed_words", boom)
        monkeypatch.setattr(simulator, "_mac_trial", boom)
        monkeypatch.setattr(simulator.ensembles, "sample_codebook", boom)
        with pytest.raises(InstanceTooLargeError, match="codebook"):
            run_experiment(linear_dithered_ensemble(64, 40), bsc(0.1), FAM, SPECS, 0.5, 1, 0)
        with pytest.raises(InstanceTooLargeError, match="codebook"):
            mac_run_experiment(mac_xor(bsc(0.1)), mac_xor_additive_family(2, 2), SPECS, 0.3, 0.3, 64, 1, 0)
        with pytest.raises(InstanceTooLargeError, match="codebook"):
            run_experiment(iid_ensemble((0.4, 0.6), 80), bsc(0.1), FAM, SPECS[1:2], 0.25, 1, 0)
        # the type-domain draws take M as a float: M = 2^64 runs
        assert [e.trials for e in run_experiment(uniform_ensemble(2, 64), bsc(0.1), FAM, SPECS, 1.0, 1, 0)] == [1] * len(SPECS)
        # the type domain refuses, before any draw, a run or an audit whose
        # largest output weight's table (ny = n // 2) could pass the limit
        # while it is built, and names that weight and its bytes: at n = 400
        # it has over 2^15 types, with int32 ranks.  An audit whose main arm
        # takes the scalar path (a one-state finite-state family) is refused
        # the same way, for its shifted arm's tables
        assert 201 * 201 >= 1 << 15
        size = jointtypes._table_bytes(400, 200, len(SPECS))[1]
        monkeypatch.setattr(jointtypes, "_sent_types", boom)
        monkeypatch.setattr(jointtypes, "_Types", boom)
        # and refuse, before any draw, M >= 2^1024 (n * R >= 1024) for a run
        # and for an audit's shifted arm, at n * (R + delta_n) = 1018.88 + 18.01
        with pytest.raises(InstanceTooLargeError, match="M < 2\\^1024 codewords, not M = 2\\^1024.00"):
            run_experiment(uniform_ensemble(2, 1024), bsc(0.1), FAM, SPECS, 1.0, 1, 0)
        with pytest.raises(InstanceTooLargeError, match="M < 2\\^1024 codewords, not M = 2\\^1036.89"):
            monte_carlo_audit(bsc(0.1), FAM, [], 0.995, 1024, 1, 0, shifted_trials=1)
        monkeypatch.setattr(jointtypes, "_TABLE_BYTES", size - 1)
        with pytest.raises(InstanceTooLargeError, match=f"output weight 200 .* 2\\^{math.log2(size):.2f} bytes"):
            run_experiment(uniform_ensemble(2, 400), bsc(0.1), FAM, SPECS, 0.05, 1, 0)
        monkeypatch.setattr(jointtypes, "_TABLE_BYTES", jointtypes._table_bytes(400, 200, 2)[1] - 1)
        one_state = families.finite_state_family(2, 2, 1, lambda x, y, s: 0)
        for family in (FAM, one_state):
            with pytest.raises(InstanceTooLargeError, match="output weight 200 "):
                monte_carlo_audit(bsc(0.1), family, [], 0.05, 400, 1, 0, shifted_trials=1)
        # and builds it at exactly its bytes: one trial runs
        monkeypatch.undo()
        monkeypatch.setattr(jointtypes, "_TABLE_BYTES", size)
        est = run_experiment(uniform_ensemble(2, 400), bsc(0.1), FAM, SPECS, 0.05, 1, 0)
        assert [e.trials for e in est] == [1] * len(SPECS)
        # the limit is bytes: 8 per packed word, 8 per symbol plus 400 per
        # scalar word, just under and just over it
        monkeypatch.undo()
        monkeypatch.setattr(simulator, "_CODEBOOK_BYTES", 8 * 1024)
        simulator._packed_trial(linear_dithered_ensemble(16, 12), bsc(0.1), 1024, 0, 0)
        with pytest.raises(InstanceTooLargeError):
            simulator._packed_trial(linear_dithered_ensemble(16, 12), bsc(0.1), 1025, 0, 0)
        with pytest.raises(InstanceTooLargeError):
            simulator._packed_trial(uniform_ensemble(2, 16), bsc(0.1), 1025, 0, 0)
        simulator._mac_trials(mac_xor(bsc(0.1)), SPECS[:1], 5 / 16, 5 / 16, 16, 1, 0)  # 32 x 32 pairs
        with pytest.raises(InstanceTooLargeError):
            simulator._mac_trials(mac_xor(bsc(0.1)), SPECS[:1], 5.1 / 16, 5 / 16, 16, 1, 0)
        monkeypatch.setattr(simulator, "_CODEBOOK_BYTES", 8 * (16 + 50) * 16)
        _fast(uniform_ensemble(2, 16), bsc(0.1), SPECS[1:2], 16, 1, 0, True, simulator._scalar_histograms)
        with pytest.raises(InstanceTooLargeError):
            _fast(uniform_ensemble(2, 16), bsc(0.1), SPECS[1:2], 17, 1, 0, True, simulator._scalar_histograms)

    def test_alphabet_mismatch_rejected(self):
        specs = [DecoderSpec("universal"), DecoderSpec("ml")]
        with pytest.raises(InputError, match="input alphabets"):
            run_experiment(uniform_ensemble(3, 8), bsc(0.1), FAM, specs, 0.25, 10, 0)
        ternary_out = dmc(((0.8, 0.1, 0.1), (0.1, 0.1, 0.8)))
        with pytest.raises(InputError, match="output alphabets"):
            run_experiment(uniform_ensemble(2, 8), ternary_out, FAM, specs, 0.25, 10, 0)
        with pytest.raises(InputError, match="output alphabets"):
            mac_run_experiment(mac_xor(ternary_out), mac_xor_additive_family(2, 2), specs, 0.2, 0.2, 8, 10, 0)
        # metrics the kernels cannot score: non-finite entries, wrong shapes
        for bad in (float("nan"), math.inf, -math.inf):
            with pytest.raises(InputError, match="finite"):
                MetricIndex.additive(((bad, 0.0), (0.0, 1.0)))
            with pytest.raises(InputError, match="finite"):
                MetricIndex.finite_state((((1.0,), (0.0,)), ((0.0,), (bad,))))
            nan_spec = [DecoderSpec("metric", theta=((bad, 0.0), (0.0, 1.0)))]
            with pytest.raises(InputError, match="finite"):
                run_experiment(uniform_ensemble(2, 8), bsc(0.1), FAM, nan_spec, 0.25, 10, 0)
        wide = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        wide_spec = specs + [DecoderSpec("metric", theta=wide)]
        for ens in (uniform_ensemble(2, 8), iid_ensemble((0.4, 0.6), 8)):  # fast and scalar paths
            with pytest.raises(InputError, match="2 x 2"):
                run_experiment(ens, bsc(0.1), FAM, wide_spec, 0.25, 10, 0)
        with pytest.raises(InputError, match="2 x 2"):
            mac_run_experiment(mac_xor(bsc(0.1)), mac_xor_additive_family(2, 2), wide_spec, 0.2, 0.2, 8, 10, 0)
        with pytest.raises(InputError, match="2 x 2"):
            monte_carlo_audit(bsc(0.1), FAM, [wide], 0.25, 8, 10, 0)
        with pytest.raises(InputError, match="2 x 2"):
            monte_carlo_audit(bsc(0.1), FAM, [((1.0,), (0.0, 1.0))], 0.25, 8, 10, 0)
        with pytest.raises(InputError, match="2 x 2"):
            exact_bound_audit(uniform_ensemble(2, 4), bsc(0.1), FAM, [MATCH, MetricIndex.additive(wide)], 0.25, 4)

    def test_trials_required(self):
        with pytest.raises(InputError):
            run_experiment(uniform_ensemble(2, 4), bsc(0.1), FAM, [DecoderSpec("ml")], 0.25, 0, 0)
        with pytest.raises(InputError, match="shifted"):
            monte_carlo_audit(bsc(0.1), FAM, [], 0.25, 8, 10, 0, shifted_trials=0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: count_classes(FAM, 0), "block length"),
        (lambda: count_classes(FAM, -3), "block length"),
        (lambda: uniform_ensemble(2, 0), "block length"),
        (lambda: exact_bound_audit(uniform_ensemble(2, 4), bsc(0.1), FAM, [], 0.25, 4), "metric"),
        (lambda: mac_envelope_audit(mac_xor(bsc(0.1)), mac_xor_additive_family(2, 2), [], 0.2, 0.2, 8, 10, 0), "metric"),
        (lambda: run_experiment(uniform_ensemble(2, 8), bsc(0.1), FAM, [], 0.25, 10, 0), "decoder"),
        (lambda: mac_run_experiment(mac_xor(bsc(0.1)), mac_xor_additive_family(2, 2), [], 0.2, 0.2, 8, 10, 0), "decoder"),
        (lambda: run_experiment(uniform_ensemble(2, 8), bsc(0.1), FAM, [DecoderSpec("ml")], -0.25, 10, 0), "non-negative"),
        (lambda: run_experiment(uniform_ensemble(2, 8), bsc(0.1), FAM, [DecoderSpec("ml")], math.nan, 10, 0), "non-negative"),
        (lambda: run_experiment(uniform_ensemble(2, 8), bsc(0.1), FAM, [DecoderSpec("ml")], math.inf, 10, 0), "non-negative"),
        (lambda: monte_carlo_audit(bsc(0.1), FAM, [((1.0, 0.0), (0.0, 1.0))], -0.25, 8, 10, 0), "non-negative"),
        (lambda: exact_bound_audit(uniform_ensemble(2, 4), bsc(0.1), FAM, [MetricIndex.additive(((1.0, 0.0), (0.0, 1.0)))], -1.0, 4), "non-negative"),
        (lambda: uniform_ensemble(2, 2.5), "block length"),
        (lambda: uniform_ensemble(2, True), "block length"),
        (lambda: count_classes(FAM, 2.5), "block length"),
        (lambda: surrogate_condition_check(lambda n: uniform_ensemble(2, n), [2], samples_per_y=0), "samples_per_y"),
        (lambda: mac_run_experiment(bsc(0.1), mac_xor_additive_family(2, 2), SPECS[:1], 0.2, 0.2, 8, 10, 0), "mac_xor"),
        (lambda: mac_run_experiment(mac_xor(bsc(0.1)), mac_xor_additive_family(2, 2), [DecoderSpec("lz")],
                                    0.2, 0.2, 8, 10, 0), "unsupported decoder kind"),
        (lambda: shulman_check(EventFamilySpec(4, ())), "nonempty"),
        (lambda: shulman_check(EventFamilySpec(4, ((True, False, True, False), (True, False)))), "wrong length"),
    ],
    ids=["count_classes-n0", "count_classes-n-3", "ensemble-n0", "exact-no-metrics", "mac-envelope-no-metrics",
         "run-no-decoders", "mac-run-no-decoders", "run-negative-rate", "run-nan-rate", "run-infinite-rate",
         "mc-audit-negative-rate", "exact-negative-rate", "ensemble-n-float", "ensemble-n-bool",
         "count_classes-n-float", "surrogate-no-samples", "mac-run-bsc", "mac-run-lz", "shulman-empty",
         "shulman-short-mask"],
)
def test_degenerate_inputs_raise_input_error(call, match):
    """A zero, negative, fractional or bool block length, a negative or
    non-finite rate, no samples, an empty metric, decoder or event list, a
    channel or decoder the two-user path cannot run and an event mask of
    the wrong length are refused as input errors, before any work."""
    with pytest.raises(InputError, match=match):
        call()


@pytest.mark.parametrize("path", ["packed", "two-user"])
def test_cached_tables_are_bounded_over_all_weights(path, monkeypatch):
    """The bit-packed and two-user paths keep every output weight's table
    for a call, so they refuse, before any draw, tables of all weights that
    could pass the limit together: at n = 64 with a grid of 600 metrics,
    about 300 MB.  At n = 16 with a limit of exactly their bytes one trial
    runs, and one byte under it is refused."""

    def boom(*args):
        raise AssertionError("drew or built past the size guard")

    def run(n, specs):
        if path == "packed":
            return run_experiment(linear_dithered_ensemble(n, 8), bsc(0.1), FAM, specs, 0.1, 1, 0)
        return mac_run_experiment(mac_xor(bsc(0.1)), mac_xor_additive_family(2, 2), specs, 0.05, 0.05, n, 1, 0)

    grid = [DecoderSpec("metric", label=f"m{i}", theta=((1.0, 0.0), (i / 600, 1.0))) for i in range(600)]
    for module, name in ((simulator, "_packed_words"), (simulator, "_mac_trial"), (jointtypes, "_Types")):
        monkeypatch.setattr(module, name, boom)
    with pytest.raises(InstanceTooLargeError, match="all output weights at n = 64 could take 2\\^28.18"):
        run(64, grid)
    sizes = [jointtypes._table_bytes(16, ny, len(SPECS)) for ny in range(17)]
    size = sum(held for held, _ in sizes) + max(built - held for held, built in sizes)
    monkeypatch.setattr(jointtypes, "_TABLE_BYTES", size - 1)
    with pytest.raises(InstanceTooLargeError, match="all output weights at n = 16"):
        run(16, SPECS)
    monkeypatch.undo()
    monkeypatch.setattr(jointtypes, "_TABLE_BYTES", size)
    assert [e.trials for e in run(16, SPECS)] == [1] * len(SPECS)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: mac_run_experiment(mac_xor(bsc(0.1)), mac_xor_additive_family(2, 2), SPECS[:1], 0.2, 0.2, 65, 10, 0),
         InstanceTooLargeError, "n <= 64"),
        (lambda: exact_bound_audit(uniform_ensemble(2, 13), bsc(0.1), FAM, [MATCH], 0.25, 13),
         InstanceTooLargeError, "too large"),
        (lambda: surrogate_condition_check(lambda n: linear_dithered_ensemble(n, 2), [4]),
         UnsupportedCombinationError, "invariant ensemble"),
        (lambda: surrogate_condition_check(lambda n: uniform_ensemble(3, n), [11]), InstanceTooLargeError, "too large"),
    ],
    ids=["mac-run-n65", "exact-past-24-bits", "surrogate-linear", "surrogate-past-16-bits"],
)
def test_oversized_or_unsupported_inputs_are_refused(call, error, match):
    """A two-user run past 64 bits, an exact audit past 24 bits, and a
    surrogate check of a non-invariant ensemble or past 16 bits are
    refused, each with its own error, before any work."""
    with pytest.raises(error, match=match):
        call()


class TestMonteCarloAudit:
    def test_inequalities_hold(self):
        grid = default_theta_grid(4, bsc(0.1), seed=2)
        report = monte_carlo_audit(bsc(0.1), FAM, grid, 0.25, 16, 4000, 17, shifted_trials=800)
        assert report.ineq_factor_ok
        assert report.ineq_rate_ok
        assert math.isfinite(report.ratio_universal_to_ml)
        assert report.estimates[0].decoder == "universal"


    def test_shifted_masses_equal_exhaustive_sums(self):
        """Each replayed sent type's tails are its exhaustive competitor
        masses, and the arm's estimate is the mean, over its trials, of
        1 - (1 - q)^(M - 1) for those masses, with the normal interval of
        their sample variance."""
        specs = [
            DecoderSpec("ml"),
            DecoderSpec("metric", theta=((1.0, 0.0), (0.0, 1.0))),
            DecoderSpec("metric", theta=((0.3, -0.7), (0.1, 0.9))),
        ]
        trials, m = 12, 5
        for n, ch in ((10, bsc(0.1)), (7, dmc(((1.0, 0.0), (0.3, 0.7))))):
            types_of = jointtypes.tables(specs, uniform_ensemble(2, n), ch, kept=False)
            keys, tails = _shifted_arm_tails(ch, types_of, n, trials, 5)
            words = list(all_sequences(2, n))
            cond = []
            for key in keys:
                x, y = _type_word(n, *key)
                row = []
                for d, spec in enumerate(specs):
                    scorer = _scalar_scorer(spec, None, ch)
                    s0 = scorer(x, y).value
                    exhaustive = math.fsum(2.0**-n for w in words if scorer(w, y).value >= s0)
                    assert tails[key][d] == pytest.approx(exhaustive, rel=1e-12)
                    row.append(1 - (1 - exhaustive) ** (m - 1))
                cond.append(row)
            estimates = _shifted_arm(ch, types_of, specs, n, m, 0.5, trials, 5)
            for spec, est, col in zip(specs, estimates, zip(*cond)):
                mean = math.fsum(col) / trials
                half = simulator._Z95 * math.sqrt(max(math.fsum(c * c for c in col) / trials - mean**2, 0) / trials)
                assert (est.decoder, est.trials, est.errors, est.seed) == (f"{spec.name}@shifted", trials, -1, 5)
                assert est.estimate == pytest.approx(mean, rel=1e-12)
                assert est.ci_lo == pytest.approx(max(0.0, mean - half), abs=1e-12)
                assert est.ci_hi == pytest.approx(min(1.0, mean + half), abs=1e-12)

    def test_shifted_arm_reads_the_metric_rows(self):
        """The audit's shifted arm runs ML and the metrics on the tables it
        shares with the main arm, whose first row is U: its estimates are
        those of the arm run on tables of ML and the metrics alone."""
        ch, n, grid = bsc(0.1), 16, default_theta_grid(4, bsc(0.1), seed=2)
        report = monte_carlo_audit(ch, FAM, grid, 0.25, n, 50, 17, shifted_trials=300)
        specs = [DecoderSpec("ml")] + [DecoderSpec("metric", f"metric{i}", th) for i, th in enumerate(grid)]
        types_of = jointtypes.tables(specs, uniform_ensemble(2, n), ch, kept=False)
        m = simulator.ensembles.message_count(n, report.shifted_rate)
        alone = _shifted_arm(ch, types_of, specs, n, m, report.shifted_rate, 300, 18)
        assert report.shifted_estimates == tuple(alone)

    def test_each_score_row_is_sorted_once(self, monkeypatch):
        """Only dense_ranks sorts a score row, once per table built: the
        shifted arm reads its tails off the rank rows of the tables it
        shares with the main arm, and the exact audit ranks its rows once
        per output word."""
        argsort, sorted_in, built = np.argsort, [], []

        def counted(*args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_globals["__name__"] in (simulator.__name__, jointtypes.__name__):
                sorted_in.append(caller.f_code.co_name)
            return argsort(*args, **kwargs)

        init = jointtypes._Types.__init__
        monkeypatch.setattr(jointtypes._Types, "__init__", lambda types, *args: built.append(args) or init(types, *args))
        monkeypatch.setattr(np, "argsort", counted)
        grid = default_theta_grid(4, bsc(0.1), seed=2)
        monte_carlo_audit(bsc(0.1), FAM, grid, 0.25, 16, 200, 3, shifted_trials=300)
        assert built and sorted_in == ["dense_ranks"] * len(built)
        sorted_in.clear()
        thetas = [MetricIndex.additive(th) for th in grid]
        exact_bound_audit(uniform_ensemble(2, 3), bsc(0.1), FAM, thetas, 0.25, 3)
        assert sorted_in == ["dense_ranks"] * 2**3

    def test_reported_sums_do_not_depend_on_memory_layout(self, monkeypatch):
        """The shifted estimates and the exact audit's lhs and rhs are the
        same floats whether the arrays they sum are C- or Fortran-ordered:
        a BLAS product of equal values rounded differently by layout."""
        from_limbs, clipped = jointtypes._from_limbs, simulator._clipped_union
        grid = default_theta_grid(6, bsc(0.1), seed=2)
        thetas = [MetricIndex.additive(th) for th in grid]
        reports = {}
        for order in "CF":
            monkeypatch.setattr(jointtypes, "_from_limbs", lambda *a: np.asarray(from_limbs(*a), order=order))
            monkeypatch.setattr(simulator, "_clipped_union", lambda *a: np.asarray(clipped(*a), order=order))
            shifted = [monte_carlo_audit(bsc(0.1), FAM, grid[:4], 0.25, 32, 50, s, shifted_trials=1000).shifted_estimates for s in range(3)]
            exact = exact_bound_audit(iid_ensemble([0.3, 0.7], 6), bsc(0.1), FAM, thetas, 0.25, 6)
            reports[order] = shifted, exact.lhs_universal, exact.rhs_by_theta
        assert reports["C"] == reports["F"]

    def test_each_type_rule_is_resolved_once(self, monkeypatch):
        """A monte_carlo_audit resolves each decoder's table rule once, for
        all the output weights both arms build tables for; a scalar run
        resolves none."""
        rule, resolved = jointtypes._type_rule, []
        monkeypatch.setattr(jointtypes, "_type_rule", lambda spec, *args: resolved.append(spec.name) or rule(spec, *args))
        grid = default_theta_grid(4, bsc(0.1), seed=2)
        report = monte_carlo_audit(bsc(0.1), FAM, grid, 0.25, 16, 200, 3, shifted_trials=300)
        assert resolved == [e.decoder for e in report.estimates]
        resolved.clear()
        run_experiment(uniform_ensemble(3, 4), mod_additive_iid([0.8, 0.1, 0.1]), additive_family(3, 3), [DecoderSpec("ml")], 0.25, 5, 0)
        assert resolved == []

    def test_shifted_masses_past_64_bits(self):
        """Past n = 64 the class sizes exceed 2^64: the shifted arm's uint64
        counts wrapped at n = 65 (every estimate read 1.0) and overflowed at
        n = 70.  Each mass is the exact Python-int sum of the class sizes of
        the joint types that score at least the sent word, over 2^n, with
        every type scored by a scalar scorer on one word of that type."""
        ch = bsc(0.1)
        specs = SPECS[1:]
        for n in (65, 70, 96):
            types_of = jointtypes.tables(specs, uniform_ensemble(2, n), ch, kept=False)
            keys, tails = _shifted_arm_tails(ch, types_of, n, 2, 11)
            for ny, sent in keys:
                x, y = _type_word(n, ny, sent)
                scorers = [_scalar_scorer(spec, None, ch) for spec in specs]
                sent_scores = [scorer(x, y).value for scorer in scorers]
                totals = [0] * len(specs)
                for flat in range((ny + 1) * (n - ny + 1)):
                    a11, a10 = divmod(flat, n - ny + 1)
                    size = math.comb(ny, a11) * math.comb(n - ny, a10)
                    w = _type_word(n, ny, flat)[0]
                    for d, scorer in enumerate(scorers):
                        totals[d] += size if scorer(w, y).value >= sent_scores[d] else 0
                assert tails[ny, sent].tolist() == [total / 2**n for total in totals]

    def test_shifted_arm_memory_does_not_grow_with_trials(self):
        """The shifted arm adds its trials to running sums: the traced heap
        peak grows by under 100 bytes per extra trial (n = 12, the 25-metric
        default grid), where a (trials x decoders) matrix of conditional
        errors took 664."""
        grid = default_theta_grid(25, bsc(0.1))
        peaks = []
        tracemalloc.start()
        try:
            for shifted in (20000, 200000):
                tracemalloc.reset_peak()
                monte_carlo_audit(bsc(0.1), FAM, grid, 0.25, 12, 10, 1, shifted_trials=shifted)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 180000 < 100

    def test_unsupported_channel_refused_before_any_trial(self, monkeypatch):
        """The shifted arm needs a memoryless binary channel; any other is
        refused before the main arm runs a trial."""

        def boom(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(simulator, "_scalar_histograms", boom)
        monkeypatch.setattr(simulator, "_drawn_errors", boom)
        fixed = mod_additive_fixed([1, 0, 0, 0] * 4)
        state = channels.finite_state_channel(2, 2, 2, lambda x, y, s: y, [[[0.9, 0.1], [0.1, 0.9]], [[0.6, 0.4], [0.4, 0.6]]])
        for ch in (fixed, state):
            with pytest.raises(UnsupportedCombinationError, match="memoryless binary"):
                monte_carlo_audit(ch, FAM, [((1.0, 0.0), (0.0, 1.0))], 0.5, 16, 200, 0)


def _tails(types, sents):
    """(sent types x decoders) tail masses of ``sents``: one tail_masses
    table over the limbs per distinct rank row, read at each decoder's row,
    as exact floats."""
    tails = jointtypes.tail_masses(types._ranks, types._limbs)[0][:, types._rank_of]
    return jointtypes._from_limbs(tails[..., sents], -types.n).T


def _shifted_arm_tails(ch, types_of, n, trials, seed):
    """The (ny, flat index) sent type of each trial of the shifted arm,
    drawn through the arm's generator, and the tails that the arm's one
    table per output weight gives each distinct one, read off the weights
    that _by_weight returns: they strictly increase, each weight's sent
    types strictly increase, and the counts count every trial's sent type
    once."""
    tag = (seed, simulator._SHIFTED_TAG)
    ny, sent = jointtypes._sent_types(np.random.default_rng(np.random.SeedSequence(tag)), ch, n, trials)
    walk = jointtypes.by_weight(np.random.default_rng(np.random.SeedSequence(tag)), ch, n, trials)
    tails, drawn, weights = {}, collections.Counter(), []
    for w, (sents, counts) in walk.items():
        types = types_of(w)
        weights.append(types.ny)
        assert (np.diff(sents) > 0).all()
        for s, row, count in zip(sents.tolist(), _tails(types, sents), counts.tolist()):
            tails[types.ny, s] = row
            drawn[types.ny, s] += count
    assert weights == sorted(set(weights))
    keys = list(zip(ny.tolist(), sent.tolist()))
    assert drawn == collections.Counter(keys)
    return keys, tails


def _arm_weights(ch, n, key, trials):
    """The output weights that a type-domain arm whose generator is keyed
    ``key`` draws for ``trials`` trials (_sent_types)."""
    rng = np.random.default_rng(np.random.SeedSequence(key))
    return set(jointtypes._sent_types(rng, ch, n, trials)[0].tolist())


def _shifted_arm(ch, types_of, specs, n, m, rate, trials, seed):
    """The audit's shifted arm run alone, for the decoders ``specs``, the
    last rows of ``types_of``'s tables: its sent types drawn by output
    weight, each weight's _shifted_sums, and the estimates from them."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, simulator._SHIFTED_TAG)))
    drawn = jointtypes.by_weight(rng, ch, n, trials)
    sums = [simulator._shifted_sums(types_of(ny), len(specs), *drawn[ny], m) for ny in drawn]
    return simulator._shifted_estimates(specs, sums, n, rate, trials, seed)


def test_frozen_results_are_slotted_and_round_trip():
    """Every frozen dataclass of udec.simulator has slots, so its instances
    carry no per-instance dict, and each kind of report comes back equal,
    field for field, from pickle and from copy.deepcopy."""
    frozen = [
        cls for cls in vars(simulator).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == simulator.__name__
        and cls.__dataclass_params__.frozen
    ]
    assert len(frozen) == 10 and all("__slots__" in vars(cls) for cls in frozen)
    grid = default_theta_grid(3, bsc(0.1))
    mac = mac_run_experiment(mac_xor(bsc(0.1)), mac_xor_additive_family(2, 2), SPECS[:2], 0.25, 0.25, 8, 20, 1)
    spec = EventFamilySpec(4, ((True, False, True, False), (True, True, False, False)))
    reports = [
        SPECS[2],
        run_experiment(uniform_ensemble(2, 16), bsc(0.1), FAM, SPECS, 0.25, 50, 1)[0],
        monte_carlo_audit(bsc(0.1), FAM, grid, 0.25, 16, 50, 1, shifted_trials=50),
        exact_bound_audit(uniform_ensemble(2, 3), bsc(0.1), FAM, [MATCH], 0.25, 3, collect_cases=True),
        pairwise_error_exact(uniform_ensemble(2, 3), decoders.ml_scorer(bsc(0.1)), seq([0, 1, 1]), seq([0, 1, 0]), FAM),
        shulman_check(spec),
        surrogate_condition_check(lambda n: uniform_ensemble(2, n), [2, 3], samples_per_y=2),
        mac[0],
        mac_envelope_audit(mac_xor(bsc(0.1)), mac_xor_additive_family(2, 2), grid, 0.25, 0.25, 8, 20, 1),
        mac_pairwise_error_exact(
            mac_xor_additive_family(2, 2), uniform_ensemble(2, 3), uniform_ensemble(2, 3), MATCH,
            seq([0, 1, 1]), seq([1, 1, 0]), seq([1, 0, 1]),
        ),
    ]
    assert sorted(type(r).__name__ for r in reports) == sorted(cls.__name__ for cls in frozen)
    for report in reports:
        assert not hasattr(report, "__dict__")
        for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert type(twin) is type(report) and twin == report and repr(twin) == repr(report)


class TestTypeDomain:
    def test_sent_type_has_the_channel_law(self):
        """The directly drawn sent joint type has the law of a uniform word
        and its output: each (ny, flat index) frequency over 40000 draws
        lies in its z = 6 Wilson interval around the exact probability,
        found by enumerating every input and noise word (false alarm below
        1e-6 over the at most 112 categories)."""
        n, draws = 5, 40000
        words = list(itertools.product((0, 1), repeat=n))
        for ch in (dmc(((0.8, 0.2), (0.35, 0.65))), mod_additive_fixed([1, 0, 1, 1, 0])):
            exact = {}
            for x in words:
                for y in words:
                    p = 2.0**-n * 2.0 ** channels.log_likelihood(ch, seq(x), seq(y))
                    ny = sum(y)
                    a11 = sum(a & b for a, b in zip(x, y))
                    flat = a11 * (n - ny + 1) + sum(x) - a11
                    exact[ny, flat] = exact.get((ny, flat), 0.0) + p
            rng = np.random.default_rng(17)
            counts = {}
            for key in zip(*(a.tolist() for a in jointtypes._sent_types(rng, ch, n, draws))):
                counts[key] = counts.get(key, 0) + 1
            assert set(counts) <= {k for k, p in exact.items() if p > 0}
            for key, p in exact.items():
                lo, hi = wilson_interval(counts.get(key, 0), draws, z=6.0)
                assert lo <= p <= hi, (ch.kind, key, counts.get(key, 0) / draws, p)

    def test_drawn_groups_cover_every_trial_once(self):
        """The type-domain source draws all sent types first, from its own
        generator, then yields one group per output weight drawn, in
        increasing weight, its rows that weight's trials in increasing sent
        type: the rows are the trials, each once.  A row's errors are the
        generator's next uniform, one per trial, below each decoder's
        conditional error at the row's sent type, so in every trial a
        decoder errs whenever one with a conditional error at most its own
        does, and decoders with equal conditional errors decide alike."""
        trials, seed = 300, 6
        for ens, ch, rate, specs in JOINT_TYPE_CASES:
            if ens.kind == "linear_dithered":
                continue
            n, m = ens.n, simulator.ensembles.message_count(ens.n, rate)
            types_of = jointtypes.tables(specs, ens, ch, kept=False)
            for ties in (True, False):
                rng = np.random.default_rng(np.random.SeedSequence((seed, simulator._DRAWN_TAG)))
                walk = jointtypes.by_weight(rng, ch, n, trials)
                groups = list(simulator._drawn_errors(ens, ch, m, seed, trials, ties, types_of))
                assert len(groups) == len(walk)
                for group, (ny, (sents, counts)) in zip(groups, walk.items()):
                    p = np.repeat(jointtypes.conditional_errors(types_of(ny), sents, m, ties), counts, axis=1).T
                    assert group.shape == p.shape == (counts.sum(), len(specs))
                    assert (group == (rng.random(len(p))[:, None] < p)).all()
                    assert ((p[:, :, None] <= p[:, None, :]) <= (group[:, :, None] <= group[:, None, :])).all()
                assert sum(len(g) for g in groups) == trials
                assert 0 < np.concatenate(groups).sum() < trials * len(specs)

    def test_conditional_errors_equal_enumeration(self):
        """At n <= 10, every sent type's conditional error is the exact
        rational one, as a correctly rounded float up to a few ulps of 1:
        with q>, q= and q< the numbers of the 2^n words scoring above, equal
        to and below a word of the sent type (scalar scorers on one word per
        joint type, math.comb class sizes) over 2^n, a sent word is decoded
        with probability q<^(M - 1) with ties as errors, and with ties to the
        lowest index the mean over its uniform index i of q<^i q<=^(M-1-i).
        U, ML, several metrics and a constant metric (every word ties), over
        a BSC and a Z channel, and over the noiseless channel, whose ML
        letters are -inf where x != y; M from 2 up, past 2^n at n = 6."""
        thetas = [((1.0, 0.0), (0.0, 1.0)), ((0.3, -0.7), (0.1, 0.9)), ((0.5, 0.5), (0.5, 0.5)), ((0.0, 1.0), (1.0, 0.0))]
        specs = SPECS[:2] + [DecoderSpec("metric", theta=th) for th in thetas]
        cases = [(6, bsc(0.1)), (9, dmc(((1.0, 0.0), (0.3, 0.7)))), (10, dmc(((1.0, 0.0), (0.0, 1.0))))]
        for n, ch in cases:
            ens = uniform_ensemble(2, n)
            types_of = jointtypes.tables(specs, ens, ch, kept=False)
            scorers = [_scalar_scorer(spec, ens, ch) for spec in specs]
            for ny in sorted({0, 1, n // 2, n}):
                flats = range((ny + 1) * (n - ny + 1))
                sizes = _class_sizes(n, ny)
                scores = [[s(*_type_word(n, ny, f)).value for f in flats] for s in scorers]
                types = types_of(ny)
                sents = np.array(flats)
                for m in (2, 3, 17, 2**n + 5 if n < 8 else 100):
                    for ties in (True, False):
                        got = jointtypes.conditional_errors(types, sents, m, ties)
                        assert got.shape == (len(specs), len(sents))
                        for d, row in enumerate(scores):
                            for s, score in enumerate(row):
                                # word counts: 2^(n (M - 1)) q<^i q<=^(M-1-i) = lt^i le^(M-1-i)
                                le = sum(z for z, v in zip(sizes, row) if v <= score)
                                lt = le - sum(z for z, v in zip(sizes, row) if v == score)
                                if ties:
                                    correct = Fraction(lt ** (m - 1), 2 ** (n * (m - 1)))
                                else:
                                    total = sum(lt**i * le ** (m - 1 - i) for i in range(m))
                                    correct = Fraction(total, m * 2 ** (n * (m - 1)))
                                want = float(1 - correct)
                                assert got[d, s] == pytest.approx(want, rel=1e-12, abs=1e-15), (n, ny, s, d, m, ties)

    @pytest.mark.parametrize("n", [24, 64, 96, 130])
    def test_tail_sums_equal_python_ints(self, n):
        """The five tails of _tail_sums, at 1, 2, 3 and 5 limbs of class
        size, are per limb the exact sums whose limbs, carried, are the
        Python-int totals of the class sizes of the types that score at
        least, above, below, at most and equal to the sent type; each
        decoder's row is its rank row's."""
        specs = SPECS + [DecoderSpec("metric", theta=((0.5, 0.5), (0.5, 0.5)))]
        types_of = jointtypes.tables(specs, uniform_ensemble(2, n), bsc(0.1), kept=False)
        for ny in (n // 2, n // 3, n):
            types = types_of(ny)
            count = types.scores.shape[1]
            sents = np.array(sorted({0, count // 3, count // 2, count - 1}))
            sizes = _class_sizes(n, ny)
            sums = jointtypes._tail_sums(types, sents)
            assert len(types._limbs) == (n + 31) // 32
            for d, row in enumerate(types.scores.tolist()):
                for k, s in enumerate(sents.tolist()):
                    got = [sum(int(v) << (32 * i) for i, v in enumerate(part[:, types._rank_of[d], k])) for part in sums]
                    want = [
                        sum(z for z, v in zip(sizes, row) if test(v, row[s]))
                        for test in (float.__ge__, float.__gt__, float.__lt__, float.__le__, float.__eq__)
                    ]
                    assert got == want

    def test_lowest_index_errors_without_cancellation(self):
        """With ties to the lowest index at n = 64 (M = 2^16), a sent class
        of a few words has q= below 1e-16 of q<=, where q<=^M - q<^M in
        floats cancels to 0 and gave an error of 1: every type's conditional
        error at ny = 32 for U, ML and the identity is within 1e-15 of
        1 - (q<=^M - q<^M) / (M q=) taken with 50-digit decimals from the
        Python-int tails."""
        n, ny, m = 64, 32, 2**16
        types = jointtypes.tables(SPECS[:3], uniform_ensemble(2, n), bsc(0.1), kept=False)(ny)
        count = types.scores.shape[1]
        sizes = _class_sizes(n, ny)
        got = jointtypes.conditional_errors(types, np.arange(count), m, False)
        small = 0
        with decimal.localcontext(decimal.Context(prec=50)):
            for d, row in enumerate(types.scores.tolist()):
                for s in range(count):
                    gt = sum(z for z, v in zip(sizes, row) if v > row[s])
                    eq = sum(z for z, v in zip(sizes, row) if v == row[s])
                    le, lt = (decimal.Decimal(2**n - gt) / 2**n, decimal.Decimal(2**n - gt - eq) / 2**n)
                    q_eq = decimal.Decimal(eq) / 2**n
                    want = 1 - (le**m - lt**m) / (m * q_eq)
                    assert abs(got[d, s] - float(want)) < 1e-15, (d, s, got[d, s], want)
                    small += q_eq < le * decimal.Decimal("1e-16")
        assert small >= 16

    def test_type_domain_realizations_are_pinned(self):
        """The type-domain source's draws are fixed by the seed: uniform
        codewords over BSC(0.1) at R = 0.25, 400 trials, seed 11, with U, ML
        and a 25-metric grid, give these per-decoder error counts under both
        tie rules, at n = 24 and at n = 70 (class sizes of 3 limbs).  Both
        rules draw the same sent types and uniforms, so a decoder's counts
        differ between them only through its conditional errors."""
        ch = bsc(0.1)
        specs = SPECS[:2] + [DecoderSpec("metric", theta=th) for th in default_theta_grid(25, ch, seed=3)]
        pinned = {
            (24, True): [34, 17, 17, 17, 316, 400, 393, 205, 400, 10, 394, 400, 339, 144,
                         39, 355, 32, 400, 339, 22, 355, 382, 400, 400, 393, 400, 32],
            (24, False): [32, 8, 8, 8, 316, 400, 393, 205, 400, 10, 394, 400, 339, 143,
                          39, 355, 31, 400, 339, 19, 355, 382, 400, 400, 393, 400, 31],
            (70, True): [2, 0, 0, 0, 391, 400, 400, 314, 400, 0, 400, 400, 395, 148,
                         19, 398, 19, 400, 395, 5, 398, 399, 400, 400, 400, 400, 19],
            (70, False): [2, 0, 0, 0, 391, 400, 400, 314, 400, 0, 400, 400, 395, 148,
                          19, 398, 19, 400, 395, 5, 398, 399, 400, 400, 400, 400, 19],
        }
        for (n, ties), want in pinned.items():
            ens = uniform_ensemble(2, n)
            assert simulator._select_path(ens, ch, FAM, specs) == "types"
            estimates = run_experiment(ens, ch, FAM, specs, 0.25, 400, 11, ties_as_errors=ties)
            assert [e.errors for e in estimates] == want

    def test_main_arm_memory_does_not_grow_with_trials(self):
        """The type-domain source holds one output weight's trials at a
        time: the traced heap peak grows by under 200 bytes per extra trial
        (n = 16, U, ML and the 25-metric default grid), where one copy of
        the decision cells per trial of a chunk once took 834."""
        ch = bsc(0.1)
        specs = SPECS[:2] + [DecoderSpec("metric", theta=th) for th in default_theta_grid(25, ch)]
        peaks = []
        tracemalloc.start()
        try:
            for trials in (20000, 100000):
                tracemalloc.reset_peak()
                run_experiment(uniform_ensemble(2, 16), ch, FAM, specs, 0.25, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 80000 < 200

    def test_int32_ranks_past_2_to_15_types(self, monkeypatch):
        """From 2^15 joint types at one output weight (n >= 361) the rank
        rows are int32: a short n = 362 run, under both tie rules, builds
        such tables, in which each decoder's rank row is the dense rank of
        its scores, and reads every trial."""
        wide = []

        class Checked(jointtypes._Types):
            def __init__(self, *args):
                super().__init__(*args)
                if self.scores.shape[1] >= 1 << 15:
                    wide.append(self.ny)
                    assert self._ranks.dtype == np.int32
                    for row, k in zip(self.scores, self._rank_of):
                        assert (self._ranks[k] == np.unique(row, return_inverse=True)[1]).all()

        monkeypatch.setattr(jointtypes, "_Types", Checked)
        for ties in (True, False):
            est = run_experiment(uniform_ensemble(2, 362), bsc(0.1), FAM, SPECS, 0.1, 3, 5, ties_as_errors=ties)
            assert [e.trials for e in est] == [3] * len(SPECS)
        assert wide

    def test_audit_streams_one_weight_at_a_time(self, monkeypatch):
        """A monte_carlo_audit builds each output weight's table once for
        both arms, so as many tables as the union of the two arms' weights,
        in increasing weight, and holds at most one at a time, also when its
        main arm takes the scalar path.  The traced heap peak of an n = 128
        audit (grid of 5, 500 + 500 trials) stays under 4 MB; it was 15 MB
        while every weight's table lived for the call."""
        alive, built = [], []

        class Tracked(jointtypes._Types):
            def __init__(self, *args):
                assert [ref() for ref in alive] == [None] * len(alive)
                super().__init__(*args)
                alive.append(weakref.ref(self))
                built.append(self.ny)

        monkeypatch.setattr(jointtypes, "_Types", Tracked)
        ch, seed = bsc(0.1), 5
        monte_carlo_audit(ch, FAM, default_theta_grid(4, ch, seed=2), 0.25, 32, 400, seed, shifted_trials=300)
        main = _arm_weights(ch, 32, (seed, simulator._DRAWN_TAG), 400)
        assert built == sorted(main | _arm_weights(ch, 32, (seed + 1, simulator._SHIFTED_TAG), 300))
        # a one-state finite-state family takes the scalar main arm, which
        # builds no table: the shifted arm walks its own weights alone, to
        # the estimates of the additive family's audit
        built.clear()
        one_state = families.finite_state_family(2, 2, 1, lambda x, y, s: 0)
        alone = monte_carlo_audit(ch, one_state, [], 0.25, 8, 50, seed, shifted_trials=300)
        assert built == sorted(_arm_weights(ch, 8, (seed + 1, simulator._SHIFTED_TAG), 300))
        shared = monte_carlo_audit(ch, FAM, [], 0.25, 8, 50, seed, shifted_trials=300)
        assert alone.shifted_estimates == shared.shifted_estimates
        monkeypatch.undo()
        tracemalloc.start()
        try:
            monte_carlo_audit(ch, FAM, default_theta_grid(5, ch), 0.25, 128, 500, 1, shifted_trials=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("n, metrics", [(64, 4), (128, 25), (362, 0)])
    def test_table_bytes_bound_a_weight(self, n, metrics):
        """_table_bytes is what the guard counts for the largest output
        weight (ny = n // 2): what its table holds once built, and the most
        its build, or a short run that reads such tables, takes (traced
        heap peaks), at int16 and (n = 362) int32 ranks.  What it holds
        may exceed that by the few KB of floats that the interpreter keeps
        on its free list.  With two decoders, the universal rule's
        class-size logs once outgrew the build."""
        ch = bsc(0.1)
        specs = [DecoderSpec("universal"), DecoderSpec("ml")] + [
            DecoderSpec("metric", label=f"m{i}", theta=tuple(map(tuple, th)))
            for i, th in enumerate(default_theta_grid(metrics, ch) if metrics else [])
        ]
        types_of = jointtypes.tables(specs, uniform_ensemble(2, n), ch, kept=False)
        types_of(0)  # a first table, outside the trace
        held, peak = jointtypes._table_bytes(n, n // 2, len(specs))
        tracemalloc.start()
        try:
            types = types_of(n // 2)
            now, built = tracemalloc.get_traced_memory()
            del types
            tracemalloc.reset_peak()
            run_experiment(uniform_ensemble(2, n), ch, FAM, specs, 0.1, 2, 1, ties_as_errors=False)
            run = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert now <= held + (16 << 10) and built <= peak and run <= peak

    def test_shifted_arm_reads_tails_at_its_sent_types(self):
        """One weight's shifted sums keep the tails of its drawn sent types
        alone, not limbs x rank rows x types of them: at n = 200 with 26
        metric decoders (7 limbs, over 10 000 types at the weight) the traced
        peak stays under what the table itself holds (_table_bytes, which
        the guard counts), where every type's tails took over eight times
        that."""
        ch, n = bsc(0.1), 200
        specs = [DecoderSpec("universal"), DecoderSpec("ml")] + [
            DecoderSpec("metric", label=f"m{i}", theta=tuple(map(tuple, th)))
            for i, th in enumerate(default_theta_grid(25, ch))
        ]
        rng = np.random.default_rng(np.random.SeedSequence((3, simulator._SHIFTED_TAG)))
        ny, (sents, counts) = max(jointtypes.by_weight(rng, ch, n, 2000).items(), key=lambda w: len(w[1][0]))
        types = jointtypes.tables(specs, uniform_ensemble(2, n), ch, kept=False)(ny)
        assert len(types._ranks) > 20
        tracemalloc.start()
        try:
            simulator._shifted_sums(types, len(specs) - 1, sents, counts, 2**40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < jointtypes._table_bytes(n, ny, len(specs))[0]

    def test_no_type_tables_outlive_a_call(self, monkeypatch):
        """Every table lives on its call's _Types objects, which are freed
        when the call returns."""
        alive = []

        class Tracked(jointtypes._Types):
            def __init__(self, *args):
                super().__init__(*args)
                alive.append(weakref.ref(self))

        monkeypatch.setattr(jointtypes, "_Types", Tracked)
        run_experiment(uniform_ensemble(2, 16), bsc(0.1), FAM, SPECS, 0.25, 40, 1)
        run_experiment(linear_dithered_ensemble(16, 5), bsc(0.1), FAM, SPECS, 0.25, 10, 1)
        monte_carlo_audit(bsc(0.1), FAM, default_theta_grid(3, bsc(0.1)), 0.25, 16, 40, 1, shifted_trials=20)
        assert len(alive) > 3
        assert [ref() for ref in alive] == [None] * len(alive)


class TestMacSimulator:
    FAM2 = mac_xor_additive_family(2, 2)

    def test_matches_scalar_replay_per_trial(self):
        n, r1, r2, trials = 8, 0.25, 0.25, 200
        q = uniform_ensemble(2, n)
        inner = bsc(0.2)
        specs = [
            DecoderSpec("universal"),
            DecoderSpec("ml"),
            DecoderSpec("metric", theta=((1.0, 0.0), (0.0, 1.0))),
            DecoderSpec("metric", theta=((0.3, -0.7), (0.1, 0.9))),
        ]
        scorers = [
            lambda a, b, y: decoders.mac_universal_score(self.FAM2, q, q, a, b, y, r1, r2).value,
            lambda a, b, y: channels.mac_log_likelihood(mac_xor(inner), a, b, y),
        ] + [
            lambda a, b, y, th=MetricIndex.additive(spec.theta): decoders.mac_metric_score(
                self.FAM2, th, a, b, y
            ).value
            for spec in specs[2:]
        ]
        kinds = simulator._mac_trials(mac_xor(inner), specs, r1, r2, n, trials, 4)
        for t in range(trials):
            book1, book2, i_true, j_true, y_word = simulator._mac_trial(inner, 4, 4, n, 4, t)
            y = _unpack(y_word, n)
            pairs = [(i, j) for i in range(4) for j in range(4)]
            for d, scorer in enumerate(scorers):
                scores = [scorer(_unpack(book1[i], n), _unpack(book2[j], n), y) for i, j in pairs]
                s_true = scores[i_true * 4 + j_true]
                rivals = [(s, -k) for k, s in enumerate(scores) if k != i_true * 4 + j_true]
                best, neg_k = max(rivals)
                # the public decoder, over message indices with the sent
                # pair scored -inf, picks the same best competitor pair
                picked = decoders.mac_decode(
                    range(4), range(4), y,
                    lambda i, j, _, s=scores: -math.inf if (i, j) == (i_true, j_true) else s[i * 4 + j],
                )
                assert (picked.chosen - 1, picked.best_score) == (-neg_k, best)
                want = 0
                if best >= s_true:
                    bi, bj = pairs[-neg_k]
                    want = 1 if bi != i_true and bj != j_true else 2 if bj == j_true else 3
                assert kinds[t, d] == want
        est = mac_run_experiment(mac_xor(inner), self.FAM2, specs, r1, r2, n, trials, 4)
        assert [e.errors for e in est] == np.count_nonzero(kinds, axis=0).tolist()

    def test_exact_three_way_sandwich(self):
        q = uniform_ensemble(2, 6)
        rng = np.random.default_rng(8)
        for _ in range(10):
            r = mac_pairwise_error_exact(
                self.FAM2, q, q, MATCH,
                seq(rng.integers(0, 2, 6)), seq(rng.integers(0, 2, 6)),
                seq(rng.integers(0, 2, 6)),
            )
            assert r.ok

    def test_noiseless_inner_channel(self):
        specs = [DecoderSpec("universal"), DecoderSpec("ml")]
        est = mac_run_experiment(
            mac_xor(bsc(0.0)), self.FAM2, specs, 0.15, 0.15, 12, 200, 3
        )
        for e in est:
            # with a noiseless inner channel the only residual errors are
            # exact codeword collisions (possible at random), so the rate is
            # far below the noisy-channel regime
            assert e.estimate <= 0.1

    def test_error_types_partition(self):
        specs = [DecoderSpec("universal")]
        est = mac_run_experiment(
            mac_xor(bsc(0.1)), self.FAM2, specs, 0.2, 0.2, 12, 500, 6
        )[0]
        assert est.errors_both + est.errors_user1 + est.errors_user2 == est.errors

    def test_negative_rates_refused(self):
        # as decoders.mac_universal_score, the scalar reference, refuses them
        specs = [DecoderSpec("universal"), DecoderSpec("ml")]
        q, w = uniform_ensemble(2, 4), seq([0, 1, 1, 0])
        for r1, r2 in ((-0.1, 0.2), (0.2, -0.1)):
            with pytest.raises(InputError, match="non-negative"):
                mac_run_experiment(mac_xor(bsc(0.1)), self.FAM2, specs, r1, r2, 8, 10, 0)
            with pytest.raises(InputError, match="non-negative"):
                decoders.mac_universal_score(self.FAM2, q, q, w, w, w, r1, r2)

    def test_envelope_audit(self):
        grid = default_theta_grid(4, bsc(0.1), seed=5)
        report = mac_envelope_audit(
            mac_xor(bsc(0.1)), self.FAM2, grid, 0.15, 0.15, 12, 3000, 19
        )
        assert report.verdict == "holds"
        assert report.constant == pytest.approx(96.0 * 2.0 ** (12 * report.delta_n))

    def test_envelope_audit_without_errors_is_inconclusive(self):
        """Where U and the identity metric make no errors, no interval
        separates and nothing is violated: the verdict is inconclusive."""
        grid = [((1.0, 0.0), (0.0, 1.0))]
        report = mac_envelope_audit(mac_xor(bsc(0.01)), self.FAM2, grid, 0.1, 0.1, 16, 50, 3)
        assert [e.errors for e in report.estimates] == [0, 0]
        assert report.verdict == "inconclusive"
