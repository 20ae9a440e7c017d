import math

import numpy as np
import pytest

from udec import (
    InputError,
    MetricIndex,
    UnsupportedCombinationError,
    additive_family,
    bsc,
    decode,
    finite_state_family,
    iid_ensemble,
    lz_universal_score,
    mac_decode,
    mac_universal_score,
    mac_xor_additive_family,
    metric_score,
    ml_score,
    sample_codebook,
    seq,
    uniform_ensemble,
    uniform_over_type_ensemble,
    universal_score,
)
from udec.decoders import mac_lz_score, mac_metric_score
from udec.ensembles import class_probability
from udec.typeclasses import all_sequences, class_key, conditional_class_size, empirical_joint_type

FAM = additive_family(2, 2)
MATCH = MetricIndex.additive(((1, 0), (0, 1)))


class TestMetricScore:
    def test_match_count(self):
        s = metric_score(FAM, MATCH, seq([0, 1, 0, 1]), seq([0, 1, 1, 1]))
        assert s.value == 3.0

    def test_single_state_equals_additive(self):
        fam_fs = finite_state_family(2, 2, 1, lambda x, y, s: 0)
        theta_fs = MetricIndex.finite_state((((1,), (0,)), ((0,), (1,))))
        for x in all_sequences(2, 4):
            y = seq([0, 1, 1, 0])
            add = metric_score(FAM, MATCH, x, y).value
            fs = metric_score(fam_fs, theta_fs, x, y).value
            assert fs == pytest.approx(add)

    def test_finite_state_hand_trace(self):
        fam = finite_state_family(2, 2, 2, lambda x, y, s: x)
        tensor = tuple(
            tuple(
                tuple(float((x == y) + (s == x)) for s in range(2))
                for y in range(2)
            )
            for x in range(2)
        )
        theta = MetricIndex.finite_state(tensor)
        s = metric_score(fam, theta, seq([0, 0, 1, 1]), seq([0, 1, 0, 1]))
        assert s.value == 5.0


class TestUniversalScore:
    def test_two_member_class(self):
        ens = iid_ensemble((0.5, 0.5), 2)
        s = universal_score(FAM, ens, seq([0, 1]), seq([0, 0]))
        assert s.value == pytest.approx(0.5)
        assert s.provenance == "universal_exact"

    def test_singleton_class(self):
        ens = iid_ensemble((0.5, 0.5), 2)
        s = universal_score(FAM, ens, seq([0, 0]), seq([0, 0]))
        assert s.value == pytest.approx(1.0)

    def test_uniform_over_type(self):
        ens = uniform_over_type_ensemble((1, 1), 2)
        s = universal_score(FAM, ens, seq([0, 1]), seq([0, 1]))
        assert s.value == pytest.approx(0.5)

    def test_zero_mass_class_is_infinite(self):
        ens = uniform_over_type_ensemble((1, 1), 2)
        s = universal_score(FAM, ens, seq([0, 0]), seq([0, 1]))
        assert s.infinite

    def test_constant_on_classes(self):
        ens = iid_ensemble((0.3, 0.7), 4)
        y = seq([0, 1, 0, 0])
        groups = {}
        for x in all_sequences(2, 4):
            groups.setdefault(class_key(FAM, x, y), []).append(x)
        for members in groups.values():
            vals = {universal_score(FAM, ens, x, y).value for x in members}
            assert len(vals) == 1

    def test_uniform_over_type_ranking_matches_class_size(self):
        # with Q uniform over one composition, larger conditional classes
        # score lower, exactly
        ens = uniform_over_type_ensemble((2, 2), 4)
        y = seq([0, 0, 1, 1])
        scored = []
        for x in all_sequences(2, 4):
            if sum(x) != 2:
                continue
            u = universal_score(FAM, ens, x, y).value
            size = conditional_class_size(empirical_joint_type(x, y))
            scored.append((u, size))
        for (u1, s1) in scored:
            for (u2, s2) in scored:
                if s1 < s2:
                    assert u1 > u2
                elif s1 == s2:
                    assert u1 == pytest.approx(u2)


class TestLzScore:
    def test_self_given_self(self):
        ens = uniform_ensemble(2, 6)
        s = lz_universal_score(ens, seq([0, 1, 1, 0, 1, 0]), seq([0, 1, 1, 0, 1, 0]))
        assert s.value == pytest.approx(1.0)

    def test_hand_value_zero(self):
        ens = uniform_ensemble(2, 4)
        s = lz_universal_score(ens, seq([0, 1, 0, 1]), seq([0, 0, 1, 1]))
        assert s.value == pytest.approx(0.0)

    def test_hand_value_half(self):
        ens = uniform_ensemble(2, 4)
        s = lz_universal_score(ens, seq([0, 1, 1, 0]), seq([0, 0, 0, 0]))
        assert s.value == pytest.approx(0.5)

    def test_requires_invariant_ensemble(self):
        from udec import feedback_tree_ensemble
        from udec.ensembles import FeedbackStateMachine

        machine = FeedbackStateMachine(
            2, 0, 2, 2, tuple([0] * 8), ((0.5, 0.5), (0.5, 0.5))
        )
        ens = feedback_tree_ensemble(machine, 4)
        with pytest.raises(UnsupportedCombinationError):
            lz_universal_score(ens, seq([0, 1, 0, 1]), seq([0, 0, 1, 1]))


class TestMlScore:
    def test_matches_log_likelihood(self):
        s = ml_score(bsc(0.1), seq([0, 0]), seq([0, 1]))
        assert s.value == pytest.approx(math.log2(0.9 * 0.1))


class TestMacScores:
    FAM2 = mac_xor_additive_family(2, 2)

    def test_worked_instance_with_rates(self):
        q = uniform_ensemble(2, 2)
        s = mac_universal_score(
            self.FAM2, q, q, seq([0, 0]), seq([0, 1]), seq([0, 1]), 0.5, 0.5
        )
        assert s.components[:3] == pytest.approx((1.0, 1.0, 1.0))
        assert s.value == pytest.approx(0.0)

    def test_worked_instance_zero_rates(self):
        q = uniform_ensemble(2, 2)
        s = mac_universal_score(
            self.FAM2, q, q, seq([0, 0]), seq([0, 1]), seq([0, 1]), 0.0, 0.0
        )
        assert s.value == pytest.approx(1.0)

    def test_closed_form_matches_exhaustive(self):
        from udec.decoders import _mac_masses_exhaustive

        q = uniform_ensemble(2, 4)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x1 = seq(rng.integers(0, 2, 4))
            x2 = seq(rng.integers(0, 2, 4))
            y = seq(rng.integers(0, 2, 4))
            s = mac_universal_score(self.FAM2, q, q, x1, x2, y, 0.0, 0.0)
            u0, u1, u2 = _mac_masses_exhaustive(self.FAM2, q, q, x1, x2, y)
            assert s.components[0] == pytest.approx(u0, abs=1e-9)
            assert s.components[1] == pytest.approx(u1, abs=1e-9)
            assert s.components[2] == pytest.approx(u2, abs=1e-9)

    def test_pair_masses_by_user_brute_force(self):
        """Unequal iid users: user k's single-user mass is taken under its
        own ensemble with the other user's sent word held fixed."""
        from udec.decoders import _mac_masses_exhaustive
        from udec.simulator import mac_pairwise_error_exact

        n = 3
        p1, p2 = (0.3, 0.7), (0.6, 0.4)
        q1, q2 = iid_ensemble(p1, n), iid_ensemble(p2, n)
        # dyadic entries: every score is exact, so ties compare exactly
        theta = MetricIndex.additive(((0.5, -0.25), (0.125, 0.75)))
        words = [w.symbols for w in all_sequences(2, n)]

        def prob(p, w):
            return math.prod(p[v] for v in w)

        def masses(x1, x2, keep):
            both = sum(prob(p1, c1) * prob(p2, c2) for c1 in words for c2 in words
                       if keep(tuple(a ^ b for a, b in zip(c1, c2))))
            user1 = sum(prob(p1, c) for c in words if keep(tuple(a ^ b for a, b in zip(c, x2))))
            user2 = sum(prob(p2, c) for c in words if keep(tuple(a ^ b for a, b in zip(x1, c))))
            return both, user1, user2

        rng = np.random.default_rng(7)
        for _ in range(5):
            x1, x2, y = (tuple(rng.integers(0, 2, n).tolist()) for _ in range(3))
            z = tuple(a ^ b for a, b in zip(x1, x2))

            def score(w):
                return sum(theta.values[a][b] for a, b in zip(w, y))

            def joint(w):
                return sorted(zip(w, y))

            want = masses(x1, x2, lambda w: score(w) >= score(z))
            r = mac_pairwise_error_exact(self.FAM2, q1, q2, theta, seq(x1), seq(x2), seq(y))
            assert (r.mass_both, r.mass_user1, r.mass_user2) == pytest.approx(want, rel=1e-12)
            want = [-math.log2(m) / n for m in masses(x1, x2, lambda w: joint(w) == joint(z))]
            got = _mac_masses_exhaustive(self.FAM2, q1, q2, seq(x1), seq(x2), seq(y))
            assert got == pytest.approx(want, rel=1e-12)

    def test_composite_is_min_of_components(self):
        q = uniform_ensemble(2, 4)
        s = mac_universal_score(
            self.FAM2, q, q, seq([0, 1, 1, 0]), seq([1, 1, 0, 0]), seq([0, 0, 1, 1]),
            0.3, 0.1,
        )
        u0, u1, u2, r1, r2 = s.components
        assert s.value == pytest.approx(min(u0 - r1 - r2, u1 - r1, u2 - r2))

    def test_negative_rate_rejected(self):
        q = uniform_ensemble(2, 2)
        with pytest.raises(InputError):
            mac_universal_score(self.FAM2, q, q, seq([0, 0]), seq([0, 1]), seq([0, 1]), -0.1, 0.0)

    def test_metric_score_through_mod_sum(self):
        theta = MetricIndex.additive(((1, 0), (0, 1)))
        s = mac_metric_score(self.FAM2, theta, seq([0, 1]), seq([1, 1]), seq([1, 0]))
        assert s.value == 2.0  # z = (1, 0) matches y exactly

    def test_lz_variant_runs(self):
        s = mac_lz_score(seq([0, 1, 0, 1]), seq([1, 1, 0, 0]), seq([0, 0, 1, 1]), 0.1, 0.1)
        u0, u1, u2, r1, r2 = s.components
        assert s.value == pytest.approx(min(u0 - r1 - r2, u1 - r1, u2 - r2))


class TestDecode:
    def test_plain_argmax(self):
        scores = iter([1.0, 3.0, 2.0])
        result = decode([seq([0]), seq([1]), seq([0])], seq([0]), lambda x, y: next(scores))
        assert result.chosen == 2
        assert not result.tie

    def test_tie_break_lowest_index(self):
        scores = iter([2.0, 2.0])
        result = decode([seq([0]), seq([1])], seq([0]), lambda x, y: next(scores))
        assert result.chosen == 1
        assert result.tie
        assert result.tied == (1, 2)

    def test_all_infinite(self):
        result = decode([seq([0]), seq([1])], seq([0]), lambda x, y: -math.inf)
        assert result.chosen == 1
        assert result.tie

    def test_scale_invariance(self):
        book = sample_codebook(uniform_ensemble(2, 6), 8, 3)
        y = seq([0, 1, 0, 1, 1, 0])

        def scorer(x, yy):
            return metric_score(FAM, MATCH, x, yy).value

        base = decode(book, y, scorer)
        scaled = decode(book, y, lambda x, yy: 7.5 * scorer(x, yy))
        assert base.chosen == scaled.chosen
        assert base.tied == scaled.tied

    def test_mac_decode_pair_index(self):
        scores = iter([0.0, 1.0, 5.0, 2.0])
        result = mac_decode(
            [seq([0]), seq([1])], [seq([0]), seq([1])], seq([0]),
            lambda a, b, y: next(scores),
        )
        assert result.chosen == 3  # flat 1-based: pair (i=2, j=1)

    def test_empty_codebook_rejected(self):
        with pytest.raises(InputError):
            decode([], seq([0]), lambda x, y: 0.0)
        with pytest.raises(InputError):
            mac_decode([], [seq([0])], seq([0]), lambda a, b, y: 0.0)
