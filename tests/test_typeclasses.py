import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udec import (
    InputError,
    InstanceTooLargeError,
    JointType,
    additive_family,
    class_key,
    conditional_class_size,
    count_classes,
    empirical_joint_type,
    empirical_measures,
    finite_state_family,
    seq,
)
from udec import typeclasses
from udec.ensembles import FeedbackStateMachine, feedback_tree_ensemble, log_prob
from udec.typeclasses import (
    Sequence,
    all_sequences,
    class_table,
    classes_for_output,
    key_class_size,
    type_class_size,
)


def enumerated_table(family, y, ensemble=None):
    """Oracle for class_table: y's classes by listing every input, each
    key's number of words or, given a feedback ensemble, the fsum of its
    words' probabilities, with zero-mass classes left out."""
    members = {}
    for x in all_sequences(family.x_alphabet_size, len(y)):
        p = 1 if ensemble is None else 2.0 ** log_prob(ensemble, x, y)
        members.setdefault(class_key(family, x, y).discriminant, []).append(p)
    if ensemble is None:
        return {key: len(ps) for key, ps in members.items()}
    return {key: math.fsum(ps) for key, ps in members.items() if math.fsum(ps)}


def enumerated_counts(family, n):
    """Oracle for count_classes: per output composition, the most classes
    any output with it has, by enumeration."""
    most = {}
    for y in all_sequences(family.y_alphabet_size, n):
        comp = tuple(y.symbols.count(b) for b in range(family.y_alphabet_size))
        most[comp] = max(most.get(comp, 0), len(enumerated_table(family, y)))
    return most


def random_finite_state_family(rng):
    xa, ya, ns = rng.choice((2, 3)), rng.choice((2, 3)), rng.randint(1, 3)
    table = [rng.randrange(ns) for _ in range(xa * ya * ns)]
    return finite_state_family(xa, ya, ns, table, initial_state=rng.randrange(ns))


def random_dyadic_machine(rng, xa, ya):
    """A feedback machine whose emits are 0 or powers of 1/2, so each
    word's probability (log_prob's 2^fsum of exact logs) and each class
    mass is an exact float."""
    # one state in four, on average, never emits some letter
    shapes = {2: ((0.5, 0.5),) * 3 + ((1.0, 0.0),), 3: ((0.5, 0.25, 0.25),) * 3 + ((0.5, 0.5, 0.0),)}[xa]
    ns = rng.randint(1, 3)
    emit = [tuple(rng.sample(rng.choice(shapes), xa)) for _ in range(ns)]
    table = tuple(rng.randrange(ns) for _ in range(ns * xa * ya))
    return FeedbackStateMachine(ns, rng.randrange(ns), xa, ya, table, tuple(emit))


class TestSequence:
    # -1, the alphabet size, and a bad symbol mid-word, at alphabet 3
    @pytest.mark.parametrize("symbols", [(-1, 0, 2), (0, 2, 3), (0, 1, 2, 7, 1, 0), (0, -5, 1, 2)])
    def test_out_of_range_symbol_refused(self, symbols):
        with pytest.raises(InputError, match="symbol out of alphabet range"):
            Sequence(symbols, 3)
        with pytest.raises(InputError, match="symbol out of alphabet range"):
            seq(symbols, 3)

    def test_in_range_symbols_accepted(self):
        assert Sequence((0, 2, 1, 2), 3).symbols == (0, 2, 1, 2)
        assert Sequence((0,), 1).symbols == (0,)


class TestJointType:
    def test_direct_tally(self):
        jt = empirical_joint_type(seq([0, 1, 0, 1]), seq([0, 0, 1, 1]))
        assert jt.counts == ((1, 1), (1, 1))

    def test_constant_pair(self):
        jt = empirical_joint_type(seq([0, 0]), seq([1, 1]))
        assert jt.counts == ((0, 2), (0, 0))

    def test_three_symbols(self):
        jt = empirical_joint_type(seq([0, 0, 1]), seq([0, 1, 1]))
        assert jt.counts == ((1, 1), (0, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            empirical_joint_type(seq([0, 1]), seq([0]))

    def test_marginals(self):
        jt = empirical_joint_type(seq([0, 0, 1]), seq([0, 1, 1]))
        assert jt.x_marginal() == (2, 1)
        assert jt.y_marginal() == (1, 2)

    def test_bad_counts_rejected(self):
        with pytest.raises(InputError):
            JointType(((1, 0), (0, 0)), 2)

    def test_negative_count_rejected(self):
        # the total matches n, so only the sign check can refuse it
        with pytest.raises(InputError, match="non-negative"):
            JointType(((2, -1), (0, 1)), 2)


class TestConditionalClassSize:
    def test_two_member_class(self):
        jt = JointType(((1, 0), (1, 0)), 2)
        assert conditional_class_size(jt) == 2

    def test_singleton_class(self):
        jt = JointType(((2, 0), (0, 2)), 4)
        assert conditional_class_size(jt) == 1

    def test_three_member_class(self):
        # x has one 1 among the three positions where y=0
        jt = JointType(((2, 0), (1, 1)), 4)
        assert conditional_class_size(jt) == 3

    def test_matches_exhaustive_enumeration(self):
        fam = additive_family(2, 2)
        for n in (2, 3, 4, 5):
            for y in all_sequences(2, n):
                groups = {}
                for x in all_sequences(2, n):
                    groups.setdefault(class_key(fam, x, y), []).append(x)
                for key, members in groups.items():
                    jt = empirical_joint_type(members[0], y)
                    assert conditional_class_size(jt) == len(members)
                    assert key_class_size(key) == len(members)

    def test_type_class_size(self):
        assert type_class_size((2, 2)) == 6
        assert type_class_size((4, 0)) == 1


class TestInfoMeasures:
    def test_identical_sequences(self):
        m = empirical_measures(empirical_joint_type(seq([0, 1, 0, 1]), seq([0, 1, 0, 1])))
        assert m.i_xy == pytest.approx(1.0)

    def test_independent_sequences(self):
        m = empirical_measures(empirical_joint_type(seq([0, 0, 1, 1]), seq([0, 1, 0, 1])))
        assert m.i_xy == pytest.approx(0.0)

    def test_hand_computed_values(self):
        m = empirical_measures(empirical_joint_type(seq([0, 0, 0, 1]), seq([0, 0, 1, 1])))
        assert m.h_x == pytest.approx(0.8112781244591328, abs=1e-12)
        assert m.h_x_given_y == pytest.approx(0.5, abs=1e-12)
        assert m.i_xy == pytest.approx(0.3112781244591328, abs=1e-12)

    def test_divergence_uniform_reference(self):
        m = empirical_measures(
            empirical_joint_type(seq([0, 0, 0, 1]), seq([0, 0, 1, 1])),
            reference_q=(0.5, 0.5),
        )
        assert m.d_x_vs_q == pytest.approx(1.0 - 0.8112781244591328, abs=1e-12)

    def test_divergence_infinite_on_zero_reference(self):
        m = empirical_measures(
            empirical_joint_type(seq([0, 1]), seq([0, 0])), reference_q=(1.0, 0.0)
        )
        assert m.d_x_vs_q == math.inf

    def test_identity_i_equals_hx_minus_hxy(self):
        for x in all_sequences(2, 5):
            for y in all_sequences(2, 5):
                m = empirical_measures(empirical_joint_type(x, y))
                assert m.i_xy == pytest.approx(m.h_x - m.h_x_given_y, abs=1e-12)


class TestClassKey:
    def test_additive_key_is_joint_counts(self):
        fam = additive_family(2, 2)
        key = class_key(fam, seq([0, 1]), seq([0, 0]))
        assert key.discriminant == (1, 0, 1, 0)

    def test_y_alphabet_must_match_family(self):
        # a ternary y against a binary-output family is refused with one
        # line by both the key and the walk, not keyed with 6 counts for a
        # 4-count family, nor left to an IndexError
        fam, y = additive_family(2, 2), seq([2, 0], 3)
        for call in (lambda: class_key(fam, seq([0, 1]), y), lambda: class_table(fam, y)):
            with pytest.raises(InputError, match="y alphabet has 3 symbols, the family's 2") as err:
                call()
            assert len(str(err.value).splitlines()) == 1

    def test_single_state_reduces_to_additive(self):
        fam_fs = finite_state_family(2, 2, 1, lambda x, y, s: 0)
        fam_add = additive_family(2, 2)
        for x in all_sequences(2, 4):
            y = seq([0, 1, 0, 1])
            assert (
                class_key(fam_fs, x, y).discriminant
                == class_key(fam_add, x, y).discriminant
            )

    def test_state_driven_key_hand_trace(self):
        fam = finite_state_family(2, 2, 2, lambda x, y, s: x)
        key = class_key(fam, seq([0, 0, 1, 1]), seq([0, 1, 0, 1]))
        # visited states are (0, 0, 0, 1); counts indexed by (x, y, s)
        counts = {}
        for (x, y, s) in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]:
            counts[(x * 2 + y) * 2 + s] = counts.get((x * 2 + y) * 2 + s, 0) + 1
        expected = tuple(counts.get(i, 0) for i in range(8))
        assert key.discriminant == expected

    def test_partition_property(self):
        # keys partition the input space: every sequence in exactly one class
        fam = additive_family(2, 2)
        for n in (2, 4, 6):
            for y in (seq([0] * n), seq([0, 1] * (n // 2))):
                seen = {}
                total = 0
                for x in all_sequences(2, n):
                    seen.setdefault(class_key(fam, x, y), 0)
                    seen[class_key(fam, x, y)] += 1
                    total += 1
                assert sum(seen.values()) == total == 2**n

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_key_equality_implies_metric_equality(self, n, data):
        import numpy as np

        from udec import MetricIndex, metric_score

        fam = additive_family(2, 2)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        y = seq(rng.integers(0, 2, n))
        groups = {}
        for x in all_sequences(2, n):
            groups.setdefault(class_key(fam, x, y), []).append(x)
        thetas = [MetricIndex.additive(rng.uniform(-1, 1, (2, 2))) for _ in range(5)]
        for members in groups.values():
            for th in thetas:
                ref = metric_score(fam, th, members[0], y).value
                for x in members[1:]:
                    assert metric_score(fam, th, x, y).value == pytest.approx(
                        ref, abs=1e-12
                    )


class TestCountClasses:
    def test_n2_distinct_output(self):
        fam = additive_family(2, 2)
        assert classes_for_output(fam, seq([0, 1])) == 4

    def test_n2_constant_output(self):
        fam = additive_family(2, 2)
        assert classes_for_output(fam, seq([0, 0])) == 3

    def test_polynomial_growth_bound(self):
        fam = additive_family(2, 2)
        for n in range(1, 11):
            report = count_classes(fam, n)
            assert report.max_classes <= (n + 1) ** 4

    def test_combinatorial_agrees_with_exhaustive(self):
        fam = additive_family(2, 2)
        for n in (2, 4, 6):
            comb = count_classes(fam, n)
            exact = enumerated_counts(fam, n)
            assert comb.counts_by_composition == exact
            assert comb.max_classes == max(exact.values())

    def test_log_growth(self):
        fam = additive_family(2, 2)
        report = count_classes(fam, 2)
        assert report.max_classes == 4
        assert report.log_growth == pytest.approx(1.0)

    def test_finite_state_counting(self):
        fam = finite_state_family(2, 2, 2, lambda x, y, s: x ^ y)
        report = count_classes(fam, 4)
        assert report.counts_by_composition == enumerated_counts(fam, 4)
        assert report.max_classes == max(report.counts_by_composition.values())

    def test_finite_state_classes_for_output_match_exhaustive_counts(self):
        # per output, the class count is the enumerated one, and per output
        # composition count_classes holds the most of them; at n = 1 each
        # input letter is its own class
        for fam in (
            finite_state_family(2, 2, 2, lambda x, y, s: x ^ y),
            finite_state_family(2, 3, 3, lambda x, y, s: (s + x + y) % 3, initial_state=1),
        ):
            assert classes_for_output(fam, seq([0], fam.y_alphabet_size)) == 2
            for n in range(1, 5):
                most = {}
                for y in all_sequences(fam.y_alphabet_size, n):
                    comp = tuple(y.symbols.count(b) for b in range(fam.y_alphabet_size))
                    k = classes_for_output(fam, y)
                    assert k == len(enumerated_table(fam, y))
                    most[comp] = max(most.get(comp, 0), k)
                assert most == count_classes(fam, n).counts_by_composition

    def test_size_guard(self):
        # a finite-state count walks all 2^13 outputs, over the 2^24 bound
        # on inputs times outputs
        fam = finite_state_family(2, 2, 2, lambda x, y, s: x ^ y)
        with pytest.raises(InstanceTooLargeError):
            list(all_sequences(2, 60))
        with pytest.raises(InstanceTooLargeError, match="finite-state class count"):
            count_classes(fam, 13)


class TestClassTable:
    def test_sizes_equal_enumeration(self):
        # random finite-state families (|X|, |Y| in {2, 3}, 1 to 3 states,
        # random next-state tables and initial states) and random outputs
        rng = random.Random(27)
        for _ in range(40):
            fam = random_finite_state_family(rng)
            n = rng.randint(1, 8 if fam.x_alphabet_size == 2 else 6)
            y = seq([rng.randrange(fam.y_alphabet_size) for _ in range(n)], fam.y_alphabet_size)
            assert class_table(fam, y) == enumerated_table(fam, y)

    def test_feedback_masses_equal_enumeration(self):
        # with emits 0 or powers of 1/2 every product and sum is exact, so the
        # carried masses equal the enumerated fsums, for finite-state and
        # additive families; classes the machine never emits are absent
        rng = random.Random(12)
        for i in range(40):
            fam = random_finite_state_family(rng)
            if i % 2:
                fam = additive_family(fam.x_alphabet_size, fam.y_alphabet_size)
            machine = random_dyadic_machine(rng, fam.x_alphabet_size, fam.y_alphabet_size)
            n = rng.randint(1, 8 if fam.x_alphabet_size == 2 else 6)
            y = seq([rng.randrange(fam.y_alphabet_size) for _ in range(n)], fam.y_alphabet_size)
            assert class_table(fam, y, machine) == enumerated_table(fam, y, feedback_tree_ensemble(machine, n))

    def test_walk_guard(self, monkeypatch):
        # the last step holds the most prefixes of an additive family, one
        # per class: a budget of exactly that many runs, one byte less is
        # refused with one line
        fam = additive_family(3, 2)
        y = seq([0, 1, 1, 0, 1, 0, 0, 1, 1])
        table = class_table(fam, y)
        budget = len(table) * (typeclasses._ENTRY_BYTES + 8 * 6)
        monkeypatch.setattr(typeclasses, "_FRONTIER_BYTES", budget)
        assert class_table(fam, y) == table
        monkeypatch.setattr(typeclasses, "_FRONTIER_BYTES", budget - 1)
        with pytest.raises(InstanceTooLargeError, match=f"walk at n = 9 holds over {len(table) - 1} prefixes") as err:
            class_table(fam, y)
        assert len(str(err.value).splitlines()) == 1
