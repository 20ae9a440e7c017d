"""The count-based scalar scorers against per-symbol oracles, compared with ==.

The scorers read one joint-type count and take one log per distinct letter;
the oracles below take one log per symbol, summed with math.fsum, and class
sizes as factorial multinomials.  fsum rounds the exact sum, so the two
must agree bit for bit, -inf and +inf included.
"""

import collections
import math
import random

import pytest

from udec import channels, decoders, ensembles, families
from udec.typeclasses import Sequence, class_key, key_class_size

LENGTHS = (1, 2, 5, 8, 17, 32, 40)


def oracle_log2_product(probs) -> float:
    terms = []
    for p in probs:
        if p == 0.0:
            return -math.inf
        terms.append(math.log2(p))
    return math.fsum(terms)


def oracle_multinomial(parts) -> int:
    coeff = math.factorial(sum(parts))
    for p in parts:
        coeff //= math.factorial(p)
    return coeff


def oracle_joint(x, y, xa, ya) -> list[list[int]]:
    counts = [[0] * ya for _ in range(xa)]
    for a, b in zip(x, y):
        counts[a][b] += 1
    return counts


def oracle_class_size(x, y, xa, ya) -> int:
    joint = oracle_joint(x, y, xa, ya)
    size = 1
    for b in range(ya):
        size *= oracle_multinomial([joint[a][b] for a in range(xa)])
    return size


def oracle_log_prob(ens, x) -> float:
    a, n = ens.alphabet_size, ens.n
    if ens.kind == ensembles.UNIFORM:
        return -n * math.log2(a)
    if ens.kind == ensembles.IID:
        return oracle_log2_product(ens.probs[v] for v in x)
    comp = tuple(sum(1 for v in x if v == s) for s in range(a))
    if comp != ens.composition:
        return -math.inf
    return -math.log2(oracle_multinomial(comp))


def oracle_class_probability(ens, x, y, ya) -> float:
    a, n = ens.alphabet_size, ens.n
    size = oracle_class_size(x, y, a, ya)
    comp = tuple(sum(1 for v in x if v == s) for s in range(a))
    if ens.kind == ensembles.UNIFORM:
        return math.log2(size) - n * math.log2(a)
    if ens.kind == ensembles.IID:
        lp = 0.0
        for s, c in enumerate(comp):
            if c == 0:
                continue
            if ens.probs[s] == 0.0:
                return -math.inf
            lp += c * math.log2(ens.probs[s])
        return lp + math.log2(size)
    if comp != ens.composition:
        return -math.inf
    return math.log2(size) - math.log2(oracle_multinomial(comp))


def oracle_universal(ens, x, y, ya) -> float:
    lp = oracle_class_probability(ens, x, y, ya)
    return math.inf if lp == -math.inf else -lp / len(x)


def _normalized(values) -> tuple[float, ...]:
    return tuple(v / sum(values) for v in values)


def _distributions(rng: random.Random, a: int, rows: int) -> list[tuple]:
    """Two random sets of ``rows`` distributions over ``a`` letters: one with
    every entry positive, one whose last row puts zero mass on letter 0."""
    positive = [_normalized([rng.random() + 0.01 for _ in range(a)]) for _ in range(rows)]
    with_zero = positive[:-1] + [_normalized([0.0] + [rng.random() + 0.01 for _ in range(a - 1)])]
    return [positive, with_zero]


def _word(rng: random.Random, a: int, n: int) -> Sequence:
    return Sequence(tuple(rng.randrange(a) for _ in range(n)), a)


@pytest.mark.parametrize("a", [2, 3, 4])
def test_scalar_scorers_match_per_symbol_oracles(a):
    # universal, ML and additive metric scores, class masses, class sizes and
    # log-probabilities of seeded words, against the oracles; each channel
    # and iid ensemble comes with every entry positive and with a zero entry
    rng = random.Random(1000 + a)
    fam = families.additive_family(a, a)
    theta = [[rng.uniform(-1.0, 1.0) for _ in range(a)] for _ in range(a)]
    metric = decoders.MetricIndex.additive(theta)
    dmcs = [channels.dmc(rows) for rows in _distributions(rng, a, a)]
    noises = [channels.mod_additive_iid(rows[0]) for rows in _distributions(rng, a, 1)]
    letter_probs = [rows[0] for rows in _distributions(rng, a, 1)]
    infinite = collections.Counter()
    for n in LENGTHS:
        comp = [n // a] * a
        comp[0] += n - sum(comp)
        ensembles_n = [ensembles.uniform_ensemble(a, n), ensembles.uniform_over_type_ensemble(comp, n)]
        ensembles_n += [ensembles.iid_ensemble(probs, n) for probs in letter_probs]
        for _ in range(40):
            x, y = _word(rng, a, n), _word(rng, a, n)
            key = class_key(fam, x, y)
            assert key.discriminant == tuple(c for row in oracle_joint(x, y, a, a) for c in row)
            assert key_class_size(key) == oracle_class_size(x, y, a, a)
            for ens in ensembles_n:
                expected = oracle_class_probability(ens, x, y, a)
                assert ensembles.class_probability(ens, key, y) == expected
                assert ensembles.log_prob(ens, x) == oracle_log_prob(ens, x)
                score = decoders.universal_score(fam, ens, x, y)
                assert score == decoders.ScoreValue(oracle_universal(ens, x, y, a), "universal_exact")
                infinite[ens.kind, ens.probs] += expected == -math.inf
            for ch in dmcs:
                expected = oracle_log2_product(ch.matrix[u][v] for u, v in zip(x, y))
                assert channels.log_likelihood(ch, x, y) == expected
                assert decoders.ml_score(ch, x, y) == decoders.ScoreValue(expected, "ml")
                infinite[ch.kind, ch.matrix] += expected == -math.inf
            for ch in noises:
                expected = oracle_log2_product(ch.noise_probs[(v - u) % a] for u, v in zip(x, y))
                assert channels.log_likelihood(ch, x, y) == expected
                assert decoders.ml_score(ch, x, y) == decoders.ScoreValue(expected, "ml")
                infinite[ch.kind, ch.noise_probs] += expected == -math.inf
            expected = math.fsum(theta[u][v] for u, v in zip(x, y))
            assert decoders.metric_score(fam, metric, x, y) == decoders.ScoreValue(expected, "metric")
    # exactly the zero-entry cases and the composition mismatches reach -inf
    zero_cases = {(ensembles.UNIFORM_OVER_TYPE, ()), (ensembles.IID, letter_probs[1])}
    zero_cases |= {(channels.DMC, dmcs[1].matrix), (channels.MOD_ADDITIVE, noises[1].noise_probs)}
    assert {case for case, count in infinite.items() if count} == zero_cases


@pytest.mark.parametrize("a", [2, 3, 4])
def test_mac_xor_additive_key_matches_oracle(a):
    # the key of the modulo-sum of two user words, and its class size and
    # universal score, under a mac_xor_additive family
    rng = random.Random(2000 + a)
    fam = families.mac_xor_additive_family(a, a)
    for n in LENGTHS:
        ens = ensembles.uniform_ensemble(a, n)
        for _ in range(20):
            x1, x2, y = _word(rng, a, n), _word(rng, a, n), _word(rng, a, n)
            z = channels.mod_sum(x1, x2)
            assert z.symbols == tuple((u + v) % a for u, v in zip(x1, x2))
            key = class_key(fam, z, y)
            assert key.discriminant == tuple(c for row in oracle_joint(z, y, a, a) for c in row)
            assert key_class_size(key) == oracle_class_size(z, y, a, a)
            expected = oracle_universal(ens, z, y, a)
            assert decoders.universal_score(fam, ens, z, y).value == expected
            assert decoders.mac_universal_score(fam, ens, ens, x1, x2, y, 0.0, 0.0).components[:3] == (expected,) * 3
