"""Decoding metrics and the argmax decoder.

Reference-family scores with an explicit parameter tensor, the exact
class-mass universal score, its parse-based surrogate, the two-user
composite score, a maximum-likelihood oracle, and the decoder itself.
The decoder maximizes; ties are broken toward the lowest index and flagged,
and bound audits count ties as errors (the pairwise events in the analysis
use the >= convention, so the simulator must not be luckier than it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import channels, ensembles, families, lz, typeclasses
from .errors import InputError, InstanceTooLargeError, UnsupportedCombinationError
from .typeclasses import Sequence


@dataclass(frozen=True)
class MetricIndex:
    """Parameter tensor selecting one metric out of a family.

    ``values`` is nested: ``values[x][y]`` for additive-style families,
    ``values[x][y][s]`` for finite-state families.
    """

    values: tuple

    @classmethod
    def additive(cls, matrix) -> "MetricIndex":
        return cls(_finite_floats(matrix, 2))

    @classmethod
    def finite_state(cls, tensor) -> "MetricIndex":
        return cls(_finite_floats(tensor, 3))


def _finite_floats(nested, depth: int):
    """Nested tuples of floats, ``depth`` levels deep; a non-finite entry
    would make every score NaN or infinite, so it is rejected."""
    if depth == 0:
        v = float(nested)
        if not math.isfinite(v):
            raise InputError(f"metric parameters must be finite, got {v}")
        return v
    return tuple(_finite_floats(item, depth - 1) for item in nested)


@dataclass(frozen=True)
class ScoreValue:
    """A decoding score with its provenance; +inf flags a zero-mass class."""

    value: float
    provenance: str
    components: tuple = ()

    @property
    def infinite(self) -> bool:
        return math.isinf(self.value)


def metric_score(
    family: families.MetricFamily, theta: MetricIndex, x: Sequence, y: Sequence
) -> ScoreValue:
    """Score of one metric in the family: a per-position sum of the
    parameter tensor, with the state recursion for finite-state families."""
    if len(x) != len(y):
        raise InputError("length mismatch")
    v = theta.values
    if family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE):
        total = math.fsum(v[a][b] for a, b in zip(x, y))
    elif family.kind == families.FINITE_STATE:
        # summed exactly, so the words of one class score alike
        total = math.fsum(v[a][b][s] for a, b, s in zip(x, y, family.state_sequence(x, y)))
    else:
        raise UnsupportedCombinationError(family.kind)
    return ScoreValue(total, "metric")


def mac_metric_score(
    family: families.MetricFamily,
    theta: MetricIndex,
    x1: Sequence,
    x2: Sequence,
    y: Sequence,
) -> ScoreValue:
    """Two-user family score: additive over (x1+x2 mod A, y) pairs."""
    if family.kind != families.MAC_XOR_ADDITIVE:
        raise InputError("two-user scores require a mac_xor_additive family")
    return metric_score(family, theta, channels.mod_sum(x1, x2), y)


def universal_score(
    family: families.MetricFamily,
    ensemble: ensembles.CodingEnsemble,
    x: Sequence,
    y: Sequence,
) -> ScoreValue:
    """Negative normalized log of the ensemble mass of the equivalence class
    of x given y.  Feedback ensembles condition the mass on y.  A zero-mass
    class yields +inf."""
    key = typeclasses.class_key(family, x, y)
    return _universal_value(ensembles.class_probability(ensemble, key, y), len(x))


def _universal_value(lp: float, n: int) -> ScoreValue:
    """The universal score of a class of log2 mass lp: -lp / n, or +inf
    for a zero-mass class."""
    return ScoreValue(math.inf if lp == -math.inf else -lp / n, "universal_exact")


_LZ_KINDS = (ensembles.IID, ensembles.UNIFORM, ensembles.UNIFORM_OVER_TYPE)


def lz_universal_score(
    ensemble: ensembles.CodingEnsemble, x: Sequence, y: Sequence
) -> ScoreValue:
    """Parse-based surrogate for the universal score:
    -(1/n) * (log2 Q(x) + LZ(x|y)).

    Requires an ensemble that is invariant within the classes the surrogate
    refines (iid, uniform, or uniform over a type).  Vanishing correction
    terms are dropped; only the ordering of scores matters to the decoder.
    """
    if ensemble.kind not in _LZ_KINDS:
        raise UnsupportedCombinationError(
            f"surrogate score undefined for ensemble kind {ensemble.kind}"
        )
    n = len(x)
    lp = ensembles.log_prob(ensemble, x)
    if lp == -math.inf:
        return ScoreValue(math.inf, "universal_lz")
    complexity = lz.conditional_lz_length(tuple(x), tuple(y))
    return ScoreValue(-(lp + complexity) / n, "universal_lz")


def ml_score(channel: channels.ChannelModel, x: Sequence, y: Sequence) -> ScoreValue:
    return ScoreValue(channels.log_likelihood(channel, x, y), "ml")


# guard for exhaustive enumeration of user-word pairs
_MAC_EXHAUSTIVE_BITS = 20


def mac_universal_score(
    family: families.MetricFamily,
    q1: ensembles.CodingEnsemble,
    q2: ensembles.CodingEnsemble,
    x1: Sequence,
    x2: Sequence,
    y: Sequence,
    r1: float,
    r2: float,
) -> ScoreValue:
    """Composite two-user universal score.

    Computes the masses of the joint pair class and of the two single-user
    classes, and returns min of the three rate-discounted components.  For
    uniform user ensembles and a mac_xor_additive family all three masses
    reduce to the conditional type class of the modulo-sum, in closed form;
    otherwise pairs are enumerated exhaustively under a size guard.
    """
    if family.kind != families.MAC_XOR_ADDITIVE:
        raise InputError("composite score requires a mac_xor_additive family")
    if r1 < 0 or r2 < 0:
        raise InputError("rates must be non-negative")
    if len(x1) != len(x2) or len(x1) != len(y):
        raise InputError("length mismatch")
    uniform = (ensembles.UNIFORM, ensembles.LINEAR_DITHERED)
    if q1.kind in uniform and q2.kind in uniform:
        # pair class: one free user word per modulo-sum class member;
        # single-user classes biject onto the modulo-sum class
        u0 = u1 = u2 = universal_score(family, q1, channels.mod_sum(x1, x2), y).value
    else:
        u0, u1, u2 = _mac_masses_exhaustive(family, q1, q2, x1, x2, y)
    value = min(u0 - r1 - r2, u1 - r1, u2 - r2)
    return ScoreValue(
        value, "mac_composite", components=(u0, u1, u2, float(r1), float(r2))
    )


def pair_masses(q1, q2, x1: Sequence, x2: Sequence, keep) -> tuple[float, float, float]:
    """Masses, under the user ensembles ``q1`` and ``q2``, of the word pairs
    (c1, c2), (c1, x2) and (x1, c2) whose modulo-sum satisfies ``keep``;
    enumerated exhaustively under a size guard."""
    n, a = len(x1), x1.alphabet_size
    if 2 * n * math.log2(a) > _MAC_EXHAUSTIVE_BITS:
        raise InstanceTooLargeError("pair enumeration refused at this size")
    words = list(typeclasses.all_sequences(a, n))
    p1 = [2.0 ** ensembles.log_prob(q1, w) for w in words]
    p2 = [2.0 ** ensembles.log_prob(q2, w) for w in words]
    both = sum(m1 * m2 for c1, m1 in zip(words, p1) for c2, m2 in zip(words, p2)
               if keep(channels.mod_sum(c1, c2)))
    user1 = sum(m for c, m in zip(words, p1) if keep(channels.mod_sum(c, x2)))
    user2 = sum(m for c, m in zip(words, p2) if keep(channels.mod_sum(x1, c)))
    return both, user1, user2


def _mac_masses_exhaustive(family, q1, q2, x1, x2, y):
    n = len(y)
    ref = typeclasses.class_key(family, channels.mod_sum(x1, x2), y)
    masses = pair_masses(q1, q2, x1, x2, lambda z: typeclasses.class_key(family, z, y) == ref)
    return tuple(math.inf if m == 0.0 else -math.log2(m) / n for m in masses)


def mac_lz_score(
    x1: Sequence, x2: Sequence, y: Sequence, r1: float, r2: float
) -> ScoreValue:
    """Parse-based two-user surrogate for uniform-within-type user
    ensembles: empirical entropies of the user words minus normalized
    conditional complexities, combined like the exact composite."""
    n = len(y)
    h1, h2 = (typeclasses.entropy([x.symbols.count(a) for a in range(x.alphabet_size)])
              for x in (x1, x2))
    c0 = lz.joint_lz_length(tuple(x1), tuple(x2), tuple(y)) / n
    c1 = lz.conditional_lz_length(tuple(x1), tuple(zip(tuple(x2), tuple(y)))) / n
    c2 = lz.conditional_lz_length(tuple(x2), tuple(zip(tuple(x1), tuple(y)))) / n
    u0 = h1 + h2 - c0
    u1 = h1 - c1
    u2 = h2 - c2
    value = min(u0 - r1 - r2, u1 - r1, u2 - r2)
    return ScoreValue(
        value, "mac_lz", components=(u0, u1, u2, float(r1), float(r2))
    )


@dataclass(frozen=True)
class DecodeResult:
    """Argmax decision over a codebook; indices are 1-based messages."""

    chosen: int
    best_score: float
    tie: bool
    tied: tuple[int, ...] = ()


def decode(codebook, y: Sequence, scorer) -> DecodeResult:
    """Pick the codeword maximizing the scorer; lowest index wins ties.

    ``codebook`` is a Codebook or any sequence of codewords; ``scorer`` maps
    (codeword, y) to a float or ScoreValue.
    """
    words = getattr(codebook, "codewords", codebook)
    if len(words) == 0:
        raise InputError("empty codebook")
    scores = []
    for w in words:
        s = scorer(w, y)
        scores.append(s.value if isinstance(s, ScoreValue) else float(s))
    best = max(scores)
    tied = tuple(i + 1 for i, s in enumerate(scores) if s == best)
    return DecodeResult(
        chosen=tied[0], best_score=best, tie=len(tied) > 1, tied=tied
    )


def mac_decode(codebook1, codebook2, y: Sequence, pair_scorer) -> DecodeResult:
    """Argmax over message pairs; the decision index encodes the pair as
    (i, j), both 1-based, via the ``tied`` tuple of flat indices."""
    words1 = getattr(codebook1, "codewords", codebook1)
    words2 = getattr(codebook2, "codewords", codebook2)
    pairs = [(w1, w2) for w1 in words1 for w2 in words2]
    return decode(pairs, y, lambda pair, y: pair_scorer(*pair, y))


def metric_scorer(family, theta):
    return lambda x, y: metric_score(family, theta, x, y)


def universal_scorer(family, ensemble):
    """universal_score as a scorer.  A finite-state family's class masses
    read y's class table (ensembles.class_table), one walk over y: the
    scorer keeps the last y's table, so the words of a codebook scored
    against one y walk it once, and the table lives as long as the scorer."""
    if family.kind != families.FINITE_STATE:
        return lambda x, y: universal_score(family, ensemble, x, y)
    last = {}

    def score(x, y):
        if last.get("y") != y:
            last.update(y=y, table=ensembles.class_table(ensemble, family, y))
        key = typeclasses.class_key(family, x, y)
        return _universal_value(ensembles.table_log_mass(ensemble, key, last["table"]), len(x))

    return score


def lz_scorer(ensemble):
    return lambda x, y: lz_universal_score(ensemble, x, y)


def ml_scorer(channel):
    return lambda x, y: ml_score(channel, x, y)
