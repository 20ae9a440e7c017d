"""Random coding ensembles.

Every ensemble exposes an exact base-2 log-probability, an exact
equivalence-class mass, and reproducible codebook sampling.  Codeword i is
drawn from a stream keyed by (master seed, i), so sampling is
order-independent and safe to parallelize; determinism is guaranteed within
this implementation, not across RNG algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import families, typeclasses
from .errors import InputError, InstanceTooLargeError, UnsupportedCombinationError
from .typeclasses import EquivalenceClassKey, Sequence

IID = "iid"
UNIFORM = "uniform"
UNIFORM_OVER_TYPE = "uniform_over_type"
LINEAR_DITHERED = "linear_dithered"
FEEDBACK_TREE = "feedback_tree"


@dataclass(frozen=True)
class FeedbackStateMachine:
    """State-limited feedback sampler: the per-symbol input distribution
    depends on the past only through a deterministic state driven by the
    previous input/output pair.

    ``next_state`` is flattened over (t, x, y); ``emit`` holds one input
    distribution per state.
    """

    num_states: int
    initial_state: int
    x_alphabet_size: int
    y_alphabet_size: int
    next_state: tuple[int, ...]
    emit: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        expected = self.num_states * self.x_alphabet_size * self.y_alphabet_size
        if len(self.next_state) != expected:
            raise InputError(f"next_state table must have {expected} entries")
        if len(self.emit) != self.num_states:
            raise InputError("one emission distribution per state required")
        for dist in self.emit:
            if len(dist) != self.x_alphabet_size:
                raise InputError("emission distribution has wrong support size")
            if any(p < 0 for p in dist) or abs(sum(dist) - 1.0) > 1e-12:
                raise InputError("emission distribution must be normalized")

    def step(self, t: int, x: int, y: int) -> int:
        return self.next_state[
            (t * self.x_alphabet_size + x) * self.y_alphabet_size + y
        ]


@dataclass(frozen=True)
class CodingEnsemble:
    """A distribution over codewords of fixed length n."""

    kind: str
    alphabet_size: int
    n: int
    probs: tuple[float, ...] = ()            # iid symbol distribution
    composition: tuple[int, ...] = ()        # uniform_over_type support
    message_bits: int = 0                    # linear_dithered generator rows
    feedback: FeedbackStateMachine | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"block length must be at least 1, got {self.n}")
        if self.kind == IID:
            if len(self.probs) != self.alphabet_size:
                raise InputError("iid ensemble needs one probability per symbol")
            if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
                raise InputError("iid probabilities must be normalized")
        elif self.kind == UNIFORM_OVER_TYPE:
            if len(self.composition) != self.alphabet_size:
                raise InputError("composition needs one count per symbol")
            if sum(self.composition) != self.n:
                raise InputError("composition must sum to n")
        elif self.kind == LINEAR_DITHERED:
            if self.alphabet_size != 2:
                raise InputError("linear_dithered ensembles are binary")
            if self.message_bits < 1:
                raise InputError("message_bits must be positive")
        elif self.kind == FEEDBACK_TREE:
            if self.feedback is None:
                raise InputError("feedback_tree ensemble needs a state machine")
        elif self.kind != UNIFORM:
            raise InputError(f"unknown ensemble kind: {self.kind!r}")


def iid_ensemble(probs, n: int) -> CodingEnsemble:
    probs = tuple(float(p) for p in probs)
    return CodingEnsemble(IID, len(probs), n, probs=probs)


def uniform_ensemble(alphabet_size: int, n: int) -> CodingEnsemble:
    return CodingEnsemble(UNIFORM, alphabet_size, n)


def uniform_over_type_ensemble(composition, n: int) -> CodingEnsemble:
    composition = tuple(int(c) for c in composition)
    return CodingEnsemble(
        UNIFORM_OVER_TYPE, len(composition), n, composition=composition
    )


def linear_dithered_ensemble(n: int, message_bits: int) -> CodingEnsemble:
    return CodingEnsemble(LINEAR_DITHERED, 2, n, message_bits=message_bits)


def feedback_tree_ensemble(machine: FeedbackStateMachine, n: int) -> CodingEnsemble:
    return CodingEnsemble(
        FEEDBACK_TREE, machine.x_alphabet_size, n, feedback=machine
    )


def log_prob(
    ensemble: CodingEnsemble, x: Sequence, y: Sequence | None = None
) -> float:
    """Exact log2 probability of a codeword; -inf outside the support.

    Feedback ensembles condition on the output sequence and require ``y``.
    """
    if len(x) != ensemble.n:
        raise InputError(f"sequence length {len(x)} != ensemble length {ensemble.n}")
    if ensemble.kind == UNIFORM or ensemble.kind == LINEAR_DITHERED:
        # the per-codeword marginal of the dithered linear map is uniform
        return -ensemble.n * math.log2(ensemble.alphabet_size)
    if ensemble.kind == IID:
        # fsum: words with equal symbol compositions must score exactly equal
        terms = []
        for v in x:
            p = ensemble.probs[v]
            if p == 0.0:
                return -math.inf
            terms.append(math.log2(p))
        return math.fsum(terms)
    if ensemble.kind == UNIFORM_OVER_TYPE:
        comp = tuple(sum(1 for v in x if v == a) for a in range(ensemble.alphabet_size))
        if comp != ensemble.composition:
            return -math.inf
        return -math.log2(typeclasses.type_class_size(ensemble.composition))
    if ensemble.kind == FEEDBACK_TREE:
        if y is None:
            raise InputError("feedback ensemble requires the output sequence")
        if len(y) != len(x):
            raise InputError("length mismatch between input and output")
        machine = ensemble.feedback
        t = machine.initial_state
        terms = []
        for xi, yi in zip(x, y):
            p = machine.emit[t][xi]
            if p == 0.0:
                return -math.inf
            terms.append(math.log2(p))
            t = machine.step(t, xi, yi)
        return math.fsum(terms)
    raise UnsupportedCombinationError(ensemble.kind)


def class_probability(
    ensemble: CodingEnsemble, key: EquivalenceClassKey, y: Sequence
) -> float:
    """Exact log2 mass the ensemble puts on an equivalence class.

    Closed forms are used when the ensemble is invariant within the class
    (additive-style keys with iid / uniform / uniform-over-type / dithered
    linear ensembles: mass = member probability times cardinality); otherwise
    the class is summed exhaustively, which is guarded by size.
    """
    family = key.family
    additive_like = family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE)
    if additive_like and ensemble.kind in (IID, UNIFORM, UNIFORM_OVER_TYPE, LINEAR_DITHERED):
        size = typeclasses.key_class_size(key)
        ya = family.y_alphabet_size
        xa = len(key.discriminant) // ya
        row_sums = tuple(
            sum(key.discriminant[a * ya + b] for b in range(ya)) for a in range(xa)
        )
        return _type_class_log_mass(ensemble, row_sums, size)
    # exhaustive fallback (finite-state keys, feedback ensembles)
    total = 0.0
    found = False
    for x in typeclasses.all_sequences(family.x_alphabet_size, len(y)):
        if typeclasses.class_key(family, x, y) == key:
            found = True
            lp = log_prob(ensemble, x, y)
            if lp != -math.inf:
                total += 2.0**lp
    if not found or total == 0.0:
        return -math.inf
    return math.log2(total)


def _type_class_log_mass(
    ensemble: CodingEnsemble, row_sums: tuple[int, ...], size: int
) -> float:
    """log2 mass of a class of ``size`` words with symbol counts
    ``row_sums``, for ensembles invariant within it (all but feedback)."""
    n = sum(row_sums)
    if ensemble.kind in (UNIFORM, LINEAR_DITHERED):
        return math.log2(size) - n * math.log2(ensemble.alphabet_size)
    if ensemble.kind == IID:
        lp = 0.0
        for a, c in enumerate(row_sums):
            if c == 0:
                continue
            if ensemble.probs[a] == 0.0:
                return -math.inf
            lp += c * math.log2(ensemble.probs[a])
        return lp + math.log2(size)
    # uniform over a type: the whole class shares the x-composition
    if row_sums != ensemble.composition:
        return -math.inf
    return math.log2(size) - math.log2(
        typeclasses.type_class_size(ensemble.composition)
    )


@dataclass(frozen=True)
class Codebook:
    """A sampled codebook together with its seed provenance."""

    codewords: tuple[Sequence, ...]
    rate: float
    seed: int
    ensemble: CodingEnsemble = field(repr=False, compare=False, default=None)

    def __len__(self) -> int:
        return len(self.codewords)


def message_count(n: int, rate: float) -> int:
    """Number of codewords at a given rate: floor(2^(n*rate)), at least 2.

    Past the float range (n*rate >= 1024) the power is split into
    2^frac * 2^int, so the count keeps 53 significant bits instead of
    overflowing."""
    e = n * rate
    if e < 1024:
        return max(2, math.floor(2.0**e))
    k = math.floor(e)
    return math.floor(2.0 ** (e - k) * 2.0**52) << (k - 52)


def sample_codebook(ensemble: CodingEnsemble, m: int, seed: int) -> Codebook:
    """Draw m codewords, deterministically in (ensemble, m, seed).

    Feedback ensembles describe output-adaptive strategies, not fixed words,
    and cannot be materialized here.
    """
    if m < 2:
        raise InputError("a codebook needs at least 2 codewords")
    if ensemble.kind == FEEDBACK_TREE:
        raise UnsupportedCombinationError(
            "feedback ensembles sample adaptively; no static codebook exists"
        )
    n = ensemble.n
    if ensemble.kind == LINEAR_DITHERED:
        if m > 2**ensemble.message_bits:
            raise InputError("more codewords than linear messages available")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0DE)))
        gen_rows = rng.integers(0, 2, size=(ensemble.message_bits, n), dtype=np.uint8)
        dither = rng.integers(0, 2, size=n, dtype=np.uint8)
        words = []
        for i in range(m):
            word = dither.copy()
            for j in range(ensemble.message_bits):
                if (i >> j) & 1:
                    word ^= gen_rows[j]
            words.append(Sequence(tuple(int(v) for v in word), 2))
    else:
        words = [
            _sample_word(ensemble, np.random.default_rng(np.random.SeedSequence((seed, i))))
            for i in range(m)
        ]
    rate = math.log2(m) / n
    return Codebook(tuple(words), rate=rate, seed=seed, ensemble=ensemble)


def _sample_word(ensemble: CodingEnsemble, rng) -> Sequence:
    n, a = ensemble.n, ensemble.alphabet_size
    if ensemble.kind == UNIFORM:
        vals = rng.integers(0, a, size=n)
    elif ensemble.kind == IID:
        vals = rng.choice(a, size=n, p=np.asarray(ensemble.probs))
    elif ensemble.kind == UNIFORM_OVER_TYPE:
        base = np.repeat(np.arange(a), ensemble.composition)
        vals = rng.permutation(base)
    else:
        raise UnsupportedCombinationError(ensemble.kind)
    return Sequence(tuple(int(v) for v in vals), a)
