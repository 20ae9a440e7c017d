"""Random coding ensembles.

Every ensemble exposes an exact base-2 log-probability, an exact
equivalence-class mass, and codebook sampling from one seeded generator,
reproducible within this implementation, not across RNG algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        typeclasses.check_block_length(self.n)
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
        counts = map(x.symbols.count, range(x.alphabet_size))
        return typeclasses.log2_product((ensemble.probs[a], c) for a, c in enumerate(counts) if c)
    if ensemble.kind == UNIFORM_OVER_TYPE:
        comp = tuple(map(x.symbols.count, range(ensemble.alphabet_size)))
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

    Additive-style keys under iid / uniform / uniform-over-type / dithered
    linear ensembles take the closed form; other keys and feedback
    ensembles read y's class table (class_table): the mass the walk
    carries, or else the class size times one member's probability
    (table_log_mass).
    """
    family = key.family
    additive_like = family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE)
    if additive_like and ensemble.kind in (IID, UNIFORM, UNIFORM_OVER_TYPE, LINEAR_DITHERED):
        return _type_class_log_mass(ensemble, _x_counts(key), typeclasses.key_class_size(key))
    return table_log_mass(ensemble, key, class_table(ensemble, family, y))


def class_table(ensemble: CodingEnsemble, family, y: Sequence) -> dict:
    """y's class table (typeclasses.class_table) for this ensemble: a
    feedback ensemble's walk carries its masses, any other's class sizes."""
    return typeclasses.class_table(family, y, ensemble.feedback if ensemble.kind == FEEDBACK_TREE else None)


def table_log_mass(ensemble: CodingEnsemble, key: EquivalenceClassKey, table: dict) -> float:
    """class_probability of ``key`` read off y's class table ``table``."""
    weight = table.get(key.discriminant, 0)
    if weight == 0:
        return -math.inf
    if ensemble.kind == FEEDBACK_TREE:
        return math.log2(weight)
    return _type_class_log_mass(ensemble, _x_counts(key), weight)


def _x_counts(key: EquivalenceClassKey) -> tuple[int, ...]:
    """How often each x letter occurs in the key's class: the sums of its
    counts over y and the family state, |Y| * S of them per letter (S = 1
    but for finite-state families)."""
    d, width = key.discriminant, key.family.y_alphabet_size * key.family.num_states
    return tuple(sum(d[i : i + width]) for i in range(0, len(d), width))


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

    def __len__(self) -> int:
        return len(self.codewords)


def check_rate(rate: float) -> None:
    """Refuse a negative, NaN or infinite coding rate."""
    if not 0 <= rate < math.inf:
        raise InputError(f"rate must be non-negative and finite, got {rate!r}")


#: the most bits n*rate a message count may have: far past the 2^1024
#: codewords any path can run, yet the count is built in microseconds
_MAX_MESSAGE_BITS = 1 << 16


def message_count(n: int, rate: float) -> int:
    """Number of codewords at a given rate: floor(2^(n*rate)), at least 2.

    Past the float range (n*rate >= 1024) the power is split into
    2^frac * 2^int, so the count keeps 53 significant bits instead of
    overflowing.  Past n*rate = 2^16 the count is refused before it is
    built, since its size grows with the rate."""
    check_rate(rate)
    e = n * rate
    if e > _MAX_MESSAGE_BITS:
        raise InstanceTooLargeError(
            f"2^{e:.6g} codewords are over the limit of 2^{_MAX_MESSAGE_BITS}"
        )
    if e < 1024:
        return max(2, math.floor(2.0**e))
    k = math.floor(e)
    return math.floor(2.0 ** (e - k) * 2.0**52) << (k - 52)


# symbols per drawn block: each block becomes Sequences before the next is
# drawn, so the draw's arrays stay small beside the codebook they fill
_BLOCK_SYMBOLS = 1 << 14


def sample_codebook(ensemble: CodingEnsemble, m: int, seed: int) -> Codebook:
    """Draw m codewords, deterministically in (ensemble, m, seed).

    All words come from one generator keyed (seed, 0xC0DE), in blocks of
    whole words.  A dithered linear code first draws its generator rows and
    dither; message i's word is the dither XOR the rows at i's one bits.
    Feedback ensembles describe output-adaptive strategies, not fixed words,
    and cannot be materialized here.
    """
    if m < 2:
        raise InputError("a codebook needs at least 2 codewords")
    if ensemble.kind == FEEDBACK_TREE:
        raise UnsupportedCombinationError(
            "feedback ensembles sample adaptively; no static codebook exists"
        )
    n, a = ensemble.n, ensemble.alphabet_size
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0DE)))
    if ensemble.kind == LINEAR_DITHERED:
        if m > 2**ensemble.message_bits:
            raise InputError("more codewords than linear messages available")
        gen_rows = rng.integers(0, 2, size=(ensemble.message_bits, n), dtype=np.uint8)
        dither = rng.integers(0, 2, size=n, dtype=np.uint8)
        gen_rows = gen_rows[: int(m - 1).bit_length()]  # the rows any i < m uses
    rows = max(1, _BLOCK_SYMBOLS // n)
    words = []
    for start in range(0, m, rows):
        size = (min(rows, m - start), n)
        if ensemble.kind == UNIFORM:
            block = rng.integers(0, a, size=size)
        elif ensemble.kind == IID:
            block = rng.choice(a, size=size, p=ensemble.probs)
        elif ensemble.kind == UNIFORM_OVER_TYPE:
            base = np.repeat(np.arange(a), ensemble.composition)
            block = rng.permuted(np.broadcast_to(base, size), axis=1)
        else:
            msgs = np.arange(start, start + size[0])[:, None]
            bits = (msgs >> np.arange(len(gen_rows)) & 1).astype(np.uint8)
            block = dither ^ (bits @ gen_rows & 1)
        words.extend(Sequence(tuple(w), a) for w in block.tolist())
    return Codebook(tuple(words), rate=math.log2(m) / n, seed=seed)
