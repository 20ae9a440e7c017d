"""Method-of-types primitives.

Empirical joint types, exact conditional type-class cardinalities, empirical
information measures, the per-family equivalence-class key, y's class table
from one forward walk over y, and exact equivalence-class counting.  All
cardinalities use arbitrary-precision integers; logs are base 2 and taken
only at the boundary.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from . import families
from .errors import InputError, InstanceTooLargeError, UnsupportedCombinationError

#: guard for exhaustive enumeration of an input alphabet power
EXHAUSTIVE_BITS = 24

#: the most output compositions count_classes tabulates: an entry (its dict
#: slot, key tuple and count) takes about 200 bytes traced and up to about
#: 310 resident, so 2^20 of them take about 256 MiB, the simulator's limit
_MAX_COMPOSITIONS = 1 << 20

#: class_table grows a walk step to at most _FRONTIER_BYTES // (_ENTRY_BYTES
#: + 8 per key count) prefixes: traced, a walk peaked at 400 to 510 bytes per
#: prefix of its last step, under that divisor, with 4 to 27 key counts
_FRONTIER_BYTES = 256 << 20
_ENTRY_BYTES = 400


@dataclass(frozen=True)
class Sequence:
    """A fixed-length word over the integer alphabet {0, ..., alphabet_size-1}."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise InputError("sequence must have length >= 1")
        if self.alphabet_size < 1:
            raise InputError("alphabet size must be positive")
        if min(self.symbols) < 0 or max(self.symbols) >= self.alphabet_size:
            raise InputError("symbol out of alphabet range")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]


def seq(symbols, alphabet_size: int = 2) -> Sequence:
    """Shorthand constructor used heavily in tests and configs."""
    return Sequence(tuple(int(v) for v in symbols), alphabet_size)


def all_sequences(alphabet_size: int, n: int):
    """Iterate over every sequence of the given length (guarded)."""
    if n * math.log2(alphabet_size) > EXHAUSTIVE_BITS:
        raise InstanceTooLargeError(
            f"refusing to enumerate {alphabet_size}^{n} sequences"
        )
    for symbols in itertools.product(range(alphabet_size), repeat=n):
        yield Sequence(symbols, alphabet_size)


@dataclass(frozen=True)
class JointType:
    """Empirical count matrix of a pair of sequences (rows: x, columns: y)."""

    counts: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        total = sum(map(sum, self.counts))
        if total != self.n:
            raise InputError(f"counts sum to {total}, expected n={self.n}")
        if min(itertools.chain.from_iterable(self.counts), default=0) < 0:
            raise InputError("counts must be non-negative")

    @property
    def x_alphabet_size(self) -> int:
        return len(self.counts)

    @property
    def y_alphabet_size(self) -> int:
        return len(self.counts[0])

    def x_marginal(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def y_marginal(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.counts))


def empirical_joint_type(x: Sequence, y: Sequence) -> JointType:
    """Count matrix: entry (a, b) is the number of positions with x=a, y=b."""
    if len(x) != len(y):
        raise InputError(f"length mismatch: {len(x)} vs {len(y)}")
    flat, ya = _joint_counts(x, y), y.alphabet_size
    return JointType(tuple(tuple(flat[i : i + ya]) for i in range(0, len(flat), ya)), len(x))


def _joint_counts(x: Sequence, y: Sequence) -> list[int]:
    """The joint type of two equal-length words, flattened row-major:
    entry a * |Y| + b counts the positions with x=a, y=b."""
    ya = y.alphabet_size
    counts = [0] * (x.alphabet_size * ya)
    for a, b in zip(x.symbols, y.symbols):
        counts[a * ya + b] += 1
    return counts


def conditional_class_size(joint: JointType) -> int:
    """Exact number of x-sequences sharing this joint type with a fixed y."""
    return _class_size(tuple(itertools.chain.from_iterable(joint.counts)), joint.y_alphabet_size)


def type_class_size(composition: tuple[int, ...]) -> int:
    """Exact number of sequences with the given symbol counts."""
    return _class_size(composition, 1)


def _class_size(flat, width: int) -> int:
    """Number of x-words whose joint type with a fixed y is ``flat``, a
    count matrix of ``width`` columns flattened row-major: per y-symbol, the
    multinomial coefficient distributing that column's total among the
    x-symbols, taken as a product of binomials over the running total."""
    size = 1
    for b in range(width):
        total = 0
        for c in flat[b::width]:
            total += c
            size *= math.comb(total, c)
    return size


def entropy(counts) -> float:
    """Empirical entropy in bits of a count vector, with 0*log(0) = 0."""
    n = sum(counts)
    return -math.fsum(c / n * math.log2(c / n) for c in counts if c > 0)


def log2_product(pairs) -> float:
    """log2 of a product of probabilities given as (probability, count)
    pairs, each probability a factor ``count`` times; -inf if a probability
    that occurs is 0.

    One log per pair, summed with fsum over one term per factor: fsum rounds
    the exact sum, so words whose probability multisets are equal score
    exactly equal, whatever their symbol order."""
    terms = []
    for p, c in pairs:
        if c:
            if p == 0.0:
                return -math.inf
            terms += [math.log2(p)] * c
    return math.fsum(terms)


@dataclass(frozen=True)
class InfoMeasures:
    """Empirical information measures, in bits per symbol."""

    h_x: float
    h_x_given_y: float
    i_xy: float
    d_x_vs_q: float | None = None


def empirical_measures(joint: JointType, reference_q=None) -> InfoMeasures:
    """Entropy, conditional entropy, mutual information and (optionally) the
    divergence of the x-marginal from a reference distribution.

    Uses the convention 0*log(0) = 0.  If the reference puts zero mass on a
    symbol that occurs, the divergence is reported as +inf rather than
    raising.
    """
    n = joint.n
    x_marg = joint.x_marginal()
    h_x = entropy(x_marg)
    h_xy = entropy([c for row in joint.counts for c in row])
    h_y = entropy(joint.y_marginal())
    h_x_given_y = max(h_xy - h_y, 0.0)
    i_xy = max(h_x - h_x_given_y, 0.0)

    d = None
    if reference_q is not None:
        d = 0.0
        for a, c in enumerate(x_marg):
            if c == 0:
                continue
            q = reference_q[a]
            if q <= 0:
                d = math.inf
                break
            d += c / n * math.log2((c / n) / q)
        if d != math.inf:
            d = max(d, 0.0)
    return InfoMeasures(h_x=h_x, h_x_given_y=h_x_given_y, i_xy=i_xy, d_x_vs_q=d)


@dataclass(frozen=True)
class EquivalenceClassKey:
    """Canonical discriminant of the set of inputs indistinguishable from a
    given one by every metric in a family, for a fixed output sequence.

    The discriminant is a flat count vector (row-major joint counts for
    additive-style families, the (x, y, s) count tensor for finite-state
    families) prefixed implicitly by the family itself, which carries the
    shape.  Equal keys mean equal scores under every parameter choice.
    """

    family: families.MetricFamily
    discriminant: tuple[int, ...]


def class_key(
    family: families.MetricFamily, x: Sequence, y: Sequence
) -> EquivalenceClassKey:
    """Key of the equivalence class of x given y under the family.

    For ``mac_xor_additive`` families, pass the modulo-sum of the two user
    words as ``x``.
    """
    if len(x) != len(y):
        raise InputError(f"length mismatch: {len(x)} vs {len(y)}")
    if x.alphabet_size != family.x_alphabet_size and family.kind != families.MAC_XOR_ADDITIVE:
        raise InputError("x alphabet does not match family")
    if y.alphabet_size != family.y_alphabet_size:
        raise InputError(f"y alphabet has {y.alphabet_size} symbols, the family's {family.y_alphabet_size}")
    if family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE):
        return EquivalenceClassKey(family, tuple(_joint_counts(x, y)))
    if family.kind == families.FINITE_STATE:
        counts = [0] * (
            family.x_alphabet_size * family.y_alphabet_size * family.num_states
        )
        for a, b, s in zip(x, y, family.state_sequence(x, y)):
            counts[(a * family.y_alphabet_size + b) * family.num_states + s] += 1
        return EquivalenceClassKey(family, tuple(counts))
    raise UnsupportedCombinationError(f"no class key for family kind {family.kind}")


def key_class_size(key: EquivalenceClassKey) -> int | None:
    """Exact class cardinality when it is recoverable from the key alone.

    Available for additive-style keys (the key *is* the joint type).  For
    finite-state keys the cardinality depends on the output sequence, and
    y's class table (class_table) holds it; returns None in that case.
    """
    if key.family.kind not in (families.ADDITIVE, families.MAC_XOR_ADDITIVE):
        return None
    return _class_size(key.discriminant, key.family.y_alphabet_size)


def class_table(
    family: families.MetricFamily, y: Sequence, machine=None
) -> dict[tuple[int, ...], int | float]:
    """Every class of x given y, from one forward walk over y's symbols:
    key discriminant -> its number of words or, given a feedback
    ``machine`` (``initial_state``, ``step(t, x, y)``, ``emit``), their
    probability under it, leaving out classes it never emits.  The walk
    carries (family state, machine state, key counts) -> weight; each
    symbol adds every input letter a, one more count (a * |Y| + y) * S + s,
    and only a finite-state family steps its state s."""
    xa, ya, ns = family.x_alphabet_size, family.y_alphabet_size, family.num_states
    if y.alphabet_size != ya:
        raise InputError(f"y alphabet has {y.alphabet_size} symbols, the family's {ya}")
    after = family.next_state or (0,) * (xa * ya)  # one state, s = 0, for other kinds
    emit, t0 = (((1,) * xa,), 0) if machine is None else (machine.emit, machine.initial_state)
    limit = _FRONTIER_BYTES // (_ENTRY_BYTES + 8 * xa * ya * ns)
    frontier = {(family.initial_state, t0, (0,) * (xa * ya * ns)): 1}
    for b in y:
        grown = {}
        for (s, t, counts), weight in frontier.items():
            for a, p in enumerate(emit[t]):
                if p:
                    i = (a * ya + b) * ns + s
                    counts_a = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                    key = (after[i], 0 if machine is None else machine.step(t, a, b), counts_a)
                    grown[key] = grown.get(key, 0) + weight * p
            if len(grown) > limit:
                raise InstanceTooLargeError(f"the class walk at n = {len(y)} holds over {limit} prefixes (about 256 MiB)")
        frontier = grown
    table = {}
    for (_, _, counts), weight in frontier.items():
        table[counts] = table.get(counts, 0) + weight
    return table


@dataclass(frozen=True)
class ClassCountReport:
    """Exact equivalence-class counts for a family at block length n.

    ``counts_by_composition`` maps each output-symbol composition to the
    class count (for finite-state families: the maximum over outputs with
    that composition).  ``max_classes`` is the maximum over outputs and
    ``log_growth`` its base-2 log divided by n.
    """

    n: int
    counts_by_composition: dict[tuple[int, ...], int]
    max_classes: int
    log_growth: float


def check_block_length(n) -> None:
    """Refuse a block length that is below 1 or not an integer: bools are
    refused, numpy integers pass."""
    try:
        valid = not isinstance(n, bool) and operator.index(n) >= 1
    except TypeError:
        valid = False
    if not valid:
        raise InputError(f"block length must be an integer of at least 1, got {n!r}")


def count_classes(family: families.MetricFamily, n: int) -> ClassCountReport:
    """Count equivalence classes per output composition, exactly.

    Additive-style families are counted in closed form, as the realizable
    joint count matrices; finite-state families by y's class table
    (class_table) for every output y, guarded by size.
    """
    check_block_length(n)
    xa, ya = family.x_alphabet_size, family.y_alphabet_size
    # one table entry per output composition
    entries = math.comb(n + ya - 1, ya - 1)
    if entries > _MAX_COMPOSITIONS:
        raise InstanceTooLargeError(
            f"{entries} output compositions at n = {n} are over the limit of "
            f"{_MAX_COMPOSITIONS} (about 256 MiB)"
        )
    if family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE):
        counts = {comp: _combinatorial_count(xa, comp) for comp in _compositions(n, ya)}
    else:
        if n * (math.log2(xa) + math.log2(ya)) > EXHAUSTIVE_BITS:
            raise InstanceTooLargeError(f"finite-state class count over {xa}^{n} x {ya}^{n} refused")
        counts = {}
        for y in all_sequences(ya, n):
            comp = tuple(map(y.symbols.count, range(ya)))
            counts[comp] = max(counts.get(comp, 0), classes_for_output(family, y))
    max_classes = max(counts.values())
    return ClassCountReport(
        n=n,
        counts_by_composition=counts,
        max_classes=max_classes,
        log_growth=math.log2(max_classes) / n,
    )


def classes_for_output(family: families.MetricFamily, y: Sequence) -> int:
    """Exact class count for one concrete output sequence."""
    if family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE):
        return _combinatorial_count(family.x_alphabet_size, tuple(map(y.symbols.count, range(family.y_alphabet_size))))
    return len(class_table(family, y))


def _combinatorial_count(x_alphabet_size: int, composition: tuple[int, ...]) -> int:
    # Joint count matrices with fixed column sums factorize per column; each
    # column with total t admits C(t + |X| - 1, |X| - 1) distributions.
    count = 1
    for t in composition:
        count *= math.comb(t + x_alphabet_size - 1, x_alphabet_size - 1)
    return count


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in _compositions(n - head, parts - 1):
            yield (head,) + tail
