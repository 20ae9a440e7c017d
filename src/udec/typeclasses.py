"""Method-of-types primitives.

Empirical joint types, exact conditional type-class cardinalities, empirical
information measures, the per-family equivalence-class key, and exact
equivalence-class counting.  All cardinalities use arbitrary-precision
integers; logs are base 2 and taken only at the boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import families
from .errors import InputError, InstanceTooLargeError, UnsupportedCombinationError

#: guard for exhaustive enumeration of an input alphabet power
EXHAUSTIVE_BITS = 24

#: the most output compositions count_classes tabulates: an entry (its dict
#: slot, key tuple and count) takes about 200 bytes traced and up to about
#: 310 resident, so 2^20 of them take about 256 MiB, the simulator's limit
_MAX_COMPOSITIONS = 1 << 20


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
        if any(not 0 <= v < self.alphabet_size for v in self.symbols):
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
        total = sum(sum(row) for row in self.counts)
        if total != self.n:
            raise InputError(f"counts sum to {total}, expected n={self.n}")
        if any(c < 0 for row in self.counts for c in row):
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
    counts = [[0] * y.alphabet_size for _ in range(x.alphabet_size)]
    for a, b in zip(x, y):
        counts[a][b] += 1
    return JointType(tuple(tuple(row) for row in counts), len(x))


def conditional_class_size(joint: JointType) -> int:
    """Exact number of x-sequences sharing this joint type with a fixed y.

    Product over y-symbols of the multinomial coefficient distributing that
    column's total among the x-symbols.
    """
    size = 1
    for b in range(joint.y_alphabet_size):
        column = [joint.counts[a][b] for a in range(joint.x_alphabet_size)]
        size *= _multinomial(sum(column), column)
    return size


def type_class_size(composition: tuple[int, ...]) -> int:
    """Exact number of sequences with the given symbol counts."""
    return _multinomial(sum(composition), list(composition))


def _multinomial(total: int, parts: list[int]) -> int:
    coeff = math.factorial(total)
    for p in parts:
        coeff //= math.factorial(p)
    return coeff


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
    y_marg = joint.y_marginal()

    h_x = -math.fsum(
        c / n * math.log2(c / n) for c in x_marg if c > 0
    )
    h_xy = -math.fsum(
        c / n * math.log2(c / n) for row in joint.counts for c in row if c > 0
    )
    h_y = -math.fsum(c / n * math.log2(c / n) for c in y_marg if c > 0)
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
    if family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE):
        joint = empirical_joint_type(x, y)
        flat = tuple(c for row in joint.counts for c in row)
        return EquivalenceClassKey(family, flat)
    if family.kind == families.FINITE_STATE:
        counts = [0] * (
            family.x_alphabet_size * family.y_alphabet_size * family.num_states
        )
        s = family.initial_state
        for a, b in zip(x, y):
            counts[(a * family.y_alphabet_size + b) * family.num_states + s] += 1
            s = family.step(a, b, s)
        return EquivalenceClassKey(family, tuple(counts))
    raise UnsupportedCombinationError(f"no class key for family kind {family.kind}")


def key_class_size(key: EquivalenceClassKey) -> int | None:
    """Exact class cardinality when it is recoverable from the key alone.

    Available for additive-style keys (the key *is* the joint type).  For
    finite-state keys the cardinality depends on the output sequence, so
    callers must enumerate; returns None in that case.
    """
    family = key.family
    if family.kind not in (families.ADDITIVE, families.MAC_XOR_ADDITIVE):
        return None
    ya = family.y_alphabet_size
    xa = len(key.discriminant) // ya
    counts = tuple(
        tuple(key.discriminant[a * ya + b] for b in range(ya)) for a in range(xa)
    )
    return conditional_class_size(JointType(counts, sum(key.discriminant)))


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
    strategy: str


def count_classes(
    family: families.MetricFamily, n: int, strategy: str = "auto"
) -> ClassCountReport:
    """Count equivalence classes per output composition, exactly.

    ``strategy`` is one of ``auto``, ``combinatorial`` (additive-style
    families only; closed-form count of realizable joint count matrices) or
    ``exhaustive`` (enumerates inputs, and for finite-state families outputs
    as well; guarded by size).
    """
    if n < 1:
        raise InputError(f"block length must be at least 1, got {n}")
    # one table entry per output composition, for every strategy
    entries = math.comb(n + family.y_alphabet_size - 1, family.y_alphabet_size - 1)
    if entries > _MAX_COMPOSITIONS:
        raise InstanceTooLargeError(
            f"{entries} output compositions at n = {n} are over the limit of "
            f"{_MAX_COMPOSITIONS} (about 256 MiB)"
        )
    additive_like = family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE)
    if strategy == "auto":
        strategy = "combinatorial" if additive_like else "exhaustive"
    if strategy == "combinatorial":
        if not additive_like:
            raise UnsupportedCombinationError(
                "combinatorial counting requires an additive-style family"
            )
        counts = {
            comp: _combinatorial_count(family.x_alphabet_size, comp)
            for comp in _compositions(n, family.y_alphabet_size)
        }
    elif strategy == "exhaustive":
        counts = _exhaustive_counts(family, n)
    else:
        raise InputError(f"unknown counting strategy: {strategy!r}")

    max_classes = max(counts.values())
    return ClassCountReport(
        n=n,
        counts_by_composition=counts,
        max_classes=max_classes,
        log_growth=math.log2(max_classes) / n,
        strategy=strategy,
    )


def classes_for_output(family: families.MetricFamily, y: Sequence) -> int:
    """Exact class count for one concrete output sequence."""
    if family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE):
        comp = tuple(
            sum(1 for v in y if v == b) for b in range(family.y_alphabet_size)
        )
        return _combinatorial_count(family.x_alphabet_size, comp)
    n = len(y)
    keys = {
        class_key(family, x, y)
        for x in all_sequences(family.x_alphabet_size, n)
    }
    return len(keys)


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


def _exhaustive_counts(family, n):
    xa, ya = family.x_alphabet_size, family.y_alphabet_size
    if family.kind in (families.ADDITIVE, families.MAC_XOR_ADDITIVE):
        # class keys depend on y only through its composition
        counts = {}
        for comp in _compositions(n, ya):
            y_symbols = tuple(
                b for b in range(ya) for _ in range(comp[b])
            )
            y = Sequence(y_symbols, ya)
            counts[comp] = len(
                {class_key(family, x, y) for x in all_sequences(xa, n)}
            )
        return counts
    if n * (math.log2(xa) + math.log2(ya)) > EXHAUSTIVE_BITS:
        raise InstanceTooLargeError(
            f"exhaustive class count over {xa}^{n} x {ya}^{n} refused"
        )
    counts: dict[tuple[int, ...], int] = {}
    for y in all_sequences(ya, n):
        comp = tuple(sum(1 for v in y if v == b) for b in range(ya))
        k = len({class_key(family, x, y) for x in all_sequences(xa, n)})
        counts[comp] = max(counts.get(comp, 0), k)
    return counts
