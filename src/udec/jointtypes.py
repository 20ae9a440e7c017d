"""Exact joint-type scoring core of the binary additive family.

Given y of weight ny, a codeword's joint type is (a11, a10), its ones over
y's ones and over y's zeros; each decoder scores it through one table per
ny (_Types), at flat index a11 * (n - ny + 1) + a10 = a11 * (n - ny) +
popcount.  tables, the one way to build tables, resolves the decoders'
rules, refuses oversized tables before any draw and sets their lifetime.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import channels, ensembles
from .decoders import MetricIndex
from .errors import InstanceTooLargeError, UnsupportedCombinationError


def channel_matrix(channel) -> tuple:
    """W(y|x) of a memoryless binary channel."""
    if channel.x_alphabet_size == channel.y_alphabet_size == 2:
        if channel.kind == channels.DMC:
            return channel.matrix
        if channel.kind == channels.MOD_ADDITIVE and channel.noise_probs:
            p = channel.noise_probs
            return ((p[0], p[1]), (p[1], p[0]))
    raise UnsupportedCombinationError("needs a memoryless binary channel")


def _type_rule(spec, ensemble, channel):
    """What one decoder's per-type score needs: the ensemble for
    ``universal``, otherwise the 2x2 per-letter scores (log2 W for ``ml``)
    as integer numerators over one power-of-two denominator, in the order
    00, 01, 10, 11, with None for a -inf letter (W is 0)."""
    if spec.kind == "universal":
        return ensemble
    if spec.kind == "ml":
        rows = tuple(
            tuple(math.log2(p) if p > 0.0 else -math.inf for p in row)
            for row in channel_matrix(channel)
        )
    else:
        rows = MetricIndex.additive(spec.theta).values
    ratios = [None if v == -math.inf else v.as_integer_ratio() for row in rows for v in row]
    den = max((r[1] for r in ratios if r is not None), default=1)
    return tuple(None if r is None else r[0] * (den // r[1]) for r in ratios), den


def _type_table(rule, n: int, ny: int, limbs: np.ndarray) -> np.ndarray:
    """Flat score table of the joint types (a11, a10) with a y of weight ny,
    whose class sizes are ``limbs`` (as in _Types); each entry is
    bit-identical to decoders.universal_score, ml_score or metric_score on
    any pair of that type."""
    if isinstance(rule, ensembles.CodingEnsemble):
        # the paths' ensembles (uniform, fair iid, linear_dithered) give
        # every binary word mass 2^-n: _type_class_log_mass's log2 mass of
        # a class is log2 size - n * log2 2, or for fair iid the same float
        # as -n + log2 size.  math.log2 of an int is math.log2 of its
        # correctly rounded float; np.log2 can differ in the last bit.  The
        # size C(ny, a11) C(n - ny, a10) is unchanged by a11 -> ny - a11 and
        # by a10 -> n - ny - a10, so the logs of the quarter a11 <= ny / 2,
        # a10 <= (n - ny) / 2 are taken and mirrored
        i, j = np.arange(ny + 1), np.arange(n - ny + 1)
        i, j = np.minimum(i, ny - i), np.minimum(j, n - ny - j)
        quarter = limbs.reshape(len(limbs), ny + 1, -1)[:, : ny // 2 + 1, : (n - ny) // 2 + 1]
        logs = np.array([math.log2(size) for size in _from_limbs(quarter, 0).reshape(-1).tolist()])
        log2_sizes = logs.reshape(quarter.shape[1:])[i[:, None], j].reshape(-1)
        return -(log2_sizes - n * math.log2(2)) / n
    # a letter sum is one integer numerator, affine in (a11, a10), over the
    # rule's denominator 2^k; int / int rounds half to even, as math.fsum does
    nums, den = rule
    c00, c01, c10, c11 = (v or 0 for v in nums)
    base, b, c = c00 * (n - ny) + c01 * ny, c11 - c01, c10 - c00
    k = den.bit_length() - 1
    a11 = np.arange(ny + 1)[:, None]
    a10 = np.arange(n - ny + 1)
    # num = base + a11 * b + a10 * c, so |num| <= |base| + ny |b| + (n - ny) |c|;
    # one more |b| and |c| bounds them too where a11 or a10 is only ever 0
    if k <= 1022 and abs(base) + (ny + 1) * abs(b) + (n - ny + 1) * abs(c) < 2**85:
        # num = hi * 2^32 + lo with |hi| <= 2^53 and 0 <= lo < 2^32, both
        # exact floats, so float(hi) * 2^32 + lo rounds num once, and the
        # scaling by 2^-k to a normal float is exact
        (hi, lo), (hb, lb), (hc, lc) = (divmod(v, 1 << 32) for v in (base, b, c))
        hi = hi + a11 * hb + a10 * hc
        lo = lo + a11 * lb + a10 * lc
        hi += lo >> 32
        lo &= 0xFFFFFFFF
        table = (hi * 2.0**32 + lo) * 2.0**-k
    else:  # subnormal or wide-exponent letters: Python ints
        table = ((base + a11.astype(object) * b + a10.astype(object) * c) / den).astype(float)
    for count, v in zip((n - ny - a10, ny - a11, a10, a11), nums):
        if v is None:  # a -inf letter that occurs
            table[np.broadcast_to(count > 0, table.shape)] = -math.inf
    return table.reshape(-1)


def tail_masses(ranks: np.ndarray, masses: np.ndarray, at=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """For each entry ``at`` (all T by default) of each row of ``ranks``
    (rows x T, from dense_ranks), the totals of ``masses`` (T, or leading
    axes x T, such as a _Types' limbs) over the row's entries ranked at
    least as high, and over those ranked equal, each shaped (leading axes x
    rows x entries): one weighted bincount per mass row and rank row, read
    at each entry's rank, and its sum from the top rank down likewise."""
    tails, equal = [], []
    for mass in masses.reshape(-1, masses.shape[-1]):
        for row in ranks:
            per_rank, rank = np.bincount(row, weights=mass), row[at]
            tails.append(np.cumsum(per_rank[::-1])[::-1][rank])
            equal.append(per_rank[rank])
    shape = masses.shape[:-1] + (len(ranks), -1)
    return np.reshape(tails, shape), np.reshape(equal, shape)


def _class_limbs(n: int, ny: int) -> np.ndarray:
    """Exact class sizes C(ny, a11) * C(n - ny, a10), in flat order, as
    (limbs x types) uint64 32-bit limbs, least significant first (a class
    has fewer than 2^n words): the outer product of the two Pascal rows,
    limb by limb, with one carry pass."""
    width = (n + 31) // 32
    a, b = _pascal_limbs(ny), _pascal_limbs(n - ny)
    out = np.zeros((len(a) + len(b), ny + 1, n - ny + 1), dtype=np.uint64)
    for i, row in enumerate(a):
        for j, col in enumerate(b):
            product = np.multiply.outer(row, col)  # below 2^64
            out[i + j] += product & np.uint64(0xFFFFFFFF)
            out[i + j + 1] += product >> np.uint64(32)
    for i in range(len(out) - 1):
        out[i + 1] += out[i] >> np.uint64(32)
        out[i] &= np.uint64(0xFFFFFFFF)
    return out[:width].reshape(width, -1)


def _pascal_limbs(m: int) -> np.ndarray:
    """C(m, j) for j = 0..m as (limbs x m + 1) uint64 32-bit limbs."""
    row = [math.comb(m, j) for j in range(m + 1)]
    return np.array([[(c >> s) & 0xFFFFFFFF for c in row] for s in range(0, max(m, 1), 32)], dtype=np.uint64)


def _from_limbs(limb_sums: np.ndarray, exponent: int) -> np.ndarray:
    """The integers that exact limb sums (limbs x any shape) stand for, in
    32-bit limbs, times 2^exponent, correctly rounded while the results
    are normal floats.  Each limb's term is exact; up to two limbs, one
    IEEE addition of them rounds correctly; past that, math.fsum does, on
    Python floats made _FSUM_ROWS results at a time."""
    terms = np.moveaxis(limb_sums, 0, -1) * 2.0 ** (32 * np.arange(len(limb_sums)) + exponent)
    if len(limb_sums) <= 2:
        return terms.sum(axis=-1)
    rows = terms.reshape(-1, len(limb_sums))
    sums = [math.fsum(t) for a in range(0, len(rows), _FSUM_ROWS) for t in rows[a : a + _FSUM_ROWS].tolist()]
    return np.array(sums).reshape(terms.shape[:-1])


#: how many results _from_limbs turns into Python floats at once
_FSUM_ROWS = 1 << 12


def dense_ranks(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the dense ranks of each row of ``scores`` (0
    for its lowest score, one more per next distinct score), in order of
    first occurrence, as int16 below 2^15 columns, and each row's index
    into them: equal ranks are equal scores, a higher rank a higher score."""
    order = np.argsort(scores, axis=-1)
    ranked = np.take_along_axis(scores, order, axis=-1)
    steps = np.zeros(scores.shape, dtype=np.int16 if scores.shape[1] < 1 << 15 else np.int32)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=-1, out=steps[:, 1:])
    ranks = np.empty_like(steps)
    ranks[np.arange(len(scores))[:, None], order] = steps
    first = {}
    which = np.array([first.setdefault(row.tobytes(), len(first)) for row in ranks])
    return ranks[np.unique(which, return_index=True)[1]], which


class _Types:
    """The joint types of binary words with a y of weight ny, in flat
    order, and what the paths read off them, all built from the types'
    class sizes (_class_limbs): ``scores``, (decoders x types) exact
    scores, one row per rule; ``_limbs``, (limbs x types) floats, each
    class size in 32-bit limbs, least significant first, so any sum of up
    to 2^21 of them is an exact float; ``_ranks``, the distinct rows of the
    scores' dense ranks (dense_ranks), which decoders that rank every type
    alike share; and ``_rank_of``, each decoder's row of ``_ranks``."""

    def __init__(self, rules, n: int, ny: int):
        self.n, self.ny = n, ny
        self._limbs = _class_limbs(n, ny).astype(float)
        self.scores = np.array([_type_table(rule, n, ny, self._limbs) for rule in rules], dtype=float)
        self._ranks, self._rank_of = dense_ranks(self.scores)


def _tail_sums(types: _Types, sents: np.ndarray) -> tuple:
    """(q>=, q>, q<, q<=, q=): how many of the 2^n words score at least,
    above, below, at most and equal to each sent type (flat indices
    ``sents``) with a y of the weight of _Types ``types``, on each of its
    distinct rank rows, as exact limb sums (limbs x rank rows x sents) of
    the class sizes: tail_masses' at or above and equal, and the rest
    their differences, each limb's total less a tail for the complements,
    all integers below 2^53, so exact."""
    ge, eq = tail_masses(types._ranks, types._limbs, sents)
    lt = types._limbs.sum(axis=-1)[:, None, None] - ge
    return ge, ge - eq, lt, lt + eq, eq


def conditional_errors(types: _Types, sents: np.ndarray, m: int, ties_as_errors: bool) -> np.ndarray:
    """(decoders x sents): each decoder's exact error probability given
    that the sent pair has the joint type sents[k] at the output weight of
    _Types ``types``, over the M - 1 other independent uniform codewords.
    With ties as errors it is 1 - q<^(M - 1) = -expm1((M - 1) log1p(-q>=)).
    With ties to the lowest index the sent index i is uniform too, and the
    word is decoded iff none of the i competitors below it scores at least
    its score and none of the M - 1 - i above it scores more: the mean of
    q<^i q<=^(M - 1 - i) over i is (q<=^M - q<^M) / (M q=), taken as
    q<=^M (-expm1(M log(q< / q<=))) / (M q=), where q= > 0 since the sent
    class holds a word.  No small difference is formed: log q<= is
    log1p(-q>) while q> < 1/2, and log(q< / q<=) is log1p(-q= / q<=) while
    q= < q<= / 2.  Every q is its exact count (_tail_sums) over 2^n,
    rounded once (_from_limbs, while 2^-n is a normal float: n <= 1022),
    and M is a float."""
    ge, gt, lt, le, eq = _tail_sums(types, sents)
    with np.errstate(divide="ignore"):  # a log of 0 is -inf: an error of 1, or a q< of 0
        if ties_as_errors:
            errors = -np.expm1(float(m - 1) * np.log1p(-_from_limbs(ge, -types.n)))
        else:
            gt, lt, le, eq = (_from_limbs(s, -types.n) for s in (gt, lt, le, eq))
            ratio, mf = eq / le, float(m)
            log_le = np.where(gt < 0.5, np.log1p(-gt), np.log(le))
            log_ratio = np.where(ratio < 0.5, np.log1p(-ratio), np.log(lt / le))
            errors = 1.0 - np.exp(mf * log_le) * -np.expm1(mf * log_ratio) / (mf * eq)
    return errors[types._rank_of]


def tables(decoder_specs, ensemble, channel, kept: bool):
    """The table builder of a run: ny -> _Types of these decoders at the
    ensemble's block length, their rules resolved here, once.  With
    ``kept`` (the bit-packed and two-user sources, which revisit output
    weights in trial order) each weight's table is built once and kept as
    long as the builder; otherwise (the type-domain arms, one weight at a
    time) each call builds a new one, for the caller to drop.  First,
    before any draw, refuses tables that could take more than _TABLE_BYTES
    (_table_bytes): the peak of the largest weight's (ny = n // 2), or with
    ``kept`` all of them held together while the last one is built."""
    n, decoders = ensemble.n, len(decoder_specs)
    if kept:
        sizes = [_table_bytes(n, ny, decoders) for ny in range(n + 1)]
        size = sum(held for held, _ in sizes) + max(peak - held for held, peak in sizes)
        what = f"the joint-type tables of all output weights at n = {n} could take"
    else:
        size = _table_bytes(n, n // 2, decoders)[1]
        what = f"the joint-type table of output weight {n // 2} at n = {n} could take"
    if size > _TABLE_BYTES:
        raise InstanceTooLargeError(f"{what} 2^{math.log2(size):.2f} bytes, over the {_TABLE_BYTES >> 20} MiB limit")
    rules = [_type_rule(spec, ensemble, channel) for spec in decoder_specs]

    def build(ny):
        return _Types(rules, n, ny)

    return functools.cache(build) if kept else build


def _table_bytes(n: int, ny: int, decoders: int) -> tuple[int, int]:
    """(held, peak): what one output weight's _Types holds, and the most
    the weight's work takes while its table is built and read.  For each of
    its (ny + 1)(n - ny + 1) joint types the table holds one float per
    32-bit limb of its class size and, per decoder, one float score and at
    most one rank (int16 below 2^15 types, int32 from there, as dense_ranks
    stores them).  The build also takes, per type, a second copy of the
    limbs (the carried class sizes, or the universal rule's limb terms),
    up to 10 floats while one rule's scores are worked out, and per decoder
    dense_ranks' int64 sort order, sorted float copy, comparison and three
    more rank-sized arrays.  Reading it takes besides, per limb and rank
    row, one bincount of ranks, and per drawn sent type the limb sums of
    its tails (_tail_sums): the trials bound those, not the table."""
    types = (ny + 1) * (n - ny + 1)
    rank, limbs = (2 if types < 1 << 15 else 4), 8 * ((n + 31) // 32)
    return types * (limbs + (8 + rank) * decoders), types * (2 * limbs + 80 + (25 + 4 * rank) * decoders)


#: the most memory one run's joint-type tables may take (tables).
#: The type-domain arms hold one output weight's table at a time; the
#: bit-packed and two-user paths keep every weight's for a call, at n <= 64
#: (C(67, 3) = 47905 types, about 14 MB with 27 decoders)
_TABLE_BYTES = 1 << 28


def joint_types(words: np.ndarray, y, n: int, ny: int) -> np.ndarray:
    """Flat table index of each packed word's joint type with y, below
    65**2 so in uint16; words and y must share one bit order."""
    return np.bitwise_count(words & y) * np.uint16(n - ny) + np.bitwise_count(words)


def _sent_types(rng, channel, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(ny, flat index) arrays of the joint types of ``count`` uniform words
    and their outputs through a binary channel, drawn directly.  Of the
    k ~ Bin(n, 1/2) ones of x, Bin(k, W(0|1)) are received as 0, and
    Bin(n - k, W(1|0)) of its zeros as 1.  For a fixed noise word of weight
    w, x's ones where the noise is 0 (a11, received as 1) are Bin(n - w, 1/2)
    and where it is 1 (a10, received as 0) Bin(w, 1/2).  Each binomial is
    drawn for all words at once."""
    if channel.kind == channels.MOD_ADDITIVE and channel.noise_word:
        w = sum(1 for e in channel.noise_word if e)
        a11, a10 = rng.binomial(n - w, 0.5, count), rng.binomial(w, 0.5, count)
        ny = a11 + w - a10
    else:
        matrix = channel_matrix(channel)
        k = rng.binomial(n, 0.5, count)
        a10 = rng.binomial(k, matrix[1][0])
        a11 = k - a10
        ny = a11 + rng.binomial(n - k, matrix[0][1])
    return ny, a11 * (n - ny + 1) + a10


def by_weight(rng, channel, n: int, trials: int) -> dict:
    """Draw the sent joint types of ``trials`` trials (_sent_types) and
    group them by output weight: ny -> (sents, counts), its distinct sent
    types in increasing order and how many trials drew each, for each
    weight drawn, in increasing order.  No table is built."""
    ny, sent = _sent_types(rng, channel, n, trials)
    keys, counts = np.unique(ny * (n + 1) ** 2 + sent, return_counts=True)
    weights, sents = np.divmod(keys, (n + 1) ** 2)
    starts = np.flatnonzero(np.diff(weights, prepend=-1)).tolist()
    return {int(weights[lo]): (sents[lo:hi], counts[lo:hi]) for lo, hi in zip(starts, starts[1:] + [len(keys)])}
