"""Exhaustive small-instance oracles and seeded Monte Carlo experiments.

Exact mode replaces the expectation over codebooks by the clipped-union
functionals that sandwich the average error probability, so the main
competitive bound can be audited without enumerating codebooks.  Monte Carlo
mode runs paired decoding trials: every configured decoder sees the same
codebook and channel realization.  Results are deterministic given the
master seed.  The scalar, bit-packed and two-user paths key each trial's
generator by (master seed, trial index), so a trial's realization does not
depend on the others.  The type-domain arms (any n) draw every trial from
one generator per arm and call: all the sent joint types first, then one
output weight at a time, in increasing sent type (jointtypes.by_weight).
Both read each sent type's exact conditional errors
(jointtypes.conditional_errors): the main arm draws each trial's errors
from them with one uniform shared by every decoder, and the shifted arm
averages them.  Each of the three single-user sources (scalar, bit-packed,
type domain) yields groups of trials' error indicators; the scalar and
bit-packed ones read theirs off each trial's competitors with one reader,
_read.  Every joint-type table comes from jointtypes.tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels, decoders, ensembles, families, jointtypes, lz, typeclasses
from .decoders import MetricIndex, ScoreValue
from .errors import InputError, InstanceTooLargeError, UnsupportedCombinationError
from .typeclasses import Sequence

_Z95 = 1.959963984540054


def wilson_interval(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True, slots=True)
class ErrorEstimate:
    """Monte Carlo error probability for one decoder."""

    decoder: str
    n: int
    rate: float
    trials: int
    errors: int
    estimate: float
    ci_lo: float
    ci_hi: float
    seed: int


@dataclass(frozen=True, slots=True)
class PairwiseErrorReport:
    """Exact competitor mass for one (input, output) pair, with the
    class-mass sandwich bounds when a family is supplied.

    The lower bound holds for any scorer in or above the family; the upper
    bound only applies when the scorer is the exact universal metric, which
    the caller asserts via ``universal=True``.
    """

    mass: float
    log2_mass: float
    log2_lower: float | None = None
    log2_upper: float | None = None
    lower_ok: bool | None = None
    upper_ok: bool | None = None


def pairwise_error_exact(
    ensemble: ensembles.CodingEnsemble,
    scorer,
    x: Sequence,
    y: Sequence,
    family: families.MetricFamily | None = None,
    universal: bool = False,
    tol: float = 1e-9,
) -> PairwiseErrorReport:
    """Exact mass of competitors scoring at least as high as x against y."""
    n = len(x)
    s0 = _score(scorer, x, y)
    mass = 0.0
    for cand in typeclasses.all_sequences(x.alphabet_size, n):
        if _score(scorer, cand, y) >= s0:
            lp = ensembles.log_prob(ensemble, cand, y)
            if lp != -math.inf:
                mass += 2.0**lp
    log2_mass = math.log2(mass) if mass > 0 else -math.inf
    if family is None:
        return PairwiseErrorReport(mass=mass, log2_mass=log2_mass)
    u = decoders.universal_score(family, ensemble, x, y).value
    k_y = typeclasses.classes_for_output(family, y)
    log2_lower = -n * u
    log2_upper = math.log2(k_y) - n * u
    lower_ok = mass >= 2.0**log2_lower - tol
    upper_ok = (mass <= 2.0**log2_upper + tol) if universal else None
    return PairwiseErrorReport(
        mass=mass,
        log2_mass=log2_mass,
        log2_lower=log2_lower,
        log2_upper=log2_upper,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
    )


def _score(scorer, x, y) -> float:
    s = scorer(x, y)
    return s.value if isinstance(s, ScoreValue) else float(s)


# ---------------------------------------------------------------------------
# exact clipped-union audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExactAuditReport:
    """Exhaustive audit of the competitive bound at one block length.

    ``pointwise_ok`` certifies, for every weighted (x, y) pair and every
    parameter in the grid, that the competitor mass of the parametric scorer
    is at least the class mass, and the competitor mass of the universal
    scorer is at most the class count times the class mass.  The clipped
    union functionals and the class-growth factor then give the aggregate
    inequality.
    """

    n: int
    rate: float
    delta_n: float
    lhs_universal: float
    rhs_by_theta: tuple[float, ...]
    pointwise_ok: bool
    aggregate_ok: bool
    violations: tuple[str, ...] = ()
    cases: tuple = field(default=(), repr=False)


def exact_bound_audit(
    ensemble: ensembles.CodingEnsemble,
    channel: channels.ChannelModel,
    family: families.MetricFamily,
    thetas: list[MetricIndex],
    rate: float,
    n: int,
    tol: float = 1e-9,
    collect_cases: bool = False,
) -> ExactAuditReport:
    """Enumerate all weighted (input, output) pairs and audit the sandwich.

    Works for any ensemble kind, including output-conditioned (feedback)
    ensembles: class masses are computed by grouping the enumerated inputs
    by class key, which is exact by construction.  Per output word, every
    candidate is scored by every metric, the score rows are ranked
    (jointtypes.dense_ranks), and the competitor masses of all candidates
    are read off those ranks (jointtypes.tail_masses), so working memory is
    O(|thetas| * N) for N candidates, plus one partial sum per output word
    and metric.  Every
    violated (x, y, theta) is reported, in the order y, x, lower bounds by
    theta, upper bound.
    """
    if not thetas:
        raise InputError("at least one metric required")
    ensembles.check_rate(rate)
    _check_metrics(family, thetas)
    xa = family.x_alphabet_size
    ya = family.y_alphabet_size
    if n * (math.log2(xa) + math.log2(ya)) > typeclasses.EXHAUSTIVE_BITS:
        raise InstanceTooLargeError("exact audit instance too large")
    xs = list(typeclasses.all_sequences(xa, n))
    delta_n = typeclasses.count_classes(family, n).log_growth

    lhs_terms, rhs_terms = [], []  # per output word: its terms of lhs and of each rhs
    violations: list[str] = []
    cases = []
    for y in typeclasses.all_sequences(ya, n):
        q = np.array([2.0 ** ensembles.log_prob(ensemble, x, y) for x in xs])
        if q.sum() == 0.0:
            continue
        keys = [typeclasses.class_key(family, x, y) for x in xs]
        key_mass: dict = {}
        for k, qi in zip(keys, q):
            key_mass[k] = key_mass.get(k, 0.0) + qi
        k_y = len(key_mass)
        u_vals = np.array(
            [
                math.inf if key_mass[k] == 0.0 else -math.log2(key_mass[k]) / n
                for k in keys
            ]
        )
        class_mass = np.array([2.0 ** (-n * u) if u != math.inf else 0.0 for u in u_vals])
        theta_scores = [
            [decoders.metric_score(family, th, x, y).value for x in xs] for th in thetas
        ]
        # competitor masses of each x: the universal decoder maximizes u, so
        # its competitors have u at least as large (class mass at most as
        # large); row 0 is universal, then one row per theta
        ranks, rank_of = jointtypes.dense_ranks(np.array([u_vals] + theta_scores))
        masses = jointtypes.tail_masses(ranks, q)[0][rank_of]
        mass_u, mass_theta = masses[0], masses[1:]
        lower_bad = mass_theta < class_mass - tol
        upper_bad = mass_u > k_y * class_mass + tol
        for ix in np.flatnonzero(lower_bad.any(axis=0) | upper_bad):
            x = xs[ix]
            violations.extend(
                f"lower bound violated at x={x.symbols} y={y.symbols} theta#{it}"
                for it in np.flatnonzero(lower_bad[:, ix])
            )
            if upper_bad[ix]:
                violations.append(f"upper bound violated at x={x.symbols} y={y.symbols}")
        w = q * np.array([2.0 ** channels.log_likelihood(channel, x, y) for x in xs])
        # math.fsum, within each word and then over words, fixes every
        # rounding: no sum depends on memory layout or a BLAS kernel
        lhs_terms.append(math.fsum((w * _clipped_union(mass_u, n * rate)).tolist()))
        rhs_terms.append([math.fsum(row) for row in (_clipped_union(mass_theta, n * rate) * w).tolist()])
        if collect_cases:
            cases.extend(
                (y.symbols, x.symbols, float(u), float(mu), tuple(mt.tolist()), k_y)
                for x, u, mu, mt in zip(xs, u_vals, mass_u, mass_theta.T)
            )

    lhs = math.fsum(lhs_terms)
    rhs = [math.fsum(terms[i] for terms in rhs_terms) for i in range(len(thetas))]
    aggregate_ok = bool(lhs <= 2.0 ** (n * delta_n) * min(rhs) + tol)
    return ExactAuditReport(
        n=n,
        rate=rate,
        delta_n=delta_n,
        lhs_universal=float(lhs),
        rhs_by_theta=tuple(float(v) for v in rhs),
        pointwise_ok=not violations,
        aggregate_ok=aggregate_ok,
        violations=tuple(violations),
        cases=tuple(cases),
    )


def _clipped_union(mass: np.ndarray, log2_m: float) -> np.ndarray:
    """min(1, M * mass) elementwise, for M = 2^log2_m codewords.  From
    2^1024 on, M is no float: there the product is formed in the log
    domain, where a zero mass stays 0."""
    if log2_m < 1024:
        return np.minimum(1.0, 2.0**log2_m * mass)
    log2_mass = np.log2(mass, out=np.full(mass.shape, -math.inf), where=mass > 0)
    return np.exp2(np.minimum(0.0, log2_mass + log2_m))


# ---------------------------------------------------------------------------
# pairwise-independent union lower bound
# ---------------------------------------------------------------------------


@dataclass
class EventFamilySpec:
    """A finite probability space of equally likely outcomes and a family
    of events declared pairwise independent; the declaration is re-verified
    by exact integer arithmetic before the bound is checked."""

    num_outcomes: int
    events: tuple
    label: str = ""


@dataclass(frozen=True, slots=True)
class ShulmanReport:
    label: str
    num_events: int
    union_prob: float
    sum_prob: float
    bound: float
    holds: bool


def shulman_check(spec: EventFamilySpec, require_independence: bool = True) -> ShulmanReport:
    """Exact check that the union probability is at least half the clipped
    sum of the event probabilities.

    Raises if the pairwise-independence certificate fails: the bound is not
    applicable to such a family.  Pass ``require_independence=False`` only to
    evaluate the inequality numerically on families (e.g. disjoint events)
    where it holds for other reasons.
    """
    masks = [np.asarray(e, dtype=bool) for e in spec.events]
    if not masks:
        raise InputError("event family must be nonempty")
    for m in masks:
        if m.shape != (spec.num_outcomes,):
            raise InputError("event mask has wrong length")
    total = spec.num_outcomes
    sizes = [np.count_nonzero(m) for m in masks]
    for i in range(len(masks) if require_independence else 0):
        for j in range(i + 1, len(masks)):
            inter = np.count_nonzero(masks[i] & masks[j])
            if inter * total != sizes[i] * sizes[j]:
                raise InputError(
                    f"pairwise independence certificate failed for events {i},{j}"
                )
    union = np.count_nonzero(np.logical_or.reduce(masks))
    s = sum(sizes)
    # exact: 2 * union/total >= min(1, s/total)
    holds = 2 * union >= min(total, s)
    return ShulmanReport(
        label=spec.label,
        num_events=len(masks),
        union_prob=union / total,
        sum_prob=s / total,
        bound=0.5 * min(1.0, s / total),
        holds=holds,
    )


def xor_parity_family(num_bits: int, subsets=None, targets=None, label="") -> EventFamilySpec:
    """Events over uniform bits: each event fixes the parity of a nonempty
    bit subset.  Distinct subsets give pairwise independent events."""
    # every event is a mask over all the outcomes: refuse too many first
    if num_bits > typeclasses.EXHAUSTIVE_BITS:
        raise InstanceTooLargeError(f"2^{num_bits} outcomes are over the 2^{typeclasses.EXHAUSTIVE_BITS} limit")
    space = 1 << num_bits
    if subsets is None:
        subsets = [s for s in range(1, space if num_bits <= 16 else 0)]
    if not all(0 < s < space for s in subsets):
        raise InputError(f"a subset must be a nonempty set of the {num_bits} bits, an integer in [1, 2^{num_bits})")
    if targets is not None and len(targets) != len(subsets):
        raise InputError("need one target per subset")
    outcomes = np.arange(space, dtype=np.uint64)
    events = []
    for idx, s in enumerate(subsets):
        t = 1 if targets is None else targets[idx]
        parity = np.bitwise_count(outcomes & np.uint64(s)) & 1
        events.append(parity == t)
    return EventFamilySpec(space, tuple(events), label=label or f"parity-{num_bits}bit")


def projective_line_family(q: int, num_events: int | None = None, shifts=None, label="") -> EventFamilySpec:
    """Events over the uniform q x q grid (q prime): each event is a line
    a*u + b*v = c with pairwise non-proportional normals, so any two events
    intersect in exactly one point and are pairwise independent."""
    if q * q > 1 << typeclasses.EXHAUSTIVE_BITS:
        raise InstanceTooLargeError(f"{q}^2 outcomes are over the 2^{typeclasses.EXHAUSTIVE_BITS} limit")
    directions = [(1, b) for b in range(q)] + [(0, 1)]
    if num_events is not None:
        directions = directions[:num_events]
    if shifts is not None and len(shifts) < len(directions):
        raise InputError(f"need one shift per event, {len(directions)} of them")
    u = np.arange(q * q) // q
    v = np.arange(q * q) % q
    events = []
    for idx, (a, b) in enumerate(directions):
        c = 0 if shifts is None else shifts[idx]
        events.append((a * u + b * v) % q == c)
    return EventFamilySpec(q * q, tuple(events), label=label or f"lines-q{q}")


def random_pairwise_independent_family(rng: np.random.Generator) -> EventFamilySpec:
    """Draw a random family from one of the exactly-verifiable
    constructions, over a space of at most 2**16 outcomes."""
    if rng.integers(2) == 0:
        num_bits = int(rng.integers(4, 17))
        count = int(rng.integers(2, 16))
        space = 1 << num_bits
        subsets = rng.choice(np.arange(1, space), size=count, replace=False)
        targets = rng.integers(0, 2, size=count)
        return xor_parity_family(
            num_bits, [int(s) for s in subsets], [int(t) for t in targets],
            label=f"parity-{num_bits}bit-{count}ev",
        )
    q = int(rng.choice([3, 5, 7, 11, 13, 17, 19, 23]))
    count = int(rng.integers(2, q + 2))
    shifts = [int(s) for s in rng.integers(0, q, size=count)]
    return projective_line_family(q, count, shifts, label=f"lines-q{q}-{count}ev")


# ---------------------------------------------------------------------------
# surrogate metric growth condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SurrogateReport:
    """Per-block-length growth exponents of the surrogate score.

    ``kappa`` for one output is the normalized log of the Q-weighted sum of
    2^(n * surrogate score) over the ensemble support; the audit tracks the
    maximum over sampled outputs and whether it shrinks with n."""

    per_n: dict[int, tuple[tuple[tuple[int, ...], float], ...]]
    max_per_n: dict[int, float]
    non_increasing: bool


def surrogate_condition_check(
    make_ensemble,
    n_values,
    samples_per_y: int = 20,
    seed: int = 0,
) -> SurrogateReport:
    """Measure the surrogate growth exponent across block lengths.

    ``make_ensemble`` maps a block length to an ensemble (iid, uniform or
    uniform over a type).  For every ensemble-supported x the weighted
    summand reduces exactly to 2^(-conditional complexity), so the sum is
    over the support only.
    """
    if samples_per_y < 1:
        raise InputError(f"samples_per_y must be at least 1, got {samples_per_y}")
    per_n: dict[int, tuple] = {}
    max_per_n: dict[int, float] = {}
    for n in n_values:
        ensemble = make_ensemble(n)
        if ensemble.kind not in (
            ensembles.IID,
            ensembles.UNIFORM,
            ensembles.UNIFORM_OVER_TYPE,
        ):
            raise UnsupportedCombinationError(
                "surrogate condition requires an invariant ensemble kind"
            )
        if n * math.log2(ensemble.alphabet_size) > 16:
            raise InstanceTooLargeError("surrogate check instance too large")
        support = [
            x
            for x in typeclasses.all_sequences(ensemble.alphabet_size, n)
            if ensembles.log_prob(ensemble, x) != -math.inf
        ]
        rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
        rows = []
        for _ in range(samples_per_y):
            y = tuple(
                int(v) for v in rng.integers(0, ensemble.alphabet_size, size=n)
            )
            total = math.fsum(
                2.0 ** -lz.conditional_lz_length(x.symbols, y) for x in support
            )
            rows.append((y, math.log2(total) / n))
        per_n[n] = tuple(rows)
        max_per_n[n] = max(k for _, k in rows)
    ns = sorted(max_per_n)
    non_increasing = all(
        max_per_n[b] <= max_per_n[a] + 1e-12 for a, b in zip(ns, ns[1:])
    )
    return SurrogateReport(per_n=per_n, max_per_n=max_per_n, non_increasing=non_increasing)


# ---------------------------------------------------------------------------
# Monte Carlo experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DecoderSpec:
    """One decoder to run in an experiment.

    ``kind`` is one of ``universal`` (exact class-mass metric), ``ml``
    (channel log-likelihood oracle), ``metric`` (one member of the family,
    with ``theta`` a matrix), or ``lz`` (parse-based surrogate).
    """

    kind: str
    label: str = ""
    theta: tuple = ()

    @property
    def name(self) -> str:
        return self.label or self.kind


def run_experiment(
    ensemble: ensembles.CodingEnsemble,
    channel: channels.ChannelModel,
    family: families.MetricFamily,
    decoder_specs: list[DecoderSpec],
    rate: float,
    trials: int,
    seed: int,
    ties_as_errors: bool = True,
) -> list[ErrorEstimate]:
    """Paired decoding trials: per trial, transmit a uniformly chosen
    message of a random codebook, and decode the same realization with
    every configured decoder.  The scalar and bit-packed paths draw each
    trial's codebook; the type-domain path draws only each trial's sent
    joint type, and then every decoder's error at once, from its exact
    conditional error given that type, with one uniform shared by all
    decoders (_drawn_errors).  Deterministic given the master seed."""
    if not decoder_specs:
        raise InputError("at least one decoder required")
    path, m = _checked_path(ensemble, channel, family, decoder_specs, rate, trials)
    types_of = None if path == "scalar" else jointtypes.tables(decoder_specs, ensemble, channel, kept=path == "packed")
    return _experiment(ensemble, channel, family, decoder_specs, rate, trials, seed, ties_as_errors, path, m, types_of)


def _checked_path(ensemble, channel, family, decoder_specs, rate, trials) -> tuple[str, int]:
    """run_experiment's refusals, all before any draw or table, and then
    the path it takes (_select_path) and its message count M."""
    if trials < 1:
        raise InputError("at least one trial required")
    _check_alphabets(ensemble.alphabet_size, family, channel)
    _check_metrics(family, [MetricIndex.additive(s.theta) for s in decoder_specs if s.kind == "metric"])
    n = ensemble.n
    m = ensembles.message_count(n, rate)
    if (
        ensemble.kind == ensembles.LINEAR_DITHERED
        and m > 2**ensemble.message_bits
    ):
        raise InputError("more codewords than linear messages available")
    if channel.kind == channels.MOD_ADDITIVE and channel.noise_word and len(channel.noise_word) != n:
        raise InputError(f"the fixed noise word has {len(channel.noise_word)} symbols, the block length is {n}")
    path = _select_path(ensemble, channel, family, decoder_specs)
    if path == "types":
        _check_float_count(m)
    return path, m


def _check_float_count(m: int) -> None:
    """Refuse M >= 2^1024 (n * R >= 1024): jointtypes.conditional_errors takes M as a float."""
    if m >= 1 << 1024:
        raise InstanceTooLargeError(f"type-domain draws need M < 2^1024 codewords, not M = 2^{math.log2(m):.2f}")


def _experiment(
    ensemble, channel, family, decoder_specs, rate, trials, seed, ties_as_errors, path, m, types_of, also=(), visit=None
):
    """run_experiment past its refusals (_checked_path), the joint-type
    paths building each output weight's table with ``types_of``; the
    type-domain path also visits the tables of the weights ``also``
    (_drawn_errors)."""
    if path == "scalar":
        groups = _scalar_histograms(
            ensemble, channel, m, seed, trials, ties_as_errors, _scorers(decoder_specs, family, ensemble, channel)
        )
    elif path == "packed":
        groups = _packed_histograms(ensemble, channel, m, seed, trials, ties_as_errors, types_of)
    else:
        groups = _drawn_errors(ensemble, channel, m, seed, trials, ties_as_errors, types_of, also, visit)
    errors = sum(group.sum(axis=0) for group in groups)
    return [
        ErrorEstimate(spec.name, ensemble.n, rate, trials, err, err / trials, *wilson_interval(err, trials), seed)
        for spec, err in zip(decoder_specs, errors.tolist())
    ]


def _check_alphabets(x_alphabet_size, family, channel) -> None:
    """Codewords, family and channel must agree on both alphabets."""
    sizes = (x_alphabet_size, family.x_alphabet_size, channel.x_alphabet_size)
    if len(set(sizes)) > 1:
        raise InputError(f"input alphabets of codewords, family, channel differ: {sizes}")
    if family.y_alphabet_size != channel.y_alphabet_size:
        raise InputError("output alphabets of family and channel differ")


def _check_metrics(family, thetas) -> None:
    """Every metric parameter tensor has the family's shape: |X| x |Y|,
    times the number of states for a finite-state family."""
    shape = (family.x_alphabet_size, family.y_alphabet_size)
    if family.kind == families.FINITE_STATE:
        shape += (family.num_states,)
    for theta in thetas:
        if np.array(theta.values, dtype=object).shape != shape:
            raise InputError(f"metric parameters must be {' x '.join(map(str, shape))} for this family")


def _select_path(ensemble, channel, family, decoder_specs) -> str:
    """Which Monte Carlo path a run takes.

    The joint-type paths run only where they provably match the scalar
    reference: binary additive family, uniform codewords, a memoryless or
    fixed-noise binary channel, and decoders whose scores depend on a
    codeword only through its joint type with y (the ML score of a
    fixed-noise channel does not).  There, ``"types"`` draws the trials'
    competitor counts directly, at any n, which needs independent codewords
    (``uniform``, fair ``iid``); ``"packed"`` counts them in a bit-packed
    codebook of at most 64-bit words, for ``linear_dithered`` codewords,
    which are only pairwise independent.  Everything else is
    ``"scalar"``."""
    fixed_noise = channel.kind == channels.MOD_ADDITIVE and bool(channel.noise_word)
    if not (
        family.kind == families.ADDITIVE
        and ensemble.alphabet_size == family.y_alphabet_size == 2
        and channel.kind in (channels.DMC, channels.MOD_ADDITIVE)
        and all(
            spec.kind in ("universal", "metric") or (spec.kind == "ml" and not fixed_noise)
            for spec in decoder_specs
        )
    ):
        return "scalar"
    if ensemble.kind == ensembles.UNIFORM or (
        ensemble.kind == ensembles.IID and ensemble.probs == (0.5, 0.5)
    ):
        return "types"
    if ensemble.kind == ensembles.LINEAR_DITHERED and ensemble.n <= 64:
        return "packed"
    return "scalar"



def _signs(scores: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """How each entry of each row of ``scores`` compares with the sent
    score of its row (a column), as int8: 1 above, 0 equal, -1 below."""
    return (scores > sent).view(np.int8) - (scores < sent).view(np.int8)


def _read(signs: np.ndarray, others: np.ndarray, earlier) -> np.ndarray:
    """Error indicators (trials x decoders) from ``others``, each trial's
    competitor counts per category (a joint type or a codeword), whose
    scores compare with the sent word's as that trial's ``signs``
    (trials x decoders x categories) say.  An error is a competitor
    scoring at least the sent word; with ``earlier``, the counts of the
    competitors indexed below the sent word, ties go to the lowest index
    instead, so an equal score errs only there."""
    if earlier is None:
        return ((signs >= 0) & (others[:, None] > 0)).any(-1)
    return ((signs > 0) & (others[:, None] > 0)).any(-1) | ((signs == 0) & (earlier[:, None] > 0)).any(-1)


# ---------------------------------------------------------------------------
# bit-packed realizations (n <= 64): symbol i of a word is its bit i
# ---------------------------------------------------------------------------


def _packed_words(rng, count: int, n: int) -> np.ndarray:
    """``count`` uniform n-bit words: the generator's raw 64-bit draws,
    masked to their low n bits."""
    return rng.bit_generator.random_raw(count) & np.uint64((1 << n) - 1)


def _pack_bits(bits) -> np.uint64:
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return np.uint64(int.from_bytes(packed.tobytes(), "little"))


def _flip_noise(rng, x_bits: np.ndarray, channel) -> np.ndarray:
    """Noise bits of one block through a binary channel: a fixed noise
    word draws nothing from ``rng``, a memoryless channel flips each
    symbol through its own row of W."""
    if channel.kind == channels.MOD_ADDITIVE and channel.noise_word:
        return np.array(channel.noise_word, dtype=bool)
    w = jointtypes.channel_matrix(channel)
    return rng.random(len(x_bits)) < np.where(x_bits, w[1][0], w[0][1])


#: SeedSequence keys (seed, tag) of the type-domain arms' generators.  A key
#: is hashed as the 32-bit words of its entries; a tag of 2^64 + c is the
#: words (c, 0, 1), and no trial index below 2^64 has a zero top word, so
#: no trial's (seed, t) or (seed, t, 1) key has the same words
_DRAWN_TAG = 2**64
_SHIFTED_TAG = 2**64 + 1


def _transmit_packed(rng, word, n: int, channel):
    """Packed output for a packed input word."""
    x_bits = ((word >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(bool)
    return word ^ _pack_bits(_flip_noise(rng, x_bits, channel))


#: the most memory one trial's materialized codebook may take
_CODEBOOK_BYTES = 1 << 28


def _check_codebook(words: int, bytes_per_word: int) -> None:
    """Refuse, before allocating it, a codebook over _CODEBOOK_BYTES."""
    if words * bytes_per_word > _CODEBOOK_BYTES:
        raise InstanceTooLargeError(
            f"one trial's codebook of 2^{math.log2(words):.2f} words would take "
            f"2^{math.log2(words * bytes_per_word):.2f} bytes, over the "
            f"{_CODEBOOK_BYTES >> 20} MiB limit"
        )


def _packed_trial(ensemble, channel, m: int, seed: int, t: int):
    """Codebook, sent index and output of trial t of the bit-packed kernel."""
    n = ensemble.n
    linear = ensemble.kind == ensembles.LINEAR_DITHERED
    bits = (m - 1).bit_length()
    _check_codebook(1 << bits if linear else m, 8)
    rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
    if linear:
        # message i's word is the dither XOR the rows at i's one bits; all
        # rows are drawn, but only those below m's bit length are used
        rows = _packed_words(rng, ensemble.message_bits, n)
        dither = _packed_words(rng, 1, n)[0]
        span = np.zeros(1 << bits, dtype=np.uint64)
        for j in range(bits):
            span[1 << j : 2 << j] = span[: 1 << j] ^ rows[j]
        code = span[:m] ^ dither
    else:
        code = _packed_words(rng, m, n)
    true_idx = int(rng.integers(m))
    return code, true_idx, _transmit_packed(rng, code[true_idx], n, channel)


# ---------------------------------------------------------------------------
# single-user sources.  A source yields groups of trials' error indicators
# (trials x decoders), which _experiment totals.  The bit-packed and scalar
# sources read each trial's with _read off its (signs, counts, earlier):
# signs rank each category, a joint type or a codeword, against the sent
# word, per decoder; counts are the competitors in each, and earlier those
# indexed below the sent word, or None when ties count as errors.  The
# type-domain source draws them from exact conditional errors.
# ---------------------------------------------------------------------------


def _packed_histograms(ensemble, channel, m, seed, trials, ties_as_errors, types_of):
    """Each trial's joint-type histograms, counted from its bit-packed
    codebook, as a group of one, in trial order.  The trials revisit output
    weights in trial order, so ``types_of`` keeps each weight's table for
    the call (jointtypes.tables).  A trial's arrays are released only once
    the next trial's exist, so the allocator keeps their pages instead of
    returning them to the system and faulting them in again every trial."""
    n = ensemble.n
    for t in range(trials):
        code, true_idx, y = _packed_trial(ensemble, channel, m, seed, t)
        ny = int(np.bitwise_count(y))
        types = jointtypes.joint_types(code, y, n, ny)
        bins = (ny + 1) * (n - ny + 1)
        true_type = int(types[true_idx])
        others = np.bincount(types, minlength=bins)
        others[true_type] -= 1
        earlier = None if ties_as_errors else np.bincount(types[:true_idx], minlength=bins)[None]
        scores = types_of(ny).scores
        yield _read(_signs(scores, scores[:, true_type, None])[None], others[None], earlier)


def _drawn_errors(ensemble, channel, m, seed, trials, ties_as_errors, types_of, also=(), visit=None):
    """The trials' error indicators drawn in the type domain, from one
    generator: every sent pair's joint type first (jointtypes.by_weight),
    then one output weight at a time, in increasing order, a group of its
    trials in increasing sent type, not in trial order.  Each trial draws
    one uniform u, shared by every decoder, and a decoder errs iff u is
    below its exact conditional error at the trial's sent type
    (jointtypes.conditional_errors).  Given the sent types, each decoder's
    errors are independent with the law of M - 1 uniform competitors and a
    uniform sent index, and decoders whose errors are equal decide alike.
    Each weight's table is built once, by ``types_of`` (jointtypes.tables,
    not ``kept``), and dropped before the next one is built.  The output
    weights ``also`` join the same ascending walk: ``visit`` is called
    with each one's table, after its group if the trials drew it too.
    With no trials the walk only makes those visits."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, _DRAWN_TAG)))
    drawn = jointtypes.by_weight(rng, channel, ensemble.n, trials)
    for ny in sorted(drawn.keys() | set(also)):
        types = types_of(ny)
        if ny in drawn:
            sents, counts = drawn[ny]
            errors = jointtypes.conditional_errors(types, sents, m, ties_as_errors)
            yield rng.random(int(counts.sum()))[:, None] < np.repeat(errors, counts, axis=1).T
        if ny in also:
            visit(types)
        del types


def _scorers(decoder_specs, family, ensemble, channel) -> list:
    """The udec.decoders scorer of each decoder, for the scalar source."""
    scorers = []
    for spec in decoder_specs:
        if spec.kind == "universal":
            scorers.append(decoders.universal_scorer(family, ensemble))
        elif spec.kind == "ml":
            scorers.append(decoders.ml_scorer(channel))
        elif spec.kind == "metric":
            scorers.append(decoders.metric_scorer(family, MetricIndex.additive(spec.theta)))
        elif spec.kind == "lz":
            scorers.append(decoders.lz_scorer(ensemble))
        else:
            raise InputError(f"unknown decoder kind: {spec.kind!r}")
    return scorers


def _scalar_histograms(ensemble, channel, m, seed, trials, ties_as_errors, scorers):
    """Scalar reference: each trial as a group of one, in trial order, whose
    categories are the codewords of its sampled codebook, each scored once
    per decoder by ``scorers`` (_scorers); every codeword but the sent one
    counts once."""
    # a Sequence of n symbols: n tuple slots plus the objects' overhead
    _check_codebook(m, 8 * ensemble.n + 400)
    for t in range(trials):
        trial_rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        book_seed = int(trial_rng.integers(1 << 62))
        channel_seed = (seed, t, 1)
        book = ensembles.sample_codebook(ensemble, m, book_seed)
        true_idx = int(trial_rng.integers(m))
        y = channels.transmit(channel, book.codewords[true_idx], channel_seed)
        scores = np.array([[_score(scorer, w, y) for w in book.codewords] for scorer in scorers])
        index = np.arange(m)[None]
        earlier = None if ties_as_errors else index < true_idx
        yield _read(_signs(scores, scores[:, true_idx, None])[None], index != true_idx, earlier)


def default_theta_grid(size: int = 25, channel=None, seed: int = 0) -> list:
    """Deterministic grid of additive parameter matrices in [-1, 1].

    Always contains the match/mismatch (identity) matrix; when a memoryless
    binary channel is supplied its log-likelihood matrix is included too, so
    the grid minimum is never above the ML point.  Evaluating a minimum over
    this finite subset of the full class only weakens the audited right-hand
    sides, which is the safe direction.
    """
    grid = [((1.0, 0.0), (0.0, 1.0))]
    if channel is not None:
        # the ML metric, floored to stay finite
        w = jointtypes.channel_matrix(channel)
        grid.append(tuple(tuple(math.log2(max(p, 1e-300)) for p in row) for row in w))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7E7A)))
    while len(grid) < size:
        m = rng.uniform(-1.0, 1.0, size=(2, 2))
        m /= max(1e-9, np.abs(m).max())
        grid.append(tuple(tuple(float(v) for v in row) for row in m))
    return grid


# ---------------------------------------------------------------------------
# Monte Carlo audit of the competitive bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MonteCarloAuditReport:
    """Estimates plus both competitive inequalities at CI separation.

    Inequality A compares the universal decoder at rate R against the best
    grid metric at rate R scaled by twice the class-growth factor.
    Inequality B compares it against twice the best grid metric run at the
    class-growth-inflated rate; that arm is estimated with the
    codebook-exact conditional error estimator (valid for fully independent
    codewords).

    ``verdict`` is ``"holds"`` when both inequalities hold at CI
    separation, ``"violated"`` when the universal decoder's ``ci_lo`` is
    above either right-hand side taken at the competitors' ``ci_hi``, and
    ``"inconclusive"`` otherwise, for instance when the decoders made too
    few errors for their intervals to separate."""

    estimates: tuple[ErrorEstimate, ...]
    delta_n: float
    shifted_rate: float
    shifted_estimates: tuple[ErrorEstimate, ...]
    ineq_factor_ok: bool
    ineq_rate_ok: bool
    verdict: str
    ratio_universal_to_ml: float
    #: ratio divided by the envelope factor 2*2^(n*delta_n); the raw ratio
    #: grows polynomially with n (prefactor loss of the universal decoder),
    #: while this slack measures how loose the audited envelope is and
    #: shrinks as n grows
    envelope_slack: float = math.inf


def monte_carlo_audit(
    channel: channels.ChannelModel,
    family: families.MetricFamily,
    metric_thetas: list,
    rate: float,
    n: int,
    trials: int,
    seed: int,
    shifted_trials: int = 4000,
) -> MonteCarloAuditReport:
    """Audit both competitive inequalities for the uniform binary ensemble.

    ``metric_thetas`` are additive parameter matrices; the ML metric for the
    channel is always added to the grid.  Evaluating the minimum over a
    finite grid only weakens the right-hand sides, which is the safe
    direction for an audit.
    """
    if shifted_trials < 1:
        raise InputError("at least one shifted-arm trial required")
    # the shifted arm needs a memoryless binary channel: refuse any other
    # before the main arm runs a trial
    jointtypes.channel_matrix(channel)
    ensemble = ensembles.uniform_ensemble(2, n)
    specs = [DecoderSpec("universal"), DecoderSpec("ml"), *_grid_specs(metric_thetas)]
    path, m = _checked_path(ensemble, channel, family, specs, rate, trials)
    # the shifted arm's tables, on either path: built one weight at a time
    types_of = jointtypes.tables(specs, ensemble, channel, kept=False)
    delta_n = typeclasses.count_classes(family, n).log_growth
    shifted_rate = rate + delta_n
    shifted_m = ensembles.message_count(n, shifted_rate)
    _check_float_count(shifted_m)
    # the shifted arm draws its sent types first, from a generator of its
    # own; each of its output weights is then visited once with the table
    # the main arm builds for it, in the main arm's ascending walk.  The
    # universal decoder is not run at the shifted rate
    rng = np.random.default_rng(np.random.SeedSequence((seed + 1, _SHIFTED_TAG)))
    drawn, sums = jointtypes.by_weight(rng, channel, n, shifted_trials), []

    def visit(types):
        sums.append(_shifted_sums(types, len(specs) - 1, *drawn[types.ny], shifted_m))

    estimates = _experiment(ensemble, channel, family, specs, rate, trials, seed, True, path, m, types_of, drawn, visit)
    if path == "scalar":  # its main arm builds no table: the shifted arm walks alone, with no trials
        for _ in _drawn_errors(ensemble, channel, m, seed, 0, True, types_of, drawn, visit):
            pass
    shifted = _shifted_estimates(specs[1:], sums, n, shifted_rate, shifted_trials, seed + 1)

    est_u = estimates[0]
    theta_estimates = estimates[1:]
    factor = 2.0 * 2.0 ** (n * delta_n)
    ineq_factor_ok = est_u.ci_hi <= factor * min(e.ci_lo for e in theta_estimates)
    ineq_rate_ok = est_u.ci_hi <= 2.0 * min(e.ci_lo for e in shifted)
    verdict = _verdict(est_u, [(factor, theta_estimates), (2.0, shifted)])
    est_ml = estimates[1]
    ratio = (
        est_u.estimate / est_ml.estimate if est_ml.estimate > 0 else math.inf
    )
    slack = ratio / factor
    return MonteCarloAuditReport(
        estimates=tuple(estimates),
        delta_n=delta_n,
        shifted_rate=shifted_rate,
        shifted_estimates=tuple(shifted),
        ineq_factor_ok=ineq_factor_ok,
        ineq_rate_ok=ineq_rate_ok,
        verdict=verdict,
        ratio_universal_to_ml=ratio,
        envelope_slack=slack,
    )


def _grid_specs(thetas) -> list[DecoderSpec]:
    """An audit's metric decoders: one per grid matrix, labelled metric0,
    metric1, ... in grid order."""
    return [DecoderSpec("metric", label=f"metric{i}", theta=tuple(tuple(r) for r in th)) for i, th in enumerate(thetas)]


def _verdict(est_u, sides) -> str:
    """The verdict, as MonteCarloAuditReport defines it, on inequalities
    U <= factor * min(competitors), one (factor, competitor estimates) pair
    per inequality."""
    if all(est_u.ci_hi <= factor * min(e.ci_lo for e in others) for factor, others in sides):
        return "holds"
    if any(est_u.ci_lo > factor * min(e.ci_hi for e in others) for factor, others in sides):
        return "violated"
    return "inconclusive"


def _shifted_sums(types, decoders: int, sents, counts, m: int) -> tuple[list, list]:
    """One output weight's part of the audit's shifted arm, for the last
    ``decoders`` rows of its table ``types`` (jointtypes.tables): each
    decoder's error probability is exact over the codebook randomness, its
    conditional error with ties as errors at each of the weight's distinct
    sent types ``sents`` (jointtypes.conditional_errors), read off the rank
    rows with no sort.  Weighted by the ``counts`` of trials that drew
    each, the conditional errors and their squares are summed per decoder
    with math.fsum: (sums, squares)."""
    cond = jointtypes.conditional_errors(types, sents, m, True)[-decoders:]
    sums = [math.fsum(row) for row in (cond * counts).tolist()]
    return sums, [math.fsum(row) for row in (cond * cond * counts).tolist()]


def _shifted_estimates(specs, sums, n, rate, trials, seed) -> list[ErrorEstimate]:
    """The shifted arm's estimate of each decoder in ``specs`` from the
    _shifted_sums of every output weight its ``trials`` trials drew,
    summed again with math.fsum, so no sum's rounding depends on memory
    layout or a BLAS kernel; its interval is the normal one of the
    conditional errors' sample variance."""
    total = [math.fsum(col) for col in zip(*(s for s, _ in sums))]
    square = [math.fsum(col) for col in zip(*(s2 for _, s2 in sums))]
    out = []
    for spec, s, s2 in zip(specs, total, square):
        mean = s / trials
        half = _Z95 * math.sqrt(max(s2 / trials - mean * mean, 0.0) / trials)
        lo, hi = max(0.0, mean - half), min(1.0, mean + half)
        out.append(ErrorEstimate(f"{spec.name}@shifted", n, rate, trials, -1, mean, lo, hi, seed))
    return out


# ---------------------------------------------------------------------------
# two-user (modulo-sum) experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MacPairwiseReport:
    """The three exact pairwise error masses against their class-mass lower
    bounds for one (x1, x2, y) instance."""

    mass_both: float
    mass_user1: float
    mass_user2: float
    bound_both: float
    bound_user1: float
    bound_user2: float
    ok: bool


def mac_pairwise_error_exact(
    family: families.MetricFamily,
    q1: ensembles.CodingEnsemble,
    q2: ensembles.CodingEnsemble,
    theta: MetricIndex,
    x1: Sequence,
    x2: Sequence,
    y: Sequence,
    tol: float = 1e-9,
) -> MacPairwiseReport:
    """Exhaustive three-way sandwich check for one parametric metric."""
    n = len(y)
    s0 = decoders.mac_metric_score(family, theta, x1, x2, y).value
    u = decoders.mac_universal_score(family, q1, q2, x1, x2, y, 0.0, 0.0)
    u0, u1, u2 = u.components[0], u.components[1], u.components[2]
    mass_both, mass_user1, mass_user2 = decoders.pair_masses(
        q1, q2, x1, x2, lambda z: decoders.metric_score(family, theta, z, y).value >= s0
    )
    b0, b1, b2 = 2.0 ** (-n * u0), 2.0 ** (-n * u1), 2.0 ** (-n * u2)
    ok = (
        mass_both >= b0 - tol
        and mass_user1 >= b1 - tol
        and mass_user2 >= b2 - tol
    )
    return MacPairwiseReport(
        mass_both=mass_both,
        mass_user1=mass_user1,
        mass_user2=mass_user2,
        bound_both=b0,
        bound_user1=b1,
        bound_user2=b2,
        ok=ok,
    )


@dataclass(frozen=True, slots=True)
class MacErrorEstimate:
    decoder: str
    n: int
    rate1: float
    rate2: float
    trials: int
    errors: int
    errors_both: int
    errors_user1: int
    errors_user2: int
    estimate: float
    ci_lo: float
    ci_hi: float
    seed: int


def mac_run_experiment(
    channel: channels.ChannelModel,
    family: families.MetricFamily,
    decoder_specs: list[DecoderSpec],
    rate1: float,
    rate2: float,
    n: int,
    trials: int,
    seed: int,
) -> list[MacErrorEstimate]:
    """Paired two-user trials over uniform binary user ensembles.

    Decoder kinds: ``universal`` (composite class-mass score at the two
    rates), ``ml`` (inner-channel likelihood of the modulo-sum), ``metric``
    (additive theta over (modulo-sum, output) pairs).  Ties count as errors.
    Error types are attributed to the best competitor pair: both messages
    wrong, or only one user's message wrong.
    """
    if not decoder_specs:
        raise InputError("at least one decoder required")
    if channel.kind != channels.MAC_XOR:
        raise InputError("two-user experiment needs a mac_xor channel")
    _check_alphabets(2, family, channel.inner)
    _check_metrics(family, [MetricIndex.additive(s.theta) for s in decoder_specs if s.kind == "metric"])
    jointtypes.channel_matrix(channel.inner)  # a memoryless binary inner channel
    if n > 64:
        raise InstanceTooLargeError("bit-packed path supports n <= 64")
    for spec in decoder_specs:
        if spec.kind not in ("universal", "ml", "metric"):
            raise InputError(f"unsupported decoder kind for two users: {spec.kind!r}")
    kinds = _mac_trials(channel, decoder_specs, rate1, rate2, n, trials, seed)
    out = []
    for spec, col in zip(decoder_specs, kinds.T):
        err = int(np.count_nonzero(col))
        by_type = [int(np.count_nonzero(col == k)) for k in (1, 2, 3)]
        lo, hi = wilson_interval(err, trials)
        out.append(
            MacErrorEstimate(
                spec.name, n, rate1, rate2, trials, err, *by_type, err / trials, lo, hi, seed
            )
        )
    return out


def _mac_trial(inner, m1: int, m2: int, n: int, seed: int, t: int):
    """User codebooks, sent indices and output of two-user trial t."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
    book1 = _packed_words(rng, m1, n)
    book2 = _packed_words(rng, m2, n)
    i_true = int(rng.integers(m1))
    j_true = int(rng.integers(m2))
    y = _transmit_packed(rng, book1[i_true] ^ book2[j_true], n, inner)
    return book1, book2, i_true, j_true, y


def _mac_trials(channel, decoder_specs, rate1, rate2, n, trials, seed) -> np.ndarray:
    """Per trial (rows) and decoder (columns): 0 for a correct decision,
    else the type of the best competitor pair (lowest flat index i*M2+j
    among equals): 1 both messages wrong, 2 only user 1's, 3 only user 2's."""
    m1 = ensembles.message_count(n, rate1)
    m2 = ensembles.message_count(n, rate2)
    inner = channel.inner
    users = ensembles.uniform_ensemble(2, n)
    _check_codebook(m1 * m2, 8)
    types_of = jointtypes.tables(decoder_specs, users, inner, kept=True)
    kinds = np.zeros((trials, len(decoder_specs)), dtype=np.int8)
    for t in range(trials):
        book1, book2, i_true, j_true, y = _mac_trial(inner, m1, m2, n, seed, t)
        ny = int(np.bitwise_count(y))
        types = jointtypes.joint_types((book1[:, None] ^ book2[None, :]).reshape(-1), y, n, ny)
        true_flat = i_true * m2 + j_true
        for d, (spec, table) in enumerate(zip(decoder_specs, types_of(ny).scores)):
            if spec.kind == "universal":
                # uniform users: the three class masses of
                # decoders.mac_universal_score all equal the single-user class
                # mass of the modulo-sum, so with non-negative rates the least
                # of its three components is u - R1 - R2
                table = table - rate1 - rate2
            scores = table[types]
            s_true = scores[true_flat]
            scores[true_flat] = -np.inf
            best = int(np.argmax(scores))
            if scores[best] >= s_true:
                bi, bj = divmod(best, m2)
                kinds[t, d] = 1 if bi != i_true and bj != j_true else 2 if bj == j_true else 3
    return kinds


@dataclass(frozen=True, slots=True)
class MacEnvelopeReport:
    """The composite decoder's estimate against ``constant`` times the best
    grid metric's, with ``verdict`` ``holds``, ``violated`` or
    ``inconclusive`` as in MonteCarloAuditReport."""

    estimates: tuple[MacErrorEstimate, ...]
    delta_n: float
    constant: float
    verdict: str


def mac_envelope_audit(
    channel: channels.ChannelModel,
    family: families.MetricFamily,
    metric_thetas: list,
    rate1: float,
    rate2: float,
    n: int,
    trials: int,
    seed: int,
) -> MacEnvelopeReport:
    """Audit that the composite decoder's error rate stays within the
    proof-chain envelope of the best grid metric.

    The finite-n constant is 96 = 3 error types x 2 (pairwise-independent
    union lower bound) x 16 (keeping only half of each user's competitors
    in the independent sub-family costs at most 4 per user)."""
    if not metric_thetas:
        raise InputError("at least one metric required")
    specs = [DecoderSpec("universal"), *_grid_specs(metric_thetas)]
    estimates = mac_run_experiment(
        channel, family, specs, rate1, rate2, n, trials, seed
    )
    delta_n = typeclasses.count_classes(family, n).log_growth
    constant = 96.0 * 2.0 ** (n * delta_n)
    return MacEnvelopeReport(
        estimates=tuple(estimates),
        delta_n=delta_n,
        constant=constant,
        verdict=_verdict(estimates[0], [(constant, estimates[1:])]),
    )
