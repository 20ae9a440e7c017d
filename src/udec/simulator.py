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
output weight at a time, in increasing sent type (_by_weight).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels, decoders, ensembles, families, lz, typeclasses
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    candidate is scored by every metric, and the competitor masses of all
    candidates come from one sort per metric (_tail_masses), so working
    memory is O(|thetas| * N) for N candidates.  Every violated (x, y,
    theta) is reported, in the order y, x, lower bounds by theta, upper
    bound.
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

    lhs = 0.0
    rhs = np.zeros(len(thetas))
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
        masses = _tail_masses(np.array([u_vals] + theta_scores), q)
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
        lhs += w @ _clipped_union(mass_u, n * rate)
        rhs += _clipped_union(mass_theta, n * rate) @ w
        if collect_cases:
            cases.extend(
                (y.symbols, x.symbols, float(u), float(mu), tuple(mt.tolist()), k_y)
                for x, u, mu, mt in zip(xs, u_vals, mass_u, mass_theta.T)
            )

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
    """A finite probability space with integer weights and a family of
    events declared pairwise independent; the declaration is re-verified by
    exact integer arithmetic before the bound is checked."""

    num_outcomes: int
    events: tuple
    weights: tuple[int, ...] | None = None
    label: str = ""


@dataclass(frozen=True)
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
    if spec.weights is None:
        w = np.ones(spec.num_outcomes, dtype=np.int64)
    else:
        w = np.asarray(spec.weights, dtype=np.int64)
        if (w < 0).any():
            raise InputError("weights must be non-negative")
    total = int(w.sum())
    sizes = [int(w[m].sum()) for m in masks]
    for i in range(len(masks) if require_independence else 0):
        for j in range(i + 1, len(masks)):
            inter = int(w[masks[i] & masks[j]].sum())
            if inter * total != sizes[i] * sizes[j]:
                raise InputError(
                    f"pairwise independence certificate failed for events {i},{j}"
                )
    union = int(w[np.logical_or.reduce(masks)].sum())
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    """Paired decoding trials: per trial, draw a codebook, transmit a
    uniformly chosen message, and decode the same realization with every
    configured decoder.  Deterministic given the master seed."""
    if not decoder_specs:
        raise InputError("at least one decoder required")
    types_of = _type_tables(decoder_specs, ensemble, channel)
    return _experiment(ensemble, channel, family, decoder_specs, rate, trials, seed, ties_as_errors, types_of)


def _experiment(ensemble, channel, family, decoder_specs, rate, trials, seed, ties_as_errors, types_of):
    """run_experiment, reading the joint-type paths against ``types_of``,
    which the caller may share (the audit's shifted arm reads it too)."""
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
    path = _select_path(ensemble, channel, family, decoder_specs)
    if path == "scalar":
        errors = _run_slow(ensemble, channel, family, decoder_specs, m, trials, seed, ties_as_errors)
    else:
        source = _drawn_histograms if path == "types" else _packed_histograms
        groups = source(ensemble, channel, m, seed, trials, ties_as_errors, types_of)
        errors = np.concatenate([_read(*group) for group in groups])
    return [
        ErrorEstimate(spec.name, n, rate, trials, err, err / trials, *wilson_interval(err, trials), seed)
        for spec, err in zip(decoder_specs, errors.sum(axis=0).tolist())
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


# ---------------------------------------------------------------------------
# exact joint-type scoring core (binary additive family).  Given y of weight
# ny, a codeword's joint type is (a11, a10), its ones over y's ones and over
# y's zeros; each decoder scores it through one table per ny, at flat index
# a11 * (n - ny + 1) + a10 = a11 * (n - ny) + popcount.
# ---------------------------------------------------------------------------


def _channel_matrix(channel) -> tuple:
    """W(y|x) of a memoryless binary channel."""
    if channel.x_alphabet_size == channel.y_alphabet_size == 2:
        if channel.kind == channels.DMC:
            return channel.matrix
        if channel.kind == channels.MOD_ADDITIVE and channel.noise_probs:
            p = channel.noise_probs
            return ((p[0], p[1]), (p[1], p[0]))
    raise UnsupportedCombinationError("needs a memoryless binary channel")


def _type_rule(spec: DecoderSpec, ensemble, channel):
    """What one decoder's per-type score needs: the ensemble for
    ``universal``, otherwise the 2x2 per-letter scores (log2 W for ``ml``)
    as integer numerators over one power-of-two denominator, in the order
    00, 01, 10, 11, with None for a -inf letter (W is 0)."""
    if spec.kind == "universal":
        return ensemble
    if spec.kind == "ml":
        rows = tuple(
            tuple(math.log2(p) if p > 0.0 else -math.inf for p in row)
            for row in _channel_matrix(channel)
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
        # correctly rounded float; np.log2 can differ in the last bit
        log2_sizes = np.array([math.log2(size) for size in _from_limbs(limbs, 0).tolist()])
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


def _tail_masses(scores: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """For each entry of each row of ``scores`` (rows x T), the total of
    ``masses`` (T, or leading axes x T, such as a _Types' limbs) over the
    row's entries that score at least as high, shaped (leading axes x rows
    x T).  Every row is sorted at once and summed from the top; a score
    looks up the tail at its first equal, so ties are decided by exact
    score comparison.  Python-int masses (object dtype) stay exact."""
    rows, cols = scores.shape
    order = np.argsort(scores, axis=-1, kind="stable")
    from_top = np.take(masses, order, axis=-1)
    np.cumsum(from_top[..., ::-1], axis=-1, out=from_top[..., ::-1])
    # flat indices: of each sorted position's entry, then of its first equal
    at = (order + cols * np.arange(rows)[:, None]).reshape(-1)
    ranked = scores.take(at).reshape(rows, cols)
    start = np.arange(rows * cols).reshape(rows, cols)
    start[:, 1:][ranked[:, 1:] == ranked[:, :-1]] = 0
    first = np.empty_like(at)
    first[at] = np.maximum.accumulate(start, axis=-1).reshape(-1)
    return from_top.reshape(masses.shape[:-1] + (-1,)).take(first, axis=-1).reshape(from_top.shape)


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
    IEEE addition of them rounds correctly; past that, math.fsum does."""
    terms = np.moveaxis(limb_sums, 0, -1) * 2.0 ** (32 * np.arange(len(limb_sums)) + exponent)
    if len(limb_sums) <= 2:
        return terms.sum(axis=-1)
    return np.array([math.fsum(t) for t in terms.reshape(-1, len(limb_sums)).tolist()]).reshape(terms.shape[:-1])


def _dense_ranks(scores: np.ndarray) -> np.ndarray:
    """The distinct rows of the dense ranks of each row of ``scores`` (0
    for its lowest score, one more per next distinct score), in order of
    first occurrence, as int16 below 2^15 columns: equal ranks are equal
    scores, a higher rank a higher score."""
    order = np.argsort(scores, axis=-1)
    ranked = np.take_along_axis(scores, order, axis=-1)
    steps = np.zeros(scores.shape, dtype=np.int16 if scores.shape[1] < 1 << 15 else np.int32)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=-1, out=steps[:, 1:])
    ranks = np.empty_like(steps)
    ranks[np.arange(len(scores))[:, None], order] = steps
    return np.array(list({row.tobytes(): row for row in ranks}.values()))


#: the most (sent type, joint type) pairs whose decision cells one batch
#: builds (a batch holds at least one sent type), and the most (trial,
#: cell) entries one slice of its trials draws; it bounds a batch's id and
#: bin arrays, and a slice's cells, to a few hundred KB per decoder
_CELL_PAIRS = 1 << 15


class _Types:
    """The joint types of binary words with a y of weight ny, in flat
    order, and what the paths read off them, all built from the types'
    class sizes (_class_limbs): ``scores``, (decoders x types) exact
    scores, one row per rule; ``_limbs``, (limbs x types) floats, each
    class size in 32-bit limbs, least significant first, so any sum of up
    to 2^21 of them is an exact float; and ``_ranks``, the distinct rows of
    the scores' dense ranks (_dense_ranks), which decoders that rank every
    type alike share."""

    def __init__(self, rules, n: int, ny: int):
        self.n, self.ny = n, ny
        self._limbs = _class_limbs(n, ny).astype(float)
        rows = [_type_table(rule, n, ny, self._limbs) for rule in rules]
        self.scores = np.array(rows, dtype=float).reshape(len(rows), -1)
        self._ranks = _dense_ranks(self.scores)

    def _masses(self, limb_sums: np.ndarray) -> np.ndarray:
        """Exact limb sums (limbs x any shape) as the integers they stand
        for over 2^n, correctly rounded while 2^-n is a normal float (n <=
        1022)."""
        return _from_limbs(limb_sums, -self.n)

    def cell_rows(self, sents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(signs, pmf): the decision cells of each of the K distinct flat
        indices in ``sents``, the joint types grouped by how every decoder
        ranks them against that sent type, as K padded rows of C cells.
        signs[k, :, j] (int8) is cell j's rank per decoder (1 above, 0
        equal, -1 below, by exact score comparison, read on one type of the
        cell), and pmf[k, j] the probability that a uniform word falls in
        it: its exact class-size total (which can be all 2^n words, as
        under a constant metric) over 2^n.  A row is zero-mass padding
        (signs -1), then its cells in increasing mass: numpy's multinomial
        gives the last category the leftover mass, so that lands on the
        heaviest cell."""
        scores = self.scores
        k, types = len(sents), scores.shape[1]
        # each (sent, type) pair's cell id: its row, then per decoder a
        # base-3 digit (0 below, 1 equal, 2 above).  Decoders with equal
        # rank rows give equal digits, so one digit per distinct rank row
        # orders the ids alike.  The ids are renumbered densely, in order,
        # before a fold would take them past K * T bins, so any number of
        # decoders fits in an intp, and a row's ids stay contiguous and in
        # the same order in any batch
        ids, count = np.repeat(np.arange(k), types), k
        for row in self._ranks:
            if count * 3 > ids.size:
                ids, count = _relabel(ids, count)
            s = row[sents, None]
            ids *= 3
            ids += ((row > s).view(np.int8) + (row >= s).view(np.int8)).reshape(-1)
            count *= 3
        # the limb sums of an id are integers below 2^53: exact.  Every
        # class holds a word, so the ids in use, the cells in order, are
        # those with a nonzero limb sum
        sums = np.array([np.bincount(ids, weights=np.tile(limb, k), minlength=count) for limb in self._limbs])
        cells = np.flatnonzero(sums.any(axis=0))
        pmf = self._masses(sums[:, cells])
        # any (sent, type) pair of a cell stands for it
        rep = np.empty(count, dtype=np.intp)
        rep[ids] = np.arange(ids.size)
        cell_row, cell_type = np.divmod(rep[cells], types)
        # each row's cells by increasing mass, placed right-aligned
        order = np.lexsort((pmf, cell_row))
        per_row = np.bincount(cell_row, minlength=k)
        width = int(per_row.max())
        cell_row, cell_type = cell_row[order], cell_type[order]
        col = np.arange(len(cells)) - np.repeat(np.cumsum(per_row) - width, per_row)
        signs = np.full((k, len(scores), width), -1, dtype=np.int8)
        signs[cell_row, :, col] = _signs(scores[:, cell_type], scores[:, sents[cell_row]]).T
        pmf_rows = np.zeros((k, width))
        pmf_rows[cell_row, col] = pmf[order]
        return signs, pmf_rows


def _relabel(ids: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """The ids (below ``count``) renumbered densely in the same order, and
    how many distinct ones there are: no sort, one bincount."""
    relabel = np.cumsum(np.bincount(ids, minlength=count) > 0) - 1
    return relabel[ids], int(relabel[-1]) + 1


def _type_tables(decoder_specs, ensemble, channel):
    """ny -> the _Types of these decoders at the ensemble's block length,
    built on first use, so a run that reads no table builds no rule.  The
    first use refuses tables that could outgrow _TABLE_BYTES: the
    C(n + 3, 3) joint types of all output weights, each with one float
    score and at most one int16 rank per decoder, and one float per 32-bit
    limb of its class size.  (Ranks are int16 below 2^15 types per weight,
    and every n with 2^15 types at one weight is over the limit.)"""

    @functools.cache
    def types_of(ny):
        n = ensemble.n
        size = math.comb(n + 3, 3) * (10 * len(decoder_specs) + 8 * ((n + 31) // 32))
        if size > _TABLE_BYTES:
            raise InstanceTooLargeError(
                f"joint-type tables at n = {n} could take 2^{math.log2(size):.2f} bytes, "
                f"over the {_TABLE_BYTES >> 20} MiB limit"
            )
        return _Types([_type_rule(s, ensemble, channel) for s in decoder_specs], n, ny)

    return types_of


#: the most memory one run's joint-type tables may take
_TABLE_BYTES = 1 << 28


def _signs(scores: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """How each entry of each row of ``scores`` compares with the sent
    score of its row (a column), as int8: 1 above, 0 equal, -1 below."""
    return (scores > sent).view(np.int8) - (scores < sent).view(np.int8)


def _read(signs: np.ndarray, others: np.ndarray, earlier) -> np.ndarray:
    """Error indicators (trials x decoders) from ``others``, each trial's
    competitor counts per category (a joint type or a decision cell), whose
    scores compare with the sent word's as that trial's ``signs``
    (trials x decoders x categories) say.  An error is a competitor
    scoring at least the sent word; with ``earlier``, the counts of the
    competitors indexed below the sent word, ties go to the lowest index
    instead, so an equal score errs only there."""
    if earlier is None:
        return ((signs >= 0) & (others[:, None] > 0)).any(-1)
    return ((signs > 0) & (others[:, None] > 0)).any(-1) | ((signs == 0) & (earlier[:, None] > 0)).any(-1)


def _joint_types(words: np.ndarray, y, n: int, ny: int) -> np.ndarray:
    """Flat table index of each packed word's joint type with y, below
    65**2 so in uint16; words and y must share one bit order."""
    return np.bitwise_count(words & y) * np.uint16(n - ny) + np.bitwise_count(words)


# ---------------------------------------------------------------------------
# bit-packed realizations (n <= 64).  Words are kept in draw order, the raw
# 64-bit generator outputs, where symbol i is bit (i + 32) mod 64; joint
# types, modulo-sums and XORs of words do not depend on the bit order, so
# only the one sent word is converted to symbol order, by _rot32.
# ---------------------------------------------------------------------------


def _rot32(words):
    """Swap the 32-bit halves of packed words: draw order to symbol order
    and back."""
    return (words << np.uint64(32)) | (words >> np.uint64(32))


def _packed_words(rng, count: int, n: int) -> np.ndarray:
    """``count`` uniform n-bit words in draw order.  Under _rot32 they are
    the words ``rng.integers(0, 1 << 32, size=(count, 2), dtype=np.uint64)``
    gives as (high, low) halves in symbol order, and later draws match too:
    that call reads each raw output low half first."""
    words = rng.bit_generator.random_raw(count)
    words &= _rot32(np.uint64((1 << n) - 1))
    return words


def _pack_bits(bits) -> np.uint64:
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return np.uint64(int.from_bytes(packed.tobytes(), "little"))


def _flip_noise(rng, x_bits: np.ndarray, channel) -> np.ndarray:
    """Noise bits of one block through a binary channel: a fixed noise
    word draws nothing from ``rng``, a memoryless channel flips each
    symbol through its own row of W."""
    if channel.kind == channels.MOD_ADDITIVE and channel.noise_word:
        if len(channel.noise_word) != len(x_bits):
            raise InputError("fixed noise word length mismatch")
        return np.array(channel.noise_word, dtype=bool)
    w = _channel_matrix(channel)
    return rng.random(len(x_bits)) < np.where(x_bits, w[1][0], w[0][1])


def _sent_types(rng, channel, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(ny, flat index) arrays of the joint types of ``count`` uniform words
    and their outputs through a binary channel, drawn directly.  Of the
    k ~ Bin(n, 1/2) ones of x, Bin(k, W(0|1)) are received as 0, and
    Bin(n - k, W(1|0)) of its zeros as 1.  For a fixed noise word of weight
    w, x's ones where the noise is 0 (a11, received as 1) are Bin(n - w, 1/2)
    and where it is 1 (a10, received as 0) Bin(w, 1/2).  Each binomial is
    drawn for all words at once."""
    if channel.kind == channels.MOD_ADDITIVE and channel.noise_word:
        if len(channel.noise_word) != n:
            raise InputError("fixed noise word length mismatch")
        w = sum(1 for e in channel.noise_word if e)
        a11, a10 = rng.binomial(n - w, 0.5, count), rng.binomial(w, 0.5, count)
        ny = a11 + w - a10
    else:
        matrix = _channel_matrix(channel)
        k = rng.binomial(n, 0.5, count)
        a10 = rng.binomial(k, matrix[1][0])
        a11 = k - a10
        ny = a11 + rng.binomial(n - k, matrix[0][1])
    return ny, a11 * (n - ny + 1) + a10


def _by_weight(rng, channel, n: int, trials: int, types_of):
    """Draw the sent joint types of ``trials`` trials (_sent_types), then
    per output weight drawn, in increasing (ny, flat index) order, yield
    (types, sents, counts): the weight's _Types, its distinct sent types
    and how many trials drew each."""
    ny, sent = _sent_types(rng, channel, n, trials)
    keys, counts = np.unique(ny * (n + 1) ** 2 + sent, return_counts=True)
    weights, sents = np.divmod(keys, (n + 1) ** 2)
    starts = np.flatnonzero(np.diff(weights, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(keys)]):
        yield types_of(int(weights[lo])), sents[lo:hi], counts[lo:hi]


#: SeedSequence keys (seed, tag) of the type-domain arms' generators.  A key
#: is hashed as the 32-bit words of its entries; a tag of 2^64 + c is the
#: words (c, 0, 1), and no trial index below 2^64 has a zero top word, so
#: no trial's (seed, t) or (seed, t, 1) key has the same words
_DRAWN_TAG = 2**64
_SHIFTED_TAG = 2**64 + 1


def _transmit_packed(rng, word, n: int, channel):
    """Packed output for a packed input word, both in draw order."""
    x_bits = ((_rot32(word) >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(bool)
    return word ^ _rot32(_pack_bits(_flip_noise(rng, x_bits, channel)))


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
    """Codebook, sent index and output of trial t of the bit-packed kernel,
    words in draw order."""
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
# joint-type paths.  A source yields groups of trials as (signs, counts,
# earlier), all per trial: signs (trials x decoders x categories) rank each
# category, a joint type or a decision cell, against the sent word; counts
# (trials x categories) are the competitors in each, and earlier those
# indexed below the sent word, or None when ties count as errors.
# _experiment reads every source the same way.
# ---------------------------------------------------------------------------


def _packed_histograms(ensemble, channel, m, seed, trials, ties_as_errors, types_of):
    """Each trial's joint-type histograms, counted from its bit-packed
    codebook, as a group of one, in trial order.  A trial's arrays are
    released only once the next trial's exist, so the allocator keeps their
    pages instead of returning them to the system and faulting them in
    again every trial."""
    n = ensemble.n
    for t in range(trials):
        code, true_idx, y = _packed_trial(ensemble, channel, m, seed, t)
        ny = int(np.bitwise_count(y))
        types = _joint_types(code, y, n, ny)
        bins = (ny + 1) * (n - ny + 1)
        true_type = int(types[true_idx])
        others = np.bincount(types, minlength=bins)
        others[true_type] -= 1
        earlier = None if ties_as_errors else np.bincount(types[:true_idx], minlength=bins)[None]
        scores = types_of(ny).scores
        yield _signs(scores, scores[:, true_type, None])[None], others[None], earlier


def _drawn_histograms(ensemble, channel, m, seed, trials, ties_as_errors, types_of):
    """The trials' cell counts drawn in the type domain, from one generator:
    every sent pair's joint type first, then per output weight (_by_weight)
    and chunk of at most _CELL_PAIRS (sent type, joint type) pairs, or one
    sent type, one batch of decision cells and the counts of the chunk's
    trials, in slices of at most _CELL_PAIRS (trial, cell) entries, in
    increasing sent type, not in trial order.  Given the sent pair, the M - 1
    independent uniform competitors' joint types with y are iid, so their
    counts in the sent type's decision cells are one multinomial draw per
    trial; the sent index i is uniform, and the i competitors below it are
    a multinomial of their own."""
    if m - 1 >= 1 << 63:
        raise InstanceTooLargeError(f"type-domain draws need M - 1 < 2^63 codewords, not M = 2^{math.log2(m):.2f}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _DRAWN_TAG)))
    for types, sents, counts in _by_weight(rng, channel, ensemble.n, trials, types_of):
        chunk = max(1, _CELL_PAIRS // types.scores.shape[1])
        for a in range(0, len(sents), chunk):
            signs, pmf = types.cell_rows(sents[a : a + chunk])
            rows = np.repeat(np.arange(len(pmf)), counts[a : a + chunk])
            step = max(1, _CELL_PAIRS // pmf.shape[1])
            for part in (rows[b : b + step] for b in range(0, len(rows), step)):
                if ties_as_errors:
                    yield signs[part], rng.multinomial(m - 1, pmf[part]), None
                else:
                    i = rng.integers(m, size=len(part))
                    earlier = rng.multinomial(i, pmf[part])
                    yield signs[part], earlier + rng.multinomial(m - 1 - i, pmf[part]), earlier


def _run_slow(ensemble, channel, family, decoder_specs, m, trials, seed, ties_as_errors):
    """Scalar reference: per-trial error indicators from decoders.decode."""
    # a Sequence of n symbols: n tuple slots plus the objects' overhead
    _check_codebook(m, 8 * ensemble.n + 400)
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
    errors = np.zeros((trials, len(decoder_specs)), dtype=bool)
    for t in range(trials):
        trial_rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        book_seed = int(trial_rng.integers(1 << 62))
        channel_seed = (seed, t, 1)
        book = ensembles.sample_codebook(ensemble, m, book_seed)
        true_idx = int(trial_rng.integers(m))
        y = channels.transmit(channel, book.codewords[true_idx], channel_seed)
        for d, scorer in enumerate(scorers):
            result = decoders.decode(book, y, scorer)
            if ties_as_errors:
                errors[t, d] = result.tied != (true_idx + 1,)
            else:
                errors[t, d] = result.chosen != true_idx + 1
    return errors


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
        w = _channel_matrix(channel)
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


@dataclass(frozen=True)
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
    _channel_matrix(channel)
    ensemble = ensembles.uniform_ensemble(2, n)
    specs = [DecoderSpec("universal"), DecoderSpec("ml")]
    for i, th in enumerate(metric_thetas):
        specs.append(DecoderSpec("metric", label=f"metric{i}", theta=tuple(tuple(r) for r in th)))
    # one table per output weight, read by both arms
    types_of = _type_tables(specs, ensemble, channel)
    estimates = _experiment(ensemble, channel, family, specs, rate, trials, seed, True, types_of)
    delta_n = typeclasses.count_classes(family, n).log_growth

    est_u = estimates[0]
    theta_estimates = estimates[1:]
    factor = 2.0 * 2.0 ** (n * delta_n)
    ineq_factor_ok = est_u.ci_hi <= factor * min(e.ci_lo for e in theta_estimates)

    shifted_rate = rate + delta_n
    shifted_m = ensembles.message_count(n, shifted_rate)
    # the universal decoder is not run at the shifted rate
    shifted = _shifted_estimates(channel, types_of, specs[1:], n, shifted_m, shifted_rate, shifted_trials, seed + 1)
    ineq_rate_ok = est_u.ci_hi <= 2.0 * min(e.ci_lo for e in shifted)
    if ineq_factor_ok and ineq_rate_ok:
        verdict = "holds"
    elif est_u.ci_lo > min(
        factor * min(e.ci_hi for e in theta_estimates), 2.0 * min(e.ci_hi for e in shifted)
    ):
        verdict = "violated"
    else:
        verdict = "inconclusive"
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


def _shifted_estimates(channel, types_of, specs, n, m, rate, trials, seed) -> list[ErrorEstimate]:
    """Error probability of each decoder in ``specs`` (the last rows of
    ``types_of``'s tables) over the uniform binary ensemble, exact over the
    codebook randomness: given a sampled sent pair, the probability q that
    one uniform codeword scores at least as high is the exact tail mass of
    its joint type, and the conditional error is 1 - (1 - q)^(M - 1).  Per
    output weight drawn (_by_weight), one _tail_masses table gives the
    tails of its distinct sent types, whose conditional errors, weighted by
    how many trials drew each, go to running sums and sums of squares."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SHIFTED_TAG)))
    total, square = np.zeros(len(specs)), np.zeros(len(specs))
    for types, sents, counts in _by_weight(rng, channel, n, trials, types_of):
        tails = types._masses(_tail_masses(types.scores[-len(specs):], types._limbs)[..., sents])
        with np.errstate(divide="ignore"):  # q = 1: log1p(-1) = -inf, error 1
            cond = -np.expm1(float(m - 1) * np.log1p(-tails))
        total += cond @ counts
        square += (cond * cond) @ counts
    out = []
    for spec, s, s2 in zip(specs, total.tolist(), square.tolist()):
        mean = s / trials
        half = _Z95 * math.sqrt(max(s2 / trials - mean * mean, 0.0) / trials)
        lo, hi = max(0.0, mean - half), min(1.0, mean + half)
        out.append(ErrorEstimate(f"{spec.name}@shifted", n, rate, trials, -1, mean, lo, hi, seed))
    return out


# ---------------------------------------------------------------------------
# two-user (modulo-sum) experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    _channel_matrix(channel.inner)  # a memoryless binary inner channel
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
    base = _type_tables(decoder_specs, users, inner)

    @functools.cache
    def tables(ny):
        # uniform users: the three class masses of decoders.mac_universal_score
        # all equal the single-user class mass of the modulo-sum, so with
        # non-negative rates the least of its three components is u - R1 - R2
        return [
            u - rate1 - rate2 if spec.kind == "universal" else u
            for spec, u in zip(decoder_specs, base(ny).scores)
        ]

    kinds = np.zeros((trials, len(decoder_specs)), dtype=np.int8)
    for t in range(trials):
        book1, book2, i_true, j_true, y = _mac_trial(inner, m1, m2, n, seed, t)
        ny = int(np.bitwise_count(y))
        types = _joint_types((book1[:, None] ^ book2[None, :]).reshape(-1), y, n, ny)
        true_flat = i_true * m2 + j_true
        for d, table in enumerate(tables(ny)):
            scores = table[types]
            s_true = scores[true_flat]
            scores[true_flat] = -np.inf
            best = int(np.argmax(scores))
            if scores[best] >= s_true:
                bi, bj = divmod(best, m2)
                kinds[t, d] = 1 if bi != i_true and bj != j_true else 2 if bj == j_true else 3
    return kinds


@dataclass(frozen=True)
class MacEnvelopeReport:
    estimates: tuple[MacErrorEstimate, ...]
    delta_n: float
    constant: float
    envelope_ok: bool


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
    specs = [DecoderSpec("universal")]
    for i, th in enumerate(metric_thetas):
        specs.append(
            DecoderSpec("metric", label=f"metric{i}", theta=tuple(tuple(r) for r in th))
        )
    estimates = mac_run_experiment(
        channel, family, specs, rate1, rate2, n, trials, seed
    )
    delta_n = typeclasses.count_classes(family, n).log_growth
    constant = 96.0 * 2.0 ** (n * delta_n)
    est_u = estimates[0]
    best = min(e.ci_lo for e in estimates[1:])
    envelope_ok = est_u.ci_hi <= constant * best
    return MacEnvelopeReport(
        estimates=tuple(estimates),
        delta_n=delta_n,
        constant=constant,
        envelope_ok=envelope_ok,
    )
