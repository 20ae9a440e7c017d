"""The benchmark's workloads: inputs made from a seed, one timed call into
udec's public library functions, and the checks on what the call returned.

Every call goes through the submodule attributes (``simulator.run_experiment``
and so on), never the ``udec`` re-exports, so that the tracer in
``tracer.py`` sees it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from udec import channels, decoders, ensembles, families, simulator

import checks

#: why each workload is in the benchmark; BENCHMARK.json carries the same
#: lines for the two workloads it lists
WHY = {
    "mc_audit_n64": (
        "headline MC audit (acceptance 6): bit-packed sampling and scoring of 6"
        " decoders at M=2^16 plus the shifted-rate arm; where joint-type "
        "scoring and type-domain MC land"
    ),
    "sim_linear_n64": (
        "same bit-packed path with a linear codebook whose codewords are only "
        "pairwise independent, so type-domain MC must bypass it: predicted no "
        "change"
    ),
    "exact_audit_n8": (
        "no Monte Carlo: scalar per-word scores for all 4^8 pairs and 25 "
        "metrics plus the |theta|*N^2 broadcast; where polynomial exact audits "
        "land"
    ),
    "sim_ternary_n32": (
        "non-binary run_experiment on the scalar path (~40 us per codeword-"
        "score), so a path-selection change that helps binary and costs this "
        "shows"
    ),
}

#: code paths no workload runs; a change to them must extend the benchmark
NOT_MEASURED = (
    "simulator.mac_run_experiment (two-user MAC)",
    "the lz decoder (decoders.lz_universal_score, udec.lz)",
    "exact_bound_audit with finite-state families or feedback ensembles",
    "udec.cli (JSON parsing and CSV writing)",
)

_HERE = os.path.dirname(os.path.abspath(__file__))
_REFERENCE = os.path.join(_HERE, "reference.json")

BSC_P = 0.1
IDENTITY2 = ((1.0, 0.0), (0.0, 1.0))
ML2 = tuple(tuple(math.log2(v) for v in row) for row in ((1 - BSC_P, BSC_P), (BSC_P, 1 - BSC_P)))
IDENTITY3 = tuple(tuple(1.0 if i == j else 0.0 for j in range(3)) for i in range(3))


def random_thetas(seed: int, tag: int, count: int) -> list:
    """Random 2x2 additive metrics in [-1, 1], scaled so the largest entry
    has magnitude 1, drawn from the workload seed alone."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, tag)))
    out = []
    for _ in range(count):
        m = rng.uniform(-1.0, 1.0, size=(2, 2))
        m /= max(1e-9, np.abs(m).max())
        out.append(tuple(tuple(float(v) for v in row) for row in m))
    return out


def call_seed(seed: int, index: int) -> int:
    """Master seed of the index-th call of a run."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


@dataclass
class Workload:
    """One workload: ``call(i)`` runs the i-th timed call and ``check``
    returns the problems found in its result (empty when correct).

    ``trials``, ``codeword_scores`` and ``pairs`` are the work done by one
    call, in the units of the end-to-end throughputs.
    """

    name: str
    trials: int
    codeword_scores: int
    pairs: int
    call: object = field(repr=False)
    prepare: object = field(repr=False)
    check: object = field(repr=False)


def build(name: str, seed: int, **sizes) -> Workload:
    """Build the workload's inputs and specs; this is what ``setup_s`` times.

    ``sizes`` overrides a workload's trial count, for recording references.
    """
    if name not in _WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(_WORKLOADS)}")
    return _WORKLOADS[name](seed, **sizes)


def _mc_audit_n64(seed: int) -> Workload:
    n, rate, trials = 64, 0.25, 5000
    channel = channels.bsc(BSC_P)
    family = families.additive_family(2, 2)
    grid = [IDENTITY2, ML2] + random_thetas(seed, 1, 2)
    m = ensembles.message_count(n, rate)
    refs = {}

    def call(i):
        return simulator.monte_carlo_audit(
            channel, family, grid, rate, n, trials, call_seed(seed, i),
            shifted_trials=trials // 8,
        )

    def prepare():
        scores = {"universal": checks.universal_score, "ml": checks.additive_score(ML2)}
        for i, th in enumerate(grid):
            scores[f"metric{i}"] = checks.additive_score(th)
        refs["sums"] = checks.BinaryTypeSums(n, BSC_P, scores)
        # binary additive family: (ny+1)(n-ny+1) classes, most at ny = n/2
        refs["delta_n"] = math.log2((n // 2 + 1) ** 2) / n

    def check(report):
        sums = refs["sums"]
        problems = []
        if not report.ineq_factor_ok:
            problems.append("ineq_factor_ok is false")
        if not report.ineq_rate_ok:
            problems.append("ineq_rate_ok is false")
        if not checks.close(report.delta_n, refs["delta_n"]):
            problems.append(f"delta_n {report.delta_n} != {refs['delta_n']}")
        shifted_m = ensembles.message_count(n, report.shifted_rate)
        arms = [(e, e.decoder, m) for e in report.estimates]
        arms += [(e, e.decoder.removesuffix("@shifted"), shifted_m) for e in report.shifted_estimates]
        if len(arms) != 2 * len(grid) + 3:
            problems.append(f"{len(arms)} estimates returned")
        for est, dec, mm in arms:
            mu = sums.error_probability(dec, mm)
            if est.errors >= 0:  # an error count: exact binomial test
                ok = checks.binomial_consistent(est.errors, est.trials, mu, mu)
            else:  # the shifted arm averages conditional error probabilities
                ok = abs(est.estimate - mu) <= checks.bernstein_halfwidth(mu, est.trials)
            if not ok:
                problems.append(f"{est.decoder}: estimate {est.estimate:.5g} vs exact {mu:.5g}")
        return problems

    return Workload("mc_audit_n64", trials, trials * m * (len(grid) + 2), 0, call, prepare, check)


def _sim_linear_n64(seed: int) -> Workload:
    n, k, rate, trials = 64, 16, 0.25, 400
    ensemble = ensembles.linear_dithered_ensemble(n, k)
    channel = channels.bsc(BSC_P)
    family = families.additive_family(2, 2)
    specs = [
        simulator.DecoderSpec("universal"),
        simulator.DecoderSpec("ml"),
        simulator.DecoderSpec("metric", label="metric_identity", theta=IDENTITY2),
    ]
    m = ensembles.message_count(n, rate)
    refs = {}

    def call(i):
        return simulator.run_experiment(
            ensemble, channel, family, specs, rate, trials, call_seed(seed, i)
        )

    def prepare():
        sums = checks.BinaryTypeSums(
            n, BSC_P,
            {
                "universal": checks.universal_score,
                "ml": checks.additive_score(ML2),
                "metric_identity": checks.additive_score(IDENTITY2),
            },
        )
        # pairwise independent competitors: Shulman's lower bound and the
        # union bound sandwich the error probability
        for name in sums.q:
            upper = sums.clipped_union(name, m - 1)
            refs[name] = (0.5 * upper, upper)

    def check(estimates):
        return _check_overlap(estimates, refs, trials)

    return Workload("sim_linear_n64", trials, trials * m * len(specs), 0, call, prepare, check)


def _sim_ternary_n32(seed: int, trials: int = 60) -> Workload:
    n, rate = 32, 0.25
    ensemble = ensembles.uniform_ensemble(3, n)
    channel = channels.mod_additive_iid((0.8, 0.1, 0.1))
    family = families.additive_family(3, 3)
    specs = [
        simulator.DecoderSpec("universal"),
        simulator.DecoderSpec("ml"),
        simulator.DecoderSpec("metric", label="metric_identity", theta=IDENTITY3),
    ]
    m = ensembles.message_count(n, rate)
    refs = {}

    def call(i):
        return simulator.run_experiment(
            ensemble, channel, family, specs, rate, trials, call_seed(seed, i)
        )

    def prepare():
        recorded = _load_reference()["sim_ternary_n32"]
        for name, rec in recorded["errors"].items():
            refs[name] = checks.clopper_pearson(rec, recorded["trials"])

    def check(estimates):
        return _check_overlap(estimates, refs, trials)

    return Workload("sim_ternary_n32", trials, trials * m * len(specs), 0, call, prepare, check)


def _exact_audit_n8(seed: int) -> Workload:
    n, rate = 8, 0.25
    ensemble = ensembles.uniform_ensemble(2, n)
    channel = channels.bsc(BSC_P)
    family = families.additive_family(2, 2)
    grid = [IDENTITY2, ML2] + random_thetas(seed, 2, 23)
    thetas = [decoders.MetricIndex.additive(th) for th in grid]
    refs = {}

    def call(i):
        return simulator.exact_bound_audit(ensemble, channel, family, thetas, rate, n)

    def prepare():
        scores = {"universal": checks.universal_score}
        for i, th in enumerate(grid):
            scores[i] = checks.additive_score(th)
        sums = checks.BinaryTypeSums(n, BSC_P, scores)
        m_count = 2.0 ** (n * rate)
        refs["lhs"] = sums.clipped_union("universal", m_count)
        refs["rhs"] = [sums.clipped_union(i, m_count) for i in range(len(grid))]
        refs["recorded"] = _load_reference()["exact_audit_n8"]

    def check(report):
        problems = []
        if not report.pointwise_ok or report.violations:
            problems.append(f"{len(report.violations)} pointwise violations")
        if not report.aggregate_ok:
            problems.append("aggregate_ok is false")
        if len(report.rhs_by_theta) != len(grid):
            return problems + [f"{len(report.rhs_by_theta)} right-hand sides returned"]
        rec = refs["recorded"]
        pairs = [("lhs_universal", report.lhs_universal, rec["lhs_universal"]),
                 ("lhs_universal (type sum)", report.lhs_universal, refs["lhs"])]
        pairs += [(f"rhs_by_theta[{i}]", report.rhs_by_theta[i], v)
                  for i, v in enumerate(rec["rhs_identity_ml"])]
        pairs += [(f"rhs_by_theta[{i}] (type sum)", got, want)
                  for i, (got, want) in enumerate(zip(report.rhs_by_theta, refs["rhs"]))]
        for label, got, want in pairs:
            if not checks.close(got, want):
                problems.append(f"{label} = {got!r}, expected {want!r}")
        return problems

    pairs = 4**n
    return Workload("exact_audit_n8", 0, pairs * (len(grid) + 1), pairs, call, prepare, check)


def _check_overlap(estimates, refs, trials) -> list[str]:
    """Each decoder's error count must be plausible for some error
    probability in its reference range."""
    problems = []
    if sorted(e.decoder for e in estimates) != sorted(refs):
        return [f"decoders {[e.decoder for e in estimates]} != {sorted(refs)}"]
    for e in estimates:
        if e.trials != trials:
            problems.append(f"{e.decoder}: {e.trials} trials")
        lo, hi = refs[e.decoder]
        if not checks.binomial_consistent(e.errors, e.trials, lo, hi):
            problems.append(
                f"{e.decoder}: {e.errors} errors in {e.trials} trials, reference [{lo:.4g}, {hi:.4g}]"
            )
    return problems


def _load_reference() -> dict:
    with open(_REFERENCE) as f:
        return json.load(f)


_WORKLOADS = {
    "mc_audit_n64": _mc_audit_n64,
    "sim_linear_n64": _sim_linear_n64,
    "exact_audit_n8": _exact_audit_n8,
    "sim_ternary_n32": _sim_ternary_n32,
}
