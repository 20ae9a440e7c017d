"""End-to-end acceptance suite.

Each test covers one headline guarantee and prints a single PASS line with
the measured quantities.  Tolerances are stated inline; every derived
reference value is computed by an independent oracle inside the test.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from udec import (
    MetricIndex,
    additive_family,
    bsc,
    iid_ensemble,
    mac_xor,
    mac_xor_additive_family,
    seq,
    uniform_ensemble,
    uniform_over_type_ensemble,
    universal_score,
)
from udec import decoders, simulator
from udec.cli import main as cli_main
from udec.ensembles import FeedbackStateMachine, feedback_tree_ensemble
from udec.simulator import (
    default_theta_grid,
    exact_bound_audit,
    mac_envelope_audit,
    mac_pairwise_error_exact,
    monte_carlo_audit,
    pairwise_error_exact,
    random_pairwise_independent_family,
    shulman_check,
    surrogate_condition_check,
    xor_parity_family,
)
from udec.typeclasses import (
    JointType,
    all_sequences,
    class_key,
    classes_for_output,
    conditional_class_size,
    count_classes,
    empirical_joint_type,
    empirical_measures,
)

FAM = additive_family(2, 2)


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_pointwise_sandwich():
    """Exact competitor masses sandwiched by the class mass and the class
    count, for every metric on a 25-point grid, at n=8."""
    start = time.monotonic()
    n = 8
    ens = iid_ensemble((0.5, 0.5), n)
    grid = default_theta_grid(25, channel=None, seed=1)
    thetas = np.array(grid).reshape(25, 4)  # rows (t00, t01, t10, t11)
    rng = np.random.default_rng(2024)

    pairs = []
    for _ in range(200):
        pairs.append((rng.integers(0, 2, n), rng.integers(0, 2, n)))
    for _ in range(25):
        y = rng.integers(0, 2, n)
        pairs.append((y.copy(), y))
    for _ in range(25):
        y = rng.integers(0, 2, n)
        pairs.append((1 - y, y))

    # all candidate words as bit rows, fixed once
    cand = np.array(list(itertools.product((0, 1), repeat=n)))
    pop = cand.sum(axis=1)
    comb = np.array([[math.comb(m, k) if k <= m else 0 for k in range(n + 1)] for m in range(n + 1)])

    tol = 1e-9
    checked = 0
    for x_arr, y_arr in pairs:
        ny = int(y_arr.sum())
        a11 = cand @ y_arr
        a10 = pop - a11
        a01 = ny - a11
        a00 = n - ny - a10
        counts = np.stack([a00, a01, a10, a11])  # 4 x 256
        scores = thetas @ counts  # 25 x 256
        idx = int("".join(map(str, x_arr)), 2)
        # competitor mass per metric, uniform weight 2^-n per candidate
        mass_theta = (scores >= scores[:, idx : idx + 1]).mean(axis=1)
        x = seq(x_arr)
        y = seq(y_arr)
        u = universal_score(FAM, ens, x, y).value
        class_mass = 2.0 ** (-n * u)
        assert (mass_theta >= class_mass - tol).all()
        # universal competitor mass: candidates whose class mass is at most ours
        sizes = comb[ny, a11] * comb[n - ny, a10]
        mass_u = (sizes <= sizes[idx]).mean()
        k_y = classes_for_output(FAM, y)
        assert mass_u <= k_y * class_mass + tol
        checked += 1

    # spot-check the vectorized masses against the reference implementation
    for x_arr, y_arr in pairs[:3]:
        x, y = seq(x_arr), seq(y_arr)
        th = MetricIndex.additive(grid[3])
        r = pairwise_error_exact(ens, decoders.metric_scorer(FAM, th), x, y, family=FAM)
        assert r.lower_ok
        r = pairwise_error_exact(
            ens, decoders.universal_scorer(FAM, ens), x, y, family=FAM, universal=True
        )
        assert r.upper_ok

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"sandwich exact for {checked} pairs x 25 metrics at n=8 in {elapsed:.2f}s")


def test_criterion_2_class_machinery_oracle():
    """Closed-form class sizes and counts equal exhaustive enumeration."""
    for n in range(2, 9):
        most = {}  # per output composition, the most classes of any output
        for y in all_sequences(2, n):
            groups = {}
            for x in all_sequences(2, n):
                groups.setdefault(class_key(FAM, x, y), []).append(x)
            for members in groups.values():
                size = conditional_class_size(empirical_joint_type(members[0], y))
                assert size == len(members)
            comp = (y.symbols.count(0), y.symbols.count(1))
            most[comp] = max(most.get(comp, 0), len(groups))
        report = count_classes(FAM, n)
        assert report.counts_by_composition == most
        assert report.max_classes == max(most.values()) <= (n + 1) ** 4
    _report(2, "class sizes and counts exact for all (x,y) n<=8")


def test_criterion_3_mutual_information_correspondence():
    """The class-mass score tracks empirical mutual information plus the
    divergence from the word distribution, within the type-counting gap, and
    ranks constant-composition codewords exactly like conditional class size."""
    # gap bound, over every joint count matrix (both score and measures are
    # functions of the matrix alone, so this covers every sequence pair)
    for q in ((0.5, 0.5), (0.3, 0.7)):
        for n in range(2, 11):
            budget = 4 * math.log2(n + 1) / n
            for a00 in range(n + 1):
                for a01 in range(n + 1 - a00):
                    for a10 in range(n + 1 - a00 - a01):
                        a11 = n - a00 - a01 - a10
                        joint = JointType(((a00, a01), (a10, a11)), n)
                        size = conditional_class_size(joint)
                        lp = (a00 + a01) * math.log2(q[0]) + (a10 + a11) * math.log2(q[1])
                        u = -(math.log2(size) + lp) / n
                        m = empirical_measures(joint, reference_q=q)
                        assert abs(u - (m.i_xy + m.d_x_vs_q)) <= budget + 1e-9

    # spot-check the type-function reduction against the library score
    ens5 = iid_ensemble((0.3, 0.7), 5)
    for x in all_sequences(2, 5):
        y = seq([0, 1, 1, 0, 1])
        joint = empirical_joint_type(x, y)
        size = conditional_class_size(joint)
        xm = joint.x_marginal()
        lp = xm[0] * math.log2(0.3) + xm[1] * math.log2(0.7)
        assert universal_score(FAM, ens5, x, y).value == pytest.approx(
            -(math.log2(size) + lp) / 5, abs=1e-12
        )

    # ranking identity for constant-composition codebooks
    n, m_words = 12, 8
    ens = uniform_over_type_ensemble((6, 6), n)
    rng = np.random.default_rng(77)
    base = np.array([0] * 6 + [1] * 6)
    for _ in range(1000):
        book = [seq(rng.permutation(base)) for _ in range(m_words)]
        y = seq(rng.integers(0, 2, n))
        u_scores = [universal_score(FAM, ens, w, y).value for w in book]
        sizes = [conditional_class_size(empirical_joint_type(w, y)) for w in book]
        for i in range(m_words):
            for j in range(m_words):
                if sizes[i] == sizes[j]:
                    assert u_scores[i] == u_scores[j]
                elif sizes[i] < sizes[j]:
                    assert u_scores[i] > u_scores[j]
    _report(3, "score gap within 4*log2(n+1)/n for n<=10; ranking exact on 1000 codebooks")


def test_criterion_4_union_lower_bound():
    """Union probability at least half the clipped sum, exactly, for the
    15-event parity family and 100 random certified families."""
    report = shulman_check(xor_parity_family(4))
    assert report.num_events == 15
    assert report.union_prob == 15 / 16
    assert report.holds
    rng = np.random.default_rng(404)
    for _ in range(100):
        spec = random_pairwise_independent_family(rng)
        assert spec.num_outcomes <= 2**16
        assert shulman_check(spec).holds
    _report(4, "bound exact on the 15-event parity family and 100 random families")


def test_criterion_5_parse_surrogate():
    """Conditional parse length: self-conditioning is free, hand values
    reproduce, and the support-sum growth exponent shrinks with n."""
    from udec import conditional_lz_length

    for n in range(1, 13):
        for x in all_sequences(2, n):
            assert conditional_lz_length(x.symbols, x.symbols) == 0.0
    assert conditional_lz_length((0, 1, 0, 1), (0, 0, 1, 1)) == 4.0
    assert conditional_lz_length((0, 1, 1, 0), (0, 0, 0, 0)) == 2.0
    report = surrogate_condition_check(
        lambda n: uniform_ensemble(2, n), [8, 12], samples_per_y=20, seed=0
    )
    assert report.non_increasing
    _report(
        5,
        "LZ(x|x)=0 for all n<=12; hand values exact; max growth exponent "
        f"{report.max_per_n[8]:.4f} (n=8) -> {report.max_per_n[12]:.4f} (n=12)",
    )


def test_criterion_6_monte_carlo_envelope():
    """Both competitive inequalities hold at CI separation for n=16,32,64,
    and the universal decoder's slack within the audited envelope shrinks."""
    start = time.monotonic()
    grid = default_theta_grid(4, bsc(0.1), seed=3)  # identity + ML + 3 random
    slack = {}
    for n in (16, 32, 64):
        report = monte_carlo_audit(
            bsc(0.1), FAM, grid, 0.25, n, 20000, 42, shifted_trials=2500
        )
        assert report.ineq_factor_ok, f"factor inequality failed at n={n}"
        assert report.ineq_rate_ok, f"rate-shift inequality failed at n={n}"
        slack[n] = report.envelope_slack
    # the raw error-rate ratio carries a polynomially growing prefactor; the
    # decaying quantity is the slack against the audited envelope
    assert slack[64] <= slack[16]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        6,
        f"inequalities hold at n=16,32,64; envelope slack {slack[16]:.2e} -> "
        f"{slack[64]:.2e} in {elapsed:.0f}s",
    )


def test_criterion_7_two_user_bounds():
    """Exact three-way sandwich on 100 random instances and the composite
    decoder within the proof-chain envelope of the best grid metric."""
    fam2 = mac_xor_additive_family(2, 2)
    q = uniform_ensemble(2, 6)
    rng = np.random.default_rng(7007)
    theta = MetricIndex.additive(((1.0, 0.0), (0.0, 1.0)))
    for _ in range(100):
        r = mac_pairwise_error_exact(
            fam2, q, q, theta,
            seq(rng.integers(0, 2, 6)),
            seq(rng.integers(0, 2, 6)),
            seq(rng.integers(0, 2, 6)),
        )
        assert r.ok
    grid = default_theta_grid(8, bsc(0.1), seed=5)  # 9 metrics incl. ML
    report = mac_envelope_audit(
        mac_xor(bsc(0.1)), fam2, grid, 0.15, 0.15, 16, 10000, 11
    )
    assert report.verdict == "holds"
    _report(
        7,
        "three-way sandwich exact on 100 instances; composite decoder at "
        f"{report.estimates[0].estimate:.4f} within the envelope",
    )


def test_criterion_8_feedback_sandwich():
    """Pointwise sandwich repeated with a 2-state output-conditioned word
    distribution, exhaustively at n=6."""
    machine = FeedbackStateMachine(
        num_states=2,
        initial_state=0,
        x_alphabet_size=2,
        y_alphabet_size=2,
        next_state=tuple(x ^ y for t in range(2) for x in range(2) for y in range(2)),
        emit=((0.7, 0.3), (0.4, 0.6)),
    )
    ens = feedback_tree_ensemble(machine, 6)
    thetas = [MetricIndex.additive(m) for m in default_theta_grid(25, channel=None, seed=9)]
    report = exact_bound_audit(ens, bsc(0.1), FAM, thetas, 0.25, 6)
    assert report.pointwise_ok
    assert report.violations == ()
    _report(8, "feedback sandwich exact for all 4096 (x,y) pairs x 25 metrics at n=6")


def test_criterion_9_reproducibility(tmp_path):
    """Identical config and seed give byte-identical result files."""
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(
            {
                "n": 16,
                "rate": 0.25,
                "trials": 500,
                "ensemble": {"kind": "uniform", "alphabet_size": 2},
                "channel": {"kind": "bsc", "p": 0.1},
                "family": {"kind": "additive"},
                "decoders": [{"kind": "universal"}, {"kind": "ml"}],
            }
        )
    )
    audit_cfg = tmp_path / "audit.json"
    audit_cfg.write_text(
        json.dumps(
            {
                "audit_mode": "mc",
                "n": 12,
                "rate": 0.25,
                "trials": 1000,
                "theta_grid_size": 3,
                "shifted_trials": 300,
                "channel": {"kind": "bsc", "p": 0.1},
                "family": {"kind": "additive"},
            }
        )
    )
    for name, cfg in (("simulate", sim_cfg), ("audit", audit_cfg)):
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert cli_main([name, "--config", str(cfg), "--seed", "5", "--out", str(a)]) == 0
        assert cli_main([name, "--config", str(cfg), "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    _report(9, "simulate and audit reruns byte-identical for fixed config+seed")
