"""Tests of the benchmark itself (about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from run import WORKLOADS  # noqa: E402


def _traced_call(name, seed):
    w = workloads.build(name, seed)
    tr = tracer.Tracer()
    with tr.installed():
        result = w.call(0)
    return w, tr, result


@pytest.fixture(scope="module")
def traced():
    """Each workload traced once on each of two seeds."""
    return {name: [_traced_call(name, seed) for seed in (1, 2)] for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_call_counts_repeat_exactly(traced, name):
    (w, a, _), (_, b, _) = traced[name]
    counts_a = {k: v for k, (v, _) in a.metrics(1, w.trials, w.pairs, 0.0).items() if k.endswith(".calls")}
    counts_b = {k: v for k, (v, _) in b.metrics(1, w.trials, w.pairs, 0.0).items() if k.endswith(".calls")}
    assert counts_a == counts_b
    assert len(counts_a) == sum(len(fns) for fns in tracer.LAYERS.values())


@pytest.mark.parametrize(
    "name, expected",
    [("mc_audit_n64", 0), ("sim_linear_n64", 0), ("sim_ternary_n32", 3 * 256)],
)
def test_scores_per_trial_shows_the_path(traced, name, expected):
    w, tr, _ = traced[name][0]
    value, _ = tr.metrics(1, w.trials, w.pairs, 0.0)["decoders.scores_per_trial"]
    assert value == expected


def test_trace_restores_module_attributes():
    from udec import decoders

    original = decoders.metric_score
    with tracer.Tracer().installed():
        assert decoders.metric_score is not original
    assert decoders.metric_score is original


def test_exact_audit_per_pair_and_spans(traced):
    w, tr, _ = traced["exact_audit_n8"][0]
    m = tr.metrics(1, w.trials, w.pairs, 0.0)
    assert m["decoders.metric_score.calls_per_pair"][0] == 25
    assert [s["name"] for s in tr.spans] == ["simulator.exact_bound_audit"]
    fracs = sum(m[f"{mod}.self_frac"][0] for mod in tracer.LAYERS)
    assert fracs == pytest.approx(1.0)


@pytest.mark.parametrize("name", WORKLOADS)
def test_checks_pass_on_real_output(traced, name):
    for w, _, result in traced[name]:
        w.prepare()
        assert w.check(result) == []


def test_checks_catch_a_wrong_exact_audit(traced):
    w, _, report = traced["exact_audit_n8"][0]
    w.prepare()
    off = dataclasses.replace(report, lhs_universal=report.lhs_universal * (1 + 1e-7))
    assert w.check(off)
    rhs = list(report.rhs_by_theta)
    rhs[5] *= 1 - 1e-7
    assert w.check(dataclasses.replace(report, rhs_by_theta=tuple(rhs)))


def test_checks_catch_a_wrong_error_estimate(traced):
    w, _, report = traced["mc_audit_n64"][0]
    w.prepare()
    ml = report.estimates[1]
    doubled = dataclasses.replace(ml, errors=3 * ml.errors + 30, estimate=(3 * ml.errors + 30) / ml.trials)
    bad = dataclasses.replace(report, estimates=(report.estimates[0], doubled) + report.estimates[2:])
    assert any(p.startswith("ml:") for p in w.check(bad))

    w, _, estimates = traced["sim_ternary_n32"][0]
    w.prepare()
    u = estimates[0]
    assert w.check([dataclasses.replace(u, errors=u.trials // 2)] + list(estimates[1:]))


def test_type_sums_match_brute_force():
    """At n=4 the tabulated competitor masses, ties included, equal direct
    enumeration; dyadic metric entries make the float sums exact."""
    import itertools

    n, theta = 4, ((0.5, -0.75), (1.0, 0.25))
    sums = checks.BinaryTypeSums(n, 0.1, {"t": checks.additive_score(theta), "u": checks.universal_score})
    words = list(itertools.product((0, 1), repeat=n))

    def joint(x, y):
        return (sum(a & b for a, b in zip(x, y)), sum(a & (1 - b) for a, b in zip(x, y)))

    for y in words:
        ny = sum(y)
        cls = sums.classes[ny]
        size = {}
        for c in words:
            size[joint(c, y)] = size.get(joint(c, y), 0) + 1
        metric = {c: sum(theta[a][b] for a, b in zip(c, y)) for c in words}
        for x in words:
            a11, a10 = joint(x, y)
            k = int(((cls.a11 == a11) & (cls.a10 == a10)).argmax())
            want_t = sum(metric[c] >= metric[x] for c in words) / 2**n
            want_u = sum(size[joint(c, y)] <= size[(a11, a10)] for c in words) / 2**n
            assert sums.q["t"][ny][k] == want_t
            assert sums.q["u"][ny][k] == want_u


def test_exits_2_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_ternary_n32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert sorted(WORKLOADS) == sorted(workloads._WORKLOADS) == sorted(workloads.WHY)
    # the other two workloads run by name only (README.md says why)
    assert [w["name"] for w in spec["workloads"]] == ["mc_audit_n64", "sim_ternary_n32"]
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    per_layer = tracer.Tracer().metrics(1, 1, 1, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in per_layer.items()]
    w = workloads.build("sim_ternary_n32", 1)
    runs = run._Runs()
    runs.walls = [1.0]
    end_to_end = run._end_to_end(w, runs, [0.1])
    assert sorted((m["name"], m["unit"]) for m in spec["end_to_end"]) == sorted(
        (k, u) for k, (_, u) in end_to_end.items()
    )
