"""udec benchmark: times udec's public audit and simulation functions on
fixed workloads and checks what they return.

    python3 bench/run.py --workload mc_audit_n64 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
``--workload all`` every workload runs in its own fresh process, one after
another.  Exit code: 0 when every check passed, 1 when a call raised or a
check failed, 2 when udec cannot be imported from ./src.
"""

from __future__ import annotations

import os

# one workload, one process, no extra threads: pin the numeric libraries
# before numpy is imported, here and in the set-up subprocesses
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mc_audit_n64", "sim_linear_n64", "exact_audit_n8", "sim_ternary_n32")

#: calls per timed run even when --seconds has passed, so a median has two
#: samples on the slow workloads
MIN_CALLS = 2
#: set-up is timed in this many fresh processes, after one that fills the
#: bytecode cache
SETUP_RUNS = 7

_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return _run_all(args)

    sys.path[:0] = [SRC, HERE]
    try:
        import udec
    except ImportError as exc:
        print(f"cannot import udec from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(udec.__file__).startswith(SRC + os.sep):
        print(f"udec imported from {udec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = {"load_start": os.getloadavg()}
    setup = [] if args.trace else _measure_setup(args.workload, args.seed)
    w = workloads.build(args.workload, args.seed)
    if args.trace:
        runs, metrics = _traced(w, args.seconds)
    else:
        runs = _timed(w, args.seconds)
        metrics = _end_to_end(w, runs, setup)
    w.prepare()
    failed = 0
    for i, (result, error) in enumerate(runs.results):
        problems = _problems(w, result, error)
        for p in problems:
            print(f"call {i}: {p}", file=sys.stderr)
        failed += bool(problems)
    attempted = len(runs.results)
    env.update(_environment(), load_end=os.getloadavg())

    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"  why: {workloads.WHY[w.name]}")
    print(f"  not measured by any workload: {'; '.join(workloads.NOT_MEASURED)}")
    if not args.trace:
        _print_summary(w, runs, setup, metrics, failed, attempted)
    else:
        print(json.dumps({"spans": runs.spans}))
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


class _Runs:
    """Wall times of the successful calls and every call's (result, error)."""

    def __init__(self):
        self.walls = []
        self.results = []
        self.spans = []


def _call(w, i, runs):
    """Run call i; return its wall time, or None when it raised."""
    start = time.perf_counter()
    try:
        result = w.call(i)
    except Exception:  # a failed call is counted and reported, not fatal
        runs.results.append((None, traceback.format_exc()))
        return None
    wall = time.perf_counter() - start
    runs.results.append((result, None))
    return wall


def _problems(w, result, error) -> list:
    if error:
        return [error]
    try:
        return w.check(result)
    except Exception:  # a result the checks cannot read is a failed call
        return [traceback.format_exc()]


def _timed(w, seconds):
    runs = _Runs()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_CALLS or time.perf_counter() < deadline:
        wall = _call(w, i, runs)
        if wall is not None:
            runs.walls.append(wall)
        i += 1
    return runs


def _traced(w, seconds):
    """Alternate an untraced and a traced call until the time is up; the
    ratio of their medians gives the tracing overhead."""
    import tracer

    tr = tracer.Tracer()
    runs = _Runs()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        wall = _call(w, i, runs)
        if wall is not None:
            plain.append(wall)
        tr.op = i + 1
        with tr.installed():
            wall = _call(w, i + 1, runs)
        if wall is not None:
            traced.append(wall)
        i += 2
    runs.spans = tr.spans
    overhead = (
        statistics.median(traced) / statistics.median(plain) - 1.0
        if plain and traced else 0.0
    )
    return runs, tr.metrics(len(runs.results) // 2, w.trials, w.pairs, overhead)


def _measure_setup(name, seed):
    """Seconds from a fresh interpreter to built inputs, once per process."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, HERE, name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times[1:]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(w, runs, setup):
    walls = runs.walls
    if not walls:
        return {}
    return {
        "setup_s": (statistics.median(setup), "s"),
        "codeword_scores_per_s": (statistics.median(w.codeword_scores / t for t in walls), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _print_summary(w, runs, setup, metrics, failed, attempted):
    """Every end-to-end metric with its unit, median, quartiles
    and slow tail; trials_per_s and pairs_per_s only where they apply."""
    rows = [("setup_s", "s", setup, "processes", True)]
    per_call = [("codeword_scores_per_s", w.codeword_scores)]
    if w.trials:
        per_call.append(("trials_per_s", w.trials))
    if w.pairs:
        per_call.append(("pairs_per_s", w.pairs))
    for name, work in per_call:
        rows.append((name, "1/s", [work / t for t in runs.walls], "calls", False))
    for name, unit, values, what, slow_high in rows:
        if values:
            print(f"  {name:22s} {unit:5s} {_describe(values, what, slow_high)}")
    if "peak_rss_mb" in metrics:
        print(f"  {'peak_rss_mb':22s} {'MB':5s} {metrics['peak_rss_mb'][0]:.1f}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':22s} {'1':5s} {frac:g} ({failed} of {attempted} calls)")


def _describe(values, what, slow_high=False) -> str:
    """Median, quartiles, and the highest percentile with at least ten
    samples beyond it on the slow side, with the sample count."""
    n = len(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (med, med, med)
    text = f"median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}"
    if n > 10:
        ordered = sorted(values, reverse=not slow_high)  # slow side last
        text += f" p{100 * (n - 10) // n}(slow side) {ordered[n - 11]:.6g}"
    else:
        text += " slow tail n/a (needs 11+ samples)"
    return f"{text} n {n} {what}"


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
    }


def _git_commit():
    """HEAD of the checkout's own git directory, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(top) -> str:
    """sha256 over the package's .py files, identifying the code measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        code = max(code, proc.returncode)
    print(json.dumps(total))
    return code


if __name__ == "__main__":
    sys.exit(main())
