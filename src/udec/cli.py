"""Command line front end: config ingestion, dispatch, result emission.

Subcommands: ``simulate``, ``audit``, ``count-classes``, ``shulman``,
``surrogate-check``.  Every subcommand reads a JSON config (``--config``),
optionally overridden by ``--seed`` and ``--out``, and writes a CSV result
file plus a ``<out>.manifest.json`` run manifest (config hash, seed,
versions).  Exit codes: 0 success, 1 a checked bound or condition is
violated, 2 config or usage error.  A Monte Carlo audit whose intervals
neither separate nor contradict exits 0, with ``inconclusive`` in the
universal row's ``pass`` cell.  Output is byte-identical for identical
(config, seed).

CSV schema for decoder results (simulate and audit) uses the fixed column
order ``decoder, n, R, trials, errors, estimate, ci_lo, ci_hi, bound_rhs,
pass`` followed by the provenance columns ``config_hash, seed``; two-user
runs append the per-type error counts.  The other subcommands emit
mode-specific columns, always ending with the same provenance pair.

Config schema (JSON object; top-level keys outside a subcommand's list
below, plus the common ones, are rejected):

  common        seed (non-negative int), out (str)
  simulate      n, rate (or rate1+rate2 for a mac_xor channel), trials,
                ensemble, channel, family, decoders, ties_as_errors (bool,
                default true)
  audit         audit_mode: "exact" | "mc"; n, rate, trials (mc only),
                channel, family, ensemble (exact only), theta_grid (list of
                2x2 matrices) or theta_grid_size (default 25),
                shifted_trials (mc only, default 4000)
  count-classes family, n_values (list of int), strategy (optional)
  shulman       random_families (int) and/or families (list of
                {"kind": "xor_parity", "num_bits", "subsets", "targets"} |
                {"kind": "projective_lines", "q", "num_events", "shifts"})
  surrogate-check  n_values, samples_per_y (default 20), ensemble (optional,
                default uniform binary)

Ensemble descriptors: {"kind": "uniform", "alphabet_size"} |
{"kind": "iid", "probs"} | {"kind": "uniform_over_type", "composition"} |
{"kind": "linear_dithered", "message_bits"}.
Channel descriptors: {"kind": "bsc", "p"} | {"kind": "dmc", "matrix"} |
{"kind": "mod_additive", "noise_probs"} |
{"kind": "mod_additive_fixed", "noise_word", "alphabet_size"} |
{"kind": "mac_xor", "inner": <descriptor>}.
Family descriptors: {"kind": "additive" | "mac_xor_additive",
"x_alphabet_size", "y_alphabet_size"}.
Decoder descriptors: {"kind": "universal" | "ml" | "lz"} |
{"kind": "metric", "theta": 2x2 matrix, "label": str}.

Set UDEC_LOG=debug|info|warning for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import os
import sys

import numpy as np

from . import channels, ensembles, families, simulator, typeclasses
from .errors import ConfigError, UdecError

log = logging.getLogger("udec")

RESULT_COLUMNS = (
    "decoder",
    "n",
    "R",
    "trials",
    "errors",
    "estimate",
    "ci_lo",
    "ci_hi",
    "bound_rhs",
    "pass",
)
PROVENANCE_COLUMNS = ("config_hash", "seed")


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep the contract
        return int(exc.code) if exc.code else 0
    try:
        config, config_hash = _load_config(args.config)
        unknown = sorted(set(config) - _COMMON_KEYS - _KEYS[args.subcommand])
        if unknown:
            raise ConfigError(f"unknown config keys for {args.subcommand}: {unknown}")
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        if not _is_int(seed) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        out = args.out or config.get("out") or "results.csv"
        _check_writable(out)
        handler = _HANDLERS[args.subcommand]
        return handler(config, config_hash, seed, out)
    except ConfigError as exc:
        print(f"udec: config error: {exc}", file=sys.stderr)
        return 2
    except UdecError as exc:
        print(f"udec: error: {exc}", file=sys.stderr)
        return 2


def _setup_logging():
    level = os.environ.get("UDEC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udec",
        description="universal decoding workbench: simulation and bound audits",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("simulate", "audit", "count-classes", "shulman", "surrogate-check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output CSV path")
    return parser


def _load_config(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config, hashlib.sha256(raw).hexdigest()[:12]


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing required config key: {key!r}")
    return config[key]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _positive_int(config, key, default=None):
    """A positive JSON integer (a float such as 2.7 is refused, not
    truncated); ``default`` makes the key optional."""
    v = _require(config, key) if default is None else config.get(key, default)
    if not _is_int(v) or v < 1:
        raise ConfigError(f"{key!r} must be a positive integer, got {v!r}")
    return v


def _n_values(config) -> list:
    n_values = _require(config, "n_values")
    if not isinstance(n_values, list) or not all(_is_int(v) and v >= 1 for v in n_values):
        raise ConfigError("'n_values' must be a list of positive integers")
    return n_values


def _check_writable(out: str) -> None:
    """Fail before the run, not after it, when the output cannot be written."""
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory) or os.path.isdir(out) or not os.access(directory, os.W_OK):
        raise ConfigError(f"cannot write output {out!r}: not a file in a writable directory")


def _matrix(value, what: str) -> tuple:
    """A metric parameter matrix: a list of rows of JSON numbers."""
    if not isinstance(value, list) or not all(
        isinstance(row, list) and all(_is_number(v) for v in row) for row in value
    ):
        raise ConfigError(f"{what} must be a list of rows of numbers, got {value!r}")
    return tuple(tuple(float(v) for v in row) for row in value)


def _rate(config, key):
    v = _require(config, key)
    if not _is_number(v) or not 0 <= v < math.inf:
        raise ConfigError(f"{key!r} must be a non-negative finite rate, got {v!r}")
    return float(v)


def _build_ensemble(desc, n: int) -> ensembles.CodingEnsemble:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("ensemble descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    try:
        if kind == "uniform":
            return ensembles.uniform_ensemble(_positive_int(desc, "alphabet_size", 2), n)
        if kind == "iid":
            return ensembles.iid_ensemble(desc["probs"], n)
        if kind == "uniform_over_type":
            return ensembles.uniform_over_type_ensemble(desc["composition"], n)
        if kind == "linear_dithered":
            return ensembles.linear_dithered_ensemble(n, _positive_int(desc, "message_bits"))
    except (KeyError, UdecError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad ensemble descriptor: {exc}") from exc
    raise ConfigError(f"unknown ensemble kind: {kind!r}")


def _build_channel(desc) -> channels.ChannelModel:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("channel descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    try:
        if kind == "bsc":
            if not _is_number(desc["p"]):
                raise ConfigError(f"bsc 'p' must be a number, got {desc['p']!r}")
            return channels.bsc(float(desc["p"]))
        if kind == "dmc":
            return channels.dmc(desc["matrix"])
        if kind == "mod_additive":
            return channels.mod_additive_iid(desc["noise_probs"])
        if kind == "mod_additive_fixed":
            return channels.mod_additive_fixed(
                desc["noise_word"], _positive_int(desc, "alphabet_size", 2)
            )
        if kind == "mac_xor":
            return channels.mac_xor(_build_channel(desc["inner"]))
    except (KeyError, UdecError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad channel descriptor: {exc}") from exc
    raise ConfigError(f"unknown channel kind: {kind!r}")


def _build_family(desc) -> families.MetricFamily:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("family descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    try:
        xa = _positive_int(desc, "x_alphabet_size", 2)
        ya = _positive_int(desc, "y_alphabet_size", 2)
        if kind == "additive":
            return families.additive_family(xa, ya)
        if kind == "mac_xor_additive":
            return families.mac_xor_additive_family(xa, ya)
    except (UdecError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad family descriptor: {exc}") from exc
    raise ConfigError(f"unknown family kind: {kind!r}")


def _build_decoders(descs) -> list[simulator.DecoderSpec]:
    if not isinstance(descs, list) or not descs:
        raise ConfigError("'decoders' must be a nonempty list")
    specs = []
    for d in descs:
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError("decoder descriptor must be an object with a 'kind'")
        kind = d["kind"]
        if kind not in ("universal", "ml", "metric", "lz"):
            raise ConfigError(f"unknown decoder kind: {kind!r}")
        theta = ()
        if kind == "metric":
            if "theta" not in d:
                raise ConfigError("metric decoder needs a 'theta' matrix")
            theta = _matrix(d["theta"], "metric decoder 'theta'")
        label = d.get("label", "")
        if not isinstance(label, str):
            raise ConfigError(f"decoder 'label' must be a string, got {label!r}")
        specs.append(simulator.DecoderSpec(kind, label=label, theta=theta))
    return specs


def _theta_grid(config, channel, seed):
    if "theta_grid" in config:
        grid = config["theta_grid"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError("'theta_grid' must be a nonempty list of matrices")
        return [_matrix(m, "each 'theta_grid' entry") for m in grid]
    size = _positive_int(config, "theta_grid_size", 25)
    return simulator.default_theta_grid(size, channel, seed)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _write_manifest(out: str, subcommand: str, config_hash: str, seed: int):
    from . import __version__

    manifest = {
        "subcommand": subcommand,
        "config_sha256_prefix": config_hash,
        "seed": seed,
        "udec_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
    }
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plot_csv(out: str, estimates, config_hash: str, seed: int):
    root, ext = os.path.splitext(out)
    rows = [
        (e.decoder, e.n, e.estimate, config_hash, seed) for e in estimates
    ]
    _write_csv(
        root + ".plot" + (ext or ".csv"),
        ("decoder", "n", "estimate") + PROVENANCE_COLUMNS,
        rows,
    )


def _cmd_simulate(config, config_hash, seed, out) -> int:
    channel = _build_channel(_require(config, "channel"))
    n = _positive_int(config, "n")
    trials = _positive_int(config, "trials")
    family = _build_family(_require(config, "family"))
    specs = _build_decoders(_require(config, "decoders"))
    rows = []
    if channel.kind == channels.MAC_XOR:
        r1 = _rate(config, "rate1")
        r2 = _rate(config, "rate2")
        estimates = simulator.mac_run_experiment(
            channel, family, specs, r1, r2, n, trials, seed
        )
        columns = RESULT_COLUMNS + PROVENANCE_COLUMNS + (
            "errors_both",
            "errors_user1",
            "errors_user2",
        )
        for e in estimates:
            rows.append(
                (
                    e.decoder, e.n, e.rate1 + e.rate2, e.trials, e.errors,
                    e.estimate, e.ci_lo, e.ci_hi, "", "", config_hash, seed,
                    e.errors_both, e.errors_user1, e.errors_user2,
                )
            )
    else:
        rate = _rate(config, "rate")
        ensemble = _build_ensemble(_require(config, "ensemble"), n)
        ties = config.get("ties_as_errors", True)
        if not isinstance(ties, bool):
            raise ConfigError(f"'ties_as_errors' must be true or false, got {ties!r}")
        estimates = simulator.run_experiment(
            ensemble, channel, family, specs, rate, trials, seed, ties_as_errors=ties
        )
        columns = RESULT_COLUMNS + PROVENANCE_COLUMNS
        for e in estimates:
            rows.append(
                (
                    e.decoder, e.n, e.rate, e.trials, e.errors, e.estimate,
                    e.ci_lo, e.ci_hi, "", "", config_hash, seed,
                )
            )
    _write_csv(out, columns, rows)
    _write_plot_csv(out, estimates, config_hash, seed)
    _write_manifest(out, "simulate", config_hash, seed)
    return 0


def _cmd_audit(config, config_hash, seed, out) -> int:
    mode = _require(config, "audit_mode")
    if mode == "exact":
        return _audit_exact(config, config_hash, seed, out)
    if mode == "mc":
        return _audit_mc(config, config_hash, seed, out)
    raise ConfigError(f"audit_mode must be 'exact' or 'mc', got {mode!r}")


def _audit_exact(config, config_hash, seed, out) -> int:
    n = _positive_int(config, "n")
    rate = _rate(config, "rate")
    channel = _build_channel(_require(config, "channel"))
    family = _build_family(_require(config, "family"))
    ensemble = _build_ensemble(_require(config, "ensemble"), n)
    grid = _theta_grid(config, channel, seed)
    from .decoders import MetricIndex

    thetas = [MetricIndex.additive(m) for m in grid]
    report = simulator.exact_bound_audit(
        ensemble, channel, family, thetas, rate, n
    )
    factor = 2.0 ** (n * report.delta_n)
    rows = [
        (
            "universal", n, rate, 0, 0, report.lhs_universal,
            report.lhs_universal, report.lhs_universal, "",
            report.pointwise_ok and report.aggregate_ok, config_hash, seed,
        )
    ]
    for i, rhs in enumerate(report.rhs_by_theta):
        bound = factor * rhs
        rows.append(
            (
                f"theta{i}", n, rate, 0, 0, rhs, rhs, rhs, bound,
                report.lhs_universal <= bound + 1e-9, config_hash, seed,
            )
        )
    _write_csv(out, RESULT_COLUMNS + PROVENANCE_COLUMNS, rows)
    _write_manifest(out, "audit", config_hash, seed)
    ok = report.pointwise_ok and report.aggregate_ok
    if not ok:
        log.warning("exact audit failed: %s", report.violations[:5])
    return 0 if ok else 1


#: the universal row's ``pass`` cell for each Monte Carlo audit verdict
_VERDICT_CELL = {"holds": "true", "violated": "false", "inconclusive": "inconclusive"}


def _audit_mc(config, config_hash, seed, out) -> int:
    n = _positive_int(config, "n")
    rate = _rate(config, "rate")
    trials = _positive_int(config, "trials")
    channel = _build_channel(_require(config, "channel"))
    family = _build_family(_require(config, "family"))
    grid = _theta_grid(config, channel, seed)
    shifted_trials = _positive_int(config, "shifted_trials", 4000)
    report = simulator.monte_carlo_audit(
        channel, family, grid, rate, n, trials, seed,
        shifted_trials=shifted_trials,
    )
    # each competitor row's bound_rhs is its arm's right-hand side at its
    # ci_lo, and U's is the least of them: U's ci_hi is at most its
    # bound_rhs exactly when the verdict is holds
    factor = 2.0 * 2.0 ** (n * report.delta_n)
    est_u, thetas, shifted = report.estimates[0], report.estimates[1:], report.shifted_estimates
    bounds = [factor * e.ci_lo for e in thetas] + [2.0 * e.ci_lo for e in shifted]
    cells = [(est_u, est_u.errors, min(bounds), _VERDICT_CELL[report.verdict])]
    cells += [(e, e.errors, bound, "") for e, bound in zip(thetas, bounds)]
    cells += [(e, "", bound, "") for e, bound in zip(shifted, bounds[len(thetas) :])]
    rows = [
        (
            e.decoder, e.n, e.rate, e.trials, errors, e.estimate,
            e.ci_lo, e.ci_hi, bound, row_pass, config_hash, seed,
        )
        for e, errors, bound, row_pass in cells
    ]
    _write_csv(out, RESULT_COLUMNS + PROVENANCE_COLUMNS, rows)
    _write_manifest(out, "audit", config_hash, seed)
    return 1 if report.verdict == "violated" else 0


def _cmd_count_classes(config, config_hash, seed, out) -> int:
    family = _build_family(_require(config, "family"))
    n_values = _n_values(config)
    strategy = config.get("strategy", "auto")
    rows = []
    for n in n_values:
        report = typeclasses.count_classes(family, n, strategy=strategy)
        rows.append(
            (
                n, report.max_classes, report.log_growth, report.strategy,
                config_hash, seed,
            )
        )
    _write_csv(
        out,
        ("n", "max_classes", "log_growth", "strategy") + PROVENANCE_COLUMNS,
        rows,
    )
    _write_manifest(out, "count-classes", config_hash, seed)
    return 0


def _cmd_shulman(config, config_hash, seed, out) -> int:
    specs = [_build_event_family(desc) for desc in config.get("families", [])]
    count = config.get("random_families", 0)
    if not _is_int(count) or count < 0:
        raise ConfigError("'random_families' must be a non-negative integer")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A)))
    for _ in range(count):
        specs.append(simulator.random_pairwise_independent_family(rng))
    if not specs:
        raise ConfigError("no event families configured")
    rows = []
    all_ok = True
    for spec in specs:
        report = simulator.shulman_check(spec)
        all_ok &= report.holds
        rows.append(
            (
                report.label, report.num_events, report.union_prob,
                report.sum_prob, report.bound, report.holds, config_hash, seed,
            )
        )
    _write_csv(
        out,
        ("label", "num_events", "union_prob", "sum_prob", "bound", "pass")
        + PROVENANCE_COLUMNS,
        rows,
    )
    _write_manifest(out, "shulman", config_hash, seed)
    return 0 if all_ok else 1


def _build_event_family(desc) -> simulator.EventFamilySpec:
    builders = {
        "xor_parity": (simulator.xor_parity_family, "num_bits", "subsets", "targets"),
        "projective_lines": (simulator.projective_line_family, "q", "num_events", "shifts"),
    }
    if not isinstance(desc, dict) or desc.get("kind") not in builders:
        raise ConfigError(f"unknown event family descriptor: {desc!r}")
    build, size_key, *optional = builders[desc["kind"]]
    if size_key not in desc:
        raise ConfigError(f"{desc['kind']} event family needs {size_key!r}")
    if "num_events" in desc:
        _positive_int(desc, "num_events")
    for key in ("subsets", "targets", "shifts"):
        v = desc.get(key)
        if v is not None and not (isinstance(v, list) and all(_is_int(i) for i in v)):
            raise ConfigError(f"{key!r} must be a list of integers, got {v!r}")
    label = desc.get("label", "")
    if not isinstance(label, str):
        raise ConfigError(f"event family 'label' must be a string, got {label!r}")
    return build(_positive_int(desc, size_key), *(desc.get(k) for k in optional), label)


def _cmd_surrogate(config, config_hash, seed, out) -> int:
    n_values = _n_values(config)
    samples = _positive_int(config, "samples_per_y", 20)
    desc = config.get("ensemble", {"kind": "uniform", "alphabet_size": 2})
    report = simulator.surrogate_condition_check(
        lambda n: _build_ensemble(desc, n), n_values, samples, seed
    )
    rows = [
        (n, report.max_per_n[n], report.non_increasing, config_hash, seed)
        for n in sorted(report.max_per_n)
    ]
    _write_csv(
        out,
        ("n", "max_kappa", "trend_pass") + PROVENANCE_COLUMNS,
        rows,
    )
    _write_manifest(out, "surrogate-check", config_hash, seed)
    return 0 if report.non_increasing else 1


_COMMON_KEYS = {"seed", "out"}
#: top-level config keys each subcommand reads
_KEYS = {
    "simulate": {"n", "rate", "rate1", "rate2", "trials", "ensemble", "channel",
                 "family", "decoders", "ties_as_errors"},
    "audit": {"audit_mode", "n", "rate", "trials", "channel", "family", "ensemble",
              "theta_grid", "theta_grid_size", "shifted_trials"},
    "count-classes": {"family", "n_values", "strategy"},
    "shulman": {"random_families", "families"},
    "surrogate-check": {"n_values", "samples_per_y", "ensemble"},
}

_HANDLERS = {
    "simulate": _cmd_simulate,
    "audit": _cmd_audit,
    "count-classes": _cmd_count_classes,
    "shulman": _cmd_shulman,
    "surrogate-check": _cmd_surrogate,
}


if __name__ == "__main__":
    sys.exit(main())
