import dataclasses
import json
import os
import subprocess
import sys

import pytest

import udec
from udec import cli, simulator
from udec.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SIMULATE = {
    "n": 10,
    "rate": 0.25,
    "trials": 200,
    "seed": 3,
    "ensemble": {"kind": "uniform", "alphabet_size": 2},
    "channel": {"kind": "bsc", "p": 0.1},
    "family": {"kind": "additive"},
    "decoders": [
        {"kind": "universal"},
        {"kind": "ml"},
        {"kind": "metric", "theta": [[1, 0], [0, 1]], "label": "match"},
    ],
}


NAN = float("nan")  # json.dumps writes it as NaN, which json.loads reads back

AUDIT_MC = {
    "audit_mode": "mc",
    "n": 8,
    "rate": 0.25,
    "trials": 50,
    "shifted_trials": 20,
    "channel": {"kind": "bsc", "p": 0.1},
    "family": {"kind": "additive"},
}


AUDIT_EXACT = {
    "audit_mode": "exact",
    "n": 4,
    "rate": 0.25,
    "ensemble": {"kind": "uniform"},
    "channel": {"kind": "bsc", "p": 0.1},
    "family": {"kind": "additive"},
}

MAC_SIMULATE = {
    "n": 10,
    "rate1": 0.15,
    "rate2": 0.15,
    "trials": 100,
    "channel": {"kind": "mac_xor", "inner": {"kind": "bsc", "p": 0.1}},
    "family": {"kind": "mac_xor_additive"},
    "decoders": [{"kind": "universal"}, {"kind": "ml"}],
}


def _mc_audit_rows(path, n):
    """The rows of a Monte Carlo audit CSV, after checking that its
    bound_rhs cells give the verdict: each metric row's is the factor
    2 * 2^(n * delta_n) times its ci_lo, each shifted row's twice its ci_lo,
    and U's the least of them, which U's ci_hi is at most exactly when its
    pass cell is true."""
    rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
    factor = 2.0 * 2.0 ** (n * udec.count_classes(udec.additive_family(2, 2), n).log_growth)
    universal, others = rows[0], rows[1:]
    assert universal[0] == "universal"
    for row in others:
        scale = 2.0 if row[0].endswith("@shifted") else factor
        assert float(row[8]) == scale * float(row[6]) and row[9] == ""
    assert any(r[0].endswith("@shifted") for r in others)
    assert float(universal[8]) == min(float(r[8]) for r in others)
    assert (float(universal[7]) <= float(universal[8])) == (universal[9] == "true")
    return rows


class TestSimulate:
    def test_exit_code_and_output(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SIMULATE)
        out = str(tmp_path / "r.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == (
            "decoder,n,R,trials,errors,estimate,ci_lo,ci_hi,bound_rhs,pass,"
            "config_hash,seed"
        )
        assert len(lines) == 4
        assert (tmp_path / "r.csv.manifest.json").exists()
        assert (tmp_path / "r.plot.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SIMULATE)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--seed", "7", "--out", a]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "7", "--out", b]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SIMULATE)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--config", cfg, "--out", a])
        main(["simulate", "--config", cfg, "--seed", "12345", "--out", b])
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "key, desc",
        [
            ("ensemble", {"kind": "uniform_over_type", "composition": [5, 5]}),
            ("channel", {"kind": "dmc", "matrix": [[0.9, 0.1], [0.2, 0.8]]}),
            ("channel", {"kind": "mod_additive", "noise_probs": [0.85, 0.15]}),
            ("channel", {"kind": "mod_additive_fixed", "noise_word": [1, 0, 0, 0, 0] * 2}),
        ],
        ids=["uniform_over_type", "dmc", "mod_additive", "mod_additive_fixed"],
    )
    def test_ensemble_and_channel_kinds(self, tmp_path, key, desc):
        cfg = write_config(tmp_path, "c.json", dict(SIMULATE, **{key: desc}))
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["universal", "ml", "match"]

    def test_mac_channel(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", MAC_SIMULATE)
        out = str(tmp_path / "m.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header.endswith("errors_both,errors_user1,errors_user2")


class TestAudit:
    def test_exact_mode(self, tmp_path):
        payload = {
            "audit_mode": "exact",
            "n": 5,
            "rate": 0.25,
            "theta_grid_size": 6,
            "ensemble": {"kind": "iid", "probs": [0.5, 0.5]},
            "channel": {"kind": "bsc", "p": 0.1},
            "family": {"kind": "additive"},
        }
        cfg = write_config(tmp_path, "a.json", payload)
        out = str(tmp_path / "a.csv")
        assert main(["audit", "--config", cfg, "--out", out]) == 0
        rows = (tmp_path / "a.csv").read_text().splitlines()
        assert rows[1].startswith("universal,")
        assert any(r.startswith("theta0,") for r in rows)

    def test_mc_mode(self, tmp_path):
        payload = {
            "audit_mode": "mc",
            "n": 12,
            "rate": 0.25,
            "trials": 1500,
            "theta_grid_size": 3,
            "shifted_trials": 400,
            "channel": {"kind": "bsc", "p": 0.1},
            "family": {"kind": "additive"},
        }
        cfg = write_config(tmp_path, "a.json", payload)
        out = str(tmp_path / "a.csv")
        assert main(["audit", "--config", cfg, "--out", out]) == 0
        assert _mc_audit_rows(tmp_path / "a.csv", 12)[0][9] == "true"

    def test_exact_mode_past_the_float_range(self, tmp_path):
        # M = 2^1200 codewords: every clipped-union term is 1, where forming
        # 2^(nR) as a float stopped the audit with a traceback and exit 1
        payload = {
            "audit_mode": "exact",
            "n": 2,
            "rate": 600,
            "theta_grid_size": 3,
            "ensemble": {"kind": "uniform"},
            "channel": {"kind": "bsc", "p": 0.1},
            "family": {"kind": "additive"},
        }
        cfg = write_config(tmp_path, "a.json", payload)
        out = str(tmp_path / "a.csv")
        assert main(["audit", "--config", cfg, "--out", out]) == 0
        rows = [r.split(",") for r in (tmp_path / "a.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["universal", "theta0", "theta1", "theta2"]
        assert all(float(r[5]) == 1.0 and r[9] == "true" for r in rows)

    def test_mc_mode_inconclusive_exits_0(self, tmp_path):
        # no decoder errs in 500 trials at n = 128, so no interval separates:
        # an inconclusive audit, which exited 1 ("bound failed").  U's
        # bound_rhs is the least right-hand side, 0 from the metrics' ci_lo
        # of 0, and each shifted row carries twice its ci_lo, above 0: the
        # shifted arm averages exact conditional errors, not counts
        payload = dict(AUDIT_MC, n=128, trials=500, shifted_trials=500, theta_grid_size=5)
        cfg = write_config(tmp_path, "a.json", payload)
        out = str(tmp_path / "a.csv")
        assert main(["audit", "--config", cfg, "--out", out, "--seed", "1"]) == 0
        rows = _mc_audit_rows(tmp_path / "a.csv", 128)
        assert rows[0][0] == "universal" and rows[0][4] == "0"
        assert rows[0][9] == "inconclusive" and float(rows[0][8]) == 0.0
        shifted = [r for r in rows if r[0].endswith("@shifted")]
        assert len(shifted) == len(rows) // 2 and all(float(r[8]) > 0 for r in shifted)

    def test_mc_mode_violated_exits_1(self, tmp_path, monkeypatch):
        # a shifted arm far below the universal decoder's errors violates
        # inequality B at CI separation
        shifted = simulator._shifted_estimates

        def tiny(*args):
            return [dataclasses.replace(e, estimate=1e-12, ci_lo=0.0, ci_hi=1e-12) for e in shifted(*args)]

        monkeypatch.setattr(simulator, "_shifted_estimates", tiny)
        cfg = write_config(tmp_path, "a.json", dict(AUDIT_MC, rate=0.75))
        out = str(tmp_path / "a.csv")
        assert main(["audit", "--config", cfg, "--out", out]) == 1
        rows = _mc_audit_rows(tmp_path / "a.csv", 8)
        assert rows[0][0] == "universal" and float(rows[0][6]) > 0
        assert rows[0][9] == "false"

    def test_unknown_mode_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", {"audit_mode": "bogus"})
        assert main(["audit", "--config", cfg]) == 2


    def test_oversized_codebook_message_is_short(self, tmp_path, capsys):
        # 2^1200 codewords: the sizes are powers of two, not 360-digit counts
        cfg = write_config(tmp_path, "c.json", dict(SIMULATE, n=2000, rate=0.6))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err) < 200 and "2^1200" in err


class TestOtherSubcommands:
    def test_count_classes(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json", {"family": {"kind": "additive"}, "n_values": [2, 4]}
        )
        out = str(tmp_path / "c.csv")
        assert main(["count-classes", "--config", cfg, "--out", out]) == 0
        rows = (tmp_path / "c.csv").read_text().splitlines()
        assert rows[0] == "n,max_classes,log_growth,config_hash,seed"
        assert rows[1].split(",")[1] == "4"  # K_2

    def test_shulman(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {"families": [{"kind": "xor_parity", "num_bits": 4}], "random_families": 3},
        )
        out = str(tmp_path / "s.csv")
        assert main(["shulman", "--config", cfg, "--out", out]) == 0

    def test_surrogate(self, tmp_path):
        cfg = write_config(tmp_path, "k.json", {"n_values": [6, 8], "samples_per_y": 5})
        out = str(tmp_path / "k.csv")
        assert main(["surrogate-check", "--config", cfg, "--out", out]) == 0


class TestErrorHandling:
    def test_missing_config(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--config", missing]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_unknown_subcommand(self, tmp_path):
        assert main(["frobnicate", "--config", "x.json"]) == 2

    def test_missing_required_key(self, tmp_path):
        payload = dict(SIMULATE)
        del payload["channel"]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["simulate", "--config", cfg]) == 2

    def test_negative_rate_rejected(self, tmp_path):
        payload = dict(SIMULATE)
        payload["rate"] = -0.5
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_decoder_kind(self, tmp_path):
        payload = dict(SIMULATE)
        payload["decoders"] = [{"kind": "oracle"}]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_config_round_trip(self, tmp_path):
        text = json.dumps(SIMULATE, sort_keys=True)
        assert json.dumps(json.loads(text), sort_keys=True) == text

    @pytest.mark.parametrize(
        "subcommand, payload, extra",
        [
            ("simulate", dict(SIMULATE, trials=True), []),
            ("simulate", SIMULATE, ["--seed", "-3"]),
            ("shulman", {"families": [{"kind": "xor_parity"}]}, []),
            ("shulman", {"families": [{"kind": "projective_lines", "num_events": 3}]}, []),
            ("simulate", dict(SIMULATE, trails=200), []),
            ("simulate", dict(SIMULATE, decoders=[{"kind": "metric", "theta": [["a", 0], [0, 1]]}]), []),
            ("audit", dict(AUDIT_MC, theta_grid=[[[1, 0], [0, "b"]]]), []),
            ("simulate", SIMULATE, ["--out", "{tmp}/missing/x.csv"]),
            ("simulate", dict(SIMULATE, decoders=[{"kind": "metric", "theta": [[NAN, 0], [0, 1]]}]), []),
            ("audit", dict(AUDIT_MC, theta_grid=[[[1, 0, 0], [0, 1, 0]]]), []),
            ("audit", dict(AUDIT_EXACT, theta_grid=[[[1, 0, 0], [0, 1, 0]]]), []),
            ("simulate", dict(SIMULATE, rate=True), []),
            ("simulate", dict(SIMULATE, channel={"kind": "bsc", "p": True}), []),
            ("simulate", dict(SIMULATE, ties_as_errors="false"), []),
            ("audit", dict(AUDIT_MC, rate=NAN), []),
            ("simulate", dict(SIMULATE, n=1024, rate=1.0), []),
            ("audit", dict(AUDIT_MC, n=1024, rate=0.995, theta_grid_size=1), []),
            ("simulate", dict(SIMULATE, n=2000, rate=0.6), []),
            ("simulate", dict(SIMULATE, rate=1e9), []),
            ("simulate", dict(SIMULATE, ensemble={"kind": "uniform", "alphabet_size": 2.7}), []),
            ("simulate", dict(SIMULATE, ensemble={"kind": "linear_dithered", "message_bits": 4.9}), []),
            ("simulate", dict(SIMULATE, family={"kind": "additive", "x_alphabet_size": 2.9}), []),
            ("shulman", {"families": [{"kind": "xor_parity", "num_bits": 40, "subsets": [1, 2]}]}, []),
            ("shulman", {"families": [{"kind": "projective_lines", "q": 100003}]}, []),
            ("shulman", {"families": [{"kind": "xor_parity", "num_bits": 4, "subsets": "ab"}]}, []),
            ("simulate", dict(SIMULATE, decoders=[{"kind": "ml", "label": ["x"]}]), []),
            ("shulman", {"families": [{"kind": "xor_parity", "num_bits": 4, "subsets": [1, 2], "targets": [1]}]}, []),
            ("shulman", {"families": [{"kind": "xor_parity", "num_bits": 4, "subsets": [-1]}]}, []),
            ("shulman", {"families": [{"kind": "projective_lines", "q": 5, "shifts": [1]}]}, []),
            ("shulman", {"families": [{"kind": "projective_lines", "q": 5, "num_events": "x"}]}, []),
            ("shulman", {"families": [{"kind": "projective_lines", "q": 5, "label": 3}]}, []),
            ("count-classes", {"family": {"kind": "additive"}, "n_values": [30000000]}, []),
            ("count-classes", {"family": {"kind": "additive"}, "n_values": [2, 0]}, []),
            ("count-classes", {"family": {"kind": "additive"}, "n_values": [2], "strategy": "exhaustive"}, []),
            ("surrogate-check", {"n_values": "4"}, []),
            ("simulate", dict(MAC_SIMULATE, ensemble={"kind": "iid", "probs": [0.9, 0.1]}, ties_as_errors=False), []),
            ("simulate", dict(MAC_SIMULATE, rate=0.25), []),
            ("simulate", dict(SIMULATE, rate1=0.15, rate2=0.15), []),
            ("audit", dict(AUDIT_MC, ensemble={"kind": "uniform"}), []),
            ("audit", dict(AUDIT_EXACT, trials=50), []),
            ("audit", dict(AUDIT_EXACT, shifted_trials=20), []),
            ("simulate", dict(SIMULATE, ensemble={"kind": "uniform", "probs": [0.9, 0.1]}), []),
            ("simulate", dict(SIMULATE, channel={"kind": "bsc", "p": 0.1, "matrix": [[0.5, 0.5], [0.5, 0.5]]}), []),
            ("simulate", dict(MAC_SIMULATE, channel={"kind": "mac_xor", "inner": {"kind": "bsc", "p": 0.1, "noise_probs": [0.9, 0.1]}}), []),
            ("simulate", dict(SIMULATE, family={"kind": "additive", "num_states": 4}), []),
            ("simulate", dict(SIMULATE, decoders=[{"kind": "universal", "theta": [[1, 0], [0, 1]]}]), []),
            ("simulate", dict(SIMULATE, decoders=[{"kind": "ml", "lable": "x"}]), []),
            ("shulman", {"families": [{"kind": "xor_parity", "num_bits": 4, "subset": [1, 2]}]}, []),
            ("audit", dict(AUDIT_EXACT, n=3, theta_grid=[[[1, 0], [0, 1]]], theta_grid_size=7), []),
            ("audit", dict(AUDIT_MC, theta_grid=[[[1, 0], [0, 1]]], theta_grid_size=7), []),
        ],
        ids=["bool-trials", "negative-seed", "parity-no-num_bits", "lines-no-q", "unknown-key",
             "non-numeric-theta", "non-numeric-theta_grid", "unwritable-out", "nan-theta",
             "2x3-theta_grid-mc", "2x3-theta_grid-exact", "bool-rate", "bool-p",
             "string-ties_as_errors", "nan-rate", "2^1024-codewords", "mc-shifted-2^1036-codewords", "2^1200-codewords", "rate-1e9",
             "float-alphabet_size", "float-message_bits", "float-x_alphabet_size",
             "parity-2^40-outcomes", "lines-q100003", "string-subsets", "list-label",
             "parity-short-targets", "parity-negative-subset", "lines-short-shifts",
             "string-num_events", "int-family-label", "count-classes-30000001-compositions",
             "count-classes-zero-n", "count-classes-strategy", "surrogate-string-n_values", "mac-ensemble-ties_as_errors", "mac-rate",
             "single-user-rate1-rate2", "mc-ensemble", "exact-trials", "exact-shifted_trials",
             "uniform-probs", "bsc-matrix", "mac-inner-noise_probs", "additive-num_states",
             "universal-theta", "misspelt-lable", "parity-subset", "exact-both-theta_grid_keys",
             "mc-both-theta_grid_keys"],
    )
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, subcommand, payload, extra):
        cfg = write_config(tmp_path, "c.json", payload)
        out = str(tmp_path / "x.csv")
        extra = [e.format(tmp=tmp_path) for e in extra]
        assert main([subcommand, "--config", cfg, "--out", out] + extra) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


#: an accepted config of each run mode, as (subcommand, payload)
MODE_CONFIGS = {
    "simulate": ("simulate", SIMULATE),
    "simulate mac_xor": ("simulate", MAC_SIMULATE),
    "audit exact": ("audit", AUDIT_EXACT),
    "audit mc": ("audit", AUDIT_MC),
    "count-classes": ("count-classes", {"family": {"kind": "additive"}, "n_values": [2]}),
    "shulman": ("shulman", {"random_families": 1}),
    "surrogate-check": ("surrogate-check", {"n_values": [4], "samples_per_y": 2}),
}


@pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
def test_a_key_only_another_mode_reads_is_refused(tmp_path, capsys, mode):
    modes = cli._READS["mode"]
    assert set(modes) == set(MODE_CONFIGS)
    subcommand, payload = MODE_CONFIGS[mode]
    out = str(tmp_path / "x.csv")
    assert main([subcommand, "--config", write_config(tmp_path, "ok.json", payload), "--out", out]) in (0, 1)
    os.remove(out)
    capsys.readouterr()
    others = set().union(*(keys for m, (_, keys) in modes.items() if m != mode)) - modes[mode][1]
    assert others
    for key in sorted(others):
        cfg = write_config(tmp_path, "c.json", dict(payload, **{key: 1}))
        assert main([subcommand, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and repr(key) in err
        assert not os.path.exists(out)


def test_library_import_leaves_the_cli_out():
    """``import udec`` loads the library only: the CLI and what it imports
    (argparse, csv, json, logging) load with ``udec.cli``."""
    src = os.path.dirname(os.path.dirname(udec.__file__))
    code = "import sys, udec; sys.exit('udec.cli' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src)).returncode == 0
