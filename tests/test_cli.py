"""Tests for the batch CLI: config validation, runs, CSV/manifest output."""

import copy
import csv
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import noisylab
from noisylab import bounds, cli, freqmodel, mcsim
from noisylab.cli import CSV_COLUMNS, SYNTH_COLUMNS, _write_csv, entry, main, validate_config
from noisylab.mcsim import STREAM_VERSION, InstanceScenario, scenario_violations

_SRC = Path(noisylab.__file__).resolve().parents[1]


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _main_quietly(argv, capsys) -> int:
    """main's exit code; the run must print nothing to stderr and raise no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    return code


def _bounds_doc(**overrides):
    doc = {
        "seed": 5,
        "trials": 20_000,
        "scenario": {"l": 10, "y": 1, "e_plus": 0.2, "e_minus": 0.2},
    }
    doc.update(overrides)
    return doc


class TestValidateConfig:
    def test_accepts_each_command(self):
        docs = [
            {
                "command": "tau",
                "seed": 1,
                "n": 100,
                "l": [2, 10],
                "prior": {"generator": "zipf", "n_values": 50, "exponent": 1.1},
            },
            {
                "command": "weight",
                "seed": 1,
                "replicates": 100,
                "interval": [0.1, 0.2],
                "prior": {"generator": "uniform", "n_values": 10},
            },
            {"command": "simulate", **_bounds_doc()},
            {"command": "bounds", **_bounds_doc()},
            {
                "command": "sweep",
                "seed": 1,
                "trials": 10,
                "grid": {"l": [4, 10], "e": [0.1, 0.2], "base": {"y": 1}},
            },
            {
                "command": "sweep",
                "seed": 1,
                "trials": 10,
                "scenarios": [{"l": 4, "y": -1, "e_plus": 0.1, "e_minus": 0.2}],
            },
            {
                "command": "noise-synth",
                "seed": 1,
                "epsilon": 0.2,
                "count": 5,
                "feature_dim": 3,
            },
        ]
        for doc in docs:
            assert validate_config(doc) == [], doc["command"]

    def test_rejects_non_object_and_missing_fields(self):
        assert validate_config([1, 2]) == ["config: must be a JSON object"]
        violations = validate_config({})
        assert "command: command required" in violations
        assert "seed: seed required" in violations

    def test_rejects_unknown_command(self):
        violations = validate_config({"command": "explode", "seed": 1})
        assert any(v.startswith("command: must be one of") for v in violations)

    def test_flags_each_violation_with_its_field_path(self):
        doc = {
            "command": "bounds",
            "seed": 1,
            "trials": 100,
            "scenario": {"l": 10, "y": 1, "e_plus": 0.7, "e_minus": 0.5},
        }
        violations = validate_config(doc)
        assert "scenario.e_plus: e_plus + e_minus must be < 1, got 1.2" in violations

        doc = {
            "command": "tau",
            "seed": 1,
            "n": 100,
            "l": [2],
            "prior": {"generator": "zipf", "exponent": 1.1},
        }
        assert "prior.n_values: n_values required" in validate_config(doc)

    def test_scenario_checks(self):
        base = {"command": "simulate", "seed": 1, "trials": 10}

        def bad(scenario):
            return validate_config({**base, "scenario": scenario})

        assert "scenario.l: l required" in bad({"y": 1, "e_plus": 0.1, "e_minus": 0.1})
        assert any(
            "scenario.y" in v for v in bad({"l": 4, "y": 2, "e_plus": 0.1, "e_minus": 0.1})
        )
        assert any(
            "scenario.n" in v
            for v in bad({"l": 4, "y": 1, "e_plus": 0.1, "e_minus": 0.1, "n": 2})
        )
        assert any(
            "scenario.p_plus" in v
            for v in bad(
                {"l": 4, "y": 1, "e_plus": 0.1, "e_minus": 0.1, "p_plus": 0.6, "p_minus": 0.6}
            )
        )
        assert "scenario: must be an object" in bad([1])

    def test_tau_checks(self):
        doc = {
            "command": "tau",
            "seed": 1,
            "n": 10,
            "l": [5, 20],
            "prior": {"generator": "uniform", "n_values": 4},
        }
        assert "l: every value must be <= n=10" in validate_config(doc)
        doc["l"] = []
        assert any(v.startswith("l: must be a positive integer") for v in validate_config(doc))
        doc["l"] = 5
        assert validate_config(doc) == []

    def test_weight_checks(self):
        doc = {
            "command": "weight",
            "seed": 1,
            "replicates": 10,
            "interval": [0.4, 0.2],
            "prior": {"generator": "uniform", "n_values": 4},
        }
        assert any(v.startswith("interval: need 0 <= beta1") for v in validate_config(doc))
        doc["interval"] = [0.1, "x"]
        assert any(v.startswith("interval: must be a") for v in validate_config(doc))

    def test_sweep_checks(self):
        assert "scenarios: sweep needs scenarios or grid" in validate_config(
            {"command": "sweep", "seed": 1, "trials": 10}
        )
        doc = {
            "command": "sweep",
            "seed": 1,
            "trials": 10,
            "grid": {"l": [4], "e": [0.6]},
        }
        assert "grid.e: symmetric rates must lie in [0, 0.5)" in validate_config(doc)
        doc = {
            "command": "sweep",
            "seed": 1,
            "trials": 10,
            "scenarios": [
                {"l": 4, "y": 1, "e_plus": 0.1, "e_minus": 0.1},
                {"l": 4, "y": 1, "e_plus": 0.9, "e_minus": 0.9},
            ],
        }
        assert any(v.startswith("scenarios[1].") for v in validate_config(doc))

    def test_batch_ceilings_admit_their_edges(self):
        # validated, never run: each config draws 2**40 counts or holds 2**17 scenarios
        grid = {"l": list(range(1, 1025)), "e": [i / 256 for i in range(128)]}
        assert validate_config({"command": "sweep", "seed": 1, "trials": 2**23, "grid": grid}) == []
        scenario = {"l": 4, "y": 1, "e_plus": 0.1, "e_minus": 0.1}
        doc = {"command": "bounds", "seed": 1, "trials": 2**40, "scenario": scenario}
        assert validate_config(doc) == []
        doc = {"command": "sweep", "seed": 1, "trials": 2**23, "scenarios": [scenario] * 2**17}
        assert validate_config(doc) == []

    def test_tau_ceilings_admit_their_edges(self):
        # validated, never run: each config holds 2**19 l values or 2**26 (l, replicate) pairs
        doc = {"command": "tau", "seed": 1, "n": 2**20, "prior": {"generator": "explicit", "values": [0.5]}}
        many = {**doc, "l": list(range(1, 2**19 + 1)), "weight_replicates": 2**7}
        assert validate_config(many) == []
        assert validate_config({**many, "l": many["l"] + [1], "weight_replicates": 1}) == [
            "l: value count must be <= 524288, got 524289"]
        wide = {**doc, "l": [1, 2, 3, 4], "mc_replicates": 2**24 - 2**14, "weight_replicates": 2**14}
        assert validate_config(wide) == []
        assert validate_config({**wide, "weight_replicates": 2**14 + 1}) == [
            "l: values x (mc_replicates + weight_replicates) must be <= 67108864, "
            "got 4 x (16760832 + 16385)"]
        # an absent weight_replicates counts as its default, 10**4
        assert validate_config({**doc, "l": list(range(1, 6711))}) == []
        assert validate_config({**doc, "l": list(range(1, 6712))}) == [
            "l: values x (mc_replicates + weight_replicates) must be <= 67108864, got 6711 x (0 + 10000)"]

    def test_noise_synth_checks(self):
        doc = {"command": "noise-synth", "seed": 1, "count": 5, "feature_dim": 3}
        assert "epsilon: epsilon required" in validate_config(doc)
        doc["epsilon"] = 1.5
        assert any("epsilon" in v for v in validate_config(doc))
        doc.update(epsilon=0.2, sigma=0.0)
        assert any("sigma" in v for v in validate_config(doc))

    def test_top_level_option_checks(self):
        doc = _bounds_doc(command="bounds", workers=0)
        assert any("workers" in v for v in validate_config(doc))
        doc = _bounds_doc(command="bounds", out=7)
        assert "out: must be a string path" in validate_config(doc)
        doc = _bounds_doc(command="bounds", seed=-1)
        assert any("seed" in v for v in validate_config(doc))


class TestValidateCommand:
    def test_valid_config_prints_confirmation(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"command": "bounds", **_bounds_doc()})
        assert main(["validate", "--config", str(path)]) == 0
        assert "config valid" in capsys.readouterr().out

    def test_violations_go_to_stdout_with_exit_2(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"command": "bounds", "seed": 1})
        assert main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "trials: trials required" in out
        assert "scenario: prior" not in out

    def test_a_tau_config_past_its_memory_ceiling_exits_2(self, tmp_path, capsys):
        # two arrays of 40 x 2**24 doubles, 10.7 GB, that a run would fill at once: never run it
        path = _write_config(tmp_path, {
            "command": "tau", "seed": 1, "n": 10**6, "l": list(range(1, 41)), "mc_replicates": 2**24,
            "prior": {"generator": "explicit", "values": [0.5]}})
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().out == (
            "l: values x (mc_replicates + weight_replicates) must be <= 67108864, "
            "got 40 x (16777216 + 10000)\n")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config: unreadable" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("config: malformed JSON")

    @pytest.mark.parametrize("command", ["validate", "bounds"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("config: unreadable ('utf-8' codec can't decode")

    @pytest.mark.parametrize("command", ["validate", "bounds"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert main([command, "--config", str(deep), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("config: malformed JSON (maximum recursion depth")


class TestWriteCsv:
    def test_cells_follow_the_header_and_absent_columns_are_empty(self, tmp_path):
        out = tmp_path / "x.csv"
        assert _write_csv(out, SYNTH_COLUMNS, [{"rate": 0.5, "instance": 3}, {}]) == 2
        assert out.read_text(encoding="utf-8") == "instance,q,projection,rate\n3,,,0.5\n,,,\n"

    def test_a_column_outside_the_header_raises(self, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(KeyError, match="rates"):
            _write_csv(out, SYNTH_COLUMNS, [{"instance": 0, "rates": 0.5}])
        assert not out.exists()


class TestBoundsCommand:
    def test_writes_full_event_table_and_manifest(self, tmp_path, capsys):
        config = _write_config(tmp_path, _bounds_doc())
        out = tmp_path / "report.csv"
        assert main(["bounds", "--config", str(config), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"bounds: wrote 6 rows to {out}")

        header, rows = _read_csv(out)
        assert tuple(header) == CSV_COLUMNS
        assert [r[8] for r in rows] == [
            "memorize",
            "loss_correction",
            "loss_correction",
            "label_smoothing",
            "peer_loss",
            "peer_loss",
        ]
        lc_success = rows[1]
        assert lc_success[:9] == [
            "10", "1", "0.2", "0.2", "0.5", "0.5", "0.1", "", "loss_correction",
        ]
        assert lc_success[12] == "0.9672065024000001"
        assert lc_success[13] == "0.8347011117784134"
        assert lc_success[14] == "hoeffding_success"
        assert lc_success[15] == "true" and lc_success[16] == "true"
        # MC cells parse back to floats inside the reported CI
        mc, lo, hi = map(float, lc_success[9:12])
        assert lo <= mc <= hi

        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["tool"] == "noisylab"
        assert manifest["version"] == "0.1.0"
        assert manifest["command"] == "bounds"
        assert manifest["seed"] == 5
        assert manifest["rows"] == 6
        assert manifest["out"] == str(out)
        assert manifest["wall_time_s"] >= 0.0
        assert set(manifest["timings"]) == {"compute_s", "write_s"}
        assert manifest["config"]["scenario"]["l"] == 10
        assert manifest["stream_version"] == STREAM_VERSION
        assert set(manifest["env"]) == {"python", "numpy", "scipy", "platform", "nproc"}
        # both files were renamed into place: no temporary sibling is left
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "report.csv", "report.manifest.json",
        ]

    def test_simulate_keeps_headline_rows_only(self, tmp_path):
        config = _write_config(tmp_path, _bounds_doc())
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert tuple(header) == CSV_COLUMNS
        assert [r[8] for r in rows] == [
            "memorize", "loss_correction", "label_smoothing", "peer_loss",
        ]

    def test_zero_rates_keep_the_event_order(self, tmp_path):
        # no bound_form names loss correction's two events at zero rates: only their order does
        scenario = {"l": 10, "y": 1, "e_plus": 0.0, "e_minus": 0.0}
        config = _write_config(tmp_path, _bounds_doc(seed=1, scenario=scenario))
        out = tmp_path / "zero.csv"
        assert main(["bounds", "--config", str(config), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [(r[8], r[9], r[12], r[14]) for r in rows] == [
            ("memorize", "0.0", "0.0", ""),
            ("loss_correction", "0.0", "0.0", ""),  # strict success: every trial ties
            ("loss_correction", "1.0", "1.0", ""),  # tie-inclusive failure
            ("label_smoothing", "0.0", "0.0", ""),
            ("peer_loss", "1.0", "1.0", "peer_success"),  # strict success
            ("peer_loss", "0.0", "0.0", ""),  # tie-inclusive failure
        ]

    def test_flag_overrides_reach_the_manifest(self, tmp_path):
        config = _write_config(tmp_path, _bounds_doc())
        out = tmp_path / "o.csv"
        code = main(
            [
                "bounds", "--config", str(config), "--out", str(out),
                "--seed", "9", "--trials", "500", "--workers", "2",
            ]
        )
        assert code == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["workers"] == 2
        assert manifest["config"]["trials"] == 500

    def test_default_output_name_is_the_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _write_config(tmp_path, _bounds_doc(trials=200))
        assert main(["bounds", "--config", str(config)]) == 0
        assert (tmp_path / "bounds.csv").exists()
        assert (tmp_path / "bounds.manifest.json").exists()

    def test_command_mismatch_exits_2(self, tmp_path, capsys):
        config = _write_config(tmp_path, _bounds_doc(command="bounds"))
        assert main(["simulate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "config file is for 'bounds', invoked as 'simulate'" in err

    def test_invalid_config_exits_2_before_writing(self, tmp_path, capsys):
        config = _write_config(tmp_path, {"seed": 1, "trials": 10})
        out = tmp_path / "never.csv"
        assert main(["bounds", "--config", str(config), "--out", str(out)]) == 2
        assert "scenario: must be an object" in capsys.readouterr().err or not out.exists()
        assert not out.exists()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        config = _write_config(tmp_path, _bounds_doc(trials=50))
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["bounds", "--config", str(config), "--out", str(missing_dir)]) == 3
        assert "runtime error:" in capsys.readouterr().err

    def test_unwritable_manifest_exits_3_without_a_traceback(self, tmp_path, capsys):
        config = _write_config(tmp_path, _bounds_doc(trials=50))
        out = tmp_path / "x.csv"
        (tmp_path / "x.manifest.json").mkdir()
        assert main(["bounds", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and "Traceback" not in err
        assert (tmp_path / "x.manifest.json").is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "x.csv", "x.manifest.json",
        ]


class TestTauCommand:
    def test_two_bound_forms_per_draw_count(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "seed": 3,
                "n": 1000,
                "l": [2, 10],
                "prior": {"generator": "zipf", "n_values": 50, "exponent": 1.1},
                "mc_replicates": 200,
                "weight_replicates": 400,
            },
        )
        out = tmp_path / "tau.csv"
        assert main(["tau", "--config", str(config), "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert tuple(header) == CSV_COLUMNS
        assert len(rows) == 4
        assert [r[14] for r in rows] == [
            "tau_lower_large", "tau_lower_small", "tau_lower_large", "tau_lower_small",
        ]
        for row in rows:
            assert row[8] == "tau" and row[7] == "1000"
            exact, bound = float(row[12]), float(row[13])
            assert exact >= 0.0 and bound >= 0.0
            if row[16] == "true":
                assert exact >= bound
            mc, lo, hi = map(float, row[9:12])
            assert lo <= mc <= hi

    def test_point_mass_prior_returns_the_mass_exactly(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "seed": 3,
                "n": 100,
                "l": [2, 5, 50],
                "prior": {"generator": "explicit", "values": [0.001]},
            },
        )
        out = tmp_path / "tau.csv"
        assert main(["tau", "--config", str(config), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert all(row[12] == "0.001" for row in rows)

    def test_every_interval_lies_in_the_unit_interval_around_its_estimate(self, tmp_path):
        # two replicates of four values: at l = 5 the normal interval, unclipped, starts at
        # -0.04573961886987639, below its estimate of 0.046054922661398684
        doc = {"seed": 0, "n": 50, "l": [1, 2, 5], "mc_replicates": 2, "weight_replicates": 2,
               "prior": {"generator": "explicit", "values": [0.9, 0.01, 0.02, 0.5]}}
        out = tmp_path / "tau.csv"
        assert main(["tau", "--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 6
        for row in rows:
            mc, lo, hi = map(float, row[9:12])
            assert 0.0 <= lo <= mc <= hi <= 1.0
        assert [row[9:12] for row in rows[4:]] == [["0.046054922661398684", "0.0", "0.13784946419267374"]] * 2

    @pytest.mark.parametrize(
        "overrides, code, message",
        [
            ({"mc_replicates": 1}, 2, "mc_replicates: must be 0 or >= 2, got 1\n"),
            ({"l": [2, 101]}, 2, "l: every value must be <= n=100\n"),
            ({"l": 0}, 2, "l: must be a positive integer or nonempty list of them\n"),
            ({"weight_replicates": 0}, 2, "weight_replicates: must be >= 1, got 0\n"),
            ({"mc_replicates": -1}, 2, "mc_replicates: must be >= 0, got -1\n"),
            ({"prior": {"generator": "zipf", "n_values": 10, "exponent": 1.1, "cap": 0.05}}, 2,
             "prior.cap: cap 0.05 is infeasible for 10 values summing to 1.0\n"),
        ],
    )
    def test_invalid_configs_keep_their_exit_codes_and_messages(
        self, tmp_path, capsys, overrides, code, message
    ):
        doc = {"seed": 1, "n": 100, "l": [2, 10],
               "prior": {"generator": "zipf", "n_values": 50, "exponent": 1.1}, **overrides}
        out = tmp_path / "tau.csv"
        assert main(["tau", "--config", str(_write_config(tmp_path, doc)), "--out", str(out)]) == code
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestWeightCommand:
    def test_single_row_with_bracketed_estimate(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "seed": 8,
                "replicates": 2000,
                "interval": [0.05, 0.2],
                "prior": {"generator": "zipf", "n_values": 30, "exponent": 1.2},
            },
        )
        out = tmp_path / "w.csv"
        assert main(["weight", "--config", str(config), "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert tuple(header) == CSV_COLUMNS
        assert len(rows) == 1
        row = rows[0]
        assert row[8] == "weight"
        value, lo, hi = float(row[9]), float(row[10]), float(row[11])
        assert 0.0 <= lo <= value <= hi <= 1.0

    # Frozen outputs: the weight draws read the same stream under any
    # chunking, and the per-replicate mass formula is fixed, so these bytes
    # may only change together with the stream version.
    @pytest.mark.parametrize(
        "prior, interval, replicates, row",
        [
            ({"generator": "zipf", "n_values": 1000, "exponent": 1.1, "cap": 0.05},
             [0.0005, 0.002], 2500,
             ",,,,,,,,weight,0.17502521396051032,0.17409375300803226,0.1759566749129884,,,,,"),
        ],
    )
    def test_golden_output(self, tmp_path, capsys, prior, interval, replicates, row):
        # the README weight example is frozen with the other README examples (TestGoldenOutputs)
        doc = {"command": "weight", "seed": 7, "prior": prior, "interval": interval,
               "replicates": replicates}
        out = tmp_path / "w.csv"
        argv = ["weight", "--config", str(_write_config(tmp_path, doc)), "--out", str(out)]
        assert _main_quietly(argv, capsys) == 0
        assert out.read_text(encoding="utf-8") == ",".join(CSV_COLUMNS) + "\n" + row + "\n"


class TestNoiseSynthCommand:
    def test_per_instance_draw_table(self, tmp_path):
        config = _write_config(
            tmp_path,
            {"seed": 11, "epsilon": 0.2, "count": 8, "feature_dim": 3, "sigma": 0.5},
        )
        out = tmp_path / "synth.csv"
        assert main(["noise-synth", "--config", str(config), "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert tuple(header) == SYNTH_COLUMNS
        assert len(rows) == 8
        assert [row[0] for row in rows] == [str(i) for i in range(8)]
        for row in rows:
            q, projection, rate = float(row[1]), float(row[2]), float(row[3])
            assert 0.0 <= q <= 1.0
            assert 0.0 <= rate <= 1.0 - 1e-6
            # rate is the clamped product of q and the doubled logistic
            np.testing.assert_allclose(
                rate, min(max(q * 2.0 * expit(projection), 0.0), 1.0 - 1e-6), atol=1e-12
            )

    def test_same_seed_reproduces_the_file(self, tmp_path):
        config = _write_config(
            tmp_path, {"seed": 11, "epsilon": 0.2, "count": 8, "feature_dim": 3}
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["noise-synth", "--config", str(config), "--out", str(a)]) == 0
        assert main(["noise-synth", "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_a_count_no_table_can_hold_fails_at_once(self, tmp_path):
        # the run gets its own interpreter and a timeout, so a loop over the
        # count fails this test instead of hanging the suite
        config = _write_config(
            tmp_path, {"seed": 1, "epsilon": 0.2, "count": 10**400, "feature_dim": 3}
        )
        out = tmp_path / "synth.csv"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))}
        result = subprocess.run(
            [sys.executable, "-m", "noisylab", "noise-synth", "--config", str(config),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        assert result.returncode == 2
        assert result.stderr == f"count: must be <= 1048576, got {10**400}\n"
        assert not out.exists()


class TestSweepCommand:
    def test_grid_runs_are_byte_identical_across_workers(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "seed": 42,
                "trials": 5000,
                "grid": {"l": [4, 10], "e": [0.1, 0.3], "base": {"y": 1}},
            },
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config), "--out", str(a)]) == 0
        assert (
            main(["sweep", "--config", str(config), "--out", str(b), "--workers", "3"])
            == 0
        )
        assert a.read_bytes() == b.read_bytes()
        header, rows = _read_csv(a)
        assert tuple(header) == CSV_COLUMNS
        assert len(rows) == 4 * 4  # headline row per treatment per grid point

    def test_explicit_scenarios_preserve_order(self, tmp_path):
        config = _write_config(
            tmp_path,
            {
                "seed": 1,
                "trials": 300,
                "scenarios": [
                    {"l": 6, "y": -1, "e_plus": 0.1, "e_minus": 0.2},
                    {"l": 4, "y": 1, "e_plus": 0.2, "e_minus": 0.2},
                ],
            },
        )
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [row[0] for row in rows[:4]] == ["6"] * 4
        assert [row[0] for row in rows[4:]] == ["4"] * 4
        assert rows[0][1] == "-1" and rows[4][1] == "1"

    # SHA-256 of four wide sweeps: a grid over small, odd, even and large l with
    # zero and near-half rates; a list with unequal and one-sided rates and
    # l = 1e6 whose 70,000 trials run as two chunks on a two-worker pool; the
    # 5,000-scenario grid; and the benchmark's sweep_large_l config at seed 1.
    # All four were re-captured at stream version 10, where chunks with
    # 30 < p l and l * -log1p(-p) <= 700 became the inversion walk; only rows
    # of such scenarios changed, and only their Monte-Carlo cells.
    @pytest.mark.parametrize(
        "doc, rows, digest",
        [
            ({"seed": 9, "trials": 3000,
              "grid": {"l": [*range(1, 13), 16, 20, 33, 64, 100, 257, 1000],
                       "e": [0, 0.01, 0.1, 0.2, 0.25, 0.3, 0.4, 0.49],
                       "base": {"y": -1, "p_plus": 0.3, "smoothing_a": 0.35}}}, 608,
             "d24a17a872e8e8cfd9c202a1e11846a5ced9845a598cc79c3eb317ac7e36486e"),
            ({"seed": 9, "trials": 70_000, "workers": 2, "scenarios": [
                {"l": 9, "y": -1, "e_plus": 0.1, "e_minus": 0.5, "smoothing_a": 0.3},
                {"l": 200, "y": 1, "e_plus": 0.3, "e_minus": 0.2},
                {"l": 7, "y": 1, "e_plus": 0, "e_minus": 0.4, "p_plus": 0.8},
                {"l": 1_000_000, "y": 1, "e_plus": 0.2, "e_minus": 0.2}]}, 16,
             "f2a97248520b4ea868bec1343d526aea38345eed3378f9504ac0aa4782c56ba6"),
            ({"seed": 7, "trials": 2000, "workers": 2,
              "grid": {"l": list(range(1, 101)), "e": [(2 * i + 1) / 200 for i in range(50)],
                       "base": {"y": 1, "p_plus": 0.3}}}, 20_000,
             "71b5e9339708e680cd2a6ea4591dcc9720d7acce10692535ceabe74b5c339a23"),
            ({"seed": 1, "trials": 50_000, "workers": 2,
              "grid": {"l": [200, 1000], "e": [0.1, 0.3], "base": {"y": 1}}}, 16,
             "826908c6b40030aa26a6b08321bcf719b442066d0ba6396caa64aba9821eac69"),
        ],
        ids=["grid", "scenarios", "grid-5000", "sweep-large-l"],
    )
    def test_wide_sweeps_are_frozen(self, tmp_path, capsys, doc, rows, digest):
        out = tmp_path / "out.csv"
        config = _write_config(tmp_path, doc)
        assert _main_quietly(["sweep", "--config", str(config), "--out", str(out)], capsys) == 0
        data = out.read_bytes()
        assert len(data.splitlines()) - 1 == rows
        assert hashlib.sha256(data).hexdigest() == digest


_README_SCENARIO = {"l": 10, "y": 1, "e_plus": 0.2, "e_minus": 0.2}


def test_bounds_at_a_billion_labels_runs_in_flat_memory(tmp_path, capsys):
    # the report reads cuts, never an (l + 1)-entry table; a small run first
    # loads every lazily imported module, so the trace sees only the run
    def bounds(l):
        doc = {"command": "bounds", "seed": 5, "trials": 2000,
               "scenario": {"l": l, "y": 1, "e_plus": 0.2, "e_minus": 0.2}}
        out = tmp_path / f"l{l}.csv"
        argv = ["bounds", "--config", str(_write_config(tmp_path, doc)), "--out", str(out)]
        assert _main_quietly(argv, capsys) == 0
        return _read_csv(out)[1]

    bounds(10)
    tracemalloc.start()
    try:
        rows = bounds(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 6 and peak < 16 * 2**20, peak


class TestGoldenOutputs:
    # Frozen README examples, plus `simulate` on the `bounds` scenario and a
    # `tau` run without Monte Carlo, whose mc_estimate, ci_lo and ci_hi cells
    # are empty: exit code, manifest row count, the first and last CSV lines
    # and the SHA-256 of the whole file.  These bytes may only change together with the
    # stream version; the bounds/simulate/sweep bytes were re-captured at
    # version 4, each changed exact cell checked against an exact rational
    # binomial sum, and at version 5, each changed Monte-Carlo cell checked
    # to lie within 4 binomial SEs of its row's exact column.
    @pytest.mark.parametrize(
        "doc, rows, first, last, digest",
        [
            ({"command": "bounds", "seed": 42, "trials": 100_000, "scenario": _README_SCENARIO}, 6,
             "10,1,0.2,0.2,0.5,0.5,0.1,,memorize,0.200549,0.19976535953218444,"
             "0.20133494111634842,0.2,,,,",
             "10,1,0.2,0.2,0.5,0.5,0.1,,peer_loss,0.03375,0.03264853154248,"
             "0.034887288685003695,0.03279349760000002,0.02400959708748615,"
             "peer_failure_lower,true,true",
             "93c31d3edf8e87bbf9678ba677e197df872eb29bbe63687a73c98cfbee2d1825"),
            ({"command": "simulate", "seed": 42, "trials": 100_000, "scenario": _README_SCENARIO}, 4,
             "10,1,0.2,0.2,0.5,0.5,0.1,,memorize,0.200549,0.19976535953218444,"
             "0.20133494111634842,0.2,,,,",
             "10,1,0.2,0.2,0.5,0.5,0.1,,peer_loss,0.96625,0.9651127113149963,"
             "0.9673514684575201,0.9672065024000001,0.8347011117784136,peer_success,true,true",
             "4df941ae218fe92eec0d2e5835bb06ed160abdfccfd4fc1274e90533826d70b9"),
            ({"command": "sweep", "seed": 42, "trials": 20_000,
              "grid": {"l": [4, 10, 20, 50], "e": [0.1, 0.2, 0.3], "base": {"y": 1}}}, 48,
             "4,1,0.1,0.1,0.5,0.5,0.1,,memorize,0.1010125,0.0989434421623406,"
             "0.10311987334909672,0.1,,,,",
             "50,1,0.3,0.3,0.5,0.5,0.1,,peer_loss,0.99735,0.996535693976946,"
             "0.9979732877580466,0.9976304521510178,0.9816843611112658,peer_success,true,true",
             "2b927f4b988ff8359abe235d1138a5768ec11f36bbd18be6681d97505d5fa6a5"),
            ({"command": "noise-synth", "seed": 3, "epsilon": 0.2, "sigma": 0.1, "count": 1000,
              "feature_dim": 8}, 1000,
             "0,0.160808818950157,0.9404725423875622,0.23130582889560336",
             "999,0.16105161199854998,0.8716661615613933,0.2271124944295228",
             "f0c54e2c9055ff37bfa805adaaa1fb1e567abb8fddf08faab09b25109e0a9872"),
            ({"command": "tau", "seed": 7,
              "prior": {"generator": "zipf", "n_values": 1000, "exponent": 1.1, "cap": 0.05},
              "n": 10000, "l": [2, 10, 100], "mc_replicates": 10000}, 6,
             "2,,,,,,,10000,tau,0.00021684053679166447,0.00021656571740583794,"
             "0.000217115356177491,0.00021535254065503442,7.272542963057769e-10,"
             "tau_lower_large,true,true",
             "100,,,,,,,10000,tau,0.00990520087657236,0.009899301366604317,"
             "0.009911100386540401,0.009909000827635437,2.8634351731114718e-08,"
             "tau_lower_small,true,true",
             "fe4a8e5a81482c34446b75e9c7bc6f252cd0df67cd8b2529be68b8d00adc9e3d"),
            ({"command": "tau", "seed": 3,
              "prior": {"generator": "zipf", "n_values": 200, "exponent": 1.1, "cap": 0.05},
              "n": 1000, "l": [1, 2, 50], "weight_replicates": 300}, 6,
             "1,,,,,,,1000,tau,,,,0.0015457977100884574,0.0,tau_lower_large,true,true",
             "50,,,,,,,1000,tau,,,,0.049227720085308166,4.9608135119314903e-05,"
             "tau_lower_small,true,true",
             "c3a76b97c52eae26b81b5af209bb8f0dd736d71ba9b927babc6d4ff4046c2350"),
            ({"command": "weight", "seed": 7,
              "prior": {"generator": "explicit", "values": [0.1, 0.2, 0.3, 0.4]},
              "interval": [0.05, 0.4], "replicates": 10_000}, 1,
             ",,,,,,,,weight,0.8981888888888888,0.8944136384914023,0.9019641392863753,,,,,",
             ",,,,,,,,weight,0.8981888888888888,0.8944136384914023,0.9019641392863753,,,,,",
             "fbbfd9f90aa4e752fb248e596b3b2f0e78c4451817e3109229c825aa683e4be7"),
        ],
        ids=["bounds", "simulate", "sweep", "noise-synth", "tau", "tau-without-monte-carlo", "weight"],
    )
    def test_readme_example_output_is_frozen(self, tmp_path, capsys, doc, rows, first, last,
                                             digest):
        out = tmp_path / "out.csv"
        config = _write_config(tmp_path, doc)
        assert _main_quietly([doc["command"], "--config", str(config), "--out", str(out)],
                             capsys) == 0
        data = out.read_bytes()
        lines = data.decode("utf-8").splitlines()
        assert (lines[1], lines[-1]) == (first, last)
        assert hashlib.sha256(data).hexdigest() == digest
        manifest = json.loads(out.with_suffix(".manifest.json").read_text(encoding="utf-8"))
        assert manifest["rows"] == rows == len(lines) - 1


class TestQuietRuns:
    # A bound outside its regime is recorded in the CSV (regime_ok false, a
    # vacuous 0.0), never printed: successful runs leave stderr empty.
    def test_unequal_rates_only_flag_their_regimes(self, tmp_path, capsys):
        config = _write_config(tmp_path, {"seed": 1, "trials": 2000, "scenario": {
            "l": 3, "y": 1, "e_plus": 0.1, "e_minus": 0.3}})
        out = tmp_path / "s.csv"
        assert _main_quietly(["simulate", "--config", str(config), "--out", str(out)], capsys) == 0
        _, rows = _read_csv(out)
        assert [(r[8], r[15]) for r in rows] == [
            ("memorize", ""), ("loss_correction", "false"), ("label_smoothing", "false"),
            ("peer_loss", "true"),
        ]

    def test_single_appearance_writes_a_vacuous_small_l_row(self, tmp_path, capsys):
        config = _write_config(tmp_path, {
            "seed": 1, "n": 1000, "l": [1, 2], "weight_replicates": 200,
            "prior": {"generator": "uniform", "n_values": 100}})
        out = tmp_path / "t.csv"
        assert _main_quietly(["tau", "--config", str(config), "--out", str(out)], capsys) == 0
        _, rows = _read_csv(out)
        assert [(r[0], r[13], r[14], r[15], r[16]) for r in rows[:2]] == [
            ("1", "0.0", "tau_lower_large", "true", "true"),
            ("1", "0.0", "tau_lower_small", "false", ""),
        ]
        assert [r[15] for r in rows[2:]] == ["true", "true"]

    @pytest.mark.parametrize("n, bounds", [(100, ("0.0", "0.0")), (2, ("0.4", "0.3305785123966942"))])
    def test_a_one_value_prior_writes_the_point_mass(self, tmp_path, capsys, n, bounds):
        # D = 1 in every realization, so the Monte-Carlo tau is 1.0 with stderr 0 and its
        # interval 1.0 to 1.0, at n > l as at n == l, and tau_exact gives 1.0 too
        config = _write_config(tmp_path, {
            "command": "tau", "seed": 1, "n": n, "l": [2], "mc_replicates": 5,
            "prior": {"generator": "uniform", "n_values": 1}})
        out = tmp_path / "t.csv"
        assert _main_quietly(["tau", "--config", str(config), "--out", str(out)], capsys) == 0
        _, rows = _read_csv(out)
        assert rows == [["2", "", "", "", "", "", "", str(n), "tau", "1.0", "1.0", "1.0", "1.0",
                         bound, form, "false", ""]
                        for bound, form in zip(bounds, ("tau_lower_large", "tau_lower_small"))]


class TestKnownTauDefects:
    # A known defect: ordering_holds compares exact, tau_exact's raw-mode tau, with a
    # bound on the normalized-mode tau.  On this valid config the l = 2 small-l row is in
    # regime and reads false: its bound is 3.31e-4 against exact 1.05e-6, while its
    # mc_estimate, 1.0023e-3, lies above the bound.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="exact is the raw-mode tau, the bound bounds the normalized one")
    def test_every_in_regime_tau_row_holds_its_ordering(self, tmp_path, capsys):
        config = _write_config(tmp_path, {
            "seed": 1, "n": 1000, "l": [2, 3, 10], "mc_replicates": 2000,
            "prior": {"generator": "explicit", "values": [1e-6, 1.1e-6] * 500}})
        out = tmp_path / "t.csv"
        assert _main_quietly(["tau", "--config", str(config), "--out", str(out)], capsys) == 0
        _, rows = _read_csv(out)
        assert [(r[0], r[14]) for r in rows if r[15] == "true" and r[16] != "true"] == []


class TestOneOrderingRule:
    # Every row's ordering_holds is exact >= bound - 1e-12: a gap of 1e-13 below
    # the bound lies inside that slack and one of 1e-11 outside it, on a tau row
    # and on a treatment row alike.
    @pytest.mark.parametrize("gap, holds", [(1e-13, "true"), (1e-11, "false")])
    def test_rows_just_below_their_bounds_get_the_same_ordering(self, tmp_path, capsys,
                                                                 monkeypatch, gap, holds):
        est = freqmodel.TauEstimate(l=2, exact=1e-3, bounds=tuple(
            bounds.BoundValue(kind, 1e-3 + gap) for kind in freqmodel._TAU_FORMS))
        monkeypatch.setattr(cli, "estimate_taus", lambda *args, **kwargs: [est])
        config = _write_config(tmp_path, {"seed": 1, "n": 100, "l": [2],
                                          "prior": {"generator": "uniform", "n_values": 10}})
        out = tmp_path / "tau.csv"
        assert _main_quietly(["tau", "--config", str(config), "--out", str(out)], capsys) == 0
        assert [(r[15], r[16]) for r in _read_csv(out)[1]] == [("true", holds)] * 2

        scenario = {"l": 10, "y": 1, "e_plus": 0.2, "e_minus": 0.2}
        exact = mcsim.bound_report(InstanceScenario(**scenario), 1000, 1).checks[1].exact
        kind = bounds.BoundKind.HOEFFDING_SUCCESS
        monkeypatch.setitem(bounds._FORMS, kind, (*bounds._FORMS[kind][:2], lambda *_: exact + gap))
        config = _write_config(tmp_path, {"seed": 1, "trials": 1000, "scenario": scenario})
        assert _main_quietly(["bounds", "--config", str(config), "--out", str(out)], capsys) == 0
        row = next(r for r in _read_csv(out)[1] if r[14] == kind.value)
        assert (float(row[12]), row[15], row[16]) == (exact, "true", holds)


_W = {"seed": 1, "replicates": 10, "interval": [0.1, 0.2],
      "prior": {"generator": "uniform", "n_values": 4}}
_S = {"l": 4, "y": 1, "e_plus": 0.1, "e_minus": 0.1}
_B = {"seed": 1, "trials": 10, "scenario": _S}
_N = {"seed": 1, "epsilon": 0.2, "count": 5, "feature_dim": 3}


def _scenario(**fields):
    return {**_B, "scenario": {**_S, **fields}}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _run(tmp_path, capsys, command, doc):
    """Exit code and stderr of a run, plus the exit code and stdout of validate."""
    out = tmp_path / "out.csv"
    config = _write_config(tmp_path, doc)
    code = main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert not out.exists()
    checked = _write_config(tmp_path, {"command": command, **doc}, name="checked.json")
    validate_code = main(["validate", "--config", str(checked)])
    return code, err, validate_code, capsys.readouterr().out


class TestFrozenErrors:
    # Exit code and full stderr of invalid configs, captured before the
    # validation rules were consolidated; every exit-2 message is also what
    # `validate` prints for the same config.
    @pytest.mark.parametrize(
        "command, doc, err",
        [
            ("weight", {**_W, "interval": [0.4, 0.2]},
             "interval: need 0 <= beta1 <= beta2 <= 1, got [0.4, 0.2]\n"),
            ("weight", {**_W, "interval": [0.1, "x"]},
             "interval: must be a [beta1, beta2] pair of numbers\n"),
            ("weight", _without(_W, "replicates"), "replicates: replicates required\n"),
            ("bounds", _scenario(l=0), "scenario.l: must be >= 1, got 0\n"),
            ("simulate", _scenario(l=2.5), "scenario.l: must be an integer, got 2.5\n"),
            ("bounds", _scenario(y=2), "scenario.y: must be -1 or 1, got 2\n"),
            ("bounds", _scenario(e_plus=1.0), "scenario.e_plus: must be < 1.0, got 1.0\n"),
            ("simulate", _scenario(e_minus=-0.1), "scenario.e_minus: must be >= 0.0, got -0.1\n"),
            ("bounds", _scenario(e_plus="x"), "scenario.e_plus: must be a number, got 'x'\n"),
            ("bounds", _scenario(p_plus=1.0), "scenario.p_plus: must be < 1.0, got 1.0\n"),
            ("bounds", _scenario(p_minus=0), "scenario.p_minus: must be > 0.0, got 0.0\n"),
            ("simulate", _scenario(smoothing_a=1.0),
             "scenario.smoothing_a: must be < 1.0, got 1.0\n"),
            ("bounds", _scenario(n=0), "scenario.n: must be >= 1, got 0\n"),
            ("bounds", _scenario(e_plus=0.7, e_minus=0.5),
             "scenario.e_plus: e_plus + e_minus must be < 1, got 1.2\n"),
            ("simulate", _scenario(p_plus=0.6, p_minus=0.6),
             "scenario.p_plus: p_plus + p_minus must equal 1, got 1.2\n"),
            ("bounds", _scenario(n=2), "scenario.n: must be >= l, got n=2, l=4\n"),
            ("bounds", {**_B, "scenario": [1]}, "scenario: must be an object\n"),
            ("bounds", _without(_B, "scenario"), "scenario: must be an object\n"),
            ("bounds",
             {"seed": -1, "trials": 0,
              "scenario": {"l": 0, "y": 2, "e_plus": 0.7, "e_minus": 0.5, "p_plus": 0.6,
                           "p_minus": 0.6, "smoothing_a": 2, "n": 0}},
             "seed: must be >= 0, got -1\n"
             "scenario.l: must be >= 1, got 0\n"
             "scenario.y: must be -1 or 1, got 2\n"
             "scenario.e_plus: e_plus + e_minus must be < 1, got 1.2\n"
             "scenario.p_plus: p_plus + p_minus must equal 1, got 1.2\n"
             "scenario.smoothing_a: must be < 1.0, got 2.0\n"
             "scenario.n: must be >= 1, got 0\n"
             "trials: must be >= 1, got 0\n"),
            ("sweep", {"seed": 1, "trials": 10,
                       "scenarios": [_S, {**_S, "e_plus": 0.9, "e_minus": 0.9}]},
             "scenarios[1].e_plus: e_plus + e_minus must be < 1, got 1.8\n"),
            ("sweep", {"seed": 1, "trials": 10, "scenarios": [_S, {"l": 4}]},
             "scenarios[1].y: must be -1 or 1, got None\n"
             "scenarios[1].e_plus: e_plus required\n"
             "scenarios[1].e_minus: e_minus required\n"),
            ("sweep", {"seed": 1, "trials": 10, "scenarios": []},
             "scenarios: must be a nonempty list\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": [0, 4], "e": [0.1]}},
             "grid.l: entries must be integers in 1..9007199254740992\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": {"e": [0.1]}},
             "grid.l: must be a nonempty list\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": [4], "e": [0.6]}},
             "grid.e: symmetric rates must lie in [0, 0.5)\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": [4], "e": []}},
             "grid.e: must be a nonempty list\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": "x"}, "grid: must be an object\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": [4], "e": [0.1], "base": [1]}},
             "grid.base: must be an object\n"),
            ("sweep", {"seed": 1, "trials": 10}, "scenarios: sweep needs scenarios or grid\n"),
            ("noise-synth", {**_N, "epsilon": 1.5}, "epsilon: must be <= 1.0, got 1.5\n"),
            ("noise-synth", _without(_N, "epsilon"), "epsilon: epsilon required\n"),
            ("noise-synth", {**_N, "sigma": 0}, "sigma: must be > 0.0, got 0.0\n"),
            ("noise-synth", {**_N, "count": 0}, "count: must be >= 1, got 0\n"),
            ("noise-synth", {**_N, "feature_dim": 0}, "feature_dim: must be >= 1, got 0\n"),
            ("noise-synth", {**_N, "feature_dim": 2.0},
             "feature_dim: must be an integer, got 2.0\n"),
            ("bounds", {**_B, "seed": -1}, "seed: must be >= 0, got -1\n"),
            ("bounds", {**_B, "seed": 2**64},
             "seed: must be <= 18446744073709551615, got 18446744073709551616\n"),
            ("bounds", _without(_B, "seed"), "seed: seed required\n"),
            ("bounds", {**_B, "workers": 0}, "workers: must be >= 1, got 0\n"),
            ("simulate", _scenario(y=True), "scenario.y: must be -1 or 1, got True\n"),
            ("simulate", _scenario(y=1.0), "scenario.y: must be -1 or 1, got 1.0\n"),
            # trials is optional where a command runs no trials, but checked on every command
            ("tau", {"seed": 1, "n": 100, "l": [2], "trials": -5,
                     "prior": {"generator": "uniform", "n_values": 10}},
             "trials: must be >= 1, got -5\n"),
            ("weight", {**_W, "trials": 0}, "trials: must be >= 1, got 0\n"),
            ("noise-synth", {**_N, "trials": 2.5}, "trials: must be an integer, got 2.5\n"),
            ("sweep", {"seed": 1, "trials": -5, "scenarios": [_S]},
             "trials: must be >= 1, got -5\n"),
            # one replicate gives no standard error, as for tau's mc_replicates
            ("weight", {**_W, "replicates": 1}, "replicates: must be >= 2, got 1\n"),
            # a grid beside scenarios is reported once, however broken it is
            ("sweep", {"seed": 1, "trials": 10, "scenarios": [_S], "grid": {"l": [0], "e": "x"}},
             "grid: must not be given together with scenarios\n"),
        ],
    )
    def test_invalid_config_keeps_exit_2_and_its_messages(self, tmp_path, capsys, command, doc, err):
        assert _run(tmp_path, capsys, command, doc) == (2, err, 2, err)

    @pytest.mark.parametrize(
        "doc, out",
        [
            (_B, "command: command required\n"),
            ({**_B, "command": "explode"},
             "command: must be one of tau, weight, simulate, bounds, sweep, noise-synth, "
             "got 'explode'\n"),
            ({**_B, "command": "bounds", "out": 7}, "out: must be a string path\n"),
        ],
    )
    def test_validate_reports_top_level_violations(self, tmp_path, capsys, doc, out):
        assert main(["validate", "--config", str(_write_config(tmp_path, doc))]) == 2
        assert capsys.readouterr().out == out

    # Configs that `validate` accepted and a run rejected with exit 3: the
    # run and `validate` now read the same scenario, prior, cap and tau rules.
    # Then configs that both accepted while ignoring a key no rule reads.
    @pytest.mark.parametrize(
        "command, doc, err",
        [
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": [4, 10], "e": [0.1], "base": {"y": 2}}},
             "grid.base.y: must be -1 or 1, got 2\n"),
            ("sweep", {"seed": 1, "trials": 10,
                       "grid": {"l": [4, 10], "e": [0.1], "base": {"p_plus": 1.5}}},
             "grid.base.p_plus: must be < 1.0, got 1.5\n"),
            ("sweep", {"seed": 1, "trials": 10,
                       "grid": {"l": [4, 10], "e": [0.1], "base": {"smoothing_a": 0}}},
             "grid.base.smoothing_a: must be > 0.0, got 0.0\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": [4, 10], "e": [0.1], "base": {"n": 2}}},
             "grid.base.n: must be >= l, got n=2, l=10\n"),
            ("bounds", _scenario(p_minus=0.3),
             "scenario.p_plus: p_plus + p_minus must equal 1, got 0.8\n"),
            ("weight", {**_W, "prior": {"generator": "explicit", "values": [1, 2, 3, 4]}},
             "prior.values: all values must be <= 1\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2],
                     "prior": {"generator": "explicit", "values": [0.5, 1.5]}},
             "prior.values: all values must be <= 1\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2], "mc_replicates": 1,
                     "prior": {"generator": "zipf", "n_values": 50, "exponent": 1.1}},
             "mc_replicates: must be 0 or >= 2, got 1\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2],
                     "prior": {"generator": "uniform", "n_values": 10, "cap": 0.05}},
             "prior.cap: cap 0.05 is infeasible for 10 values summing to 1.0\n"),
            ("weight", {**_W, "prior": {"generator": "uniform", "n_values": 10, "cap": 0.05}},
             "prior.cap: cap 0.05 is infeasible for 10 values summing to 1.0\n"),
            ("tau", {"seed": 1, "n": 1, "l": 1,
                     "prior": {"generator": "zipf", "n_values": 50, "exponent": 1.1}},
             "n: must be >= 2, got 1\n"),
            # the grid sets these fields at every point, so base may not
            ("sweep", {"seed": 1, "trials": 10,
                       "grid": {"l": [4], "e": [0.1], "base": {"y": 1, "e_plus": 5, "l": "x"}}},
             "grid.base.l: must not be given, the grid sets it\n"
             "grid.base.e_plus: must not be given, the grid sets it\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": [4], "e": [0.1], "base": {"e_minus": 0.1}}},
             "grid.base.e_minus: must not be given, the grid sets it\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2], "mc_replicate": 500,
                     "prior": {"generator": "uniform", "n_values": 10}},
             "mc_replicate: unknown field\n"),
            ("sweep", {"seed": 1, "trials": 10, "scenarios": [_S, {**_S, "smoothing": 0.5}]},
             "scenarios[1].smoothing: unknown field\n"),
            ("sweep", {"seed": 1, "trials": 10, "scenarios": [_S], "grdi": {"l": [4], "e": [0.1]}},
             "grdi: unknown field\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2],
                     "prior": {"generator": "uniform", "n_values": 10, "exponnent": 1.1}},
             "prior.exponnent: unknown field\n"),
            ("simulate", _scenario(smoothing=0.5), "scenario.smoothing: unknown field\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": [4], "e": [0.1], "bsae": {"y": 1}}},
             "grid.bsae: unknown field\n"),
            ("sweep", {"seed": 1, "trials": 10,
                       "grid": {"l": [4], "e": [0.1], "base": {"y": 1, "smoothing": 0.5}}},
             "grid.base.smoothing: unknown field\n"),
            ("noise-synth", {**_N, "sigam": 0.2}, "sigam: unknown field\n"),
            ("weight", {**_W, "prior": {"generator": "zipf", "n_values": 50, "exponent": 1.1,
                                        "values": [0.5]}},
             "prior.values: unknown field\n"),
            ("bounds", {**_B, "worker": 2, "trails": 5},
             "worker: unknown field\ntrails: unknown field\n"),
            # sweep runs the scenarios, so nothing would read the grid
            ("sweep", {"seed": 1, "trials": 10, "scenarios": [_S],
                       "grid": {"l": [4], "e": [0.1], "base": {"y": 1}}},
             "grid: must not be given together with scenarios\n"),
            # a number must be finite as a float: an integer too large for
            # one, or an infinity that no bound of its field rejects
            ("bounds", _scenario(e_plus=10**400),
             f"scenario.e_plus: must be a finite number, got {10**400}\n"),
            ("weight", {**_W, "interval": [0.1, 10**400]},
             "interval: must be a [beta1, beta2] pair of numbers\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2],
                     "prior": {"generator": "zipf", "n_values": 50, "exponent": math.inf,
                               "cap": 0.05}},
             "prior.exponent: must be a finite number, got inf\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2],
                     "prior": {"generator": "zipf", "n_values": 50, "exponent": math.inf}},
             "prior.exponent: must be a finite number, got inf\n"),
            # sigma's ceiling, which the sampler needs, reports an infinity as out of range
            ("noise-synth", {**_N, "sigma": math.inf}, "sigma: must be <= 1000000.0, got inf\n"),
            # up to 2**53 labels, where (l - w) / l is exact
            ("bounds", _scenario(l=10**400),
             f"scenario.l: must be <= 9007199254740992, got {10**400}\n"),
            ("simulate", _scenario(l=2**53 + 1),
             "scenario.l: must be <= 9007199254740992, got 9007199254740993\n"),
            ("sweep", {"seed": 1, "trials": 10, "scenarios": [_S, {**_S, "l": 10**400}]},
             f"scenarios[1].l: must be <= 9007199254740992, got {10**400}\n"),
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": [4, 2**53 + 1], "e": [0.1]}},
             "grid.l: entries must be integers in 1..9007199254740992\n"),
            # n is only used as a float, so it is capped where l is
            ("tau", {"seed": 1, "n": 10**400, "l": [2],
                     "prior": {"generator": "uniform", "n_values": 10}},
             f"n: must be <= 9007199254740992, got {10**400}\n"),
            # trials are int64 counts that the Wilson interval divides as floats
            ("sweep", {"seed": 1, "trials": 10**400, "scenarios": [_S]},
             f"trials: must be <= 9007199254740992, got {10**400}\n"),
            ("bounds", {**_B, "trials": 2**53 + 1},
             "trials: must be <= 9007199254740992, got 9007199254740993\n"),
            ("noise-synth", {**_N, "trials": 10**400},
             f"trials: must be <= 9007199254740992, got {10**400}\n"),
            # each field that sizes an array has a ceiling near 1 GiB of it
            ("tau", {"seed": 1, "n": 100, "l": [2],
                     "prior": {"generator": "zipf", "n_values": 10**400, "exponent": 1.1}},
             f"prior.n_values: must be <= 8388608, got {10**400}\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2], "mc_replicates": 10**400,
                     "prior": {"generator": "uniform", "n_values": 10}},
             f"mc_replicates: must be <= 16777216, got {10**400}\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2], "weight_replicates": 10**400,
                     "prior": {"generator": "uniform", "n_values": 10}},
             f"weight_replicates: must be <= 16777216, got {10**400}\n"),
            ("weight", {**_W, "replicates": 10**400},
             f"replicates: must be <= 16777216, got {10**400}\n"),
            ("noise-synth", {**_N, "feature_dim": 10**400},
             f"feature_dim: must be <= 16384, got {10**400}\n"),
            # messages no other case reaches
            ("weight", _without(_W, "prior"), "prior: prior required\n"),
            ("weight", {**_W, "prior": None}, "prior: prior required\n"),
            ("weight", {**_W, "prior": 5}, "prior: must be an object\n"),
            ("weight", {**_W, "prior": {"generator": "explicit", "values": []}},
             "prior.values: explicit prior needs a nonempty list of values\n"),
            # the rows are held until the write, about 544 B each
            ("noise-synth", {**_N, "count": 2**20 + 1}, "count: must be <= 1048576, got 1048577\n"),
            # below 1e6, q's window keeps more than 2**31 distinct uniforms
            ("noise-synth", {**_N, "sigma": 1e300}, "sigma: must be <= 1000000.0, got 1e+300\n"),
            # at most 2**40 draws, scenarios x trials: about a day on one thread
            ("sweep", {"seed": 1, "trials": 2**53, "scenarios": [_S]},
             "trials: scenarios x trials must be <= 1099511627776, got 1 x 9007199254740992\n"),
            ("bounds", {**_B, "trials": 2**40 + 1},
             "trials: scenarios x trials must be <= 1099511627776, got 1 x 1099511627777\n"),
            ("sweep", {"seed": 1, "trials": 2**24, "grid": {"l": list(range(1, 1025)),
                                                          "e": [i / 256 for i in range(128)]}},
             "trials: scenarios x trials must be <= 1099511627776, got 131072 x 16777216\n"),
            # at most 2**17 scenarios, about 4.5 KiB each until the write
            ("sweep", {"seed": 1, "trials": 10, "grid": {"l": list(range(1, 10_001)),
                                                        "e": [i / 2000 for i in range(1000)]}},
             "grid: scenario count must be <= 131072, got 10000000\n"),
            ("sweep", {"seed": 1, "trials": 10, "scenarios": [_S] * (2**17 + 1)},
             "scenarios: scenario count must be <= 131072, got 131073\n"),
            # the values a prior builds are checked as built: 3**-1000 rounds to 0
            ("tau", {"seed": 1, "n": 100, "l": [2],
                     "prior": {"generator": "zipf", "n_values": 50, "exponent": 1000, "cap": 0.05}},
             "prior values must lie in (0, 1], got 0.0\n"),
            ("tau", {"seed": 1, "n": 100, "l": [2],
                     "prior": {"generator": "zipf", "n_values": 50, "exponent": 1000}},
             "prior values must lie in (0, 1], got 0.0\n"),
            ("weight", {**_W, "prior": {"generator": "zipf", "n_values": 50, "exponent": 1000}},
             "prior values must lie in (0, 1], got 0.0\n"),
            # so is the cap: the scale 0.025 / 1e-310 overflows
            ("tau", {"seed": 1, "n": 100, "l": [2],
                     "prior": {"generator": "explicit", "values": [0.9, 1e-310, 0.125], "cap": 0.5}},
             "prior.cap: no waterfilling scale as a double keeps these values below 0.5\n"),
            # p_minus = 1 - p_plus rounds to 1 below 2**-54, and the peer bound reads it
            ("simulate", _scenario(p_plus=1e-17),
             "scenario.p_plus: must be > 2**-54, so that 1 - p_plus < 1, got 1e-17\n"),
            ("sweep", {"seed": 1, "trials": 10,
                       "grid": {"l": [4], "e": [0.1], "base": {"p_plus": 1e-17}}},
             "grid.base.p_plus: must be > 2**-54, so that 1 - p_plus < 1, got 1e-17\n"),
        ],
        ids=["base-y", "base-p_plus", "base-smoothing_a", "base-n", "p_minus-alone",
             "weight-prior-above-1", "tau-prior-above-1", "tau-one-mc-replicate",
             "tau-infeasible-cap", "weight-infeasible-cap", "tau-one-sample",
             "base-l-and-e_plus", "base-e_minus",
             "unknown-top-tau", "unknown-in-scenarios", "unknown-top-sweep", "unknown-in-prior",
             "unknown-in-scenario", "unknown-in-grid", "unknown-in-grid-base",
             "unknown-top-noise-synth", "values-on-zipf", "two-unknown-in-document-order",
             "scenarios-and-grid", "overflowing-e_plus", "overflowing-interval",
             "infinite-exponent-with-cap", "infinite-exponent", "infinite-sigma",
             "overflowing-l", "l-past-2**53", "l-past-2**53-in-scenarios", "grid-l-past-2**53",
             "overflowing-n", "overflowing-trials", "trials-past-2**53",
             "overflowing-trials-unread", "overflowing-n_values", "overflowing-mc_replicates",
             "overflowing-weight_replicates", "overflowing-replicates", "overflowing-feature_dim",
             "prior-absent", "prior-null", "prior-not-an-object", "explicit-values-empty",
             "count-past-2**20", "sigma-past-1e6", "work-past-2**40", "work-past-2**40-bounds",
             "work-past-2**40-grid", "grid-past-2**17", "scenarios-past-2**17",
             "zipf-underflow-with-cap", "zipf-underflow", "zipf-underflow-weight",
             "cap-scale-overflow", "p_plus-past-2**-54", "base-p_plus-past-2**-54"],
    )
    def test_run_and_validate_reject_alike(self, tmp_path, capsys, command, doc, err):
        assert _run(tmp_path, capsys, command, doc) == (2, err, 2, err)

    @pytest.mark.parametrize("command", ["weight", "validate"])
    def test_a_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, command):
        config = _write_config(tmp_path, [1, 2])
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "config: must be a JSON object\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, doc", [
        ("tau", {"seed": 1, "n": 100, "l": [2], "prior": {"generator": "uniform", "n_values": 10}}),
        ("weight", _W), ("simulate", _B), ("bounds", _B),
        ("sweep", {"seed": 1, "trials": 10, "scenarios": [_S]}), ("noise-synth", _N),
    ])
    def test_trials_flag_is_checked_on_every_command(self, tmp_path, capsys, command, doc):
        config = _write_config(tmp_path, doc)
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(config), "--out", str(out), "--trials", "-5"]) == 2
        assert capsys.readouterr().err == "trials: must be >= 1, got -5\n"
        assert not out.exists()
        # validate reads the same overrides as a run, and still writes nothing
        checked = _write_config(tmp_path, {"command": command, **doc}, name="checked.json")
        assert main(["validate", "--config", str(checked), "--out", str(out), "--trials", "-5"]) == 2
        assert capsys.readouterr().out == "trials: must be >= 1, got -5\n"
        assert not out.exists()

    def test_trials_flag_past_2_53_exits_2(self, tmp_path, capsys):
        doc = {"seed": 1, "trials": 10, "scenarios": [_S]}
        config = _write_config(tmp_path, doc)
        checked = _write_config(tmp_path, {"command": "sweep", **doc}, name="checked.json")
        out, err = tmp_path / "o.csv", f"trials: must be <= 9007199254740992, got {10**400}\n"
        flag = ["--trials", str(10**400)]
        assert main(["sweep", "--config", str(config), "--out", str(out), *flag]) == 2
        assert capsys.readouterr().err == err
        assert main(["validate", "--config", str(checked), *flag]) == 2
        assert capsys.readouterr().out == err
        assert not out.exists()

    def test_validate_applies_every_override(self, tmp_path, capsys):
        doc = {"command": "tau", "seed": 1, "n": 100, "l": [2],
               "prior": {"generator": "uniform", "n_values": 10}}
        config = _write_config(tmp_path, doc)
        argv = ["validate", "--config", str(config)]
        assert main([*argv, "--trials", "-5", "--seed", "-3", "--workers", "0"]) == 2
        assert capsys.readouterr().out == (
            "seed: must be >= 0, got -3\n"
            "workers: must be >= 1, got 0\n"
            "trials: must be >= 1, got -5\n"
        )
        assert main([*argv, "--seed", "9", "--workers", "2"]) == 0
        assert capsys.readouterr().out == "config valid\n"

    def test_config_for_another_command_exits_2(self, tmp_path, capsys):
        config = _write_config(tmp_path, {**_B, "command": "explode"})
        assert main(["bounds", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "command: config file is for 'explode', invoked as 'bounds'\n"


# Values a mutation sets, fixed before the first run: edges of the fields'
# ranges and values that once made `validate` and a run disagree.  A value
# that finds a disagreement is a defect to mend, never one to drop from here.
_POOL = (1e-17, 1e-310, 1000, 0, -1, 0.5, 2**53 + 1, None, [], 1, 0.05, 190, 2.5, True, "x",
         [0.5, 0.5], {})
# the configs mutated: the file's own, each optional field given at its default
_OPTIONAL = {"p_plus": 0.5, "smoothing_a": 0.1, "n": 10}
_MUTATED = (
    ("weight", {**_W, "prior": {**_W["prior"], "cap": 0.5}}),
    ("simulate", {**_B, "workers": 1, "scenario": {**_S, **_OPTIONAL}}),
    ("bounds", {**_B, "scenario": {**_S, **_OPTIONAL}}),
    ("noise-synth", {**_N, "sigma": 0.1}),
    ("tau", {"seed": 1, "n": 100, "l": [2, 10], "mc_replicates": 20, "weight_replicates": 20,
             "prior": {"generator": "zipf", "n_values": 50, "exponent": 1.1, "cap": 0.05}}),
    ("sweep", {"seed": 1, "trials": 10,
               "grid": {"l": [4, 10], "e": [0.1], "base": {"y": 1, **_OPTIONAL}}}),
)


def _paths(doc, path=()):
    """Every key and index path into a config, objects and lists included."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*path, key))


def test_validate_and_the_run_agree_on_mutated_configs(tmp_path, capsys):
    # 300 seeded mutations, one value each: no exception escapes main, a config
    # `validate` accepts runs, and one it rejects fails the run with its text
    rng = random.Random(23)
    config, checked, out = tmp_path / "config.json", tmp_path / "checked.json", tmp_path / "o.csv"
    for case in range(300):
        command, doc = _MUTATED[case % len(_MUTATED)]
        doc = copy.deepcopy(doc)
        *parents, key = rng.choice(list(_paths(doc)))
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = copy.deepcopy(rng.choice(_POOL))
        config.write_text(json.dumps(doc), encoding="utf-8")
        checked.write_text(json.dumps({"command": command, **doc}), encoding="utf-8")
        try:
            validate_code = main(["validate", "--config", str(checked)])
            said = capsys.readouterr().out
            code = main([command, "--config", str(config), "--out", str(out)])
        except Exception as exc:  # noqa: BLE001 - name the config that raised
            pytest.fail(f"{command} {doc}: {exc!r}")
        err = capsys.readouterr().err
        if validate_code == 0:
            assert code == 0, (command, doc, err)
        else:
            assert (validate_code, code, err) == (2, 2, said), (command, doc)


def test_a_scenario_builds_exactly_when_it_has_no_violations():
    # the parse checks a scenario entry by building it, and asks scenario_violations
    # for messages only when the build raises, so the two must agree on every entry:
    # 3,000 seeded mutations of a full entry, each setting one to three keys (unknown
    # ones among them) to a _POOL value or deleting them, and every _POOL value that
    # is not an object as a whole entry
    rng = random.Random(31)
    full = {**_S, **_OPTIONAL, "p_minus": 0.5}
    keys = (*full, "e", "smoothing")
    entries = [value for value in _POOL if not isinstance(value, dict)]
    for _ in range(3000):
        entry = copy.deepcopy(full)
        for key in rng.sample(keys, rng.randint(1, 3)):
            if rng.random() < 0.2:
                entry.pop(key, None)
            else:
                entry[key] = copy.deepcopy(rng.choice(_POOL))
        entries.append(entry)
    built = 0
    for entry in entries:
        try:
            InstanceScenario(**entry)
        except (TypeError, ValueError):
            assert scenario_violations(entry) != [], entry
        else:
            built += 1
            assert scenario_violations(entry) == [], entry
    # both outcomes are common, so the agreement is tested both ways
    assert 100 < built < len(entries) - 100


def _counted(monkeypatch, owner, name, *more_owners) -> list:
    """Wrap owner.name (and the same function bound in more_owners) to count its calls."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (owner, *more_owners):
        monkeypatch.setattr(module, name, counting)
    return calls


def test_a_sweep_checks_each_scenario_entry_once(tmp_path, capsys, monkeypatch):
    calls = _counted(monkeypatch, mcsim, "scenario_violations", cli)
    doc = {"seed": 1, "trials": 10, "scenarios": [{**_S, "l": 1 + i % 20} for i in range(1000)]}
    assert _main_quietly(["sweep", "--config", str(_write_config(tmp_path, doc)),
                          "--out", str(tmp_path / "o.csv")], capsys) == 0
    assert len(calls) == 1000


@pytest.mark.parametrize("command, doc", [_MUTATED[0], _MUTATED[4]], ids=["weight", "tau"])
def test_a_capped_prior_is_waterfilled_once(tmp_path, capsys, monkeypatch, command, doc):
    calls = _counted(monkeypatch, freqmodel, "_waterfilled")
    assert _main_quietly([command, "--config", str(_write_config(tmp_path, doc)),
                          "--out", str(tmp_path / "o.csv")], capsys) == 0
    assert len(calls) == 1


_README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_config_is_valid():
    blocks = re.findall(r"```json\n(.*?)```", _README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert len(blocks) >= 5
    for block in blocks:
        assert validate_config(json.loads(block)) == [], block


def test_readme_names_the_current_stream_version():
    versions = re.findall(r"This layout is stream\s+version (\d+)", _README.read_text(encoding="utf-8"))
    assert versions == [str(STREAM_VERSION)]


class TestEntryPoint:
    def test_entry_exits_with_main_code(self, tmp_path, monkeypatch):
        path = _write_config(tmp_path, {"command": "bounds", **_bounds_doc()})
        monkeypatch.setattr(sys, "argv", ["noisylab", "validate", "--config", str(path)])
        with pytest.raises(SystemExit) as excinfo:
            entry()
        assert excinfo.value.code == 0
