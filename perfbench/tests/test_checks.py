import contextlib
import csv
import io
import json

import pytest

from checks import check_output
from workloads import WORKLOADS, make_config


def _run(tmp_path, workload, seed=5, **overrides):
    from noisylab import cli

    config = {**make_config(workload, seed, "tiny"), **overrides}
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / f"{workload}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([config["command"], "--config", str(path), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8"), config


def _edit(text, row_index, column, value):
    rows = list(csv.reader(io.StringIO(text)))
    rows[row_index + 1][rows[0].index(column)] = value
    return "".join(",".join(r) + "\n" for r in rows)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_real_outputs_pass(tmp_path, workload):
    text, config = _run(tmp_path, workload)
    assert check_output(text, config) == []


def test_perturbed_mc_estimate_is_rejected(tmp_path):
    grid = {"l": [4, 9], "e": [0.2, 0.4], "base": {"y": 1}}
    text, config = _run(tmp_path, "sweep_small_l", trials=20000, grid=grid)
    assert check_output(text, config) == []
    rows = list(csv.DictReader(io.StringIO(text)))
    i = next(i for i, r in enumerate(rows) if 0.1 < float(r["exact"]) < 0.9)
    bad = _edit(text, i, "mc_estimate", repr(float(rows[i]["mc_estimate"]) + 0.03))
    problems = check_output(bad, config)
    assert len(problems) == 1 and "mc_estimate" in problems[0]


def test_degenerate_rows_must_match_exactly(tmp_path):
    text, config = _run(tmp_path, "sweep_small_l")
    rows = list(csv.DictReader(io.StringIO(text)))
    i = next(i for i, r in enumerate(rows) if float(r["exact"]) == 0.0)
    assert check_output(_edit(text, i, "mc_estimate", "0.0005"), config)


def test_wrong_exact_and_false_ordering_are_rejected(tmp_path):
    text, config = _run(tmp_path, "sweep_large_l")
    rows = list(csv.DictReader(io.StringIO(text)))
    i = next(i for i, r in enumerate(rows) if r["treatment"] == "peer_loss" and float(r["exact"]) > 0)
    moved = repr(float(rows[i]["exact"]) * (1 - 1e-6))
    assert any("binomial tail" in p for p in check_output(_edit(text, i, "exact", moved), config))
    j = next(j for j, r in enumerate(rows) if r["ordering_holds"] == "true")
    assert any("ordering" in p for p in check_output(_edit(text, j, "ordering_holds", "false"), config))
    assert check_output(text.rsplit("\n", 2)[0] + "\n", config)


def test_tau_rejects_non_finite_values(tmp_path):
    text, config = _run(tmp_path, "tau_zipf")
    assert check_output(_edit(text, 1, "mc_estimate", "nan"), config)
    assert check_output(_edit(text, 0, "ordering_holds", "false"), config)


def test_noise_synth_rejects_a_wrong_rate_or_count(tmp_path):
    text, config = _run(tmp_path, "noise_synth")
    rows = list(csv.DictReader(io.StringIO(text)))
    i = next(i for i, r in enumerate(rows) if float(r["rate"]) > 0.0)
    bad = _edit(text, i, "rate", repr(float(rows[i]["rate"]) * (1 + 1e-12)))
    problems = check_output(bad, config)
    assert len(problems) == 1 and problems[0].startswith(f"row {i + 1}: rate ")
    assert check_output(_edit(text, 3, "q", "1.5"), config)
    config["count"] += 1
    assert check_output(text, config)
