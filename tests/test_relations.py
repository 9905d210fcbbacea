"""Metamorphic relations: two runs whose inputs are related must write related cells.

A relation needs no anchor value, so it can cover many random scenarios
cheaply (Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 51(1), 2018).  Every seed here was
fixed before any result was seen.

- Label mirror: y -> -y, e_plus <-> e_minus and p_plus <-> p_minus describe
  the same instance with its labels renamed, so a sweep writes the same
  exact, bound, regime_ok and ordering_holds cells for both.
- Prior scale: a realization normalizes its draws, so an explicit prior times
  c writes the same weight cells.  It should write the same tau cells too, but
  exact and regime_ok read the values as given, a known defect, so that half
  is a strict xfail.

Batch independence is another relation, tested where its code lives: a
scenario's rows are the same alone, in a sweep, repeated and at any worker
count (tests/test_mcsim.py: TestDeterminism, TestSweep), and a tau row is the
same alone or with other l and under any chunking (tests/test_freqmodel.py).
"""
import csv
import json
import struct

import numpy as np
import pytest

from noisylab import BoundKind, InstanceScenario, sweep
from noisylab.cli import main


def _ulps(a: float, b: float) -> int:
    """The number of doubles from a to b, counting one end: 0 when they are equal."""
    ordered = []
    for x in (a, b):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        ordered.append(bits if bits >= 0 else -(bits + 2**63))  # negatives count down from -0.0
    return abs(ordered[0] - ordered[1])


def _mirror_scenarios(count: int, seed: int) -> list[InstanceScenario]:
    """Random scenarios by kind: equal rates, rates in [0, 1/2), one rate zero, and rates
    of any sum below 1 (so e_y may pass 1/2); p_plus is 1/2 in a third of them."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            e_plus = e_minus = rng.uniform(0.0, 0.5)
        elif kind == 1:
            e_plus, e_minus = rng.uniform(0.0, 0.5, 2)
        elif kind == 2:
            e_plus, e_minus = rng.permutation([0.0, rng.uniform(0.0, 0.5)])
        else:
            e_plus = rng.uniform(0.0, 1.0)
            e_minus = rng.uniform(0.0, 1.0 - e_plus)
        p_plus = 0.5 if i % 3 == 0 else rng.uniform(0.05, 0.95)
        scenarios.append(InstanceScenario(int(rng.integers(1, 301)), int(rng.choice([1, -1])),
                                          float(e_plus), float(e_minus), float(p_plus),
                                          smoothing_a=float(rng.uniform(0.05, 0.95))))
    return scenarios


def _mirrored(s: InstanceScenario) -> InstanceScenario:
    return InstanceScenario(s.l, -s.y, s.e_minus, s.e_plus, s.p_minus, s.p_plus, s.smoothing_a, s.n)


def test_mirrored_labels_write_the_same_checks():
    scenarios = _mirror_scenarios(400, seed=18)
    reports = sweep(scenarios, trials=1, seed=1)
    mirrors = sweep([_mirrored(s) for s in scenarios], trials=1, seed=1)
    compared = 0
    for report, mirror in zip(reports, mirrors):
        for check, other in zip(report.checks, mirror.checks):
            where = (report.scenario, check.event, check.treatment)
            assert (check.treatment, check.event) == (other.treatment, other.event)
            assert check.exact == other.exact and check.ordering_holds == other.ordering_holds, where
            assert (check.bound is None) == (other.bound is None), where
            if check.bound is None:
                continue
            assert check.bound.kind is other.bound.kind, where
            assert check.bound.regime_ok == other.bound.regime_ok, where
            # peer_success's margin p_opposite (1 - e_plus - e_minus) subtracts the rates in
            # the scenario's order, which the mirror swaps.  Each order lies within 2**-53 of
            # 1 - e_plus - e_minus, so the two differ by up to 2**-52 / gap relative, and the
            # bound 1 - exp(-2 l (p_opposite gap)**2) at most doubles a relative change in its
            # gap: up to 4 / gap ulps apart, which is 1 ulp only while the gap is large.  Every
            # other form reads (l, e_y, p_opposite) alone.
            gap = 1.0 - report.scenario.e_plus - report.scenario.e_minus
            budget = max(1.0, 4.0 / gap) if check.bound.kind is BoundKind.PEER_SUCCESS else 0
            assert _ulps(check.bound.value, other.bound.value) <= budget, where
            compared += 1
    assert compared > 1000


# An explicit prior of 200 values in [0.5, 1) and the runs that read it.  Scaling the
# values by c moves each realization's share D = p / sum(p) by a few rounding errors, which
# the Monte-Carlo tau's log moments carry into its cells: they moved by at most 2 ulps.
# The budget allows 16, far below the factor 1/c that a cell reading the raw scale moves by.
_VALUES = np.random.default_rng(2018).uniform(0.5, 1.0, 200)
_SCALE_ULPS = 16
_SCALED_RUNS = {
    "tau": {"seed": 1, "n": 1000, "l": [2, 3, 10], "mc_replicates": 2000, "weight_replicates": 2000},
    "weight": {"seed": 1, "interval": [0.004, 0.006], "replicates": 2000},
}


def _rows(tmp_path, command: str, values) -> list[list[str]]:
    doc = {**_SCALED_RUNS[command], "prior": {"generator": "explicit", "values": values}}
    config, out = tmp_path / f"{command}.json", tmp_path / f"{command}.csv"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _assert_same_cells(rows, scaled) -> None:
    assert len(rows) == len(scaled)
    for row, other in zip(rows, scaled):
        for cell, scaled_cell in zip(row, other):
            try:
                value, scaled_value = float(cell), float(scaled_cell)
            except ValueError:  # empty, a bool or a form's name
                assert cell == scaled_cell, (row, other)
            else:
                assert _ulps(value, scaled_value) <= _SCALE_ULPS, (row, other)


@pytest.mark.parametrize("c", [1e-3, 0.5])
def test_a_scaled_prior_writes_the_same_weight_cells(tmp_path, c):
    _assert_same_cells(_rows(tmp_path, "weight", _VALUES.tolist()),
                       _rows(tmp_path, "weight", (c * _VALUES).tolist()))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="exact and regime_ok read the prior's raw scale")
@pytest.mark.parametrize("c", [1e-3, 0.5])
def test_a_scaled_prior_writes_the_same_tau_cells(tmp_path, c):
    _assert_same_cells(_rows(tmp_path, "tau", _VALUES.tolist()),
                       _rows(tmp_path, "tau", (c * _VALUES).tolist()))
