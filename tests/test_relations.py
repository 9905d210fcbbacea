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
- Appearance count: at equal rates e < 1/2 and p_plus 1/2, loss correction and
  peer loss follow the majority of the l labels, so their exact strict success
  is P[Bin(l, e) < l / 2], nondecreasing over odd l (Condorcet's jury theorem):
  an instance seen more often is helped more often.

Batch independence is another relation, tested where its code lives:
- a scenario's rows are the same rerun, alone, in a sweep, repeated and at any
  worker count: tests/test_mcsim.py, TestDeterminism's
  test_rerun_is_bit_identical, test_worker_count_never_changes_the_tally,
  test_trial_streams_are_batching_invariant and
  test_tallies_reassemble_from_their_chunks, and TestSweep's
  test_reports_are_schedule_invariant and
  test_preserves_input_order_and_substream_isolation;
- a sweep's CSV is the same at any worker count: tests/test_cli.py,
  TestSweepCommand::test_grid_runs_are_byte_identical_across_workers;
- a tau row is the same alone or with other l and under any chunking:
  tests/test_freqmodel.py, TestSharedRealizations's
  test_each_l_is_the_same_alone_or_in_a_list and
  test_results_do_not_depend_on_the_chunking.
"""
import csv
import json
import struct

import numpy as np
import pytest

from noisylab import BoundKind, InstanceScenario, Treatment, sweep
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


# The appearance-count relation's rates: both ends of [0, 1/2) and seeded draws.
_JURY_RATES = (0.0, 0.01, 0.1, 0.25, 0.4, 0.49, 0.4999,
               *np.random.default_rng(1837).uniform(0.0, 0.5, 13).tolist())
_ODD_LS = range(1, 402, 2)


def test_more_appearances_never_lower_the_majority_rules_success():
    scenarios = [InstanceScenario(l, y, e, e, 0.5) for e in _JURY_RATES for y in (1, -1)
                 for l in _ODD_LS]
    exact = {}
    for report in sweep(scenarios, trials=1, seed=1):
        for check in report.checks:
            if check.event == "strict_success":
                key = (report.scenario.e_plus, report.scenario.y, check.treatment)
                exact.setdefault(key, []).append(check.exact)
    assert {treatment for *_, treatment in exact} == {Treatment.LOSS_CORRECTION, Treatment.PEER_LOSS}
    assert len(exact) == 4 * len(_JURY_RATES)
    for key, cells in exact.items():
        assert len(cells) == len(_ODD_LS)
        assert all(a <= b for a, b in zip(cells, cells[1:])), key


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
