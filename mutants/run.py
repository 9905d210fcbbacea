"""Mutant gate: small wrong edits of the library's rules that the named tests must catch.

Each row of MUTANTS is one mutant: the file under src/, the exact text it replaces,
the new text, a one-line reason, and the pytest node ids expected to kill it.  For
each row the gate copies src/ to a temporary directory and applies the edit there;
an edit whose old text does not occur exactly once is stale.  It then runs the
named tests with -x against the copy (pytest's pythonpath pointed at it).  A
mutant is killed when those tests fail, and survives when they pass; any other
pytest outcome, such as a node id that no longer exists, is an error.  Before the
mutants, the union of the named tests runs once on an unedited copy, which must
pass, so that no mutant is killed by a test that already fails.

The gate prints one JSON object (each mutant's outcome and seconds, and the
totals) and exits 1 on any survivor, stale row or error.  It is stdlib-only and
not part of the tier-1 suite.  A mutant leaves the list only together with the
code it mutates; an equivalent mutant is not listed.

    python mutants/run.py > mutants.json
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MCSIM, BOUNDS, FREQ = "noisylab/mcsim.py", "noisylab/bounds.py", "noisylab/freqmodel.py"
TREAT, MEMO = "noisylab/treatments.py", "noisylab/memorize.py"
_DRAWS = "tests/test_mcsim.py::TestInversionDraws::"
_CUT = _DRAWS + "test_the_lookup_is_the_scalar_walk_at_every_cut"
_GUIDES = _DRAWS + "test_every_guide_size_is_the_scalar_walk_at_bin_edges_and_cuts"
_JOIN = "tests/test_mcsim.py::TestBlocks::test_the_blocks_join_into_the_chunk_s_draws"
_TOTAL = "tests/test_mcsim.py::TestBoundReport::test_the_wrong_label_total_is_exact_at_every_count"
_REPORT = "tests/test_mcsim.py::TestBoundReport::"
_OMITS = _REPORT + "test_a_report_omits_exactly_the_forms_its_table_domain_excludes"
_NOISELESS = _REPORT + "test_noiseless_scenario_degenerates"
_ANCHOR = _REPORT + "test_symmetric_anchor_values"
_SHARED = "tests/test_mcsim.py::TestSharedDraw::test_symmetric_scenario_gives_the_threshold_treatments_one_tally"
_TABLES = "tests/test_mcsim.py::TestOutcomeTables::"
_EQUAL_ERRORS = _TABLES + "test_unequal_rates_tie_on_equal_errors_as_the_comparator_does"
_WORKERS = "tests/test_mcsim.py::TestDeterminism::test_worker_count_never_changes_the_tally"
_SCHEDULE = "tests/test_mcsim.py::TestSchedule::"
_PEER_CHECKS = "tests/test_treatments.py::TestPeerExpectedLoss::test_input_validation"
_BOOLS = "tests/test_memorize.py::TestEmpiricalDistribution::test_bool_labels_rejected_as_a_scalar_label_is"
_VACUOUS = "tests/test_cli.py::TestQuietRuns::test_single_appearance_writes_a_vacuous_small_l_row"
_BOUNDS = "tests/test_bounds.py::"
_REGIME = "tests/test_freqmodel.py::TestPriorSpec::test_regime_flag_thresholds"
_MC_CI = "tests/test_freqmodel.py::TestMcEstimateInterval::test_the_normal_interval_is_clipped_to_the_unit_interval"
_ONE_L = "tests/test_freqmodel.py::TestTauLowerBounds::test_every_function_of_one_l_takes_one_integer_up_to_n"
_PROBE = "tests/test_imports.py::test_every_scalar_argument_rejects_bools_nan_infinities_and_fractions"
_TAU_CEILINGS = "tests/test_cli.py::TestValidateConfig::test_tau_ceilings_admit_their_edges"
_PAST_CEILING = "tests/test_cli.py::TestValidateCommand::test_a_tau_config_past_its_memory_ceiling_exits_2"

# (file under src/, old text, new text, reason, killing node ids)
MUTANTS = [
    (MCSIM, "    guide[bins] = -1\n", "",
     "the guide's cut marks dropped: words in a cut's bin all take the count below it",
     [_GUIDES, _CUT]),
    (MCSIM, "np.minimum(np.bincount(bins, minlength=g + 1).cumsum(), top)",
     "np.bincount(bins, minlength=g + 1).cumsum()",
     "the guide's cap dropped: bins past a last cut below 1 - 1/g count len(px)",
     [_GUIDES + "[cuts-end-at-0.7]"]),
    (MCSIM, '* 2.0**-53, "right")', '* 2.0**-53, "left")',
     "a word exactly on a cut no longer counts it",
     [_GUIDES, _CUT]),
    (MCSIM, "shift = 65 - g.bit_length()", "shift = 66 - g.bit_length()",
     "the bin shift off by one: each word reads a bin of a guide half as fine",
     [_GUIDES, _CUT]),
    (MCSIM, "x[rest] = np.minimum(cuts.searchsorted((words[rest] >> 11)",
     "x[rest] = np.minimum(cuts.searchsorted((words[rest] >> 12)",
     "the double off by one bit: a marked word's uniform is halved",
     [_GUIDES, _CUT]),
    (MCSIM, "(l - invert(words(n)) if e_y > 0.5 else invert(words(n)) for n in sizes)",
     "(invert(words(n)) for n in sizes)",
     "the flip dropped: e_y > 1/2 draws the correct-label count",
     [_JOIN, _DRAWS + "test_every_chunk_equals_generator_binomial"]),
    (MCSIM, "sizes = [min(_BLOCK, count - start) for start in range(0, count, _BLOCK)]",
     "sizes = [min(_BLOCK - 1, count - start) for start in range(0, count, _BLOCK - 1)]",
     "blocks of _BLOCK - 1 counts",
     [_JOIN]),
    (MCSIM, "np.array([0, 0, 0, chunk], np.uint64)", "np.array([chunk, 0, 0, 0], np.uint64)",
     "the re-keyed counter in the wrong word: chunks share overlapping ranges",
     [_JOIN]),
    (MCSIM, '"buffer_pos": 4', '"buffer_pos": 3',
     "a re-keyed Philox first returns a stale buffered word",
     [_JOIN]),
    (MCSIM, "rng = np.random.Generator(_rekeyed(bits, key, chunk))",
     "rng = np.random.Generator(bits)",
     "BTPE without re-keying: a BTPE chunk draws from the thread's last stream",
     [_JOIN]),
    (MCSIM, "total += (int((wrong >> 32).sum()) << 32)", "total += (int((wrong >> 32).sum()) << 31)",
     "the 32-bit halves' shift: high halves of a total weigh half",
     [_TOTAL]),
    (MCSIM, "for start in range(0, l.size, _EDGE_BLOCK)])",
     "for start in reversed(range(0, l.size, _EDGE_BLOCK))])",
     "blocked edges joined in reverse: scenarios past the first block take another's edges",
     ["tests/test_mcsim.py::TestCuts::test_the_edges_do_not_depend_on_the_scenario_block",
      "tests/test_mcsim.py::TestCuts::test_every_table_runs_in_blocks_with_the_bisected_edges"]),
    (FREQ, "if n_values == 1:", "if n_values == 0:",
     "the one-value check disabled: a point-mass prior's moments take -inf - -inf",
     ["tests/test_cli.py::TestQuietRuns::test_a_one_value_prior_writes_the_point_mass"]),
    # freqmodel.PriorSpec.regime_ok: the tau bounds' four regime thresholds
    (FREQ, "n >= _REGIME_MIN_N", "n > _REGIME_MIN_N",
     "n = 1000 falls out of the regime",
     [_REGIME]),
    (FREQ, "self.n_values >= _REGIME_MIN_VALUES", "self.n_values > _REGIME_MIN_VALUES",
     "a prior of 100 values falls out of the regime",
     [_REGIME]),
    (FREQ, "and l <= n / 10", "and l < n / 10",
     "l = n / 10 falls out of the regime",
     [_REGIME]),
    (FREQ, "<= _REGIME_PI_MAX + _PI_MAX_TOL", "<= _REGIME_PI_MAX",
     "a largest value an ulp past 1/20, as a built prior may round, falls out of the regime",
     [_REGIME]),
    # freqmodel: a tau config's two memory ceilings, and the functions of one l
    (FREQ, "if isinstance(ls, list) and len(ls) > _MAX_LS:",
     "if isinstance(ls, list) and len(ls) > _MAX_LS + 1:",
     "one l value past the count ceiling is admitted",
     [_TAU_CEILINGS]),
    (FREQ, "len(ls) * (mc + weight) > _MAX_L_REPLICATES", "len(ls) * mc > _MAX_L_REPLICATES",
     "the pair ceiling counts Monte-Carlo replicates only",
     [_TAU_CEILINGS]),
    (FREQ, 'doc.get("weight_replicates", _WEIGHT_REPLICATES)', 'doc.get("weight_replicates", 0)',
     "an absent weight_replicates counts as 0 pairs, not its default 10**4",
     [_TAU_CEILINGS]),
    (FREQ, '_POINT = {"n": replace(_TAU_FIELDS["n"], lo=1), "l": _COUNT,',
     '_POINT = {"n": replace(_TAU_FIELDS["n"], lo=1),',
     "tau_exact and tau_monte_carlo check no l: a list reaches numpy",
     [_ONE_L, _PROBE]),
    (FREQ, '_WINDOW = {"n": _TAU_FIELDS["n"], "l": _COUNT,', '_WINDOW = {"n": _TAU_FIELDS["n"], "l": Spec(),',
     "tau_lower_large and large_interval take any number as l",
     [_ONE_L]),
    (FREQ, "lambda l, n: l <= n,", "lambda l, n: l <= n + 1,",
     "the functions of one l take l = n + 1",
     [_ONE_L]),
    (FREQ, "masses[j, start : start + k] = selected / totals[:k]",
     "masses[j, start : start + k] = selected",
     "a window's captured mass is not divided by its realization's total, so it reads the prior's scale",
     ["tests/test_relations.py::test_a_scaled_prior_writes_the_same_weight_cells"]),
    # freqmodel._TAU_FORMS: each form's smallest asserted l
    (FREQ, "lambda n, l: 0.4 * (l * (l - 1.0)) / (n * (n - 1.0)), 1),",
     "lambda n, l: 0.4 * (l * (l - 1.0)) / (n * (n - 1.0)), 2),",
     "the large-l bound's row at l = 1 no longer asserted",
     [_VACUOUS]),
    (FREQ, "lambda n, l: 0.4 * ((l - 1.0) / (n - 1.0)) * (1.1 ** -l), 2),",
     "lambda n, l: 0.4 * ((l - 1.0) / (n - 1.0)) * (1.1 ** -l), 1),",
     "the small-l bound asserted at l = 1, where it is vacuous",
     [_VACUOUS]),
    # bounds._FORMS: each form's e_y domain
    (BOUNDS, "(lambda e: (0.0 < e) & (e <= 0.5), (1, 0, 0, 0)",
     "(lambda e: (0.0 <= e) & (e <= 0.5), (1, 0, 0, 0)",
     "Hoeffding given at e_y = 0, where every loss-correction trial ties",
     [_NOISELESS, _OMITS]),
    (BOUNDS, "(lambda e: (0.0 < e) & (e <= 0.5), (1, 0, 0, 0)",
     "(lambda e: (0.0 < e) & (e < 0.5), (1, 0, 0, 0)",
     "Hoeffding omitted at e_y = 1/2, where it is vacuously 0",
     [_OMITS]),
    (BOUNDS, "(_open_unit, (1, 1, 0, 0),", "(lambda e: (0.0 <= e) & (e < 1.0), (1, 1, 0, 0),",
     "the loss-correction failure floor given at e_y = 0, outside its function's domain",
     [_OMITS, _NOISELESS]),
    (BOUNDS, "(lambda e: (0.0 <= e) & (e < 1.0), (0, 0, 0, 1),",
     "(lambda e: (0.0 < e) & (e < 1.0), (0, 0, 0, 1),",
     "the peer success bound omitted at e_y = 0",
     [_NOISELESS, _OMITS]),
    (BOUNDS, "(_open_unit, (1, 1, 1, 0),", "(lambda e: (0.0 <= e) & (e < 1.0), (1, 1, 1, 0),",
     "the peer failure floor given at e_y = 0, outside its function's domain",
     [_OMITS, _NOISELESS]),
    # bounds: the public functions' argument tables and the Hoeffding kernel
    (BOUNDS, "lambda k, l: k <= l,", "lambda k, l: k <= l + 1,",
     "binom_tail takes the threshold k = l + 1, past every count",
     [_BOUNDS + "TestBinomTail::test_out_of_range_threshold_rejected"]),
    (BOUNDS, '"e": Spec(lo=0.0, hi=0.5)', '"e": Spec(lo=0.0, hi=1.0)',
     "lc_success_lower takes e past 1/2, where its margin 1/2 - e is negative",
     [_BOUNDS + "TestSuccessLowerBound::test_rate_validation"]),
    (BOUNDS, '"l": Spec("integer", lo=0), "p_opposite"', '"l": _COUNT, "p_opposite"',
     "peer_success_lower rejects l = 0, where it is vacuously 0",
     [_BOUNDS + "TestPeerBounds::test_zero_draws_is_vacuous"]),
    (BOUNDS, "-math.expm1(-2.0 * l * margin ** 2)", "-math.expm1(-1.0 * l * margin ** 2)",
     "Hoeffding's exponent loses its factor 2, in both success bounds",
     [_BOUNDS + "TestSuccessLowerBound::test_anchor_values",
      _BOUNDS + "TestPeerBounds::test_success_anchor"]),
    # mcsim._codes: each tie rule
    (MCSIM, "tied = (err_lc == err_ls) | ((e_plus == e_minus) & (np.abs(p_true - 0.5) <= _TIE_EPS))",
     "tied = (e_plus == e_minus) & (np.abs(p_true - 0.5) <= _TIE_EPS)",
     "label smoothing no longer ties on equal errors",
     ["tests/test_mcsim.py::TestCuts::test_the_edges_past_2_to_the_52_are_pinned", _EQUAL_ERRORS]),
    (MCSIM, "tied = (err_lc == err_ls) | ((e_plus == e_minus) & (np.abs(p_true - 0.5) <= _TIE_EPS))",
     "tied = err_lc == err_ls",
     "label smoothing no longer ties within _TIE_EPS of an even split under equal rates",
     [_TABLES + "test_equal_rates_tie_near_an_even_split_as_the_comparator_does"]),
    (MCSIM, "np.where(margins > _TIE_EPS, _SUCCESS,", "np.where(margins > 0.0, _SUCCESS,",
     "a margin in the tie band's upper half succeeds",
     [_TABLES + "test_peer_table_agrees_with_peer_predict_on_every_split"]),
    (MCSIM, "np.where(margins < -_TIE_EPS, _FAILURE, _TIE)", "np.where(margins < 0.0, _FAILURE, _TIE)",
     "a margin in the tie band's lower half fails",
     [_TABLES + "test_peer_table_agrees_with_peer_predict_on_every_split"]),
    (MCSIM, "p_true - e_other / np.where(noise > 0.0, noise, 1.0), 0.0)",
     "p_true - e_other / np.where(noise > 0.0, noise, 1.0), p_true - 0.5)",
     "loss correction with both rates zero follows the majority instead of tying",
     [_TABLES + "test_noiseless_correction_always_ties"]),
    # mcsim._EVENTS: each event's range of blocks
    (MCSIM, '"strict_success", True, (0, 1), BoundKind.HOEFFDING_SUCCESS',
     '"strict_success", True, (0, 2), BoundKind.HOEFFDING_SUCCESS',
     "loss correction's strict success counts its ties",
     [_SHARED, _ANCHOR]),
    (MCSIM, '"tie_inclusive_failure", False, (1, 3), BoundKind.BINOMIAL_FAILURE_LOWER',
     '"tie_inclusive_failure", False, (2, 3), BoundKind.BINOMIAL_FAILURE_LOWER',
     "loss correction's tie-inclusive failure drops its ties",
     [_ANCHOR]),
    (MCSIM, '"ls_better_or_tie", True, (1, 3)', '"ls_better_or_tie", True, (2, 3)',
     "label smoothing's better-or-tie drops its ties",
     [_ANCHOR]),
    (MCSIM, '"strict_success", True, (0, 1), BoundKind.PEER_SUCCESS',
     '"strict_success", True, (0, 2), BoundKind.PEER_SUCCESS',
     "peer loss's strict success counts its ties",
     [_SHARED, _ANCHOR]),
    (MCSIM, '"tie_inclusive_failure", False, (1, 3), BoundKind.PEER_FAILURE_LOWER',
     '"tie_inclusive_failure", False, (2, 3), BoundKind.PEER_FAILURE_LOWER',
     "peer loss's tie-inclusive failure drops its ties",
     [_ANCHOR]),
    (BOUNDS, "exact >= bound.value - _ORDER_SLACK", "exact >= bound.value + _ORDER_SLACK",
     "the ordering slack's sign flipped: a bound met with equality fails",
     [_REPORT + "test_tiny_equal_rates_keep_the_correction_bound"]),
    (BOUNDS, "_Z_95 = 1.959963984540054", "_Z_95 = 1.96",
     "the 95% normal quantile rounded to 1.96",
     ["tests/test_mcsim.py::TestWilsonInterval::test_equals_the_formula_on_python_floats", _MC_CI]),
    (MCSIM, "args = (s.l, s.e_y, s.p_minus if s.y == 1 else s.p_plus, s.e_plus, s.e_minus)",
     "args = (s.l, s.e_y, s.p_minus, s.e_plus, s.e_minus)",
     "the peer success bound reads p_minus as p_opposite whatever the true label",
     ["tests/test_relations.py::test_mirrored_labels_write_the_same_checks"]),
    (MCSIM, "np.where(upper, e_y, 1.0 - e_y))", "np.where(upper, e_y, e_y))",
     "a lower tail reads e_y, not 1 - e_y: strict success takes the majority-wrong mass, which falls with l",
     ["tests/test_relations.py::test_more_appearances_never_lower_the_majority_rules_success"]),
    # mcsim._cut_counts: the thread split's bounds
    (MCSIM, "mine = inverted + max(0, ((inverted + 5 * btpe) // threads - inverted) // 5)",
     "mine = inverted + ((inverted + 5 * btpe) // threads - inverted) // 5",
     "the caller's share may fall below its inverted jobs, which then reach helpers",
     [_SCHEDULE + "test_inverted_and_zero_rate_chunks_stay_on_the_calling_thread"]),
    (MCSIM, "rest = range(mine, inverted + btpe)", "rest = range(mine + 1, inverted + btpe)",
     "the helpers' jobs start one past the caller's last: a job is never drawn",
     [_WORKERS]),
    (MCSIM, "(t + 1) * len(rest) // (threads - 1)]", "(t + 1) * len(rest) // (threads - 1) + 1]",
     "each helper's range ends one past its share: the next helper's first job is drawn twice",
     [_WORKERS]),
    (MCSIM, "btpe + (inverted > 0))", "btpe)",
     "the thread count ignores the caller's inverted jobs: one BTPE job starts no helper",
     ["tests/test_mcsim.py::TestDeterminism::test_tallies_reassemble_from_their_chunks",
      _SCHEDULE + "test_btpe_chunks_of_a_mixed_batch_reach_helpers_with_the_serial_counts"]),
    # the treatments' argument rules, each stated once
    (TREAT, "if joint.shape[1:] != (2,) or", "if joint.ndim != 2 or",
     "peer_expected_loss takes tables of any width",
     [_PEER_CHECKS]),
    (TREAT, '    raise_first(field_violations({"q_min": q_min}, _ARGUMENTS))\n    joint',
     "    joint",
     "peer_expected_loss no longer checks q_min",
     [_PEER_CHECKS]),
    (TREAT, '    if np.any(joint.sum(axis=1) <= 0.0):\n'
     '        raise ValueError("every feature must carry positive probability")\n', "",
     "peer_expected_loss takes a feature without mass, and returns NaN",
     [_PEER_CHECKS]),
    (TREAT, '    if np.any(py <= 0.0):\n'
     '        raise ValueError("every label must carry positive probability")\n', "",
     "peer_expected_loss takes a label without mass, and returns a NaN value",
     [_PEER_CHECKS]),
    (TREAT, "    if err_lc == err_ls:\n        return Comparison.TIE\n", "",
     "compare_ls_lc no longer ties on equal errors at unequal rates",
     [_EQUAL_ERRORS]),
    (TREAT, '{"a": _OPEN_UNIT}', "_ARGUMENTS",
     "compare_ls_lc takes a in smoothed_label's closed [0, 1]",
     ["tests/test_treatments.py::TestCompareLsLc::test_parameter_validation"]),
    (MEMO, "if not all(map(math.isfinite, arr.tolist())):",
     "if not all(map(math.isfinite, arr.tolist()[:1])):",
     "the finite-pair check reads only the first entry",
     ["tests/test_treatments.py::TestLcLossVector::test_input_validation",
      "tests/test_memorize.py"]),
    (MEMO, "isinstance(v, (bool, np.bool_))", "isinstance(v, np.bool_)",
     "bool label arrays and lists count True as +1",
     [_BOOLS]),
    (MEMO, "for v in np.asarray(labels, dtype=object).flat", "for v in raw",
     "the bool check reads numpy's conversion, where a list mixing bools and numbers has none",
     [_BOOLS]),
    (MEMO, "isinstance(v, (bool, np.bool_))", "isinstance(v, bool)",
     "a numpy bool mixed into a label list counts as +1",
     [_BOOLS]),
    (FREQ, "return max(0.0, self.value - half), min(1.0, self.value + half)",
     "return self.value - half, self.value + half",
     "a tau or weight interval leaves [0, 1]: McEstimate.ci drops its clip",
     [_MC_CI, "tests/test_cli.py::TestTauCommand::test_every_interval_lies_in_the_unit_interval_around_its_estimate"]),
    (FREQ, "elif n * cap <= total * (1.0 + _FILL_TOL):", "elif total - n * cap >= -1e-15:",
     "the all-at-cap test back on an absolute 1e-15 slack",
     ["tests/test_freqmodel.py::TestCapped::test_a_cap_an_ulp_past_the_total_pins_every_entry"]),
]


def _copy(tmp: Path) -> Path:
    """src/ copied under tmp, without bytecode; its path."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, tests: list[str]) -> int:
    """pytest's exit code for `tests`, run with -x against the package under src."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _run(path: str, old: str, new: str, tests: list[str]) -> str:
    """One mutant's outcome: killed, survived, stale or error."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(Path(tmp))
        text = (src / path).read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale"
        (src / path).write_text(text.replace(old, new), encoding="utf-8")
        code = _pytest(src, tests)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    start = time.perf_counter()
    baseline = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        if _pytest(_copy(Path(tmp)), baseline) != 0:
            print(json.dumps({"error": "the named tests fail on the unedited source",
                              "tests": baseline}, indent=2))
            return 1
    results = []
    for path, old, new, reason, tests in MUTANTS:
        began = time.perf_counter()
        outcome = _run(path, old, new, tests)
        results.append({"file": path, "reason": reason, "outcome": outcome,
                        "seconds": round(time.perf_counter() - began, 2)})
        print(f"{outcome:8} {results[-1]['seconds']:6.2f} s  {reason}", file=sys.stderr)
    totals = {outcome: sum(r["outcome"] == outcome for r in results)
              for outcome in ("killed", "survived", "stale", "error")}
    print(json.dumps({"mutants": results, **totals,
                      "seconds": round(time.perf_counter() - start, 2)}, indent=2))
    return 0 if totals["killed"] == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
