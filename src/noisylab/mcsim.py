"""Seeded Monte-Carlo engine for per-treatment success/failure/tie rates.

Every outcome counted here depends on a trial's l noisy labels only through
its wrong-label count, which is Binomial(l, e_y) under every treatment.  Each
trial draws that count directly (numpy's BTPE binomial sampler), once; the
draws reduce to one wrong-count histogram per scenario, and every event is
that histogram summed over the wrong counts its outcome table names.  A
treatment's outcome table is its reference comparator (treatments.py) run
on every split 0..l at once, one margin per split, tied within the
comparators' one tolerance _TIE_EPS.

Determinism contract: results are a pure function of (scenario, trials,
seed), shared by the four treatments and independent of worker count.
Trials are cut into fixed chunks of _CHUNK_TRIALS; chunk c draws its counts
from its own Philox counter range, starting at counter [0, 0, 0, c] under a
key derived from (seed, scenario fields).  A chunk's counts are therefore a
pure function of (key, chunk index), whichever worker draws them.  A sweep
lists every (scenario, chunk) job of its batch, once per distinct key; up to
`workers` threads, at most one per CPU, run the jobs, and the calling thread
alone merges the span each returns.  STREAM_VERSION names this mapping from
seeds to rows and changes whenever the same seed would draw different
numbers or classify them differently.
"""
from __future__ import annotations

import enum
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from ._spec import _COUNT, Spec, field_violations, raise_first, unknown_fields
from .bounds import (
    BoundKind,
    BoundValue,
    binom_tail,
    lc_failure_lower,
    lc_success_lower,
    peer_failure_lower,
    peer_success_lower,
)
from .noise import _LABEL, _RATE_FIELDS, _RATE_RULES
from .treatments import _TIE_EPS

__all__ = [
    "STREAM_VERSION",
    "Treatment",
    "InstanceScenario",
    "TrialTally",
    "BoundCheck",
    "BoundReport",
    "run_trials",
    "bound_report",
    "sweep",
]

# 1: l uniforms per trial, trial i reading ceil(l/4) Philox blocks;
# 2: one binomial wrong-label count per trial, in fixed-size chunks;
# 3: freqmodel's tau moments and weight windows share one realization batch;
# 4: exact columns are regularized incomplete beta tails (draws unchanged);
# 5: one draw per trial shared by all four treatments, keyed by (seed, scenario);
# 6: every outcome table is its comparator's margin, tied within _TIE_EPS (draws unchanged)
# 7: equal rates read the loss-correction margin's scale-free tie rule (draws unchanged)
STREAM_VERSION = 7
_Z_95 = 1.959963984540054  # two-sided 95% normal quantile
_CHUNK_TRIALS = 1 << 16  # trials per chunk; each chunk owns one Philox counter range
_FAILURE, _SUCCESS, _TIE = 0, 1, 2


class Treatment(enum.Enum):
    MEMORIZE = "memorize"
    LOSS_CORRECTION = "loss_correction"
    LABEL_SMOOTHING = "label_smoothing"
    PEER_LOSS = "peer_loss"


_RUN_FIELDS = {"trials": _COUNT, "seed": Spec("integer", lo=0), "workers": _COUNT}
_OPEN_UNIT = Spec(lo=0.0, hi=1.0, lo_open=True, hi_open=True, required=False)
# InstanceScenario's fields in dataclass order, which is also the order of
# their checks and of the scenario columns of the CSV.
_SCENARIO_FIELDS = {
    "l": _COUNT,
    **_LABEL,
    **_RATE_FIELDS,
    "p_plus": _OPEN_UNIT,
    "p_minus": replace(_OPEN_UNIT, nullable=True),
    "smoothing_a": _OPEN_UNIT,
    "n": replace(_COUNT, required=False, nullable=True),
}
_SCENARIO_RULES = {
    **_RATE_RULES,
    "p_minus": ("p_plus", ("p_plus", "p_minus"), lambda a, b: abs(a + b - 1.0) <= 1e-9,
                lambda a, b: f"p_plus + p_minus must equal 1, got {a + b}"),
    "n": ("n", ("n", "l"), lambda n, l: n >= l, lambda n, l: f"must be >= l, got n={n}, l={l}"),
}


@dataclass(frozen=True)
class InstanceScenario:
    """One instance's simulation setting.

    l noisy labels are drawn for a true label y under class-dependent rates
    (e_plus, e_minus); (p_plus, p_minus) are the global clean priors the
    peer decision references; smoothing_a parameterizes label smoothing.
    n is carried for reporting only and never affects trial draws.  The
    fields obey _SCENARIO_FIELDS and _SCENARIO_RULES; the first violation
    is raised as ValueError.
    """

    l: int
    y: int
    e_plus: float
    e_minus: float
    p_plus: float = 0.5
    p_minus: float | None = None
    smoothing_a: float = 0.1
    n: int | None = None

    def __post_init__(self) -> None:
        raise_first(scenario_violations(vars(self)))
        p_minus = 1.0 - self.p_plus if self.p_minus is None else self.p_minus
        object.__setattr__(self, "p_minus", float(p_minus))

    @property
    def e_y(self) -> float:
        """Flip rate applied to the true label."""
        return self.e_plus if self.y == 1 else self.e_minus

    @property
    def noisy_positive_rate(self) -> float:
        """Population rate of observing +1: p_plus (1 - e_plus) + p_minus e_minus."""
        return self.p_plus * (1.0 - self.e_plus) + self.p_minus * self.e_minus


_SCENARIO_DEFAULTS = {
    f.name: f.default for f in fields(InstanceScenario) if f.default is not MISSING
}


def scenario_violations(doc, path: str = "") -> list[str]:
    """One message per broken scenario rule, for a mapping of scenario fields.

    Absent fields take InstanceScenario's defaults, so the prior-sum rule
    reads p_plus = 0.5 when only p_minus is given; a None p_minus or n means
    "not given", as it does in the dataclass; a key outside _SCENARIO_FIELDS is
    an unknown field, and a value that is not a mapping must be an object.
    The CLI and the dataclass both check scenarios here.
    """
    if not isinstance(doc, dict):
        return [f"{path}: must be an object"]
    return (field_violations({**_SCENARIO_DEFAULTS, **doc}, _SCENARIO_FIELDS, _SCENARIO_RULES, path)
            + unknown_fields(doc, _SCENARIO_FIELDS, path))


@dataclass(frozen=True)
class TrialTally:
    """Success/failure/tie counts for one (scenario, treatment) run."""

    trials: int
    success: int
    failure: int
    tie: int

    def __post_init__(self) -> None:
        if self.success + self.failure + self.tie != self.trials:
            raise ValueError("success + failure + tie must equal trials")


def _wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not 0 <= successes <= total:
        raise ValueError(f"successes must lie in [0, total], got {successes}/{total}")
    p = successes / total
    z2 = _Z_95 * _Z_95
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = _Z_95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    # the exact endpoints bracket p; min/max only absorb last-ulp rounding
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _stream_key(seed: int, scenario: InstanceScenario) -> np.ndarray:
    """Philox key for one (seed, scenario) substream, shared by every treatment.

    All scenario fields that influence trial draws enter the entropy, so
    distinct settings get independent streams while repeated runs (and the
    same scenario inside a sweep) reproduce bit-identically.
    """
    entropy = (
        int(seed),
        int(scenario.l),
        0 if scenario.y == -1 else 1,
        _float_bits(scenario.e_plus),
        _float_bits(scenario.e_minus),
        _float_bits(scenario.p_plus),
        _float_bits(scenario.smoothing_a),
    )
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def _chunk_counts(key: np.ndarray, l: int, e_y: float, chunk: int, count: int) -> np.ndarray:
    """Chunk `chunk`'s first `count` wrong-label counts: a pure function of (key, chunk)."""
    rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, chunk]))
    return rng.binomial(l, e_y, size=count)


def _margin_codes(margin: np.ndarray) -> np.ndarray:
    """Outcome codes of a margin: success above _TIE_EPS, failure below -_TIE_EPS, else a tie."""
    return np.where(margin > _TIE_EPS, _SUCCESS,
                    np.where(margin < -_TIE_EPS, _FAILURE, _TIE)).astype(np.int8)


def _outcome_tables(scenario: InstanceScenario) -> dict[Treatment, np.ndarray]:
    """Per-wrong-count outcome codes of every treatment, each its comparator's rule.

    A trial's decision is a function of its wrong-label count alone.  Each
    table evaluates its reference comparator's rule on all l + 1 splits at
    once, and each margin ties within _TIE_EPS.  memorize: p_true - 1/2.
    loss_correction: corrected_label's uncapped raw mass on y minus P[y],
    (e_plus + e_minus) / gap times P[y] - e_other / (e_plus + e_minus) with
    e_other the other label's rate; the table reads this scale-free factor,
    so tiny rates keep their decided splits (equal rates give memorize's
    margin exactly), and both rates zero tie every split.  peer_loss:
    peer_predict's margin, local +1 mass minus the global noisy positive
    rate, signed by y.  label_smoothing: compare_ls_lc's float operations,
    LS_BETTER = success, with its two tie rules (the even split under equal
    rates, equal error values).  Every table is block-monotone in
    wrong-count order: successes, ties, failures; label_smoothing's runs
    the other way (smoothing gains as labels flip).
    """
    l, y, e_plus, e_minus, a = (
        scenario.l, scenario.y, scenario.e_plus, scenario.e_minus, scenario.smoothing_a
    )
    p_true = (l - np.arange(l + 1)) / l
    p_plus, p_minus = (p_true, 1.0 - p_true) if y == 1 else (1.0 - p_true, p_true)
    gap = 1.0 - e_plus - e_minus
    raw_plus = ((1.0 - e_minus) * p_plus - e_minus * p_minus) / gap
    raw_true = raw_plus if y == 1 else ((1.0 - e_plus) * p_minus - e_plus * p_plus) / gap
    capped_true = np.where(
        raw_plus > 1.0, float(y == 1), np.where(raw_plus < 0.0, float(y == -1), raw_true)
    )
    err_lc = 1.0 - capped_true
    err_ls = 1.0 - ((1.0 - a) * p_true + a / 2)
    smoothing = np.where(err_lc < err_ls, _FAILURE, _SUCCESS).astype(np.int8)
    smoothing[err_lc == err_ls] = _TIE
    noise, e_other = e_plus + e_minus, (e_minus if y == 1 else e_plus)
    correction = p_true - e_other / noise if noise > 0.0 else np.zeros(l + 1)
    if e_plus == e_minus:
        smoothing[np.abs(p_true - 0.5) <= _TIE_EPS] = _TIE
    return {
        Treatment.MEMORIZE: _margin_codes(p_true - 0.5),
        Treatment.LOSS_CORRECTION: _margin_codes(correction),
        Treatment.LABEL_SMOOTHING: smoothing,
        Treatment.PEER_LOSS: _margin_codes((p_plus - scenario.noisy_positive_rate) * y),
    }


def _merge(hist: tuple[int, np.ndarray], lo: int, counts: np.ndarray) -> tuple[int, np.ndarray]:
    """hist, a (lo, counts) span of wrong counts, widened to cover another span and added to."""
    base, total = hist
    start, stop = min(base, lo), max(base + total.size, lo + counts.size)
    if stop - start > total.size:
        total = np.concatenate((np.zeros(base - start, np.int64), total,
                                np.zeros(stop - base - total.size, np.int64)))
    total[lo - start:lo - start + counts.size] += counts
    return start, total


def _histograms(scenarios, trials: int, seed: int, workers: int) -> list[tuple[int, np.ndarray]]:
    """Each scenario's wrong-count histogram as a span (lo, counts): counts[i] trials
    drew lo + i wrong labels, and none drew a count outside the span.

    Each (distinct key, chunk) job of the batch returns its chunk's bincount as a
    span; up to `workers` threads, at most one per CPU, run the jobs, and only the
    calling thread merges, in job order.  Repeated scenarios share one key and draw.
    """
    raise_first(field_violations({"trials": trials, "seed": seed, "workers": workers}, _RUN_FIELDS))
    keys = [_stream_key(seed, s) for s in scenarios]
    distinct = {key.tobytes(): (key, s) for key, s in zip(keys, scenarios)}
    jobs = [(k, c) for k in distinct for c in range(-(-trials // _CHUNK_TRIALS))]

    def job(task: tuple[bytes, int]) -> tuple[int, np.ndarray]:
        k, chunk = task
        (key, s), count = distinct[k], min(_CHUNK_TRIALS, trials - chunk * _CHUNK_TRIALS)
        wrong = _chunk_counts(key, s.l, s.e_y, chunk, count)
        lo = int(wrong.min())
        wrong -= lo
        return lo, np.bincount(wrong)

    spans = dict.fromkeys(distinct)
    threads = min(workers, len(jobs), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for (k, _), (lo, counts) in zip(jobs, (pool.map if pool else map)(job, jobs)):
            spans[k] = (lo, counts) if spans[k] is None else _merge(spans[k], lo, counts)
    return [spans[key.tobytes()] for key in keys]


def run_trials(scenario: InstanceScenario, treatment: Treatment, trials: int, seed: int,
               workers: int = 1) -> TrialTally:
    """Simulate `trials` independent l-label draws and count one treatment's outcomes.

    Each count is the wrong-count histogram summed where the treatment's
    outcome table holds that outcome.  The tally is bit-reproducible for
    fixed (scenario, trials, seed), identical for every worker count, and
    read from the same draws as bound_report and every other treatment.
    """
    treatment = Treatment(treatment)
    lo, counts = _histograms([scenario], trials, seed, workers)[0]
    table = _outcome_tables(scenario)[treatment][lo:lo + counts.size]
    return TrialTally(trials, *(int(counts[table == c].sum()) for c in (_SUCCESS, _FAILURE, _TIE)))


@dataclass(frozen=True)
class BoundCheck:
    """One event's three routes side by side: MC, exact binomial, closed form.

    mc_estimate (95% Wilson interval ci) is the share of trials whose wrong
    count lies in the event's range and exact that range's Binomial(l, e_y)
    mass; for memorize, the pooled per-label error and e_y.  bound is the
    closed form, None where omitted (out of domain, or vacuous at e_y = 0);
    ordering_holds is exact >= bound, None unless bound.regime_ok.
    """

    treatment: Treatment
    event: str
    headline: bool
    mc_estimate: float
    ci: tuple[float, float]
    exact: float
    bound: BoundValue | None = None
    ordering_holds: bool | None = None


@dataclass(frozen=True)
class BoundReport:
    """All bound-vs-oracle-vs-MC checks for one scenario, in _EVENTS order."""

    scenario: InstanceScenario
    checks: tuple[BoundCheck, ...]


def _event_tail(s: InstanceScenario, table: np.ndarray, codes: tuple[int, ...]) -> tuple[int, int]:
    """The wrong counts lo..hi whose table entry is one of codes; (0, -1) when none is.

    Every table is block-monotone in wrong-count order (see _outcome_tables),
    so each event's range is a tail of 0..l: it starts at 0 or ends at l.
    """
    wrong = np.flatnonzero(np.isin(table, codes))
    if wrong.size == 0:
        return 0, -1
    lo, hi = int(wrong[0]), int(wrong[-1])
    if hi - lo + 1 != wrong.size or (lo > 0 and hi < s.l):
        raise RuntimeError(f"event set {wrong.tolist()} is not a tail of 0..{s.l}")
    return lo, hi


def _tail_mass(s: InstanceScenario, lo: int, hi: int) -> float:
    """Binomial(l, e_y) mass of the wrong counts lo..hi, a tail of 0..l:
    P[correct >= l - hi] from 0, P[wrong >= lo] up to l; empty 0, full 1."""
    if hi < lo:
        return 0.0
    if lo == 0:
        return 1.0 if hi == s.l else binom_tail(s.l, 1.0 - s.e_y, s.l - hi)
    return binom_tail(s.l, s.e_y, lo)


def _rates_equal(s: InstanceScenario) -> bool:
    """The loss-correction margin's tie rule at the even split, scale-free: both zero are equal."""
    return abs(s.e_plus - s.e_minus) <= 2.0 * _TIE_EPS * (s.e_plus + s.e_minus)


def _peer_symmetric(s: InstanceScenario) -> bool:
    return abs(s.p_plus - 0.5) <= 1e-12 and _rates_equal(s)


# Closed forms: (kind, value) for a scenario, or None where the form is
# omitted (outside its domain, or vacuous when e_y = 0).
def _hoeffding_form(s: InstanceScenario):
    if not 0.0 < s.e_y <= 0.5:
        return None
    return BoundKind.HOEFFDING_SUCCESS, lc_success_lower(s.l, s.e_y)


def _kl_floor_form(s: InstanceScenario):
    if s.e_y == 0.0:
        return None
    return BoundKind.BINOMIAL_FAILURE_LOWER, lc_failure_lower(s.l, s.e_y)


def _peer_success_form(s: InstanceScenario):
    p_opposite = s.p_minus if s.y == 1 else s.p_plus
    return BoundKind.PEER_SUCCESS, peer_success_lower(s.l, p_opposite, s.e_plus, s.e_minus)


def _peer_floor_form(s: InstanceScenario):
    if s.e_y == 0.0:
        return None
    return BoundKind.PEER_FAILURE_LOWER, peer_failure_lower(s.l, s.e_y)


@dataclass(frozen=True)
class _Event:
    """One bound_report check.

    codes are the outcome codes of the treatment's table that make up the
    event; () is memorize's pooled per-label error.  bound, when not None,
    gives the closed form, and regime whether its ordering is asserted.
    """

    treatment: Treatment
    event: str
    headline: bool
    codes: tuple[int, ...]
    bound: Callable[[InstanceScenario], tuple | None] | None = None
    regime: Callable[[InstanceScenario], bool] | None = None


def _even_and(predicate):
    return lambda s: s.l % 2 == 0 and predicate(s)


# The checks in report order.  The loss-correction and smoothing bounds are
# stated for equal rates, failure floors for even l (where the tie carries
# the mass the l/sqrt term needs), the peer floor for the symmetric regime;
# the peer success bound holds in every regime.
_EVENTS = (
    _Event(Treatment.MEMORIZE, "mean_label_error", True, ()),
    _Event(Treatment.LOSS_CORRECTION, "strict_success", True, (_SUCCESS,),
           _hoeffding_form, _rates_equal),
    _Event(Treatment.LOSS_CORRECTION, "tie_inclusive_failure", False, (_FAILURE, _TIE),
           _kl_floor_form, _even_and(_rates_equal)),
    _Event(Treatment.LABEL_SMOOTHING, "ls_better_or_tie", True, (_SUCCESS, _TIE),
           _kl_floor_form, _even_and(_rates_equal)),
    _Event(Treatment.PEER_LOSS, "strict_success", True, (_SUCCESS,),
           _peer_success_form, lambda s: True),
    _Event(Treatment.PEER_LOSS, "tie_inclusive_failure", False, (_FAILURE, _TIE),
           _peer_floor_form, _even_and(_peer_symmetric)),
)


def bound_report(scenario: InstanceScenario, trials: int, seed: int,
                 workers: int = 1) -> BoundReport:
    """One check per _EVENTS entry, every one read from one shared wrong-count histogram.

    The one-scenario sweep.  Each event's wrong-count range (lo, hi) is found
    once, from its treatment's outcome table; the Monte-Carlo count is the
    histogram summed over that range, and exact is the Binomial(l, e_y) mass
    of the same range.  Memorize's check is the pooled per-label error
    against e_y.  Headline checks (one per treatment) are what sweep rows
    export; the bounds command also exports the failure-side checks.  A
    closed form outside its regime is computed with regime_ok=False and never
    asserted; ordering_holds is exact >= bound (to 1e-12) where the regime
    holds, else None.  When e_y = 0 every draw keeps the true label and the
    corrected label coincides with the empirical one on the only reachable
    split, so every loss-correction trial ties (strict success has
    probability 0, tie-inclusive failure 1) and both closed forms are omitted.
    """
    return sweep([scenario], trials, seed, workers)[0]


def _report(scenario: InstanceScenario, base: int, counts: np.ndarray, trials: int) -> BoundReport:
    """bound_report's checks, from the scenario's histogram span (base, counts); see _histograms."""
    tables = _outcome_tables(scenario)
    checks = []
    for event in _EVENTS:
        if event.codes:
            lo, hi = _event_tail(scenario, tables[event.treatment], event.codes)
            hits, total = int(counts[max(lo - base, 0):max(hi + 1 - base, 0)].sum()), trials
            exact = _tail_mass(scenario, lo, hi)
        else:
            hits, total = int(counts @ np.arange(base, base + counts.size)), trials * scenario.l
            exact = scenario.e_y
        form = event.bound(scenario) if event.bound is not None else None
        bound = None if form is None else BoundValue(*form, regime_ok=event.regime(scenario))
        holds = None if bound is None or not bound.regime_ok else bool(exact >= bound.value - 1e-12)
        checks.append(BoundCheck(event.treatment, event.event, event.headline, hits / total,
                                 _wilson_interval(hits, total), exact, bound, holds))
    return BoundReport(scenario=scenario, checks=tuple(checks))


def sweep(scenarios, trials: int, seed: int, workers: int = 1) -> list[BoundReport]:
    """bound_report for each scenario, in input order, from one draw schedule.

    Every (scenario, chunk) of the batch is one job for the `workers`
    threads.  Substreams are keyed by (seed, scenario fields), so the same
    scenario produces the same rows whether simulated alone or inside any
    sweep, at any worker count, and identical scenarios repeated in one
    sweep share one draw and repeat their rows.  Within a scenario the four
    treatments' rows come from the same trials.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("sweep needs at least one scenario")
    hists = _histograms(scenarios, trials, seed, workers)
    return [_report(s, *hist, trials) for s, hist in zip(scenarios, hists)]
