"""Seeded Monte-Carlo engine for per-treatment success/failure/tie rates.

Every outcome counted here depends on a trial's l noisy labels only through
its wrong-label count, Binomial(l, e_y) under every treatment, so each trial
draws that count directly, once.  Each treatment's rule (_codes, its
comparator in treatments.py) runs in blocks as the count grows: a leading
block, ties, a trailing block.  Two cuts per treatment, bisected over the
rule before any draw, fix every outcome, so the draws reduce to each
scenario's trials below each cut, and every event is the trials below one
cut less those below another.  The memorize check reads one more number,
the exact wrong-label total.

Determinism contract: results are a pure function of (scenario, trials,
seed), shared by the four treatments and independent of worker count.
Trials are cut into fixed chunks of _CHUNK_TRIALS; chunk c draws its counts
from its own Philox counter range [0, 0, 0, c] under a key derived from
(seed, scenario fields), so they are a pure function of (key, chunk),
whichever worker draws them.  A sweep runs every (scenario, chunk) job
of its batch on up to `workers` threads, at most one per CPU, and the
calling thread alone adds the counts they return, in job order.
With p = min(e_y, 1 - e_y), a chunk whose inversion table starts at a normal
double, l * -log1p(-p) <= 700, looks one uniform per count up in numpy's
inversion table for (l, p): Generator.binomial(l, e_y)'s integers where numpy
inverts (p l <= 30), its inversion walk where numpy runs BTPE.  Past that,
Generator.binomial (BTPE, which takes a varying number of uniforms per draw)
draws the chunk.  STREAM_VERSION
names this mapping from seeds to rows and changes whenever the same seed
would draw different numbers or classify them differently.
"""
from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, fields, replace
from itertools import islice

import numpy as np

from ._spec import _COUNT, Spec, field_violations, raise_first, unknown_fields
from .bounds import (
    BoundKind,
    BoundValue,
    _special,
    lc_failure_lower,
    lc_success_lower,
    peer_failure_lower,
    peer_success_lower,
)
from .noise import _LABEL, _RATE_FIELDS, _RATE_RULES
from .treatments import _TIE_EPS

STREAM_VERSION = 10  # the README's Determinism section says what each version changed
_Z_95 = 1.959963984540054  # two-sided 95% normal quantile
_CHUNK_TRIALS = 1 << 16  # trials per chunk; each chunk owns one Philox counter range
_GUIDE = 256  # guide bins of an inversion lookup, a power of 2
_CUT_SLACK = 1e-12  # far above the walk's rounding: under 965 steps, 2 * 965 * 2**-53 = 2.1e-13
_SUCCESS, _TIE, _FAILURE = 0, 1, 2
# A batch holds about 4.5 KiB per scenario until the write, so 2**17 scenarios stay under 1 GiB;
# a draw takes 40-96 ns with numpy's BTPE (one thread, 2-vCPU VM), so 2**40 take about a day.
_MAX_SCENARIOS, _MAX_DRAWS = 2**17, 2**40


class Treatment(enum.Enum):
    MEMORIZE = "memorize"
    LOSS_CORRECTION = "loss_correction"
    LABEL_SMOOTHING = "label_smoothing"
    PEER_LOSS = "peer_loss"


# trials: counts are int64, and the Wilson interval divides them as floats
_RUN_FIELDS = {"trials": replace(_COUNT, hi=2**53), "seed": Spec("integer", lo=0), "workers": _COUNT}
_OPEN_UNIT = Spec(lo=0.0, hi=1.0, lo_open=True, hi_open=True, required=False)
# InstanceScenario's fields in dataclass order, which is also the order of
# their checks and of the scenario columns of the CSV.
_SCENARIO_FIELDS = {
    "l": replace(_COUNT, hi=2**53),  # so that p_true = (l - w) / l is exact
    **_LABEL,
    **_RATE_FIELDS,
    "p_plus": _OPEN_UNIT,
    "p_minus": replace(_OPEN_UNIT, nullable=True),
    "smoothing_a": _OPEN_UNIT,
    "n": replace(_COUNT, required=False, nullable=True),
}
_SCENARIO_RULES = {
    **_RATE_RULES,
    # p_minus defaults to 1 - p_plus, which rounds to 1 at p_plus <= 2**-54
    "p_plus": ("p_plus", ("p_plus",), lambda p: 1.0 - p < 1.0,
               lambda p: f"must be > 2**-54, so that 1 - p_plus < 1, got {p}"),
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


_SCENARIO_DEFAULTS = {f.name: f.default for f in fields(InstanceScenario)
                      if f.default is not MISSING}


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


def _wilson_interval(share, total) -> tuple[np.ndarray, np.ndarray]:
    """95% Wilson score intervals (lo, hi) for binomial proportions, elementwise.

    share is each count over its total, rounded once (an int / int division
    where counts pass 2**53), and total each total as a float, which the
    formula reads as Python's float / int does.
    """
    share, total = np.asarray(share, float), np.asarray(total, float)
    if (bad := total[~(total >= 1.0)]).size:
        raise ValueError(f"total must be >= 1, got {bad[0]}")
    if (bad := share[~((share >= 0.0) & (share <= 1.0))]).size:
        raise ValueError(f"share must lie in [0, 1], got {bad[0]}")
    z2 = _Z_95 * _Z_95
    denom = 1.0 + z2 / total
    center = (share + z2 / (2.0 * total)) / denom
    half = _Z_95 * np.sqrt(share * (1.0 - share) / total + z2 / (4.0 * total * total)) / denom
    # the exact endpoints bracket the share; min/max only absorb last-ulp rounding
    return (np.maximum(0.0, np.minimum(center - half, share)),
            np.minimum(1.0, np.maximum(center + half, share)))


def batch_violations(count: int, trials, path: str = "scenarios") -> list[str]:
    """At most _MAX_SCENARIOS scenarios, then (once trials fits its field) _MAX_DRAWS draws."""
    if count > _MAX_SCENARIOS:
        return [f"{path}: scenario count must be <= {_MAX_SCENARIOS}, got {count}"]
    if _RUN_FIELDS["trials"].violation(trials) is None and count * trials > _MAX_DRAWS:
        return [f"trials: scenarios x trials must be <= {_MAX_DRAWS}, got {count} x {trials}"]
    return []


def _stream_key(seed: int, scenario: InstanceScenario) -> np.ndarray:
    """Philox key for one (seed, scenario) substream, shared by every treatment.

    All scenario fields that influence trial draws enter the entropy, so
    distinct settings get independent streams while repeated runs (and the
    same scenario inside a sweep) reproduce bit-identically.
    """
    floats = (scenario.e_plus, scenario.e_minus, scenario.p_plus, scenario.smoothing_a)
    entropy = (int(seed), int(scenario.l), 0 if scenario.y == -1 else 1,
               *(int(np.float64(x).view(np.uint64)) for x in floats))
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def _inversion_table(n: int, p: float) -> list[float]:
    """numpy's random_binomial_inversion probabilities px_0..px_bound, by its own operations."""
    q = 1.0 - p
    px = [math.exp(n * math.log1p(-p))]
    for x in range(1, int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1))) + 1):
        px.append((n - x + 1) * p * px[-1] / (x * q))
    return px


def _walk(u: float, px: list[float]) -> int | None:
    """numpy's scalar inversion loop from one uniform; None past bound, where numpy draws again."""
    x = 0
    while u > px[x]:
        u, x = u - px[x], x + 1
        if x == len(px):
            return None
    return x


def _inverse(px: list[float], u: np.ndarray) -> np.ndarray | None:
    """_walk over an array of uniforms u, None if any walk passes bound: the count of
    cuts cumsum(px) - _CUT_SLACK below u.  A guide table gives the count below u's
    1/_GUIDE bin, two passes step it on, searchsorted places the few left, and a u
    within _CUT_SLACK of a cut, or past the last, takes _walk itself."""
    cuts = np.cumsum(px)
    lo = np.append(cuts - _CUT_SLACK, np.inf)
    hi = np.concatenate(([-np.inf], cuts + _CUT_SLACK))  # hi[x]: cut x - 1, raised
    x = lo.searchsorted(np.arange(_GUIDE) / _GUIDE)[(u * _GUIDE).astype(np.intp)]
    x += u > lo[x]
    x += u > lo[x]
    rest = np.flatnonzero(u > lo[x])
    x[rest] = lo.searchsorted(u[rest])
    for i in np.flatnonzero((u <= hi[x]) | (x == len(px))):
        if (walked := _walk(u[i], px)) is None:
            return None
        x[i] = walked
    return x


def _chunk_counts(key: np.ndarray, l: int, e_y: float, chunk: int, count: int) -> np.ndarray:
    """Chunk `chunk`'s first `count` wrong-label counts: a pure function of (key, chunk).
    Inside the regime (the table's first term exp(l log1p(-p)) normal, so p l <= 700 and
    at most ~965 entries) its uniforms invert in one call.  Past it, or if a walk passes
    the table's bound, where an inversion draws again, Generator.binomial draws it."""
    def generator():
        return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, chunk]))
    p, flip = min(e_y, 1.0 - e_y), e_y > 0.5
    if p == 0.0:
        return np.zeros(count, np.int64)
    if l * -math.log1p(-p) <= 700.0:
        wrong = _inverse(_inversion_table(l, p), generator().random(count))
        if wrong is not None:
            return l - wrong if flip else wrong
    return generator().binomial(l, e_y, size=count)


def _params(scenarios) -> tuple[np.ndarray, ...]:
    """The fields _codes reads, each a (k, 1) column over k scenarios: l, y, e_plus,
    e_minus, smoothing_a and the noisy positive rate."""
    rows = [(s.l, s.y, s.e_plus, s.e_minus, s.smoothing_a, s.noisy_positive_rate)
            for s in scenarios]
    return tuple(np.array(column)[:, None] for column in zip(*rows))


def _codes(params: tuple[np.ndarray, ...], w: np.ndarray) -> np.ndarray:
    """Every treatment's outcome code at wrong counts w (broadcast against (k, 1)), shape
    (4, k, m) in Treatment order: its comparator's rule at l - w correct labels.

    Each rule repeats its comparator's float operations, and each margin ties
    within _TIE_EPS.  memorize: p_true - 1/2.  loss_correction: corrected_label's
    raw gain on y is (e_plus + e_minus) / gap times P[y] - e_other / (e_plus +
    e_minus), e_other the other label's rate; the rule reads this scale-free
    factor, so tiny rates keep their decisions, and both rates zero tie.
    peer_loss: peer_predict's margin, signed by y.  label_smoothing:
    compare_ls_lc, LS_BETTER = success, with both its tie rules.
    """
    l, y, e_plus, e_minus, a, rate = params
    positive = y == 1
    p_true = (l - w) / l
    p_plus = np.where(positive, p_true, 1.0 - p_true)
    p_minus = np.where(positive, 1.0 - p_true, p_true)
    gap = 1.0 - e_plus - e_minus
    raw_plus = ((1.0 - e_minus) * p_plus - e_minus * p_minus) / gap
    raw_true = np.where(positive, raw_plus, ((1.0 - e_plus) * p_minus - e_plus * p_plus) / gap)
    capped_true = np.where(raw_plus > 1.0, positive, np.where(raw_plus < 0.0, ~positive, raw_true))
    err_lc = 1.0 - capped_true
    err_ls = 1.0 - ((1.0 - a) * p_true + a / 2)
    tied = (err_lc == err_ls) | ((e_plus == e_minus) & (np.abs(p_true - 0.5) <= _TIE_EPS))
    smoothing = np.where(tied, _TIE, np.where(err_lc < err_ls, _FAILURE, _SUCCESS))
    noise, e_other = e_plus + e_minus, np.where(positive, e_minus, e_plus)
    correction = np.where(noise > 0.0, p_true - e_other / np.where(noise > 0.0, noise, 1.0), 0.0)
    margins = np.stack([p_true - 0.5, correction, (p_plus - rate) * y])
    codes = np.where(margins > _TIE_EPS, _SUCCESS, np.where(margins < -_TIE_EPS, _FAILURE, _TIE))
    return np.stack([codes[0], codes[1], smoothing, codes[2]])


# Each treatment's leading code.  Every rule runs in blocks as the wrong count
# grows, of rank |code - lead| 0, 1 (ties) and 2; label smoothing leads with
# failures, since it gains as labels flip.
_TREATMENTS = tuple(Treatment)
_LEADS = np.array([_SUCCESS, _SUCCESS, _FAILURE, _SUCCESS])
# The bisection's eight searches per scenario: treatment t's cut j is column 2t + j.
_SEARCH_TREATMENT, _SEARCH_CUT = np.repeat(np.arange(4), 2), np.tile([0, 1], 4)


def _edges(params: tuple[np.ndarray, ...]) -> np.ndarray:
    """Every treatment's block edges for k scenarios, shape (k, 4, 4): 0, two cuts, l + 1;
    the wrong counts of rank r lie in edges r..edges r+1 - 1.

    Cut j is the first wrong count in 0..l + 1 whose code ranks past j.  One
    bisection finds all 8k cuts, each step one _codes call at every midpoint.
    """
    l = params[0]
    lo, hi = np.zeros((l.size, 8), np.int64), np.repeat(l + 1, 8, axis=1)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        codes = _codes(params, mid)[_SEARCH_TREATMENT, :, np.arange(8)].T
        past = np.abs(codes - _LEADS[_SEARCH_TREATMENT]) > _SEARCH_CUT
        hi = np.where(past, mid, hi)
        lo = np.where(past, lo, np.minimum(mid + 1, hi))  # a finished search stays put
    ends = np.broadcast_to(l[:, :, None], (l.size, 4, 1))
    return np.concatenate((np.zeros_like(ends), lo.reshape(-1, 4, 2), ends + 1), axis=2)


def _cut_counts(scenarios, trials: int, seed: int,
                workers: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The batch's block edges (see _edges) and each scenario's trials whose wrong count
    lies below each edge, both (k, 4, 4), and each scenario's exact wrong-label total.

    Each (scenario, chunk) job of the batch counts its chunk below the scenario's
    distinct edges and sums its wrong labels; up to `workers` threads, at most one
    per CPU, run the jobs, taken from a generator two per thread at a time, and
    only the calling thread adds their counts, as Python ints, in job order.
    A repeated scenario draws again, from the same stream.
    """
    raise_first(field_violations({"trials": trials, "seed": seed, "workers": workers}, _RUN_FIELDS)
                + batch_violations(len(scenarios), trials))
    edges = _edges(_params(scenarios))
    cuts = [np.unique(e) for e in edges]
    keys = [_stream_key(seed, s) for s in scenarios]
    chunks = -(-trials // _CHUNK_TRIALS)
    jobs = ((i, c) for i in range(len(scenarios)) for c in range(chunks))

    def job(task: tuple[int, int]) -> tuple[int, list[int], int]:
        i, chunk = task
        s, count = scenarios[i], min(_CHUNK_TRIALS, trials - chunk * _CHUNK_TRIALS)
        wrong = _chunk_counts(keys[i], s.l, s.e_y, chunk, count)
        # cuts run from 0 to l + 1: no count lies below the first, every count below the last
        below = [0, *(int(np.count_nonzero(wrong < c)) for c in cuts[i][1:-1]), count]
        # the high and low 32-bit halves each sum below 2**48 over a chunk, so both are exact
        return i, below, (int((wrong >> 32).sum()) << 32) + int((wrong & 0xFFFFFFFF).sum())

    below = [[0] * c.size for c in cuts]
    total = [0] * len(scenarios)
    threads = min(workers, len(scenarios) * chunks, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        while batch := list(islice(jobs, 2 * threads)):
            for i, counts, wrong in (pool.map if pool else map)(job, batch):
                below[i] = [a + b for a, b in zip(below[i], counts)]
                total[i] += wrong
    return edges, np.array([np.array(b)[c.searchsorted(e)]
                            for e, b, c in zip(edges, below, cuts)]), total


def run_trials(scenario: InstanceScenario, treatment: Treatment, trials: int, seed: int,
               workers: int = 1) -> TrialTally:
    """Simulate `trials` independent l-label draws and count one treatment's outcomes.

    Each count is the trials below one of the treatment's block edges less
    those below the edge before it.  The tally is bit-reproducible for fixed
    (scenario, trials, seed), identical for every worker count, and read from
    the same draws as bound_report and every other treatment.
    """
    t = _TREATMENTS.index(Treatment(treatment))
    below = _cut_counts([scenario], trials, seed, workers)[1][0]
    ranks = np.abs(np.array([_SUCCESS, _FAILURE, _TIE]) - _LEADS[t])
    return TrialTally(trials, *(int(below[t, r + 1] - below[t, r]) for r in ranks))


@dataclass(frozen=True)
class BoundCheck:
    """One event's three routes side by side: MC, exact binomial, closed form.

    mc_estimate (95% Wilson interval ci) is the share of trials whose wrong
    count lies in the event's range and exact that range's Binomial(l, e_y)
    mass; for memorize, the pooled per-label error and e_y.  bound is the
    closed form, None where omitted (out of domain, or vacuous at e_y = 0);
    ordering_holds is exact >= bound - 1e-12, None unless bound.regime_ok.
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


# The checks in report order, one row each: treatment, event, headline, the
# event's wrong counts as a pair (start, stop) of its treatment's edges, edges
# start..stop - 1 (see _edges), the closed form, and the regime its ordering
# needs, as flags (equal rates, even l, p_plus = 1/2, a peer margin above
# _TIE_EPS).  Memorize's check comes first and has no range: it is the pooled
# per-label error against e_y.  A range is the treatment's leading block
# (0, 1) or every count past it (1, 3); smoothing leads with failures, so its
# better-or-tie lies past them.  The loss-correction and smoothing bounds are
# stated for equal rates, failure floors for even l (where the tie carries the
# mass the l/sqrt term needs), the peer floor for the symmetric regime.  The
# peer success bound holds wherever its margin lies above the band in which
# the engine ties every margin.
_EVENTS = (
    (Treatment.MEMORIZE, "mean_label_error", True, None, None, (0, 0, 0, 0)),
    (Treatment.LOSS_CORRECTION, "strict_success", True, (0, 1),
     BoundKind.HOEFFDING_SUCCESS, (1, 0, 0, 0)),
    (Treatment.LOSS_CORRECTION, "tie_inclusive_failure", False, (1, 3),
     BoundKind.BINOMIAL_FAILURE_LOWER, (1, 1, 0, 0)),
    (Treatment.LABEL_SMOOTHING, "ls_better_or_tie", True, (1, 3),
     BoundKind.BINOMIAL_FAILURE_LOWER, (1, 1, 0, 0)),
    (Treatment.PEER_LOSS, "strict_success", True, (0, 1),
     BoundKind.PEER_SUCCESS, (0, 0, 0, 1)),
    (Treatment.PEER_LOSS, "tie_inclusive_failure", False, (1, 3),
     BoundKind.PEER_FAILURE_LOWER, (1, 1, 1, 0)),
)
# The table's columns as arrays over its six events, memorize's range empty.
_EVENT_TREATMENT = np.array([_TREATMENTS.index(event[0]) for event in _EVENTS])
_EVENT_START, _EVENT_STOP = np.array([event[3] or (0, 0) for event in _EVENTS]).T
_EVENT_NEEDS = np.array([event[5] for event in _EVENTS], bool)


def bound_report(scenario: InstanceScenario, trials: int, seed: int,
                 workers: int = 1) -> BoundReport:
    """One check per _EVENTS row, every one read from one shared set of draws.

    The one-scenario sweep.  The Monte-Carlo count of an event is the trials
    whose wrong count lies in its range, and exact the Binomial(l, e_y) mass
    there; memorize's count is the exact wrong-label total over trials * l.
    Headline checks (one per treatment) are what sweep rows export.  A closed
    form outside its regime is computed with regime_ok=False and never
    asserted.  When e_y = 0 every loss-correction trial ties, and both its
    closed forms are omitted.
    """
    return sweep([scenario], trials, seed, workers)[0]


def _reports(scenarios, edges, below, wrong, trials: int) -> list[BoundReport]:
    """bound_report for k scenarios from their _cut_counts: each _EVENTS column is
    a (k, 6) array over the batch, then each scenario's row becomes its report.

    exact is one betainc call over every event's range lo..hi, a tail of 0..l:
    P[correct >= l - hi] from 0, P[wrong >= lo] up to l, 0 when empty and 1 when
    full.  Memorize's counts reach trials * l, about 2**106, so its share is an
    int / int division, rounded once; its float total, l * float(trials), is the
    exact product rounded once, as Python's float / int rounds it.  The closed
    forms stay scalar math calls, one set per scenario: numpy's exp, expm1 and
    log differ from math's in the last bit.
    """
    l, e_y, e_plus, e_minus, p_plus = (np.array(column)[:, None] for column in zip(
        *((s.l, float(s.e_y), float(s.e_plus), float(s.e_minus), s.p_plus) for s in scenarios)))
    t, start, stop = _EVENT_TREATMENT, _EVENT_START, _EVENT_STOP
    lo, end = edges[:, t, start], edges[:, t, stop]  # each event's range is lo..end - 1
    share = (below[:, t, stop] - below[:, t, start]) / trials
    total = np.full(share.shape, float(trials))
    share[:, 0] = [w / (trials * s.l) for s, w in zip(scenarios, wrong)]
    total[:, :1] = l * float(trials)
    ci = _wilson_interval(share, total)
    upper = lo > 0
    k = np.where(upper, lo, l + 1 - end)  # the tail's threshold, 0 when the range is full
    tail = (lo < end) & (k > 0)
    tails = _special().betainc(np.where(tail, k, 1), np.where(tail, l + 1 - k, 1),
                               np.where(upper, e_y, 1.0 - e_y))
    masses = np.where(tail, tails, np.where(lo < end, 1.0, 0.0))
    equal = np.abs(e_plus - e_minus) <= 2.0 * _TIE_EPS * (e_plus + e_minus)  # both zero too
    # the peer success bound's margin, p_opposite (1 - e_plus - e_minus), is peer loss's
    # margin at the expected wrong count, which the engine reads as it reads a trial's
    margin = _codes(_params(scenarios), e_y * l)[_TREATMENTS.index(Treatment.PEER_LOSS)] == _SUCCESS
    regime = (np.hstack((equal, l % 2 == 0, np.abs(p_plus - 0.5) <= 1e-12, margin))[:, None, :]
              | ~_EVENT_NEEDS).all(axis=2)
    reports = []
    for s, *columns in zip(scenarios, share.tolist(), ci[0].tolist(), ci[1].tolist(),
                           masses.tolist(), regime.tolist()):
        e, checks = s.e_y, []
        # None where a form is omitted: outside its domain, or vacuous at e_y = 0
        forms = {
            BoundKind.HOEFFDING_SUCCESS: lc_success_lower(s.l, e) if 0.0 < e <= 0.5 else None,
            BoundKind.BINOMIAL_FAILURE_LOWER: lc_failure_lower(s.l, e) if e > 0.0 else None,
            BoundKind.PEER_SUCCESS: peer_success_lower(
                s.l, s.p_minus if s.y == 1 else s.p_plus, s.e_plus, s.e_minus),
            BoundKind.PEER_FAILURE_LOWER: peer_failure_lower(s.l, e) if e > 0.0 else None,
        }
        for (treatment, event, headline, pair, kind, _), mc, ci_lo, ci_hi, mass, ok in zip(
                _EVENTS, *columns):
            exact = e if pair is None else mass
            value = forms.get(kind)
            bound = None if value is None else BoundValue(kind, value, regime_ok=ok)
            holds = None if value is None or not ok else exact >= value - 1e-12
            checks.append(BoundCheck(treatment, event, headline, mc, (ci_lo, ci_hi), exact,
                                     bound, holds))
        reports.append(BoundReport(scenario=s, checks=tuple(checks)))
    return reports


def sweep(scenarios, trials: int, seed: int, workers: int = 1) -> list[BoundReport]:
    """bound_report for each scenario, in input order, from one draw schedule.

    Every (scenario, chunk) of the batch is one job for the `workers`
    threads.  Substreams are keyed by (seed, scenario fields), so the same
    scenario produces the same rows whether simulated alone or inside any
    sweep, at any worker count; a scenario repeated in one sweep is drawn
    again, from the same stream, and repeats its rows.  Within a scenario
    the four treatments' rows come from the same trials.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("sweep needs at least one scenario")
    return _reports(scenarios, *_cut_counts(scenarios, trials, seed, workers), trials)
