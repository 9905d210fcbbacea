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
whichever thread draws them.  A chunk is drawn and tallied in blocks of at
most _BLOCK counts, read in order from that one range, so a thread holds one
block, not its chunk, and the blocks are the draws the whole chunk would be.
Each thread re-keys one Philox bit generator to each chunk's range in turn.
The calling thread draws every inverted chunk of a batch; up to `workers` - 1
helpers, at most one thread per CPU, draw BTPE chunks of _THREAD_FLOOR draws
or more, which numpy draws in long calls that release the GIL, while a helper
drawing an inverted block's short calls mostly waits for it.  Each thread
tallies its contiguous range of (scenario, chunk) jobs as Python ints, exact
in any order.
With p = min(e_y, 1 - e_y), a chunk whose inversion table starts at a normal
double, l * -log1p(-p) <= 700, looks one Philox word per count up in the
inversion table for (l, p), one gather each from a guide the chunk builds
once: the count is the number of the table's cuts at or below the word's
uniform, at most the table's last entry.  Past that, Generator.binomial
(BTPE, which takes a varying number of uniforms per draw) draws the chunk,
block by block from one generator.  STREAM_VERSION
names this mapping from seeds to rows and changes whenever the same seed
would draw different numbers or classify them differently.
"""
from __future__ import annotations

import enum
import functools
import math
import os
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from ._spec import _COUNT, _OPEN_UNIT, _RATE_FIELDS, _RATE_RULES, Spec, field_violations, raise_first, unknown_fields
from .bounds import _FORMS, _Z_95, BoundKind, BoundValue, _special, ordering_holds
from .noise import _LABEL
from .treatments import _TIE_EPS

STREAM_VERSION = 12  # the README's Determinism section says what each version changed
_CHUNK_TRIALS = 1 << 16  # trials per chunk; each chunk owns one Philox counter range
# counts per block of a chunk: a block's int64 arrays are 128 KiB, small enough that malloc
# hands them back to the next block instead of mapping fresh pages for each
_BLOCK = 1 << 14
_EDGE_BLOCK = 512  # scenarios per bisection block: each (4, k, 8) float64 _codes temporary is 128 KiB
# helpers start for BTPE chunks of this many draws.  On 2 vCPUs, 2 threads with no floor ran 40 BTPE
# scenarios 0.98-1.65x as fast as 1 at 10,000-draw chunks and 1.09-1.82x at 30,000 (three paired
# sets), so below the floor a gain depends on the session; past it, 1.88-1.92x at 60,000
_THREAD_FLOOR = 1 << 15
_GUIDE = 256  # bins of the smallest inversion guide, a power of 2; the largest has 16 times as many
_SUCCESS, _TIE, _FAILURE = 0, 1, 2
# p_plus and p_minus, each rounded on its own as a config writes them, may sum off 1 by far more than an ulp
_PRIOR_SUM_TOL = 1e-9
_HALF_TOL = 1e-12  # p_plus is 1/2 for the peer floor within a few ulps: a computed p_plus may round off it
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
    "p_minus": ("p_plus", ("p_plus", "p_minus"), lambda a, b: abs(a + b - 1.0) <= _PRIOR_SUM_TOL,
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


@functools.lru_cache(maxsize=16)  # a thread draws one scenario's chunks in a row
def _inversion_table(n: int, p: float) -> tuple[float, ...]:
    """Binomial(n, p)'s inversion probabilities px_0..px_bound, bound = min(n, n p + 10
    sqrt(n p q + 1)), by numpy's inversion recurrence: these operations define the stream."""
    q = 1.0 - p
    px = [math.exp(n * math.log1p(-p))]
    for x in range(1, int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1))) + 1):
        px.append((n - x + 1) * p * px[-1] / (x * q))
    return tuple(px)


def _inverse(px: tuple[float, ...], count: int) -> Callable[[np.ndarray], np.ndarray]:
    """The inversion for a chunk of `count` draws, built once: a function of a block of raw
    Philox words, each word's count the number of cuts cumsum(px) at or below its uniform
    u = (word >> 11) 2**-53, Generator.random's double, capped at len(px) - 1.

    A guide of g = 2**b bins, g the power of 2 just above count / 8 clipped to
    _GUIDE..16 _GUIDE, holds for each bin [i/g, (i+1)/g) the count every u in it
    shares, or -1 where a cut falls in the bin.  A word's bin is word >> (64 - b), the
    top b of u's 53 bits, so each word takes one gather; only the words in marked bins
    become doubles, placed by searchsorted.
    """
    cuts, top = np.cumsum(px), len(px) - 1
    # sized, not fixed: 4,096 bins made a 200-draw lookup 14 % slower, 256 bins a
    # 50,000-draw lookup 1.9 times slower
    g = min(16 * _GUIDE, max(_GUIDE, 1 << (count // 8).bit_length()))
    # a cut's bin is cut * g truncated, exact for a power of 2 (g for a last cut rounded
    # up to 1 or past it); a bin with no cut in it counts the cuts below it
    bins = (cuts * g).astype(np.intp)
    guide = np.minimum(np.bincount(bins, minlength=g + 1).cumsum(), top)
    guide[bins] = -1
    shift = 65 - g.bit_length()

    def invert(words: np.ndarray) -> np.ndarray:
        x = guide[(words >> shift).view(np.intp)]
        rest = np.flatnonzero(x < 0)
        x[rest] = np.minimum(cuts.searchsorted((words[rest] >> 11) * 2.0**-53, "right"), top)
        return x
    return invert


def _rekeyed(bits: np.random.Philox, key: np.ndarray, chunk: int) -> np.random.Philox:
    """bits set to the state np.random.Philox(key=key, counter=[0, 0, 0, chunk]) starts in,
    the start of chunk `chunk`'s counter range.  That constructor also draws a seed from
    OS entropy, which the key overrides: 9.1 us against 2.4 us on a 2-vCPU VM (numpy 2.4.6)."""
    bits.state = {"bit_generator": "Philox",
                  "state": {"counter": np.array([0, 0, 0, chunk], np.uint64), "key": key},
                  "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return bits


def _inverts(l: int, p: float) -> bool:
    """Whether chunks of (l, p), p = min(e_y, 1 - e_y), invert: the first term of the
    table, exp(l log1p(-p)), is a normal double.  A zero rate inverts."""
    return l * -math.log1p(-p) <= 700.0


def _chunk_counts(key: np.ndarray, l: int, e_y: float, chunk: int, count: int,
                  bits: np.random.Philox) -> Iterator[np.ndarray]:
    """Chunk `chunk`'s first `count` wrong-label counts, a pure function of (key, chunk),
    yielded in order in blocks of at most _BLOCK.  bits, the calling thread's, is re-keyed
    to the chunk's Philox range and drawn from until the last block.

    Inside the regime (the table's first term exp(l log1p(-p)) normal, so p l <= 700 and
    at most ~965 entries) each block inverts the next words of that range.  Past it,
    Generator.binomial draws the chunk, a block per call on one generator, which draws
    what one call for the chunk draws."""
    sizes = [min(_BLOCK, count - start) for start in range(0, count, _BLOCK)]
    p = min(e_y, 1.0 - e_y)
    if p == 0.0:
        yield from (np.zeros(n, np.int64) for n in sizes)
    elif _inverts(l, p):
        invert, words = _inverse(_inversion_table(l, p), count), _rekeyed(bits, key, chunk).random_raw
        yield from (l - invert(words(n)) if e_y > 0.5 else invert(words(n)) for n in sizes)
    else:
        rng = np.random.Generator(_rekeyed(bits, key, chunk))
        yield from (rng.binomial(l, e_y, size=n) for n in sizes)


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
    bisection finds all 8k cuts, each step one _codes call at every midpoint, over
    blocks of _EDGE_BLOCK scenarios, whose edges do not depend on one another.
    """
    l = params[0]
    if l.size > _EDGE_BLOCK:
        return np.concatenate([_edges(tuple(column[start:start + _EDGE_BLOCK] for column in params))
                               for start in range(0, l.size, _EDGE_BLOCK)])
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
    distinct edges and sums its wrong labels, block by block as _chunk_counts yields
    them, on its thread's one Philox.  The jobs of inverted scenarios come first, then
    the BTPE ones, in batch order, cut into one contiguous range per thread.  The
    calling thread draws every inverted job and the first BTPE ones, as many as make
    its estimated cost an equal share.  Helper threads share the rest, one fewer than
    min(workers, CPUs, BTPE jobs, plus one if any job inverts), but only where a chunk
    holds at least _THREAD_FLOOR draws, so a batch with no BTPE job starts none.  Each
    thread tallies its own range as Python ints, and the calling thread adds the
    tallies, which are exact in any order.  A job that raises
    stops every thread before its next job.  A repeated scenario draws again, from
    the same stream.
    """
    raise_first(field_violations({"trials": trials, "seed": seed, "workers": workers}, _RUN_FIELDS)
                + batch_violations(len(scenarios), trials))
    edges = _edges(_params(scenarios))
    cuts = [np.unique(e) for e in edges]
    keys = [_stream_key(seed, s) for s in scenarios]
    chunks = -(-trials // _CHUNK_TRIALS)
    inverts = [_inverts(s.l, min(s.e_y, 1.0 - s.e_y)) for s in scenarios]
    order = sorted(range(len(scenarios)), key=inverts.__getitem__, reverse=True)  # stable
    inverted, btpe = sum(inverts) * chunks, (len(scenarios) - sum(inverts)) * chunks
    threads = (min(workers, os.cpu_count() or 1, btpe + (inverted > 0))
               if min(trials, _CHUNK_TRIALS) >= _THREAD_FLOOR else 1)
    # an inverted draw costs about 1/5 of a BTPE one: the caller's first BTPE jobs top its
    # cost, in fifths of a BTPE job, up to an equal share
    mine = inverted + max(0, ((inverted + 5 * btpe) // threads - inverted) // 5)
    rest = range(mine, inverted + btpe)
    parts = [range(mine), *(rest[t * len(rest) // (threads - 1):(t + 1) * len(rest) // (threads - 1)]
                            for t in range(threads - 1))]
    failed = threading.Event()

    def job(n: int, bits: np.random.Philox) -> tuple[int, list[int]]:
        i, chunk = order[n // chunks], n % chunks
        s, count = scenarios[i], min(_CHUNK_TRIALS, trials - chunk * _CHUNK_TRIALS)
        # cuts run from 0 to l + 1: no count lies below the first, every count below the last
        inner = cuts[i][1:-1].tolist()
        below, total = [0] * len(inner), 0
        for wrong in _chunk_counts(keys[i], s.l, s.e_y, chunk, count, bits):
            below = [b + int(np.count_nonzero(wrong < c)) for b, c in zip(below, inner)]
            # the high and low 32-bit halves each sum below 2**46 over a block, so both are exact
            total += (int((wrong >> 32).sum()) << 32) + int((wrong & 0xFFFFFFFF).sum())
        return i, [0, *below, count, total]

    def add(into: dict[int, list[int]], i: int, counts: list[int]) -> None:
        into[i] = [a + b for a, b in zip(into[i], counts)] if i in into else counts

    def tally(part: range) -> dict[int, list[int]]:
        """Each scenario's counts over the jobs of `part`: below each distinct edge,
        then the wrong-label total."""
        sums, bits = {}, np.random.Philox(0)  # the thread's bit generator, re-keyed per chunk
        try:
            for n in part:
                if failed.is_set():
                    break
                add(sums, *job(n, bits))
        except BaseException:
            failed.set()
            raise
        return sums

    with ThreadPoolExecutor(max_workers=max(1, threads - 1)) as pool:
        helpers = [pool.submit(tally, part) for part in parts[1:]]
        tallies = [tally(parts[0]), *(helper.result() for helper in helpers)]
    below = {}
    for sums in tallies:
        for i, counts in sums.items():
            add(below, i, counts)
    total = [below[i].pop() for i in range(len(scenarios))]
    return edges, np.array([np.array(below[i])[c.searchsorted(e)]
                            for i, (e, c) in enumerate(zip(edges, cuts))]), total


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
    closed form, None where bounds._FORMS omits it at e_y;
    ordering_holds is bounds.ordering_holds(exact, bound).
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
# start..stop - 1 (see _edges), and the closed form (see bounds._FORMS).
# Memorize's check comes first and has no range: it is the pooled per-label
# error against e_y.  A range is the treatment's leading block (0, 1) or every
# count past it (1, 3); smoothing leads with failures, so its better-or-tie
# lies past them.
_EVENTS = (
    (Treatment.MEMORIZE, "mean_label_error", True, None, None),
    (Treatment.LOSS_CORRECTION, "strict_success", True, (0, 1), BoundKind.HOEFFDING_SUCCESS),
    (Treatment.LOSS_CORRECTION, "tie_inclusive_failure", False, (1, 3), BoundKind.BINOMIAL_FAILURE_LOWER),
    (Treatment.LABEL_SMOOTHING, "ls_better_or_tie", True, (1, 3), BoundKind.BINOMIAL_FAILURE_LOWER),
    (Treatment.PEER_LOSS, "strict_success", True, (0, 1), BoundKind.PEER_SUCCESS),
    (Treatment.PEER_LOSS, "tie_inclusive_failure", False, (1, 3), BoundKind.PEER_FAILURE_LOWER),
)
# The table's columns as arrays over its six events (memorize's range empty); the forms' regimes.
_EVENT_TREATMENT = np.array([_TREATMENTS.index(event[0]) for event in _EVENTS])
_EVENT_START, _EVENT_STOP = np.array([event[3] or (0, 0) for event in _EVENTS]).T
_FORM_NEEDS = np.array([needs for _, needs, _ in _FORMS.values()], bool)


def bound_report(scenario: InstanceScenario, trials: int, seed: int,
                 workers: int = 1) -> BoundReport:
    """One check per _EVENTS row, every one read from one shared set of draws.

    The one-scenario sweep (see BoundCheck for each route).  Headline checks
    (one per treatment) are what sweep rows export.  A closed form is given
    where bounds._FORMS gives it, and outside its regime it carries
    regime_ok=False and is never asserted.
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
    # the peer success bound's margin, p_opposite (1 - e_plus - e_minus), is peer loss's margin
    # at the expected wrong count, read as a trial's: positive only above the tie band _TIE_EPS
    margin = _codes(_params(scenarios), e_y * l)[_TREATMENTS.index(Treatment.PEER_LOSS)] == _SUCCESS
    regime = (np.hstack((equal, l % 2 == 0, np.abs(p_plus - 0.5) <= _HALF_TOL, margin))[:, None, :]
              | ~_FORM_NEEDS).all(axis=2)
    given = np.hstack([test(e_y) for test, _, _ in _FORMS.values()])
    reports = []
    for s, gives, oks, *columns in zip(scenarios, given.tolist(), regime.tolist(), share.tolist(),
                                       ci[0].tolist(), ci[1].tolist(), masses.tolist()):
        args = (s.l, s.e_y, s.p_minus if s.y == 1 else s.p_plus, s.e_plus, s.e_minus)
        bounds = {kind: BoundValue(kind, form(*args), ok)
                  for (kind, (_, _, form)), on, ok in zip(_FORMS.items(), gives, oks) if on}
        checks = []
        for (treatment, event, headline, pair, kind), mc, ci_lo, ci_hi, mass in zip(_EVENTS, *columns):
            exact, bound = (args[1] if pair is None else mass), bounds.get(kind)
            checks.append(BoundCheck(treatment, event, headline, mc, (ci_lo, ci_hi), exact,
                                     bound, ordering_holds(exact, bound)))
        reports.append(BoundReport(scenario=s, checks=tuple(checks)))
    return reports


def sweep(scenarios, trials: int, seed: int, workers: int = 1) -> list[BoundReport]:
    """bound_report for each scenario, in input order, from one draw schedule.

    Every (scenario, chunk) of the batch is one job of one schedule (see
    _cut_counts).  Substreams are keyed by (seed, scenario fields), so the same
    scenario produces the same rows whether simulated alone or inside any
    sweep, at any worker count; a scenario repeated in one sweep is drawn
    again, from the same stream, and repeats its rows.  Within a scenario
    the four treatments' rows come from the same trials.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("sweep needs at least one scenario")
    return _reports(scenarios, *_cut_counts(scenarios, trials, seed, workers), trials)
