"""Tests for the Monte-Carlo engine and its bound-vs-oracle reports."""

import dataclasses
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import xlogy

from noisylab.bounds import (
    _FORMS,
    BoundKind,
    binom_tail,
    lc_failure_lower,
    lc_success_lower,
    peer_failure_lower,
    peer_success_lower,
)
from noisylab import mcsim
from noisylab.memorize import LabelDist
from noisylab.mcsim import (
    scenario_violations,
    _BLOCK,
    _CHUNK_TRIALS,
    _GUIDE,
    _FAILURE,
    _SUCCESS,
    _THREAD_FLOOR,
    _TIE,
    InstanceScenario,
    Treatment,
    TrialTally,
    _chunk_counts,
    _codes,
    _cut_counts,
    _edges,
    _inverse,
    _inversion_table,
    _params,
    _stream_key,
    _wilson_interval,
    bound_report,
    run_trials,
    sweep,
)
from noisylab.noise import BinaryNoiseRates
from noisylab.treatments import Comparison, compare_ls_lc, corrected_label, peer_predict


def _label_level_counts(key, l: int, e_y: float, start_trial: int, count: int) -> np.ndarray:
    """Test-only oracle: the retired label-level sampler.

    Each trial reads ceil(l/4) Philox blocks of 4 uniforms and counts the
    ones below e_y, i.e. simulates every label.  It shares nothing with the
    engine's binomial draws beyond the Philox key.
    """
    blocks_per_trial = -(-l // 4)
    bit_gen = np.random.Philox(key=key)
    bit_gen.advance(start_trial * blocks_per_trial)
    uniforms = np.random.Generator(bit_gen).random((count, 4 * blocks_per_trial))
    return (uniforms[:, :l] < e_y).sum(axis=1)


def _drawn(key, l: int, e_y: float, chunk: int, count: int) -> np.ndarray:
    """Chunk `chunk`'s first `count` wrong-label counts as one array: the blocks
    _chunk_counts yields, joined in order."""
    return np.concatenate(list(_chunk_counts(key, l, e_y, chunk, count, np.random.Philox(0))))


def _in_blocks(draw):
    """A stand-in for _chunk_counts from `draw`, which returns a chunk's counts as one
    array: it yields them in blocks of _BLOCK, as _chunk_counts does."""
    def blocks(key, l, e_y, chunk, count, bits):
        wrong = draw(key, l, e_y, chunk, count)
        yield from (wrong[start:start + _BLOCK] for start in range(0, count, _BLOCK))
    return blocks


def _grid(u) -> np.ndarray:
    """Test-only: the doubles k 2**-53 in [0, 1), the only ones Generator.random draws, at
    and either side of each u's floor on that grid, sorted."""
    k = np.floor(np.asarray(u) * 2.0**53)
    k = np.unique(np.concatenate((k - 1, k, k + 1)))
    return k[(k >= 0) & (k < 2**53)] * 2.0**-53


def _words(u: np.ndarray, rng) -> np.ndarray:
    """Test-only: raw Philox words whose Generator.random doubles are u, doubles on the
    2**-53 grid; their low 11 bits, which the double drops, are random."""
    return ((u * 2.0**53).astype(np.uint64) << 11) | rng.integers(0, 2**11, u.shape, np.uint64)


def _table(s: InstanceScenario, treatment: Treatment) -> np.ndarray:
    """The treatment's outcome code at every wrong count 0..l, from the engine's rule."""
    return _codes(_params([s]), np.arange(s.l + 1))[list(Treatment).index(treatment), 0]


def _dense(s: InstanceScenario, trials: int, seed: int) -> np.ndarray:
    """The scenario's wrong-count histogram over 0..l, rebuilt from its chunks' draws."""
    key, hist = _stream_key(seed, s), np.zeros(s.l + 1, dtype=np.int64)
    for chunk in range(-(-trials // _CHUNK_TRIALS)):
        count = min(_CHUNK_TRIALS, trials - chunk * _CHUNK_TRIALS)
        hist += np.bincount(_drawn(key, s.l, s.e_y, chunk, count), minlength=s.l + 1)
    return hist


def _wilson(successes: int, total: int) -> tuple[float, float]:
    """Test-only oracle: the 95% Wilson interval on Python numbers, one count at a time.

    successes / total is an int / int division, and every other step reads
    total through Python's float / int, so counts past 2**53 round as Python
    rounds them.
    """
    p = successes / total
    z = 1.959963984540054
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def _assert_same_counts(counts, expected) -> None:
    """Two _cut_counts results agree: the batch's edges and below arrays, and every total."""
    (edges, below, totals), (want_edges, want_below, want_totals) = counts, expected
    np.testing.assert_array_equal(edges, want_edges)
    np.testing.assert_array_equal(below, want_below)
    assert totals == want_totals


def _assert_binomial_histogram(wrong: np.ndarray, l: int, e_y: float) -> None:
    """Every count's frequency sits within 4 binomial SEs of its pmf."""
    pmf = stats.binom.pmf(np.arange(l + 1), l, e_y)
    freq = np.bincount(wrong, minlength=l + 1) / wrong.size
    se = np.sqrt(pmf * (1 - pmf) / wrong.size)
    np.testing.assert_array_less(np.abs(freq - pmf), 4 * se + 1e-12)


def _pooled(observed: np.ndarray, expected: np.ndarray, least: float = 5.0):
    """Adjacent bins merged left to right until each expects at least `least`;
    a remainder that expects less joins the last full bin."""
    cum = np.concatenate([[0.0], np.cumsum(expected)])
    edges = [0]
    while (end := int(np.searchsorted(cum, cum[edges[-1]] + least))) < cum.size:
        edges.append(end)
    starts = edges[:-1]
    return np.add.reduceat(observed, starts), np.add.reduceat(expected, starts)


def _g_test(hist: np.ndarray, l: int, e_y: float) -> tuple[int, float, float]:
    """A G-test of a wrong-count histogram over 0..l against scipy's Binomial(l, e_y) pmf,
    bins pooled to expect at least 5: the bin count, G and its p-value."""
    trials = hist.sum()
    pmf = stats.binom.pmf(np.arange(l + 1), l, e_y)
    observed, expected = _pooled(hist, trials * pmf / pmf.sum())
    assert observed.size >= 2 and expected.min() >= 5.0
    g = 2.0 * xlogy(observed, observed / expected).sum()
    return observed.size, g, stats.chi2.sf(g, observed.size - 1)


def _random_scenario(rng: np.random.Generator) -> InstanceScenario:
    e_plus = rng.uniform(0.01, 0.7)
    e_minus = rng.uniform(0.01, max(0.02, 0.95 - e_plus))
    return InstanceScenario(
        l=int(rng.integers(1, 25)),
        y=int(rng.choice([-1, 1])),
        e_plus=float(e_plus),
        e_minus=float(e_minus),
        p_plus=float(rng.uniform(0.05, 0.95)),
        smoothing_a=float(rng.uniform(0.02, 0.9)),
    )


class TestInstanceScenario:
    def test_defaults_and_derived_rates(self):
        s = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.3)
        assert s.p_plus == 0.5 and s.p_minus == 0.5
        assert s.e_y == 0.2
        assert InstanceScenario(l=10, y=-1, e_plus=0.2, e_minus=0.3).e_y == 0.3
        # P[observe +1] = p+ (1 - e+) + p- e-
        np.testing.assert_allclose(s.noisy_positive_rate, 0.5 * 0.8 + 0.5 * 0.3)
        # a population rate: the same whichever label the instance holds
        assert InstanceScenario(l=10, y=-1, e_plus=0.2, e_minus=0.3).noisy_positive_rate == (
            s.noisy_positive_rate)

    def test_p_minus_complements_p_plus(self):
        s = InstanceScenario(l=4, y=1, e_plus=0.1, e_minus=0.1, p_plus=0.7)
        np.testing.assert_allclose(s.p_minus, 0.3)
        assert InstanceScenario(l=4, y=1, e_plus=0.1, e_minus=0.1, p_plus=2**-53).p_minus < 1.0

    def test_rejects_invalid_settings(self):
        with pytest.raises(ValueError):
            InstanceScenario(l=0, y=1, e_plus=0.1, e_minus=0.1)
        with pytest.raises(ValueError):
            InstanceScenario(l=4, y=0, e_plus=0.1, e_minus=0.1)
        with pytest.raises(ValueError):
            InstanceScenario(l=4, y=1, e_plus=-0.1, e_minus=0.1)
        with pytest.raises(ValueError):
            InstanceScenario(l=4, y=1, e_plus=0.6, e_minus=0.4)  # rates sum to 1
        with pytest.raises(ValueError):
            InstanceScenario(l=4, y=1, e_plus=0.1, e_minus=0.1, p_plus=1.0)
        with pytest.raises(ValueError):
            InstanceScenario(l=4, y=1, e_plus=0.1, e_minus=0.1, p_plus=0.4, p_minus=0.4)
        with pytest.raises(ValueError):
            InstanceScenario(l=4, y=1, e_plus=0.1, e_minus=0.1, smoothing_a=1.0)
        with pytest.raises(ValueError):
            InstanceScenario(l=4, y=1, e_plus=0.1, e_minus=0.1, n=3)  # n < l

    def test_accepts_python_and_numpy_scalars(self):
        s = InstanceScenario(
            l=np.int64(4), y=np.int32(-1), e_plus=0, e_minus=np.float32(0.25),
            p_plus=np.float64(0.3), smoothing_a=np.float64(0.2), n=np.uint16(9),
        )
        assert (s.e_y, s.n) == (0.25, 9)
        np.testing.assert_allclose(s.p_minus, 0.7)
        nan = float("nan")
        for bad in ({"l": 4.0}, {"e_plus": True}, {"n": 9.0}, {"p_plus": None}, {"p_plus": nan},
                    {"smoothing_a": nan}, {"e_minus": nan}):
            with pytest.raises(ValueError):
                InstanceScenario(**{"l": 4, "y": 1, "e_plus": 0.1, "e_minus": 0.1, **bad})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"l": 0}, "l: must be >= 1, got 0"),
            ({"y": 2}, "y: must be -1 or 1, got 2"),
            ({"e_plus": 0.7, "e_minus": 0.5}, "e_plus: e_plus + e_minus must be < 1, got 1.2"),
            ({"p_minus": 0.3}, "p_plus: p_plus + p_minus must equal 1, got 0.8"),
            ({"smoothing_a": 0}, "smoothing_a: must be > 0.0, got 0.0"),
            ({"n": 2}, "n: must be >= l, got n=2, l=4"),
            ({"y": True}, "y: must be -1 or 1, got True"),
            ({"y": 1.0}, "y: must be -1 or 1, got 1.0"),
            # p_minus = 1 - p_plus would round to 1, whichever label the instance holds
            ({"p_plus": 1e-17}, "p_plus: must be > 2**-54, so that 1 - p_plus < 1, got 1e-17"),
            ({"y": -1, "p_plus": 2**-54},
             "p_plus: must be > 2**-54, so that 1 - p_plus < 1, got 5.551115123125783e-17"),
        ],
    )
    def test_raises_the_message_the_cli_reports(self, fields, message):
        # one rule table: the dataclass raises the CLI's first violation, unprefixed
        scenario = {"l": 4, "y": 1, "e_plus": 0.1, "e_minus": 0.1, **fields}
        assert scenario_violations(scenario, "scenario") == [f"scenario.{message}"]
        with pytest.raises(ValueError) as excinfo:
            InstanceScenario(**scenario)
        assert str(excinfo.value) == message
        if set(fields) <= {"e_plus", "e_minus"}:
            with pytest.raises(ValueError) as excinfo:
                BinaryNoiseRates(scenario["e_plus"], scenario["e_minus"])
            assert str(excinfo.value) == message


class TestWilsonInterval:
    @staticmethod
    def _random_counts(seed: int, size: int = 300) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        total = rng.integers(1, 5000, size)
        return rng.integers(0, total + 1), total

    def test_brackets_the_point_estimate(self):
        successes, total = self._random_counts(5)
        p_hat = successes / total
        lo, hi = _wilson_interval(p_hat, total)
        assert ((0.0 <= lo) & (lo <= p_hat) & (p_hat <= hi) & (hi <= 1.0)).all()

    def test_equals_the_formula_on_python_floats(self):
        successes, total = self._random_counts(6)
        lo, hi = _wilson_interval(successes / total, total)
        assert list(zip(lo.tolist(), hi.tolist())) == [
            _wilson(s, t) for s, t in zip(successes.tolist(), total.tolist())]

    def test_degenerate_counts_pin_one_endpoint(self):
        (lo0, lo1), (hi0, hi1) = _wilson_interval([0.0, 1.0], [25, 25])
        assert lo0 == 0.0 and 0.0 < hi0 < 1.0
        assert hi1 == 1.0 and 0.0 < lo1 < 1.0

    def test_width_shrinks_with_sample_size(self):
        lo, hi = _wilson_interval(0.3, np.array([10, 100, 1000, 10000]))
        assert (np.diff(hi - lo) < 0).all()

    def test_rejects_bad_counts(self):
        for share, total, message in [
            (0.5, 0, "total must be >= 1, got 0.0"),
            ([0.5, 0.5], [4, np.nan], "total must be >= 1, got nan"),
            (1.25, 4, r"share must lie in \[0, 1\], got 1.25"),
            (-0.25, 4, r"share must lie in \[0, 1\], got -0.25"),
            ([0.5, np.nan], 4, r"share must lie in \[0, 1\], got nan"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                _wilson_interval(share, total)


class TestTrialTally:
    def test_counts_must_add_up(self):
        with pytest.raises(ValueError):
            TrialTally(trials=10, success=5, failure=4, tie=0)


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        s = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2)
        for t in Treatment:
            assert run_trials(s, t, 20_000, seed=42) == run_trials(s, t, 20_000, seed=42)
        assert bound_report(s, 20_000, seed=42) == bound_report(s, 20_000, seed=42)

    def test_worker_count_never_changes_the_tally(self, monkeypatch):
        # more than three chunks, the last one partial, and CPUs to spare, so
        # threads actually engage: helpers draw only BTPE chunks, and here
        # l * -log1p(-p) = 1,347, past the inversion regime, with wrong counts near l / 2
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        s = InstanceScenario(l=2000, y=1, e_plus=0.49, e_minus=0.49)
        trials = 3 * _CHUNK_TRIALS + 1234
        for t in Treatment:
            base = run_trials(s, t, trials, seed=7, workers=1)
            for workers in (2, 3, 5):
                again = run_trials(s, t, trials, seed=7, workers=workers)
                assert (base.success, base.failure, base.tie) == (
                    again.success,
                    again.failure,
                    again.tie,
                )

    def test_trial_streams_are_batching_invariant(self):
        # a chunk's counts are a pure function of (key, chunk index): redrawing
        # reproduces them, and a partial final chunk reads a prefix of them
        s = InstanceScenario(l=7, y=-1, e_plus=0.15, e_minus=0.3)
        key = _stream_key(3, s)
        chunk = [_drawn(key, s.l, s.e_y, c, 1000) for c in range(3)]
        for c in reversed(range(3)):
            np.testing.assert_array_equal(_drawn(key, s.l, s.e_y, c, 1000), chunk[c])
            np.testing.assert_array_equal(_drawn(key, s.l, s.e_y, c, 137), chunk[c][:137])
        assert not np.array_equal(chunk[0], chunk[1])
        assert not np.array_equal(chunk[1], chunk[2])

    def test_tallies_reassemble_from_their_chunks(self):
        s = InstanceScenario(l=12, y=1, e_plus=0.3, e_minus=0.3)
        trials, seed = 2 * _CHUNK_TRIALS + 99, 5
        tally = run_trials(s, Treatment.MEMORIZE, trials, seed)
        key = _stream_key(seed, s)
        sizes = (_CHUNK_TRIALS, _CHUNK_TRIALS, 99)
        wrong = np.concatenate(
            [_drawn(key, s.l, s.e_y, c, n) for c, n in enumerate(sizes)]
        )
        for workers in (1, 2):
            (edges,), (below,), (total,) = _cut_counts([s], trials, seed, workers)
            np.testing.assert_array_equal(below, (wrong < edges[..., None]).sum(axis=-1))
            assert total == wrong.sum()
        assert bound_report(s, trials, seed).checks[0].mc_estimate == wrong.sum() / (trials * s.l)
        assert tally.success == np.count_nonzero(s.l - wrong > s.l / 2)

    def test_threaded_schedule_equals_the_serial_one(self, monkeypatch):
        # eight threads and a short switch interval finish the jobs out of
        # order; the calling thread's sums must still give the serial counts.  The
        # calling thread draws the inverted scenarios, helpers the BTPE ones (l >= 2000)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        scenarios = [InstanceScenario(l=l, y=1, e_plus=0.3, e_minus=0.3)
                     for l in (1, 3, 8, 60, 300, 2000, 10**4)]
        trials = 2 * _CHUNK_TRIALS + 5
        serial, threaded = _cut_counts(scenarios, trials, 9, workers=1), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: threaded.append(_cut_counts(scenarios, trials, 9, workers=8)))
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert (serial[1][..., -1] == trials).all()
        _assert_same_counts(threaded[0], serial)

    def test_the_pool_has_at_most_one_thread_per_cpu(self, monkeypatch):
        # 40 one-chunk BTPE jobs at workers=64: the calling thread draws, and with it at
        # most one helper per other CPU; below _THREAD_FLOOR draws a chunk, no helper starts
        scenarios = [InstanceScenario(l=l, y=1, e_plus=0.3, e_minus=0.3)
                     for l in range(10**4, 10**4 + 40)]
        drawn = _record_threads(monkeypatch)
        for cpus, workers, trials, threads in ((2, 64, _THREAD_FLOOR, 2), (8, 3, _THREAD_FLOOR, 3),
                                               (8, 64, _THREAD_FLOOR - 1, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            serial = _cut_counts(scenarios, trials, 4, workers=1)
            drawn.clear()
            _assert_same_counts(_cut_counts(scenarios, trials, 4, workers), serial)
            caller, drawn_on = threading.get_ident(), [thread for thread, *_ in drawn]
            helpers = set(drawn_on) - {caller}
            assert len(drawn_on) == 40 and caller in drawn_on
            # a finished helper's id may be reused by the next, so count at most
            assert 0 < len(helpers) < threads if threads > 1 else not helpers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_schedule_holds_a_few_jobs_whatever_the_trial_count(self, monkeypatch, workers):
        # 2**40 trials, the most one scenario may draw, are 2**24 chunk jobs, enumerated
        # lazily; a draw that fails on its thread's fourth job, the calling thread's or a
        # helper's, stops every thread before its next job.  The other thread's job waits
        # until the failing thread has set the run's stop event, so that thread draws no
        # job past it.  The scenario runs BTPE, whose chunks helpers may draw.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        stops = []  # each run's stop event, the one Event _cut_counts makes
        monkeypatch.setattr(mcsim, "threading", types.SimpleNamespace(
            Event=lambda: stops.append(threading.Event()) or stops[-1]))
        s = InstanceScenario(l=10**4, y=1, e_plus=0.3, e_minus=0.3)
        for on_caller in (True, False)[:workers]:
            calls = []

            def failing(key, l, e_y, chunk, count):
                caller = threading.current_thread() is threading.main_thread()
                calls.append(caller)
                if caller is on_caller:
                    if calls.count(caller) > 3:
                        raise RuntimeError("draw failed")
                else:
                    assert stops[-1].wait(timeout=60)
                return np.zeros(count, np.int64)

            monkeypatch.setattr(mcsim, "_chunk_counts", _in_blocks(failing))
            tracemalloc.start()
            try:
                with pytest.raises(RuntimeError, match="draw failed"):
                    _cut_counts([s], 2**40, 1, workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20
            assert calls.count(on_caller) == 4
            assert calls.count(not on_caller) <= workers - 1

    def test_thread_tallies_stay_flat_in_the_thread_count(self, monkeypatch):
        # each thread tallies only the scenarios its contiguous range of jobs reaches, so
        # 16 threads over 1,024 scenarios hold about what one thread holds (a tally of
        # every scenario on every thread would add about 2 MiB).  The floor is lowered so
        # that 16-draw chunks start helpers, every scenario runs BTPE so that helpers take
        # its chunks, and what each running job holds is negligible
        monkeypatch.setattr(mcsim, "_THREAD_FLOOR", 16)
        monkeypatch.setattr(mcsim, "_chunk_counts", _in_blocks(
            lambda key, l, e_y, chunk, count: np.zeros(count, np.int64)))
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        scenarios = [InstanceScenario(l=l, y=1, e_plus=e, e_minus=e)
                     for l in range(10**4, 10**4 + 64) for e in np.linspace(0.1, 0.49, 16).tolist()]
        _cut_counts(scenarios, 16, 3, workers=16)
        peaks = []
        for workers in (1, 16):
            tracemalloc.start()
            try:
                _cut_counts(scenarios, 16, 3, workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20, peaks

    def test_distinct_settings_get_distinct_streams(self):
        s = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2)
        key = _stream_key(0, s)
        others = [
            _stream_key(1, s),
            _stream_key(0, InstanceScenario(l=11, y=1, e_plus=0.2, e_minus=0.2)),
            _stream_key(0, InstanceScenario(l=10, y=-1, e_plus=0.2, e_minus=0.2)),
        ]
        for other in others:
            assert not np.array_equal(key, other)


def _record_threads(monkeypatch, draw=_chunk_counts) -> list[tuple[int, int, float, int]]:
    """Make mcsim's draws, `draw`'s, also append each (thread id, l, e_y, chunk) they draw
    to the list returned."""
    drawn = []

    def recorded(key, l, e_y, chunk, count, bits):
        drawn.append((threading.get_ident(), l, e_y, chunk))
        return draw(key, l, e_y, chunk, count, bits)

    monkeypatch.setattr(mcsim, "_chunk_counts", recorded)
    return drawn


class TestSchedule:
    """The calling thread draws every inverted and zero-rate chunk; helpers draw only
    BTPE chunks, a share that evens out each thread's estimated cost."""

    @pytest.mark.parametrize("workers", [2, 8])
    def test_inverted_and_zero_rate_chunks_stay_on_the_calling_thread(self, monkeypatch, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # inverted at l = 200 and 1000, zero rates at l = 10**4 and 3, BTPE at l = 10**4 and 2000
        scenarios = [InstanceScenario(l=l, y=y, e_plus=e, e_minus=e) for l, y, e in (
            (200, 1, 0.1), (10**4, 1, 0.3), (1000, -1, 0.3), (10**4, 1, 0.0), (2000, 1, 0.49),
            (3, -1, 0))]
        drawn = _record_threads(monkeypatch)
        _cut_counts(scenarios, 2 * _CHUNK_TRIALS, 6, workers)
        caller = threading.get_ident()
        assert len(drawn) == 12
        for thread, l, e_y, _ in drawn:
            if e_y == 0.0 or _inverted(l, e_y):
                assert thread == caller, (l, e_y)
        assert {(l, e_y) for thread, l, e_y, _ in drawn if thread != caller} == {
            (10**4, 0.3), (2000, 0.49)}

    def test_the_benchmark_sweep_starts_no_helper(self, monkeypatch):
        # sweep_large_l's shape: four inverted scenarios at 50,000 trials and workers 2,
        # chunks past _THREAD_FLOOR
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        scenarios = [InstanceScenario(l=l, y=1, e_plus=e, e_minus=e)
                     for l in (200, 1000) for e in (0.1, 0.3)]
        drawn = _record_threads(monkeypatch)
        _cut_counts(scenarios, 50_000, 3, workers=2)
        assert [thread for thread, *_ in drawn] == [threading.get_ident()] * 4

    def test_btpe_chunks_of_a_mixed_batch_reach_helpers_with_the_serial_counts(self, monkeypatch):
        # one inverted scenario and three BTPE ones
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        scenarios = [InstanceScenario(l=l, y=1, e_plus=e, e_minus=e)
                     for l, e in ((500, 0.2), (10**4, 0.3), (5000, 0.1), (3000, 0.45))]
        trials = _CHUNK_TRIALS + 9
        serial = _cut_counts(scenarios, trials, 8, workers=1)
        drawn = _record_threads(monkeypatch)
        for workers in (2, 4):
            drawn.clear()
            _assert_same_counts(_cut_counts(scenarios, trials, 8, workers), serial)
            helpers = {(l, e_y) for thread, l, e_y, _ in drawn if thread != threading.get_ident()}
            assert helpers and not any(_inverted(l, e_y) for l, e_y in helpers), workers

    @pytest.mark.parametrize("inverted, btpe, mine", [
        (20, 1, 0),  # 20 inverted draws cost 4 BTPE ones, past an equal share of 2.5
        (11, 2, 0),  # 2.2 past 2.1
        (5, 9, 4),   # 1 and 4 make the share of 5
        (0, 4, 2),   # no inversion job: the first half of the BTPE jobs
    ])
    def test_the_caller_takes_the_first_btpe_jobs_up_to_an_equal_share(self, monkeypatch, inverted,
                                                                      btpe, mine):
        # one chunk per scenario, an inverted draw costing 1/5 of a BTPE one; the BTPE
        # scenarios come first in the batch, the caller's inverted ones still before them
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        btpe_ls = list(range(10**4 + btpe, 10**4, -1))
        scenarios = ([InstanceScenario(l=l, y=1, e_plus=0.3, e_minus=0.3) for l in btpe_ls]
                     + [InstanceScenario(l=l, y=1, e_plus=0.2, e_minus=0.2)
                        for l in range(1, inverted + 1)])
        drawn = _record_threads(monkeypatch, _in_blocks(
            lambda key, l, e_y, chunk, count: np.zeros(count, np.int64)))
        _cut_counts(scenarios, _THREAD_FLOOR, 2, workers=2)
        caller = threading.get_ident()
        assert len(drawn) == inverted + btpe
        assert sorted(l for thread, l, *_ in drawn if thread == caller) == sorted(
            [*range(1, inverted + 1), *btpe_ls[:mine]])


def _numpy_counts(key, l, e_y, chunk, count) -> np.ndarray:
    """Test-only oracle: Generator.binomial on chunk `chunk`'s own Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, chunk]))
    return rng.binomial(l, e_y, size=count)


def _looked_up(u, px) -> np.ndarray:
    """Test-only oracle: each uniform's inverted count, the number of cuts cumsum(px) at or
    below it, at most len(px) - 1."""
    return np.minimum(np.cumsum(px).searchsorted(u, "right"), len(px) - 1)


def _walk(u: float, cuts: list[float]) -> int:
    """Test-only: _looked_up of one uniform, walked one cut at a time."""
    x = 0
    while x < len(cuts) - 1 and u >= cuts[x]:
        x += 1
    return x


def _walked_counts(key, l, e_y, chunk, count) -> np.ndarray:
    """Test-only oracle: _looked_up of each of chunk `chunk`'s own Generator.random uniforms
    in the inversion table of (l, p), p = min(e_y, 1 - e_y), flipped when e_y > 1/2."""
    rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, chunk]))
    wrong = _looked_up(rng.random(count), _inversion_table(l, min(e_y, 1.0 - e_y)))
    return l - wrong if e_y > 0.5 else wrong


def _philox_words(key, counter, n: int) -> list[int]:
    """Test-only oracle: Philox4x64-10's first n words from (key, counter), from the round
    function of Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3"; the
    256-bit counter, counter[0] its low word, steps by 1 before each block of 4 words."""
    mask = 2**64 - 1
    c, words = sum(int(w) << (64 * i) for i, w in enumerate(counter)), []
    while len(words) < n:
        c = (c + 1) % 2**256
        x, (k0, k1) = [(c >> (64 * i)) & mask for i in range(4)], (int(k) for k in key)
        for _ in range(10):
            p0, p1 = 0xD2E7470EE14C6C93 * x[0], 0xCA5A826395121157 * x[2]
            x = [(p1 >> 64) ^ x[1] ^ k0, p1 & mask, (p0 >> 64) ^ x[3] ^ k1, p0 & mask]
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & mask, (k1 + 0xBB67AE8584CAA73B) & mask
        words += x
    return words[:n]


def _inverted(l: int, e_y: float) -> bool:
    """The inverted regime: the table's first term exp(l log1p(-p)) is at least e**-700."""
    return l * -math.log1p(-min(e_y, 1.0 - e_y)) <= 700.0


def _oracle_pairs() -> list[tuple[int, float]]:
    """(l, e_y) pairs for the equality oracle, drawn from seed 18, fixed before its first run.

    With p = min(e_y, 1 - e_y): every fifth pair has p = 30 / l, every fifth lies in
    numpy's BTPE regime (p l > 30), and the rest invert with p log-uniform down to
    1e-16.  l alternates between 1..399 and log-uniform up to 2**53, and every third
    rate is flipped to 1 - p.
    """
    rng = np.random.default_rng(18)
    pairs = [(1, 0.3), (1, 0.5), (1, 0.7), (1, 1e-16), (1, 1.0 - 1e-16), (60, 0.5),
             (2**53, 1e-16), (2**53, 30.0 / 2**53), (10**9, 3e-8), (200, 0.1)]
    for i in range(200):
        l = int(rng.integers(1, 400)) if i % 2 else int(2 ** rng.uniform(0, 53))
        top = min(0.5, 30.0 / l)
        p = (top if i % 5 == 3 else float(rng.uniform(top, 0.5)) if i % 5 == 4
             else 10 ** rng.uniform(-16, np.log10(top)))
        pairs.append((l, 1.0 - p if i % 3 == 0 and p < 0.5 else p))
    return pairs


def _regime_edge(l: int, flip: bool) -> tuple[float, float]:
    """The last rate e_y (above 1/2 if flip) inside the inverted regime, stepping by
    floats toward 1/2, and the next float past it."""
    e_y = -math.expm1(-700.0 / l)
    e_y, half = (1.0 - e_y, 0.0) if flip else (e_y, 1.0)  # nextafter toward half nears 1/2
    while not _inverted(l, e_y):
        e_y = float(np.nextafter(e_y, 1.0 - half))
    while _inverted(l, past := float(np.nextafter(e_y, half))):
        e_y = past
    return e_y, past


class TestInversionDraws:
    """Inside the regime, _chunk_counts reads an inversion table instead of calling
    Generator.binomial: each count is the number of the table's cuts at or below the
    uniform, at most its last entry (_looked_up, walked by _walk), which where numpy
    inverts (p l <= 30) are numpy's integers, bit for bit."""

    def test_every_chunk_equals_generator_binomial(self):
        # Generator.binomial's integers wherever numpy inverts and past the regime;
        # the table's counts in between, where numpy would run BTPE
        sizes = (1, 1000, 4097, _CHUNK_TRIALS)
        pairs = _oracle_pairs()
        assert len(pairs) >= 200
        assert sum(min(e, 1.0 - e) * l <= 30.0 for l, e in pairs) >= 150  # numpy inverts
        assert any(e > 0.5 for _, e in pairs) and any(e * l == 30.0 for l, e in pairs)
        walked = [min(e, 1.0 - e) * l > 30.0 and _inverted(l, e) for l, e in pairs]
        assert sum(walked) >= 20 and sum(not _inverted(l, e) for l, e in pairs) >= 10
        for i, (l, e_y) in enumerate(pairs):
            key = np.array([i, 2 * i + 1], np.uint64)
            chunk, count = i % 7, sizes[i % 4]
            got = _drawn(key, l, e_y, chunk, count)
            assert got.dtype == np.int64
            oracle = _walked_counts if walked[i] else _numpy_counts
            np.testing.assert_array_equal(got, oracle(key, l, e_y, chunk, count),
                                          err_msg=f"l={l}, e_y={e_y!r}")

    @pytest.mark.parametrize("l", [1010, 1011, 2000, 4096, 10**6, 2**53])
    def test_the_regime_ends_at_a_normal_first_term(self, monkeypatch, l):
        # l * -log1p(-p) == 700 still inverts, its first term e**-700 a normal double;
        # the next float past it, on either side of 1/2, leaves the chunk to
        # Generator.binomial, and no table is built for it
        tables = []
        monkeypatch.setattr(mcsim, "_inversion_table",
                            lambda n, p, table=_inversion_table: tables.append(p) or table(n, p))
        key = np.array([5, l], np.uint64)
        assert l * -math.log1p(-_regime_edge(l, flip=False)[0]) == 700.0
        for flip in (False, True):
            inside, past = _regime_edge(l, flip)
            for e_y, oracle in ((inside, _walked_counts), (past, _numpy_counts)):
                tables.clear()
                np.testing.assert_array_equal(_drawn(key, l, e_y, 1, 1000),
                                              oracle(key, l, e_y, 1, 1000))
                assert len(tables) == (e_y == inside)

    @pytest.mark.parametrize("l, p", [(200, 0.1), (1, 0.3), (60, 0.5), (7, 1e-16),
                                      (10**9, 3e-8), (2**53, 3e-15), (40, 0.01),
                                      (1009, 0.5), (699_000, 1e-3)])  # the widest tables
    def test_the_lookup_is_the_scalar_walk_at_every_cut(self, l, p):
        # a uniform is a word's top 53 bits, so the lookup sees only the doubles k 2**-53:
        # those at and either side of every cut, of points 1e-12 either side of it, of
        # every bin edge and of 10,000 drawn uniforms
        px = _inversion_table(l, p)
        cuts = np.cumsum(px)
        edges = np.concatenate((cuts, cuts - 1e-12, cuts + 1e-12, np.arange(_GUIDE) / _GUIDE))
        rng = np.random.default_rng(l)
        u = _grid(np.concatenate((edges, rng.random(10_000))))
        looked_up = _looked_up(u, px)
        np.testing.assert_array_equal(looked_up, [_walk(x, cuts.tolist()) for x in u.tolist()])
        np.testing.assert_array_equal(_inverse(px, u.size)(_words(u, rng)), looked_up)

    @pytest.mark.parametrize("px", [
        _inversion_table(200, 0.1)[:1], _inversion_table(1, 0.3), _inversion_table(699_000, 1e-3),
        (0.25, 0.25, 0.25, 0.25), (0.5, 0.5 - 2**-13), _inversion_table(1000, 0.3),
        (0.3, 0.3, 0.1),
    ], ids=["1-entry", "2-entries", "widest", "cuts-on-bin-edges", "last-cut-near-1", "l1000",
            "cuts-end-at-0.7"])
    def test_every_guide_size_is_the_scalar_walk_at_bin_edges_and_cuts(self, px):
        # a guide has a power of 2 bins from _GUIDE to 16 _GUIDE, set by the chunk's count,
        # so every bin edge of every guide is some b / (16 _GUIDE).  Uniforms (the doubles
        # k 2**-53 a word gives) on those edges and either side, and at every cut, 1e-12
        # either side of it and a float either side of those, in guides for chunks of 1 to
        # 65,536 draws, each call as many words (64 cuts, first and last among them, of a
        # wider table); the first cut of the tables at l = 1000 and 699,000 lies in bin 0.
        # Real tables end within 1e-12 of 1; the last one ends at 0.7, so whole bins of
        # every guide lie past its last cut, and a u there takes the last entry
        table = np.cumsum(px)
        cuts = table[np.unique(np.linspace(0, len(px) - 1, 64).astype(int))]
        u = _grid(np.concatenate((np.arange(16 * _GUIDE) / (16 * _GUIDE), cuts,
                                  cuts - 1e-12, cuts + 1e-12)))
        looked_up = _looked_up(u, px)
        np.testing.assert_array_equal(looked_up, [_walk(x, table.tolist()) for x in u.tolist()])
        assert (cuts[0] < 1e-12) == (len(px) > 100)
        rng = np.random.default_rng(len(px))
        for count in (1, 2000, 4096, 8192, 16_384, 50_000, _CHUNK_TRIALS):
            # calls of `count` uniforms, padded with uniforms already used; 300 calls at most
            invert = _inverse(px, count)
            picks = np.concatenate((np.arange(u.size), rng.choice(u.size, -u.size % count)))
            rows = picks.reshape(-1, count)
            for row in rows[rng.permutation(len(rows))[:300]]:
                np.testing.assert_array_equal(invert(_words(u[row], rng)), looked_up[row])

    @pytest.mark.parametrize("count", [1, 2000, 4096, 8192, 16_384, 50_000, _CHUNK_TRIALS])
    def test_every_guide_size_draws_numpy_s_integers_or_the_walk_s(self, count):
        for l, e_y, oracle in ((1, 0.3, _numpy_counts), (200, 0.1, _numpy_counts),
                               (40, 0.7, _numpy_counts), (100, 0.45, _walked_counts)):
            key = np.array([l, count], np.uint64)
            np.testing.assert_array_equal(_drawn(key, l, e_y, 3, count),
                                          oracle(key, l, e_y, 3, count))

    def test_a_scenario_builds_its_table_once(self):
        # tables are cached by (l, p), as tuples that no caller can change, so the 31
        # chunks of a 2,000,000-trial scenario build one table between them
        s = InstanceScenario(l=1000, y=1, e_plus=0.3, e_minus=0.3)
        _inversion_table.cache_clear()
        _cut_counts([s], 2_000_000, 5, workers=1)
        info = _inversion_table.cache_info()
        assert (info.misses, info.hits) == (1, 30)
        assert isinstance(_inversion_table(1000, 0.3), tuple)

    @pytest.mark.parametrize("l, e_y, keep", [(200, 0.1, 2), (200, 0.1, 36), (200, 0.95, 4),
                                              (200, 0.95, 24), (1000, 0.3, 300), (1000, 0.3, 357)])
    def test_words_past_the_last_cut_take_the_last_entry(self, monkeypatch, l, e_y, keep):
        # a cut-short table ends well below 1, so some of a chunk's words land past its last
        # cut, on either side of p l = 30 and of 1/2: every block is still an array, and each
        # such word counts the last entry, keep - 1 (l less that where e_y > 1/2)
        monkeypatch.setattr(mcsim, "_inversion_table",
                            lambda n, p, table=_inversion_table: table(n, p)[:keep])
        key = np.array([3, keep], np.uint64)
        blocks = list(_chunk_counts(key, l, e_y, 2, _CHUNK_TRIALS, np.random.Philox(0)))
        assert all(isinstance(block, np.ndarray) and block.dtype == np.int64 for block in blocks)
        px = mcsim._inversion_table(l, min(e_y, 1.0 - e_y))
        u = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, 2])).random(_CHUNK_TRIALS)
        past = u >= np.cumsum(px)[-1]
        assert past.any()
        wrong = np.where(past, keep - 1, _looked_up(u, px))
        np.testing.assert_array_equal(np.concatenate(blocks), l - wrong if e_y > 0.5 else wrong)

    def test_a_zero_rate_draws_nothing(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("drew at e_y = 0")

        monkeypatch.setattr(np.random, "Generator", no_generator)
        got = _drawn(np.array([1, 2], np.uint64), 50, 0.0, 0, 100)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.zeros(100, np.int64))

    def test_one_label_draws_zeros_and_ones(self):
        key = np.array([8, 9], np.uint64)
        for e_y in (1e-16, 0.3, 0.5, 0.7, 1.0 - 1e-16):
            got = _drawn(key, 1, e_y, 0, 10_000)
            np.testing.assert_array_equal(got, _numpy_counts(key, 1, e_y, 0, 10_000))
            assert set(np.unique(got)) <= {0, 1}


class TestBlocks:
    """A chunk is drawn in blocks of at most _BLOCK counts, read in order from its one
    Philox range: joined, they are the chunk's draws, and a job tallies each block as
    it comes, so it holds one block, not its chunk."""

    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5,
                                       _CHUNK_TRIALS])
    def test_the_blocks_join_into_the_chunk_s_draws(self, count):
        # numpy's integers where it inverts (p l <= 30) and past the regime, the walk's in
        # between, each on either side of 1/2, and zeros at a zero rate; one bit generator
        # draws every chunk, each under its own key, as a new Philox for each would
        def zeros(key, l, e_y, chunk, count):
            return np.zeros(count, np.int64)

        sizes = [_BLOCK] * (count // _BLOCK) + [count % _BLOCK] * (count % _BLOCK > 0)
        bits = np.random.Philox(0)
        for l, e_y, oracle in ((200, 0.1, _numpy_counts), (200, 0.95, _numpy_counts),
                               (100, 0.45, _walked_counts), (100, 0.55, _walked_counts),
                               (2000, 0.4, _numpy_counts), (2000, 0.6, _numpy_counts),
                               (50, 0.0, zeros)):
            key = np.array([l, count], np.uint64)
            blocks = list(_chunk_counts(key, l, e_y, 4, count, bits))
            assert [block.size for block in blocks] == sizes
            assert all(block.dtype == np.int64 for block in blocks)
            np.testing.assert_array_equal(np.concatenate(blocks), oracle(key, l, e_y, 4, count),
                                          err_msg=f"l={l}, e_y={e_y!r}")

    def test_a_word_s_double_and_guide_bin_are_generator_random_s(self):
        # the lookup reads raw words: (word >> 11) 2**-53 is Generator.random's double, and
        # word >> (64 - b) its bin in every guide of 2**b bins
        key = np.array([11, 12], np.uint64)
        words = np.random.Philox(key=key, counter=[0, 0, 0, 5]).random_raw(100_000)
        u = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, 5])).random(100_000)
        np.testing.assert_array_equal((words >> 11) * 2.0**-53, u)
        for b in range(_GUIDE.bit_length() - 1, _GUIDE.bit_length() + 4):  # _GUIDE..16 _GUIDE
            np.testing.assert_array_equal(words >> (64 - b), np.floor(u * 2.0**b))

    @pytest.mark.parametrize("s", [
        InstanceScenario(l=1000, y=1, e_plus=0.3, e_minus=0.3),  # inverted, walked
        InstanceScenario(l=200, y=1, e_plus=0.1, e_minus=0.1),  # inverted, numpy's integers
        InstanceScenario(l=1000, y=1, e_plus=0.7, e_minus=0.2),  # inverted and flipped
        InstanceScenario(l=2000, y=1, e_plus=0.4, e_minus=0.4),  # BTPE
        InstanceScenario(l=50, y=1, e_plus=0.0, e_minus=0.4),  # a zero rate
    ])
    def test_a_full_chunk_is_tallied_in_under_a_mebibyte(self, s):
        # allocator-independent: a whole chunk's temporaries, six arrays of 64 Ki counts,
        # came to about 1.6 MiB; a block's are a quarter of that
        _cut_counts([s], _CHUNK_TRIALS, 1, workers=1)  # the table is built and cached
        tracemalloc.start()
        try:
            _cut_counts([s], _CHUNK_TRIALS, 1, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


class TestStream:
    """Inside the regime a chunk's counts depend on Philox and the table alone: checked
    against a Philox written from its round function, not numpy's."""

    @pytest.mark.parametrize("key, chunk", [((1, 2), 0), ((0xDEADBEEF, 2**64 - 1), 2**40),
                                            ((2**64 - 1, 5), 7)])
    def test_random_raw_is_philox4x64_10(self, key, chunk):
        bits = np.random.Philox(key=np.array(key, np.uint64), counter=[0, 0, 0, chunk])
        assert bits.random_raw(9).tolist() == _philox_words(key, [0, 0, 0, chunk], 9)

    @pytest.mark.parametrize("l, e_y", [(1000, 0.7), (200, 0.1)])
    def test_an_inverted_chunk_is_the_lookup_of_its_philox_words(self, l, e_y):
        # two blocks, flipped past p l = 30 and numpy's own inversion below it
        key, count = (2**64 - 1, 5), _BLOCK + 5
        u = [(w >> 11) * 2.0**-53 for w in _philox_words(key, [0, 0, 0, 7], count)]
        wrong = _looked_up(u, _inversion_table(l, min(e_y, 1.0 - e_y)))
        np.testing.assert_array_equal(_drawn(np.array(key, np.uint64), l, e_y, 7, count),
                                      l - wrong if e_y > 0.5 else wrong)


def _record_draws(monkeypatch) -> list[tuple[bytes, int]]:
    """Make mcsim's draws also append each (key bytes, chunk) they draw to the list returned."""
    draws = []

    def counting(key, l, e_y, chunk, count, bits):
        draws.append((key.tobytes(), chunk))
        return _chunk_counts(key, l, e_y, chunk, count, bits)

    monkeypatch.setattr(mcsim, "_chunk_counts", counting)
    return draws


class TestSharedDraw:
    """Every treatment of a scenario reads the same wrong-label counts."""

    def test_symmetric_scenario_gives_the_threshold_treatments_one_tally(self):
        # balanced priors and equal rates put the memorize, correction and
        # peer thresholds all at l/2, so on shared draws their tallies agree
        s = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2, p_plus=0.5)
        memorize, correction, peer = (run_trials(s, t, trials=20_000, seed=7) for t in (
            Treatment.MEMORIZE, Treatment.LOSS_CORRECTION, Treatment.PEER_LOSS))
        assert memorize.tie > 0  # the even split ties
        assert memorize == correction == peer
        by_event = {(c.treatment, c.event): c for c in bound_report(s, 20_000, seed=7).checks}
        assert (by_event[(Treatment.LOSS_CORRECTION, "strict_success")].mc_estimate
                == by_event[(Treatment.PEER_LOSS, "strict_success")].mc_estimate
                == memorize.success / 20_000)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bound_report_draws_each_chunk_once(self, monkeypatch, workers):
        draws = _record_draws(monkeypatch)
        s = InstanceScenario(l=6, y=-1, e_plus=0.1, e_minus=0.3)
        trials = 2 * _CHUNK_TRIALS + 5
        bound_report(s, trials=trials, seed=3, workers=workers)
        key = _stream_key(3, s).tobytes()
        assert sorted(draws) == [(key, 0), (key, 1), (key, 2)]
        # a sweep draws each (scenario, chunk) of its batch once; a repeated
        # scenario draws its chunks again, from its own key, and repeats its rows
        others = [InstanceScenario(l=l, y=1, e_plus=0.2, e_minus=0.2) for l in (1, 5, 9)]
        draws.clear()
        reports = sweep([s, *others, s], trials=trials, seed=3, workers=workers)
        keys = [_stream_key(3, x).tobytes() for x in (s, *others, s)]
        assert sorted(draws) == sorted((k, c) for k in keys for c in range(3))
        assert reports[0] == reports[-1] == bound_report(s, trials=trials, seed=3)

    @pytest.mark.parametrize("s", [
        InstanceScenario(l=9, y=-1, e_plus=0.1, e_minus=0.5, smoothing_a=0.3),
        # no trial draws few wrong labels, so the lowest cuts count no trials
        InstanceScenario(l=200, y=1, e_plus=0.3, e_minus=0.2),
    ])
    def test_run_trials_equals_the_bound_report_tally(self, s):
        trials, seed = 5000, 11
        report = bound_report(s, trials, seed)
        wrong = _drawn(_stream_key(seed, s), s.l, s.e_y, 0, trials)
        hist = np.bincount(wrong, minlength=s.l + 1)
        for check in report.checks:
            tally = run_trials(s, check.treatment, trials, seed)
            table = _table(s, check.treatment)
            assert (tally.success, tally.failure, tally.tie) == tuple(
                int(hist[table == code].sum()) for code in (_SUCCESS, _FAILURE, _TIE))
            # each check's count is the tally's count(s) of the outcomes it names
            count = {"mean_label_error": None, "strict_success": tally.success,
                     "tie_inclusive_failure": tally.failure + tally.tie,
                     "ls_better_or_tie": tally.success + tally.tie}[check.event]
            if count is not None:
                assert check.mc_estimate == count / trials
                assert check.ci == _wilson(count, trials)


class TestRunTrials:
    def test_outcomes_partition_the_trials(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = _random_scenario(rng)
            for t in Treatment:
                tally = run_trials(s, t, 2000, seed=int(rng.integers(1 << 16)))
                assert tally.success + tally.failure + tally.tie == tally.trials == 2000

    def test_zero_noise_outcomes(self):
        s = InstanceScenario(l=8, y=1, e_plus=0.0, e_minus=0.0)
        lc = run_trials(s, Treatment.LOSS_CORRECTION, 500, seed=0)
        assert lc.tie == 500  # correction is the identity map: every trial ties
        mem = run_trials(s, Treatment.MEMORIZE, 500, seed=0)
        assert mem.success == 500
        assert bound_report(s, 500, seed=0).checks[0].mc_estimate == 0.0
        ls = run_trials(s, Treatment.LABEL_SMOOTHING, 500, seed=0)
        assert ls.failure == 500  # smoothing always gives up mass on the true label
        peer = run_trials(s, Treatment.PEER_LOSS, 500, seed=0)
        assert peer.success == 500

    def test_success_rate_matches_exact_binomial_anchor(self):
        # strict-majority success for l=10, e=0.2: P[Bin(10, 0.8) >= 6]
        s = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2)
        tally = run_trials(s, Treatment.LOSS_CORRECTION, 100_000, seed=20240901)
        assert abs(tally.success / tally.trials - 0.9672065024) < 0.005
        check = bound_report(s, 100_000, seed=20240901).checks[1]
        assert (check.treatment, check.event) == (Treatment.LOSS_CORRECTION, "strict_success")
        assert check.mc_estimate == tally.success / tally.trials
        lo, hi = check.ci
        assert lo <= check.mc_estimate <= hi

    def test_peer_strict_failure_rate_matches_exact_anchor(self):
        # balanced priors put the peer threshold at l/2: strict failure is
        # P[Bin(10, 0.2) >= 6] = 0.0063693824
        s = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2, p_plus=0.5)
        tally = run_trials(s, Treatment.PEER_LOSS, 100_000, seed=20240901)
        assert abs(tally.failure / tally.trials - 0.0063693824) < 0.003

    def test_memorize_estimate_is_the_pooled_flip_rate(self):
        s = InstanceScenario(l=6, y=-1, e_plus=0.1, e_minus=0.35)
        check = bound_report(s, 50_000, seed=3).checks[0]
        assert check.treatment is Treatment.MEMORIZE and check.exact == 0.35
        total = 50_000 * 6
        se = np.sqrt(0.35 * 0.65 / total)
        assert abs(check.mc_estimate - 0.35) < 4 * se
        flips = int(_dense(s, 50_000, 3) @ np.arange(7))
        assert check.mc_estimate == flips / total
        assert check.ci == _wilson(flips, total)

    def test_estimate_and_ci_derive_from_the_success_count(self):
        s = InstanceScenario(l=5, y=1, e_plus=0.3, e_minus=0.1)
        tally = run_trials(s, Treatment.PEER_LOSS, 4000, seed=9)
        check = bound_report(s, 4000, seed=9).checks[4]
        assert (check.treatment, check.event) == (Treatment.PEER_LOSS, "strict_success")
        assert check.mc_estimate == tally.success / 4000
        assert check.ci == _wilson(tally.success, 4000)

    def test_accepts_treatment_by_value_string(self):
        s = InstanceScenario(l=4, y=1, e_plus=0.2, e_minus=0.2)
        a = run_trials(s, "loss_correction", 1000, seed=1)
        b = run_trials(s, Treatment.LOSS_CORRECTION, 1000, seed=1)
        assert (a.success, a.failure, a.tie) == (b.success, b.failure, b.tie)

    def test_rejects_bad_arguments(self):
        s = InstanceScenario(l=4, y=1, e_plus=0.2, e_minus=0.2)
        with pytest.raises(ValueError):
            run_trials(s, Treatment.MEMORIZE, 0, seed=1)
        with pytest.raises(ValueError):
            run_trials(s, Treatment.MEMORIZE, 100, seed=-1)
        with pytest.raises(ValueError):
            run_trials(s, Treatment.MEMORIZE, 100, seed=1, workers=0)
        with pytest.raises(ValueError, match="trials: must be <= 9007199254740992"):
            run_trials(s, Treatment.MEMORIZE, 2**53 + 1, seed=1)
        with pytest.raises(ValueError):
            run_trials(s, "fix_everything", 100, seed=1)

    def test_wrong_counts_follow_the_binomial_law(self):
        s = InstanceScenario(l=3, y=1, e_plus=0.4, e_minus=0.2)
        key = _stream_key(17, s)
        _assert_binomial_histogram(_drawn(key, 3, 0.4, 0, 100_000), 3, 0.4)

    def test_the_whole_histogram_passes_a_g_test_against_the_binomial_pmf(self):
        # every treatment's counts are sums of this histogram, so one law test
        # covers all four; the pmf comes from scipy, independent of binom_tail.
        # Bonferroni: family-wise alpha 1e-3 over every scenario; seeds fixed
        # in advance
        ls = (1, 2, 7, 50, 1000, 100_000, 1_000_000)
        rates = (1e-4, 0.05, 0.3, 0.49)
        trials, alpha = 200_000, 1e-3 / (len(ls) * len(rates))
        for i, (l, e) in enumerate((l, e) for l in ls for e in rates):
            y = 1 if i % 2 else -1
            s = InstanceScenario(l=l, y=y, e_plus=e if y == 1 else 0.2,
                                 e_minus=e if y == -1 else 0.2)
            hist = _dense(s, trials, seed=1000 + i)
            assert hist.sum() == trials
            bins, g, p = _g_test(hist, l, e)
            assert p > alpha, (l, e, bins, g, p)

    @pytest.mark.parametrize("l, e_y, seed", [(1009, 0.5, 24_001), (699_000, 1e-3, 24_002),
                                              (1010, 0.5, 24_003)])
    def test_the_widest_tables_and_btpe_past_them_pass_a_g_test(self, l, e_y, seed):
        # the two widest inverted tables, about 665 and 965 entries, and numpy's BTPE
        # just past the regime; Bonferroni over the three, seeds fixed in advance
        assert _inverted(l, e_y) == (l != 1010)
        s = InstanceScenario(l=l, y=1, e_plus=e_y, e_minus=0.2)
        hist = _dense(s, 200_000, seed)
        assert hist.sum() == 200_000
        bins, g, p = _g_test(hist, l, e_y)
        assert p > 1e-3 / 3, (bins, g, p)

    def test_count_and_label_level_samplers_share_the_binomial_law(self):
        rng = np.random.default_rng(19)
        for l in range(1, 9):
            e_y = float(rng.uniform(0.05, 0.6))
            s = InstanceScenario(l=l, y=1, e_plus=e_y, e_minus=0.3)
            key = _stream_key(int(rng.integers(1 << 16)), s)
            _assert_binomial_histogram(_drawn(key, l, e_y, 0, 50_000), l, e_y)
            _assert_binomial_histogram(_label_level_counts(key, l, e_y, 0, 50_000), l, e_y)


class TestOutcomeTables:
    def test_memorize_table_is_the_strict_majority_rule(self):
        s = InstanceScenario(l=4, y=1, e_plus=0.2, e_minus=0.2)
        table = _table(s, Treatment.MEMORIZE)
        np.testing.assert_array_equal(
            table, [_SUCCESS, _SUCCESS, _TIE, _FAILURE, _FAILURE]
        )

    def test_equal_rates_reduce_correction_to_the_majority_rule(self):
        # tiny rates included: the corrected mass then moves off P[y] by less
        # than the tie tolerance, yet the decision is still the majority's
        for l, y, e in itertools.product((1, 4, 5, 10, 101), (-1, 1), (0.2, 1e-13)):
            s = InstanceScenario(l=l, y=y, e_plus=e, e_minus=e)
            np.testing.assert_array_equal(
                _table(s, Treatment.LOSS_CORRECTION),
                _table(s, Treatment.MEMORIZE),
            )

    def test_unequal_rates_shift_the_correction_threshold(self):
        # the corrected label beats the empirical one iff correct > l * e_other / (e+ + e-):
        # 9 * 0.5 / 0.6 = 7.5 correct labels
        s = InstanceScenario(l=9, y=1, e_plus=0.1, e_minus=0.5)
        table = _table(s, Treatment.LOSS_CORRECTION)
        expected = [_SUCCESS if 9 - w > 7.5 else _FAILURE for w in range(10)]
        np.testing.assert_array_equal(table, expected)
        # flipping the true label swaps which rate drives the threshold: 9 * 0.1 / 0.6 = 1.5
        s_neg = InstanceScenario(l=9, y=-1, e_plus=0.1, e_minus=0.5)
        table = _table(s_neg, Treatment.LOSS_CORRECTION)
        expected = [_SUCCESS if 9 - w > 1.5 else _FAILURE for w in range(10)]
        np.testing.assert_array_equal(table, expected)

    def test_noiseless_correction_always_ties(self):
        # both rates zero: the correction is the identity map, on every split
        for y in (-1, 1):
            s = InstanceScenario(l=6, y=y, e_plus=0.0, e_minus=0.0)
            np.testing.assert_array_equal(
                _table(s, Treatment.LOSS_CORRECTION), np.full(7, _TIE)
            )

    def test_one_sided_noise_makes_the_reachable_split_a_tie(self):
        # e_y = 0 keeps every label correct; the threshold lands exactly on l
        s = InstanceScenario(l=5, y=1, e_plus=0.0, e_minus=0.3)
        table = _table(s, Treatment.LOSS_CORRECTION)
        assert table[0] == _TIE

    def test_smoothing_table_delegates_to_the_comparator(self):
        code = {
            Comparison.LS_BETTER: _SUCCESS,
            Comparison.LC_BETTER: _FAILURE,
            Comparison.TIE: _TIE,
        }
        rng = np.random.default_rng(29)
        scenarios = [
            InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2, smoothing_a=0.1),
            InstanceScenario(l=9, y=-1, e_plus=0.1, e_minus=0.5, smoothing_a=0.3),
        ]
        for i in range(40):
            s = _random_scenario(rng)
            if i % 4 == 0:  # equal rates reach the exact even-split tie
                e = float(rng.uniform(0.01, 0.45))
                s = InstanceScenario(
                    l=2 * s.l, y=s.y, e_plus=e, e_minus=e, smoothing_a=s.smoothing_a
                )
            scenarios.append(s)
        assert {s.y for s in scenarios} == {-1, 1}
        assert any(s.e_plus != s.e_minus for s in scenarios)
        for s in scenarios:
            rates = BinaryNoiseRates(s.e_plus, s.e_minus)
            table = _table(s, Treatment.LABEL_SMOOTHING)
            for wrong in range(s.l + 1):
                p_true = (s.l - wrong) / s.l
                probs = [1 - p_true, p_true] if s.y == 1 else [p_true, 1 - p_true]
                got = compare_ls_lc(LabelDist(np.array(probs)), s.y, rates, s.smoothing_a)
                assert table[wrong] == code[got]

    def test_equal_rates_tie_near_an_even_split_as_the_comparator_does(self):
        # at l = 2**41 + 1 the two middle counts put p_true 2.3e-13 from 1/2: the two
        # errors differ there, so only the even-split rule, within _TIE_EPS, ties them
        s = InstanceScenario(l=2**41 + 1, y=1, e_plus=0.2, e_minus=0.2, smoothing_a=0.1)
        smoothing = list(Treatment).index(Treatment.LABEL_SMOOTHING)
        for wrong in (2**40, 2**40 + 1):
            assert _codes(_params([s]), np.array([wrong]))[smoothing, 0, 0] == _TIE
            p_true = (s.l - wrong) / s.l
            dist = LabelDist(np.array([1 - p_true, p_true]))
            assert compare_ls_lc(dist, 1, BinaryNoiseRates(0.2, 0.2), 0.1) is Comparison.TIE

    def test_unequal_rates_tie_on_equal_errors_as_the_comparator_does(self):
        # at these smoothing weights the capped corrected label and the smoothed one leave
        # the same error on y, bit for bit; the rates differ, so only the equal-error rule
        # ties them
        smoothing = list(Treatment).index(Treatment.LABEL_SMOOTHING)
        for l, wrong, y, e_plus, e_minus, a in ((12, 4, -1, 0.2, 0.022, 0.40102827763496113),
                                                (31, 22, 1, 0.247, 0.001, 0.45028641571194705)):
            s = InstanceScenario(l=l, y=y, e_plus=e_plus, e_minus=e_minus, smoothing_a=a)
            assert _codes(_params([s]), np.array([wrong]))[smoothing, 0, 0] == _TIE
            p_true = (l - wrong) / l
            dist = LabelDist(np.array([1 - p_true, p_true] if y == 1 else [p_true, 1 - p_true]))
            assert compare_ls_lc(dist, y, BinaryNoiseRates(e_plus, e_minus), a) is Comparison.TIE

    def test_smoothing_favorable_region_is_an_upper_tail_of_wrong_counts(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            s = _random_scenario(rng)
            table = _table(s, Treatment.LABEL_SMOOTHING)
            nonfail = np.nonzero(table != _FAILURE)[0]
            if nonfail.size:
                assert np.all(table[nonfail[0] :] != _FAILURE)

    def test_every_table_is_block_monotone_in_the_wrong_count(self):
        # the exact columns integrate each event as one binomial tail, which
        # needs every table to read successes, ties, failures as the wrong
        # count grows (label smoothing the other way round: it gains as
        # labels flip)
        rng = np.random.default_rng(41)
        scenarios = [_random_scenario(rng) for _ in range(60)]
        scenarios += [  # skewed priors and long label runs
            InstanceScenario(l=int(rng.integers(30, 200)), y=y, e_plus=0.15, e_minus=0.35,
                             p_plus=p_plus, smoothing_a=0.05)
            for y in (-1, 1) for p_plus in (0.05, 0.5, 0.95)
        ]
        scenarios += [  # e_y = 0, with and without noise on the other label
            InstanceScenario(l=l, y=y, e_plus=e if y == -1 else 0.0, e_minus=e if y == 1 else 0.0)
            for l in (1, 6, 9) for y in (-1, 1) for e in (0.0, 0.3)
        ]
        scenarios += [  # even l, equal rates, balanced priors: every table ties at l/2
            InstanceScenario(l=l, y=y, e_plus=e, e_minus=e)
            for l in (2, 10, 40) for y in (-1, 1) for e in (0.1, 0.3, 0.45)
        ]
        assert {s.y for s in scenarios} == {-1, 1}
        assert any(s.e_y == 0.0 for s in scenarios)
        forward = np.empty(3, dtype=int)  # rank of each outcome code
        forward[[_SUCCESS, _TIE, _FAILURE]] = [0, 1, 2]
        ranks = {t: forward for t in Treatment}
        ranks[Treatment.LABEL_SMOOTHING] = 2 - forward
        ties = 0
        for s in scenarios:
            for treatment in Treatment:
                table = _table(s, treatment)
                assert np.all(np.diff(ranks[treatment][table]) >= 0), (s, treatment, table)
                ties += int(np.any(table == _TIE))
        assert ties >= 4 * 18  # every even-l equal-rate scenario ties in all four tables

    def test_peer_table_thresholds_at_the_global_noisy_rate(self):
        s = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2, p_plus=0.5)
        table = _table(s, Treatment.PEER_LOSS)
        # threshold = 10 * 0.5 = 5 correct labels: wrong = 5 ties
        np.testing.assert_array_equal(table[:5], np.full(5, _SUCCESS))
        assert table[5] == _TIE
        np.testing.assert_array_equal(table[6:], np.full(5, _FAILURE))
        skewed = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2, p_plus=0.9)
        rate = skewed.noisy_positive_rate  # 0.9*0.8 + 0.1*0.2 = 0.74
        table = _table(skewed, Treatment.PEER_LOSS)
        expected = [_SUCCESS if 10 - w > 10 * rate else _FAILURE for w in range(11)]
        np.testing.assert_array_equal(table, expected)

    def test_peer_table_agrees_with_peer_predict_on_every_split(self):
        # peer_predict decides from the local +1 mass against the global noisy
        # rate; the table must give the same outcome for every wrong count
        rng = np.random.default_rng(37)
        scenarios = [_random_scenario(rng) for _ in range(40)]
        scenarios += [
            InstanceScenario(l=l, y=y, e_plus=0.15, e_minus=0.3, p_plus=p_plus)
            for l in (7, 12) for y in (-1, 1) for p_plus in (0.05, 0.9)
        ]
        scenarios += [  # symmetric regime at even l: the even split ties
            InstanceScenario(l=l, y=y, e_plus=e, e_minus=e)
            for l in (2, 10, 40) for y in (-1, 1) for e in (0.1, 0.3, 0.45)
        ]
        scenarios += [  # near-ties at the even split: global-rate margins of
            # +-6e-12 (outside the tie band), +-6e-13 and +-6e-15 (inside it)
            InstanceScenario(l=l, y=y, e_plus=0.2, e_minus=0.2, p_plus=0.5 + d)
            for l, offset in ((10, 1e-11), (10_000, 1e-12), (10_000, 1e-14))
            for d in (offset, -offset) for y in (-1, 1)
        ]
        assert {s.y for s in scenarios} == {-1, 1}
        ties = 0
        for s in scenarios:
            table = _table(s, Treatment.PEER_LOSS)
            for wrong in range(s.l + 1):
                p_true = (s.l - wrong) / s.l
                probs = [1 - p_true, p_true] if s.y == 1 else [p_true, 1 - p_true]
                decision = peer_predict(LabelDist(np.array(probs)), s.noisy_positive_rate)
                if decision.tie:
                    want = _TIE
                else:
                    want = _SUCCESS if decision.predicted == s.y else _FAILURE
                assert table[wrong] == want, (s, wrong)
                ties += want == _TIE
        assert ties >= 18 + 8  # every symmetric even-l scenario reaches its tie

    def test_correction_table_agrees_with_corrected_label_on_every_split(self):
        # success iff corrected_label's uncapped mass on the true label beats
        # the empirical mass.  That gain is (e+ + e-) / gap times a margin in
        # label mass, which ties within the comparators' tolerance, so tiny
        # rates shrink the gain but not the decision
        rng = np.random.default_rng(47)
        scenarios = [_random_scenario(rng) for _ in range(40)]
        scenarios += [  # e_y = 0, with and without noise on the other label
            InstanceScenario(l=l, y=y, e_plus=e if y == -1 else 0.0, e_minus=e if y == 1 else 0.0)
            for l in (1, 6) for y in (-1, 1) for e in (0.0, 0.3)
        ]
        scenarios += [  # tiny rates, equal and unequal: gains far inside 1e-12
            InstanceScenario(l=l, y=y, e_plus=1e-13, e_minus=e_minus)
            for l in (2, 9, 40) for y in (-1, 1) for e_minus in (1e-13, 3e-13)
        ]
        # near-tie: e_other puts the count threshold l * e_other / (e+ + e-)
        # 3e-10 above 6 of 10 correct labels, a margin of -3.0e-11 there
        e_other = 0.2 * (6 + 3e-10) / (4 - 3e-10)
        scenarios += [
            InstanceScenario(l=10, y=y, e_plus=0.2 if y == 1 else e_other,
                             e_minus=e_other if y == 1 else 0.2)
            for y in (-1, 1)
        ]
        assert {s.y for s in scenarios} == {-1, 1}
        decided = 0
        for s in scenarios:
            rates = BinaryNoiseRates(s.e_plus, s.e_minus)
            noise = s.e_plus + s.e_minus
            table = _table(s, Treatment.LOSS_CORRECTION)
            for wrong in range(s.l + 1):
                p_true = (s.l - wrong) / s.l
                probs = [1 - p_true, p_true] if s.y == 1 else [p_true, 1 - p_true]
                raw = corrected_label(LabelDist(np.array(probs)), rates).raw.prob_of(s.y)
                margin = (raw - p_true) * (1 - noise) / noise if noise else 0.0
                want = _SUCCESS if margin > 1e-12 else _FAILURE if margin < -1e-12 else _TIE
                assert table[wrong] == want, (s, wrong, margin)
                decided += noise < 1e-12 and want != _TIE
        assert decided > 100  # the tiny-rate splits keep their decisions


def _grid_scenarios() -> list[InstanceScenario]:
    """The 5,000-scenario grid: l = 1..100 by 50 symmetric rates 0.005..0.495, p_plus 0.3."""
    rates = [(2 * i + 1) / 200 for i in range(50)]
    return [InstanceScenario(l=l, y=1, e_plus=e, e_minus=e, p_plus=0.3)
            for l in range(1, 101) for e in rates]


def _random_scenarios(seed: int, count: int, rate) -> list[InstanceScenario]:
    """count scenarios with l < 300, both labels, rates drawn by rate(rng) (every
    fourth pair made equal, at the smaller rate, so that even splits tie) and
    free priors and smoothing."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for i in range(count):
        e_plus, e_minus = rate(rng)
        if i % 4 == 0:
            e_plus = e_minus = min(e_plus, e_minus)
        scenarios.append(InstanceScenario(
            l=int(rng.integers(1, 300)), y=int(rng.choice([-1, 1])), e_plus=e_plus,
            e_minus=e_minus, p_plus=float(rng.uniform(0.01, 0.99)),
            smoothing_a=float(rng.uniform(0.01, 0.99))))
    return scenarios


def _moderate_rates(rng):
    e_plus = float(rng.uniform(0.0, 0.9))
    return e_plus, float(rng.uniform(0.0, 0.99 - e_plus))


def _tiny_rates(rng):
    return tuple(float(x) for x in 10.0 ** rng.uniform(-16, -8, size=2))


class TestCuts:
    """Two bisected cuts per treatment stand for its whole outcome table."""

    @pytest.mark.parametrize("scenarios", [
        _grid_scenarios,
        lambda: _random_scenarios(53, 3000, _moderate_rates),
        lambda: _random_scenarios(59, 3000, _tiny_rates),
    ], ids=["grid", "random", "tiny-rates"])
    def test_every_table_runs_in_blocks_with_the_bisected_edges(self, scenarios):
        # each table reads its leading code, then ties, then the third code as
        # the wrong count grows (label smoothing leads with failures), and
        # the cuts the engine bisects are exactly where those blocks end
        scenarios = scenarios()
        params = _params(scenarios)
        l = params[0]
        w = np.arange(l.max() + 1)
        codes = _codes(params, w)
        lead = np.array([_FAILURE if t is Treatment.LABEL_SMOOTHING else _SUCCESS
                         for t in Treatment])[:, None, None]
        rank = np.where(codes == lead, 0, np.where(codes == _TIE, 1, 2))
        inside = w <= l
        rank[:, ~inside] = 2  # past l, as if the trailing block went on
        backward = np.argwhere(np.diff(rank, axis=2) < 0)
        assert backward.size == 0, [(scenarios[i], list(Treatment)[t]) for t, i, _ in backward[:5]]
        edges = _edges(params)
        for r in range(3):  # the wrong counts of rank r lie in edges r..edges r+1 - 1
            np.testing.assert_array_equal(edges[:, :, r + 1] - edges[:, :, r],
                                          ((rank == r) & inside).sum(axis=2).T)
        np.testing.assert_array_equal(edges[:, :, 0], 0)
        assert (rank == 1).any(axis=(0, 2)).sum() >= len(scenarios) // 100  # ties are reached

    def test_from_2_to_the_40_to_2_to_the_50_the_blocks_hold_around_every_cut(self):
        # no (l + 1)-entry table fits, so each table is read 64 counts either side of
        # every cut, at 64 random counts, at 0 and at l: every code read must carry the
        # rank the bisected edges give its count
        rng = np.random.default_rng(71)
        scenarios = [dataclasses.replace(s, l=int(2 ** rng.uniform(40, 50)))
                     for s in _random_scenarios(73, 2000, _moderate_rates)]
        params = _params(scenarios)
        l, edges = params[0], _edges(params)
        cuts = edges[:, :, 1:3].reshape(len(scenarios), -1)
        w = np.clip(np.hstack(((cuts[:, :, None] + np.arange(-64, 65)).reshape(len(scenarios), -1),
                               (rng.random((len(scenarios), 64)) * (l + 1)).astype(np.int64),
                               np.zeros_like(l), l)), 0, l)
        codes = _codes(params, w)
        lead = np.array([_FAILURE if t is Treatment.LABEL_SMOOTHING else _SUCCESS
                         for t in Treatment])[:, None, None]
        rank = np.where(codes == lead, 0, np.where(codes == _TIE, 1, 2))
        past = edges.transpose(1, 0, 2)[:, :, 1:3, None] <= w[None, :, None, :]
        bad = np.argwhere((rank != past.sum(axis=2)).any(axis=2))
        assert bad.size == 0, [(scenarios[i], list(Treatment)[t]) for t, i in bad[:5]]

    @pytest.mark.parametrize("block", [7, 256, 512, 1024])
    def test_the_edges_do_not_depend_on_the_scenario_block(self, monkeypatch, block):
        # a finished search stays put, so a scenario's edges are its own bisection's in
        # any block of scenarios; l runs up to 2**53, where label smoothing's cuts depend
        # on the search path
        rng = np.random.default_rng(79)
        scenarios = [dataclasses.replace(s, l=int(2 ** rng.uniform(0, 53)))
                     for s in _random_scenarios(83, 1500, _moderate_rates)]
        params = _params(scenarios)
        monkeypatch.setattr(mcsim, "_EDGE_BLOCK", len(scenarios))
        whole = _edges(params)
        monkeypatch.setattr(mcsim, "_EDGE_BLOCK", block)
        np.testing.assert_array_equal(_edges(params), whole)

    def test_the_edges_past_2_to_the_52_are_pinned(self):
        # past l ~ 2**52 label smoothing's table is not in blocks: at l = 2**53 its codes
        # from w = 6461686421879400 read failure seven times, then tie, success, tie,
        # success, so the bisected cuts depend on the search path.  Pinned, so that a
        # new search changes the stream version.
        s = InstanceScenario(l=2**53, y=1, e_plus=0.3, e_minus=0.1)
        w = np.arange(6461686421879400, 6461686421879411)
        smoothing = list(Treatment).index(Treatment.LABEL_SMOOTHING)
        assert _codes(_params([s]), w)[smoothing, 0].tolist() == [_FAILURE] * 7 + [
            _TIE, _SUCCESS, _TIE, _SUCCESS]
        assert _edges(_params([s]))[0].tolist() == [
            [0, 4503599627361489, 4503599627379504, 2**53 + 1],
            [0, 6755399441046737, 6755399441064752, 2**53 + 1],
            [0, 6461686421879407, 6461686421879410, 2**53 + 1],
            [0, 5404319552835589, 5404319552853603, 2**53 + 1]]


class TestEngineMatchesComparators:
    """The tally must agree with the label-treatment functions trial by trial."""

    def test_correction_tally_replays_through_corrected_label(self):
        s = InstanceScenario(l=9, y=1, e_plus=0.1, e_minus=0.5)
        trials, seed = 50_000, 13
        assert trials <= _CHUNK_TRIALS  # one chunk holds every trial
        tally = run_trials(s, Treatment.LOSS_CORRECTION, trials, seed)
        key = _stream_key(seed, s)
        wrong = _drawn(key, s.l, s.e_y, 0, trials)
        rates = BinaryNoiseRates(s.e_plus, s.e_minus)
        success = failure = tie = 0
        for w in np.bincount(wrong, minlength=s.l + 1).nonzero()[0]:
            count = int(np.count_nonzero(wrong == w))
            p_true = (s.l - w) / s.l
            dist = LabelDist(np.array([1 - p_true, p_true]))
            gain = corrected_label(dist, rates).raw.probs[1] - p_true
            margin = gain * (1 - s.e_plus - s.e_minus) / (s.e_plus + s.e_minus)
            if margin > 1e-12:
                success += count
            elif margin < -1e-12:
                failure += count
            else:
                tie += count
        assert (tally.success, tally.failure, tally.tie) == (success, failure, tie)

    def test_smoothing_tally_replays_through_the_comparator(self):
        s = InstanceScenario(l=9, y=-1, e_plus=0.1, e_minus=0.5, smoothing_a=0.3)
        trials, seed = 50_000, 13
        assert trials <= _CHUNK_TRIALS
        tally = run_trials(s, Treatment.LABEL_SMOOTHING, trials, seed)
        key = _stream_key(seed, s)
        wrong = _drawn(key, s.l, s.e_y, 0, trials)
        rates = BinaryNoiseRates(s.e_plus, s.e_minus)
        buckets = {Comparison.LS_BETTER: 0, Comparison.LC_BETTER: 0, Comparison.TIE: 0}
        for w in np.bincount(wrong, minlength=s.l + 1).nonzero()[0]:
            count = int(np.count_nonzero(wrong == w))
            p_true = (s.l - w) / s.l
            dist = LabelDist(np.array([p_true, 1 - p_true]))
            buckets[compare_ls_lc(dist, s.y, rates, s.smoothing_a)] += count
        assert tally.success == buckets[Comparison.LS_BETTER]
        assert tally.failure == buckets[Comparison.LC_BETTER]
        assert tally.tie == buckets[Comparison.TIE]


class TestBoundReport:
    def _symmetric_report(self):
        s = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2, p_plus=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return bound_report(s, trials=20_000, seed=7)

    def test_report_layout(self):
        report = self._symmetric_report()
        assert report.scenario == InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2)
        layout = [(c.treatment, c.event, c.headline) for c in report.checks]
        assert layout == [
            (Treatment.MEMORIZE, "mean_label_error", True),
            (Treatment.LOSS_CORRECTION, "strict_success", True),
            (Treatment.LOSS_CORRECTION, "tie_inclusive_failure", False),
            (Treatment.LABEL_SMOOTHING, "ls_better_or_tie", True),
            (Treatment.PEER_LOSS, "strict_success", True),
            (Treatment.PEER_LOSS, "tie_inclusive_failure", False),
        ]

    def test_symmetric_anchor_values(self):
        report = self._symmetric_report()
        by_event = {(c.treatment, c.event): c for c in report.checks}
        lc_success = by_event[(Treatment.LOSS_CORRECTION, "strict_success")]
        np.testing.assert_allclose(lc_success.exact, 0.9672065024, atol=1e-9)
        np.testing.assert_allclose(lc_success.bound.value, 0.8347011117784134, atol=1e-12)
        assert lc_success.bound.kind is BoundKind.HOEFFDING_SUCCESS
        assert lc_success.bound.regime_ok and lc_success.ordering_holds

        lc_fail = by_event[(Treatment.LOSS_CORRECTION, "tie_inclusive_failure")]
        np.testing.assert_allclose(lc_fail.exact, 0.0327934976, atol=1e-9)
        np.testing.assert_allclose(lc_fail.bound.value, 0.02400959708748615, atol=1e-12)
        assert lc_fail.bound.regime_ok and lc_fail.ordering_holds

        ls = by_event[(Treatment.LABEL_SMOOTHING, "ls_better_or_tie")]
        np.testing.assert_allclose(ls.exact, 0.0327934976, atol=1e-9)
        assert ls.ordering_holds

        peer_success = by_event[(Treatment.PEER_LOSS, "strict_success")]
        # balanced priors and equal rates: the peer threshold is also l/2
        np.testing.assert_allclose(peer_success.exact, lc_success.exact, atol=1e-15)
        np.testing.assert_allclose(
            peer_success.bound.value,
            peer_success_lower(10, 0.5, 0.2, 0.2),
            atol=1e-15,
        )
        assert peer_success.ordering_holds

        peer_fail = by_event[(Treatment.PEER_LOSS, "tie_inclusive_failure")]
        np.testing.assert_allclose(peer_fail.exact, 0.0327934976, atol=1e-9)
        np.testing.assert_allclose(peer_fail.bound.value, peer_failure_lower(10, 0.2), atol=1e-15)
        assert peer_fail.ordering_holds

        mem = by_event[(Treatment.MEMORIZE, "mean_label_error")]
        assert mem.exact == 0.2 and mem.bound is None and mem.ordering_holds is None

    def test_mc_estimates_sit_near_their_exact_columns(self):
        report = self._symmetric_report()
        for check in report.checks:
            se = np.sqrt(max(check.exact * (1 - check.exact), 1e-12) / 20_000)
            if check.treatment is Treatment.MEMORIZE:
                se = np.sqrt(0.2 * 0.8 / (20_000 * 10))
            assert abs(check.mc_estimate - check.exact) < 5 * se

    def test_odd_draw_counts_leave_failure_bounds_unasserted(self):
        s = InstanceScenario(l=3, y=1, e_plus=0.2, e_minus=0.2)
        report = bound_report(s, trials=2000, seed=1)
        by_event = {(c.treatment, c.event): c for c in report.checks}
        lc_success = by_event[(Treatment.LOSS_CORRECTION, "strict_success")]
        assert lc_success.bound.regime_ok and lc_success.ordering_holds
        for key in (
            (Treatment.LOSS_CORRECTION, "tie_inclusive_failure"),
            (Treatment.LABEL_SMOOTHING, "ls_better_or_tie"),
            (Treatment.PEER_LOSS, "tie_inclusive_failure"),
        ):
            check = by_event[key]
            assert check.bound is not None and not check.bound.regime_ok
            assert check.ordering_holds is None

    def test_noiseless_scenario_degenerates(self):
        s = InstanceScenario(l=10, y=1, e_plus=0.0, e_minus=0.0)
        report = bound_report(s, trials=2000, seed=1)
        by_event = {(c.treatment, c.event): c for c in report.checks}
        assert by_event[(Treatment.MEMORIZE, "mean_label_error")].exact == 0.0
        lc_success = by_event[(Treatment.LOSS_CORRECTION, "strict_success")]
        assert lc_success.exact == 0.0 and lc_success.bound is None
        lc_fail = by_event[(Treatment.LOSS_CORRECTION, "tie_inclusive_failure")]
        assert lc_fail.exact == 1.0 and lc_fail.bound is None
        assert lc_fail.mc_estimate == 1.0
        ls = by_event[(Treatment.LABEL_SMOOTHING, "ls_better_or_tie")]
        assert ls.exact == 0.0 and ls.bound is None
        peer_success = by_event[(Treatment.PEER_LOSS, "strict_success")]
        assert peer_success.exact == 1.0
        np.testing.assert_allclose(
            peer_success.bound.value, peer_success_lower(10, 0.5, 0.0, 0.0), atol=1e-15
        )
        assert peer_success.ordering_holds
        assert by_event[(Treatment.PEER_LOSS, "tie_inclusive_failure")].bound is None

    def test_tiny_equal_rates_keep_the_correction_bound(self):
        # the corrected label moves off the empirical one by ~1e-13 here, yet
        # loss correction still decides every split as memorize does
        for l, y in itertools.product((4, 10, 11), (-1, 1)):
            s = InstanceScenario(l=l, y=y, e_plus=1e-13, e_minus=1e-13)
            by_event = {(c.treatment, c.event): c for c in bound_report(s, 2000, 5).checks}
            lc_success = by_event[(Treatment.LOSS_CORRECTION, "strict_success")]
            assert lc_success.bound.regime_ok and lc_success.ordering_holds
            assert lc_success.mc_estimate == 1.0 and lc_success.exact > 0.999
            assert all(c.ordering_holds is not False for c in by_event.values())

    def test_tiny_unequal_rates_are_off_the_equal_rate_regime(self):
        # e_minus = 5 e_plus puts loss correction's threshold at 5/6 of the
        # labels, not 1/2, although the rates lie within 1e-12 of each other;
        # equal rates are equal at any scale
        equal_rate = [(Treatment.LOSS_CORRECTION, "strict_success"),
                      (Treatment.LOSS_CORRECTION, "tie_inclusive_failure"),
                      (Treatment.LABEL_SMOOTHING, "ls_better_or_tie"),
                      (Treatment.PEER_LOSS, "tie_inclusive_failure")]
        for e_minus, equal in ((5e-13, False), (1e-13, True)):
            s = InstanceScenario(l=6, y=1, e_plus=1e-13, e_minus=e_minus)
            by_event = {(c.treatment, c.event): c for c in bound_report(s, 2000, 5).checks}
            for key in equal_rate:
                check = by_event[key]
                assert check.bound.regime_ok is equal, (e_minus, key)
                assert (check.ordering_holds is None) is not equal, (e_minus, key)

    def test_a_peer_margin_in_the_tie_band_is_off_the_success_regime(self):
        # no label flips here, and the engine ties every margin within _TIE_EPS,
        # so at a margin of about 1e-12 no trial succeeds; a margin just above
        # the band keeps its regime and its ordering
        for y, p_opposite, regime in ((1, 1e-11, False), (-1, 1e-11, False),
                                      (1, 1e-10, True), (-1, 1e-10, True)):
            s = InstanceScenario(l=10**13, y=y, e_plus=0.0 if y == 1 else 0.9,
                                 e_minus=0.9 if y == 1 else 0.0,
                                 p_plus=1.0 - p_opposite if y == 1 else p_opposite)
            check = {(c.treatment, c.event): c for c in bound_report(s, 100, 1).checks}[
                (Treatment.PEER_LOSS, "strict_success")]
            assert check.exact == float(regime) and check.bound.value > 1e-12, (y, p_opposite)
            assert check.bound.regime_ok is regime
            assert check.ordering_holds is (True if regime else None)

    def test_unequal_rates_flag_their_regimes(self):
        s = InstanceScenario(l=9, y=1, e_plus=0.1, e_minus=0.5)
        report = bound_report(s, trials=2000, seed=4)
        by_event = {(c.treatment, c.event): c for c in report.checks}
        lc_success = by_event[(Treatment.LOSS_CORRECTION, "strict_success")]
        # the simulated event keeps its exact oracle even off the bound's regime
        np.testing.assert_allclose(lc_success.exact, binom_tail(9, 0.9, 8), atol=1e-15)
        assert not lc_success.bound.regime_ok and lc_success.ordering_holds is None
        lc_fail = by_event[(Treatment.LOSS_CORRECTION, "tie_inclusive_failure")]
        np.testing.assert_allclose(lc_fail.exact, binom_tail(9, 0.1, 2), atol=1e-15)
        assert not lc_fail.bound.regime_ok
        peer_fail = by_event[(Treatment.PEER_LOSS, "tie_inclusive_failure")]
        assert not peer_fail.bound.regime_ok and peer_fail.ordering_holds is None

    def test_skewed_priors_only_affect_the_peer_regime(self):
        s = InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2, p_plus=0.7)
        report = bound_report(s, trials=2000, seed=4)
        by_event = {(c.treatment, c.event): c for c in report.checks}
        assert by_event[(Treatment.LOSS_CORRECTION, "strict_success")].bound.regime_ok
        assert by_event[(Treatment.LOSS_CORRECTION, "tie_inclusive_failure")].bound.regime_ok
        peer_fail = by_event[(Treatment.PEER_LOSS, "tie_inclusive_failure")]
        assert not peer_fail.bound.regime_ok and peer_fail.ordering_holds is None

    @pytest.mark.parametrize("y, e_plus, e_minus, omitted", [
        (1, 0.0, 0.2, {"hoeffding_success", "binomial_failure_lower", "peer_failure_lower"}),
        (-1, 0.3, 0.0, {"hoeffding_success", "binomial_failure_lower", "peer_failure_lower"}),
        (1, 0.5, 0.2, set()),
        (-1, 0.2, 0.5, set()),
        (1, 0.7, 0.2, {"hoeffding_success"}),
        (-1, 0.1, 0.6, {"hoeffding_success"}),
        (1, 0.2, 0.2, set()),
    ])
    def test_a_report_omits_exactly_the_forms_its_table_domain_excludes(self, y, e_plus, e_minus,
                                                                       omitted):
        e_y = e_plus if y == 1 else e_minus
        assert {kind.value for kind, (test, _, _) in _FORMS.items() if not test(e_y)} == omitted
        report = bound_report(InstanceScenario(l=6, y=y, e_plus=e_plus, e_minus=e_minus), 500, 3)
        for check, (*_, kind) in zip(report.checks, mcsim._EVENTS, strict=True):
            if kind is None or kind.value in omitted:
                assert check.bound is None and check.ordering_holds is None, check
            else:
                assert check.bound.kind is kind, check

    def test_report_bounds_are_the_public_functions_bit_for_bit(self):
        # the report calls the forms' kernels unchecked; each value must still be the
        # public function's on the same arguments, at e_y = 0, 1/2 and just past 1/2 too
        rng = np.random.default_rng(35)
        e_ys = [0.0, 0.5, math.nextafter(0.5, 1.0)]
        scenarios = []
        for i in range(200):
            e_y = e_ys[i % 4] if i % 4 < 3 else float(rng.uniform(0.0, 0.9))
            equal = i % 5 == 0 and e_y < 0.5  # some equal rates
            e_other = e_y if equal else float(rng.uniform(0.0, 0.95 - e_y))
            y = 1 if i % 2 else -1
            e_plus, e_minus = (e_y, e_other) if y == 1 else (e_other, e_y)
            p_plus = 0.5 if i % 3 == 0 else float(rng.uniform(0.01, 0.99))
            scenarios.append(InstanceScenario(l=int(rng.integers(1, 300)), y=y, e_plus=e_plus,
                                              e_minus=e_minus, p_plus=p_plus))
        public = {
            BoundKind.HOEFFDING_SUCCESS: lambda s, p: lc_success_lower(s.l, s.e_y),
            BoundKind.BINOMIAL_FAILURE_LOWER: lambda s, p: lc_failure_lower(s.l, s.e_y),
            BoundKind.PEER_SUCCESS: lambda s, p: peer_success_lower(s.l, p, s.e_plus, s.e_minus),
            BoundKind.PEER_FAILURE_LOWER: lambda s, p: peer_failure_lower(s.l, s.e_y),
        }
        compared = dict.fromkeys(public, 0)
        for s, report in zip(scenarios, sweep(scenarios, trials=10, seed=8), strict=True):
            p_opposite = s.p_minus if s.y == 1 else s.p_plus
            for check in report.checks:
                if check.bound is not None:
                    assert check.bound.value == public[check.bound.kind](s, p_opposite), (s, check)
                    compared[check.bound.kind] += 1
        # Hoeffding's, omitted at e_y = 0 and past 1/2, on the fewest: every e_y = 1/2 and some others
        assert min(compared.values()) > 50, compared

    def test_heavy_noise_drops_the_success_bound(self):
        s = InstanceScenario(l=4, y=1, e_plus=0.6, e_minus=0.3)
        report = bound_report(s, trials=1000, seed=2)
        by_event = {(c.treatment, c.event): c for c in report.checks}
        lc_success = by_event[(Treatment.LOSS_CORRECTION, "strict_success")]
        assert lc_success.bound is None and lc_success.ordering_holds is None
        lc_fail = by_event[(Treatment.LOSS_CORRECTION, "tie_inclusive_failure")]
        np.testing.assert_allclose(lc_fail.bound.value, lc_failure_lower(4, 0.6), atol=1e-15)
        assert not lc_fail.bound.regime_ok

    def test_exact_columns_match_the_outcome_tables(self):
        # exact success/failure probabilities must integrate the same rule
        # the trials are classified by
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = _random_scenario(rng)
            report = bound_report(s, trials=10, seed=1)
            pmf = stats.binom.pmf(np.arange(s.l + 1), s.l, s.e_y)
            by_event = {(c.treatment, c.event): c for c in report.checks}
            lc_table = _table(s, Treatment.LOSS_CORRECTION)
            np.testing.assert_allclose(
                by_event[(Treatment.LOSS_CORRECTION, "strict_success")].exact,
                pmf[lc_table == _SUCCESS].sum(),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                by_event[(Treatment.LOSS_CORRECTION, "tie_inclusive_failure")].exact,
                pmf[lc_table != _SUCCESS].sum(),
                atol=1e-10,
            )
            ls_table = _table(s, Treatment.LABEL_SMOOTHING)
            np.testing.assert_allclose(
                by_event[(Treatment.LABEL_SMOOTHING, "ls_better_or_tie")].exact,
                pmf[ls_table != _FAILURE].sum(),
                atol=1e-10,
            )
            peer_table = _table(s, Treatment.PEER_LOSS)
            np.testing.assert_allclose(
                by_event[(Treatment.PEER_LOSS, "strict_success")].exact,
                pmf[peer_table == _SUCCESS].sum(),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                by_event[(Treatment.PEER_LOSS, "tie_inclusive_failure")].exact,
                pmf[peer_table != _SUCCESS].sum(),
                atol=1e-10,
            )

    def test_each_check_counts_and_integrates_one_wrong_count_set(self):
        # the Monte-Carlo count and the exact mass of a check read the same
        # wrong counts: the outcome-table entries its event names
        names = {"strict_success": (_SUCCESS,), "tie_inclusive_failure": (_FAILURE, _TIE),
                 "ls_better_or_tie": (_SUCCESS, _TIE)}
        rng = np.random.default_rng(43)
        scenarios = [_random_scenario(rng) for _ in range(30)]
        scenarios += [  # e_y = 0, with and without noise on the other label, and equal rates
            InstanceScenario(l=l, y=y, e_plus=e if y == -1 else 0.0, e_minus=e if y == 1 else 0.0)
            for l in (1, 8) for y in (-1, 1) for e in (0.0, 0.3)
        ] + [InstanceScenario(l=l, y=1, e_plus=0.3, e_minus=0.3) for l in (2, 40)]
        trials = 3000
        for i, s in enumerate(scenarios):
            seed = 100 + i
            hist = _dense(s, trials, seed)
            pmf = stats.binom.pmf(np.arange(s.l + 1), s.l, s.e_y)
            for check in bound_report(s, trials, seed).checks:
                if check.treatment is Treatment.MEMORIZE:
                    flips = int(hist @ np.arange(s.l + 1))
                    assert check.mc_estimate == flips / (trials * s.l)
                    assert check.exact == s.e_y
                    continue
                wrong = np.isin(_table(s, check.treatment), names[check.event])
                assert check.mc_estimate == int(hist[wrong].sum()) / trials, (s, check.event)
                np.testing.assert_allclose(check.exact, pmf[wrong].sum(), rtol=1e-12, atol=1e-15)

    def test_ten_million_labels_report_in_flat_memory(self):
        # no (l + 1)-entry table: the report reads a few cuts and their counts
        s = InstanceScenario(l=10**7, y=1, e_plus=0.2, e_minus=0.2)
        bound_report(InstanceScenario(l=10, y=1, e_plus=0.2, e_minus=0.2), 2000, seed=3)
        started = time.perf_counter()
        report = bound_report(s, trials=2000, seed=3)
        elapsed = time.perf_counter() - started
        tracemalloc.start()
        try:
            assert bound_report(s, trials=2000, seed=3) == report
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20 and elapsed < 0.3, (peak, elapsed)

    def test_the_largest_l_reports_in_flat_memory(self):
        # each job holds its chunk and its counts below a few cuts, however
        # widely the wrong counts spread (sigma is about 4.3e7 here)
        s = InstanceScenario(l=2**53, y=1, e_plus=0.3, e_minus=0.3)
        bound_report(InstanceScenario(l=10, y=1, e_plus=0.3, e_minus=0.3), 2000, seed=3)
        tracemalloc.start()
        try:
            report = bound_report(s, trials=2000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak
        assert abs(report.checks[0].mc_estimate - 0.3) < 1e-6

    def test_the_wrong_label_total_is_exact_at_every_count(self, monkeypatch):
        # 4,096 draws of 2**52 wrong labels sum to 2**64, which int64 wraps to 0
        s = InstanceScenario(l=2**53, y=1, e_plus=0.3, e_minus=0.3)
        monkeypatch.setattr(mcsim, "_chunk_counts", _in_blocks(
            lambda key, l, e_y, chunk, count: np.full(count, 2**52, np.int64)))
        check = bound_report(s, trials=4096, seed=1).checks[0]
        assert check.treatment is Treatment.MEMORIZE and check.mc_estimate == 0.5
        assert check.ci == _wilson(4096 * 2**52, 4096 * 2**53)
        # draws of 0 and l alternate, over a full chunk and a partial one
        monkeypatch.setattr(mcsim, "_chunk_counts", _in_blocks(
            lambda key, l, e_y, chunk, count: np.resize(np.array([0, l]), count)))
        trials = _CHUNK_TRIALS + 3
        zeros = _CHUNK_TRIALS // 2 + 2
        (edges,), (below,), (total,) = _cut_counts([s], trials, 1, workers=2)
        assert total == (trials - zeros) * s.l
        np.testing.assert_array_equal(
            below, np.where(edges == 0, 0, np.where(edges <= s.l, zeros, trials)))
        check = bound_report(s, trials, seed=1, workers=2).checks[0]
        assert check.mc_estimate == (trials - zeros) / trials

    def test_a_million_labels_per_trial_stay_cheap_and_agree_with_the_oracle(self):
        # one binomial count per trial: l = 1e6 costs what l = 10 does
        s = InstanceScenario(l=1_000_000, y=1, e_plus=0.2, e_minus=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = bound_report(s, trials=2000, seed=3)
        assert len(report.checks) == 6
        for check in report.checks:
            denom = 2000 * (s.l if check.treatment is Treatment.MEMORIZE else 1)
            se = np.sqrt(check.exact * (1.0 - check.exact) / denom)
            assert abs(check.mc_estimate - check.exact) <= 4.0 * se
        # every bound asserted here is a true claim, the Hoeffding success floor
        # of 1.0 included, so the exact tails must not fall short of it
        asserted = [c for c in report.checks if c.bound is not None and c.bound.regime_ok]
        assert len(asserted) == 5
        assert all(c.ordering_holds for c in asserted)


class TestSweep:
    def test_rejects_an_empty_scenario_list(self):
        with pytest.raises(ValueError):
            sweep([], trials=10, seed=0)

    # each block event's treatment index and its pair of that treatment's edges
    _RANGES = {("loss_correction", "strict_success"): (1, 0, 1),
               ("loss_correction", "tie_inclusive_failure"): (1, 1, 3),
               ("label_smoothing", "ls_better_or_tie"): (2, 1, 3),
               ("peer_loss", "strict_success"): (3, 0, 1),
               ("peer_loss", "tie_inclusive_failure"): (3, 1, 3)}

    def test_batched_columns_equal_scalar_oracles(self, monkeypatch):
        # one batch over the README grid, unequal and one-sided rates, tiny and
        # zero rates, y = -1 and the smallest and largest l: every check's exact
        # is binom_tail on its range, every ci the Wilson formula on Python
        # numbers, and memorize's exact the scenario's own e_y object
        scenarios = [InstanceScenario(l=l, y=1, e_plus=e, e_minus=e)
                     for l in (4, 10, 20, 50) for e in (0.1, 0.2, 0.3)]
        scenarios += [InstanceScenario(l=l, y=y, e_plus=ep, e_minus=em, p_plus=pp)
                      for l, y, ep, em, pp in (
                          (9, -1, 0.1, 0.5, 0.5), (7, 1, 0, 0.4, 0.8), (200, 1, 0.3, 0.2, 0.3),
                          (30, 1, 1e-16, 1e-16, 0.5), (30, -1, 1e-8, 1e-12, 0.5),
                          (1000, 1, 1e-12, 1e-10, 0.4), (8, 1, 0, 0, 0.5), (5, -1, 0.0, 0.0, 0.5),
                          (1, 1, 0.2, 0.2, 0.5), (2, -1, 0.3, 0.3, 0.5),
                          (10**9, 1, 0.2, 0.2, 0.5), (2**53, -1, 0.1, 0.25, 0.5))]
        trials, seed = 3000, 4
        betainc, calls = mcsim._special().betainc, []

        def counted(*args):
            calls.append(args)
            return betainc(*args)

        monkeypatch.setattr(mcsim, "_special", lambda: types.SimpleNamespace(betainc=counted))
        reports = sweep(scenarios, trials, seed, workers=2)
        assert len(calls) == 1  # one incomplete-beta call for the whole batch
        edges = _edges(_params(scenarios))
        _, belows, wrongs = _cut_counts(scenarios, trials, seed, workers=1)
        for s, report, e, below, wrong in zip(scenarios, reports, edges, belows, wrongs,
                                               strict=True):
            memorize, *blocks = report.checks
            assert memorize.exact is s.e_y
            assert memorize.mc_estimate == wrong / (trials * s.l)
            assert memorize.ci == _wilson(wrong, trials * s.l)
            for check in blocks:
                t, start, stop = self._RANGES[check.treatment.value, check.event]
                lo, hi = int(e[t, start]), int(e[t, stop]) - 1
                if hi < lo:
                    exact = 0.0
                elif lo == 0:
                    exact = 1.0 if hi == s.l else binom_tail(s.l, 1.0 - s.e_y, s.l - hi)
                else:
                    exact = binom_tail(s.l, s.e_y, lo)
                assert check.exact == exact, (s, check)
                hits = int(below[t, stop] - below[t, start])
                assert check.mc_estimate == hits / trials
                assert check.ci == _wilson(hits, trials)

    def test_a_batch_past_its_ceilings_raises_before_any_work(self, monkeypatch):
        # the CLI's messages, raised before the edges or a draw
        def never(*args):
            raise AssertionError("a batch past its ceilings did work")

        monkeypatch.setattr(mcsim, "_edges", never)
        monkeypatch.setattr(mcsim, "_chunk_counts", never)
        s = InstanceScenario(l=4, y=1, e_plus=0.2, e_minus=0.2)
        with pytest.raises(ValueError, match=r"^scenarios: scenario count must be <= 131072, "
                                             r"got 131073$"):
            sweep([s] * (2**17 + 1), trials=10, seed=0)
        with pytest.raises(ValueError, match=r"^trials: scenarios x trials must be <= "
                                             r"1099511627776, got 1 x 1099511627777$"):
            bound_report(s, 2**40 + 1, seed=0)
        with pytest.raises(ValueError, match=r"got 4 x 274877906945$"):
            sweep([s] * 4, trials=2**38 + 1, seed=0)
        with pytest.raises(ValueError, match=r"^trials: must be <= 9007199254740992"):
            run_trials(s, Treatment.MEMORIZE, 2**53 + 1, seed=0)  # the field's own ceiling first

    @pytest.mark.parametrize("trials", [3000, _CHUNK_TRIALS + 7])  # one chunk each, two each
    def test_reports_are_schedule_invariant(self, monkeypatch, trials):
        # so workers 2 and 3 could run threads; only the _CHUNK_TRIALS + 7 case, whose
        # chunks pass _THREAD_FLOOR, starts helpers
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        scenarios = [InstanceScenario(l=l, y=y, e_plus=e, e_minus=0.2) for l, y, e in (
            (1, 1, 0.3), (4, -1, 0.1), (7, 1, 0.45), (10, 1, 0.2), (50, -1, 0.05),
            (200, 1, 0.3), (1000, -1, 0.4),
            # a zero rate, an integer zero, a tiny rate and a billion labels: with
            # the rest, each reaches every branch of exact (empty and full ranges,
            # lower and upper tails)
            (5, 1, 0.0), (6, 1, 0), (12, 1, 1e-12), (10**9, 1, 0.3))]
        scenarios.insert(3, scenarios[1])  # a repeated scenario
        solo = [bound_report(s, trials, seed=11) for s in scenarios]
        for workers in (1, 2, 3):
            assert sweep(scenarios, trials, seed=11, workers=workers) == solo, workers

    def test_a_repeat_whose_p_minus_moves_an_edge_shares_the_draw(self, monkeypatch):
        # p_minus enters no stream key, but within its 1e-9 tolerance it can
        # move a peer edge: each scenario draws the shared stream itself and
        # counts it below its own edges, as it does alone
        a = InstanceScenario(l=8, y=1, e_plus=0.25, e_minus=0.25, p_plus=0.75)
        b = InstanceScenario(l=8, y=1, e_plus=0.25, e_minus=0.25, p_plus=0.75,
                             p_minus=0.25 - 1e-10)
        assert (_stream_key(1, a) == _stream_key(1, b)).all()
        edges_a, edges_b = _edges(_params([a, b]))
        assert 3 in edges_a and 3 not in edges_b  # a's peer edge 3 is no edge of b
        solo = {s: bound_report(s, 3000, seed=1) for s in (a, b)}
        draws = _record_draws(monkeypatch)
        for pair in ([a, b], [b, a]):
            draws.clear()
            assert sweep(pair, 3000, seed=1) == [solo[s] for s in pair]
            assert draws == [(_stream_key(1, a).tobytes(), 0)] * 2

    def test_preserves_input_order_and_substream_isolation(self):
        a = InstanceScenario(l=4, y=1, e_plus=0.2, e_minus=0.2)
        b = InstanceScenario(l=6, y=-1, e_plus=0.1, e_minus=0.3)
        reports = sweep([a, b, a], trials=3000, seed=42)
        solo = bound_report(a, trials=3000, seed=42)
        assert [r.scenario for r in reports] == [a, b, a]
        # the same scenario reproduces its rows alone, inside a sweep, and
        # when repeated within one sweep
        assert reports[0] == reports[2] == solo
        assert reports[1] == bound_report(b, trials=3000, seed=42)
