"""Instance-frequency priors, the generative sampling process, and importance weights.

The model: a prior set pi = {pi_1..pi_N} of positive values summing to one.
A dataset realization draws, for each of N instance slots, a value p_x
uniformly from the set, then normalizes: D(x) = p_x / sum_x p_x.  An
instance appearing l times in an n-sample carries importance weight

    tau_l = E[alpha^(l+1) (1-alpha)^(n-l)] / E[alpha^l (1-alpha)^(n-l)],

a ratio of prior moments of the instance frequency alpha.  tau_exact takes
the expectation uniformly over the raw prior values (the unnormalized mode,
matching the algebra the closed-form lower bounds are derived in);
tau_monte_carlo estimates the normalized-mode variant by sampling whole
realizations.  weight(pi, [b1, b2]) — the expected fraction of total mass
carried by instances whose realized frequency lands in the interval — has
no closed form for general priors and is estimated by Monte Carlo; every
Monte-Carlo route reduces one shared, chunked batch (see estimate_taus).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._spec import _COUNT, Spec, field_violations, raise_first, reads, unknown_fields

# Prior draws per chunk.  A float64 chunk buffer is then 256 KB, within a
# core's L2 cache; the buffers are allocated once per batch and reused by
# every chunk.  The chunk size changes speed only, never the results.
_CHUNK_ELEMENTS = 1 << 15

# Regime under which the large-l importance-weight bound is asserted.
_REGIME_MIN_N = 10**3
_REGIME_MIN_VALUES = 10**2
_REGIME_PI_MAX = 1.0 / 20.0


@dataclass(frozen=True)
class PriorSpec:
    """An instance-frequency prior: a set of candidate frequency values.

    Values lie in (0, 1] and are stored exactly as given, in a read-only
    copy — the generative process renormalizes realized draws, so overall
    scale never affects sampling, but it does define the raw moment ratios
    tau_exact computes.
    Generated families (uniform, zipf) are built summing to one; explicit
    sets may carry any total.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float).ravel()
        values.flags.writeable = False
        raise_first(_array_violations(values))
        object.__setattr__(self, "values", values)

    @property
    def n_values(self) -> int:
        return int(self.values.size)

    def pi_max(self) -> float:
        return float(self.values.max())

    def regime_ok(self, n: int, l: int) -> bool:
        """Whether (n, N, l, pi_max) sit inside the asserted bound regime."""
        return (
            n >= _REGIME_MIN_N
            and self.n_values >= _REGIME_MIN_VALUES
            and l <= n / 10
            and self.pi_max() <= _REGIME_PI_MAX + 1e-15
        )


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its standard error: a weight, or a normalized-mode tau."""

    value: float
    stderr: float


@dataclass(frozen=True)
class TauEstimate:
    """Importance weight of l-appearance instances, all routes side by side."""

    l: int
    exact: float
    lower_large: float
    lower_small: float
    mc: float | None = None
    mc_stderr: float | None = None
    regime_ok: bool = True


def _array_violations(values: np.ndarray) -> list[str]:
    """Why an array, as built in doubles, cannot be a prior's values."""
    if values.size == 0:
        return ["prior needs at least one value"]
    bad = values[~((values > 0.0) & (values <= 1.0))]  # NaN too
    return [f"prior values must lie in (0, 1], got {bad[0]}"] if bad.size else []


def _zipf(doc: dict) -> np.ndarray:
    weights = np.arange(1, doc["n_values"] + 1, dtype=float) ** (-float(doc["exponent"]))
    return weights / weights.sum()


_POSITIVE = Spec(lo=0.0, lo_open=True)
# Per generator: its prior config's fields and the uncapped values they build.  A tau
# run holds about 82 B per value, so n_values stops at 2**23, about 0.64 GiB.
_GENERATORS = {"uniform": ({"n_values": replace(_COUNT, hi=2**23)},
                           lambda doc: np.full(doc["n_values"], 1.0 / doc["n_values"]))}
_GENERATORS |= {
    "zipf": ({**_GENERATORS["uniform"][0], "exponent": _POSITIVE}, _zipf),
    "explicit": ({}, lambda doc: np.asarray(doc["values"], dtype=float)),
}
_CAP = {"cap": Spec(lo=0.0, hi=1.0, lo_open=True, required=False)}


def _values_violations(values) -> list[str]:
    if not isinstance(values, (list, tuple, np.ndarray)) or len(values) == 0:
        return ["prior.values: explicit prior needs a nonempty list of values"]
    if any(map(_POSITIVE.violation, values)):
        return ["prior.values: all values must be positive numbers"]
    return [] if all(v <= 1 for v in values) else ["prior.values: all values must be <= 1"]


def _prior_field_violations(doc) -> list[str]:
    """A config prior object's violations, short of checking the values it builds."""
    if not isinstance(doc, dict):
        return ["prior: prior required" if doc is None else "prior: must be an object"]
    generator = doc.get("generator")
    if not isinstance(generator, str) or generator not in _GENERATORS:
        return [f"prior.generator: must be one of {', '.join(_GENERATORS)}, got {generator!r}"]
    fields = _GENERATORS[generator][0]
    violations = field_violations(doc, fields, path="prior")
    known = ("generator", *fields, *_CAP)
    if generator == "explicit":
        violations += _values_violations(doc.get("values"))
        known += ("values",)
    violations += field_violations(doc, _CAP, path="prior")
    return violations + unknown_fields(doc, known, "prior")


def _config_values(doc) -> tuple[np.ndarray | None, list[str]]:
    """The values of the prior a config's prior object describes, built once and then
    capped when it names a cap, or None and one message per broken rule: its fields,
    the values they build, then the cap."""
    violations = _prior_field_violations(doc)
    if violations:
        return None, violations
    values = _GENERATORS[doc["generator"]][1](doc)
    violations = _array_violations(values)
    if violations or doc.get("cap") is None:
        return (None if violations else values), violations
    return _waterfilled(values, doc["cap"])


@reads("prior")
def prior_violations(config: dict) -> list[str]:
    """One message per broken rule of a config's prior, read off the prior it builds."""
    return _config_values(config.get("prior"))[1]


def _config_prior(doc: dict) -> PriorSpec:
    """The prior a config's prior object describes; the first prior_violations message is raised."""
    values, violations = _config_values(doc)
    raise_first(violations)
    return PriorSpec(values)


def build_prior(
    generator: str,
    *,
    n: int | None = None,
    exponent: float | None = None,
    values=None,
    cap: float | None = None,
) -> PriorSpec:
    """Construct a prior.

    generator "uniform" needs n; "zipf" needs n and exponent (weights
    k^-exponent, k = 1..n); "explicit" needs values in (0, 1].  The first
    prior_violations message is raised, so an argument the generator does not
    read is an unknown field of the prior.

    A cap waterfills the built values below it while their total is
    preserved: the largest entries are pinned at cap and the rest are scaled
    by a common factor c solving sum_i min(c * v_i, cap) = total.  The cap is
    feasible only when N * cap reaches the total, to a relative 1e-12, and a
    scale c that overflows a double is rejected.  To cap an existing prior,
    build_prior("explicit", values=prior.values, cap=c).
    """
    doc = {"generator": generator, "n_values": n, "exponent": exponent, "values": values, "cap": cap}
    return _config_prior({key: value for key, value in doc.items() if value is not None})


def _waterfilled(values: np.ndarray, cap) -> tuple[np.ndarray | None, list[str]]:
    """values waterfilled below cap (see build_prior), or None and one message per broken cap rule."""
    n, total = values.size, float(np.sum(values))
    feasible = ("cap", ("cap",), lambda c: not n * c < total * (1.0 - 1e-12),
                lambda c: f"cap {c} is infeasible for {n} values summing to {total}")
    violations = field_violations({"cap": cap}, _CAP, {"cap": feasible}, "prior")
    if violations:
        return None, violations
    order = np.argsort(values)[::-1]
    sorted_vals = values[order]
    tail_sums = np.cumsum(sorted_vals[::-1])[::-1]
    # the first k whose scale fits: k largest entries pinned at cap, the rest scaled by c;
    # a scale that overflows, as past a subnormal tail, never fits
    with np.errstate(over="ignore"):
        c = (total - np.arange(n) * cap) / tail_sums
    fits = c * sorted_vals <= cap * (1.0 + 1e-12)
    fits[1:] &= c[1:] * sorted_vals[:-1] >= cap * (1.0 - 1e-12)
    if fits.any():
        out_sorted = np.minimum(c[fits.argmax()] * sorted_vals, cap)
    elif total - n * cap >= -1e-15:
        out_sorted = np.full(n, cap)
    else:
        return None, [f"prior.cap: no waterfilling scale as a double keeps these values below {cap}"]
    out = np.empty_like(values)
    out[order] = out_sorted
    return out, []


def _realizations(prior, rng, *, n=0, ls=(), mc_replicates=0, windows=(), weight_replicates=0):
    """Reduce one batch of max(mc_replicates, weight_replicates) realizations to,
    per l and replicate, log sum_x D^k D^l (1-D)^(n-l) for k = 1 (lnum) and k = 0
    (lden), max-shifted per row so n up to 1e7 cannot underflow, and to the
    captured mass of each window."""
    values, log_values, n_values = prior.values, np.log(prior.values), prior.n_values
    lnum = np.empty((len(ls), mc_replicates))
    lden = np.empty_like(lnum)
    masses = np.empty((len(windows), weight_replicates))
    total, step = max(mc_replicates, weight_replicates), max(1, _CHUNK_ELEMENTS // n_values)
    # one set of buffers for the whole batch, sliced per chunk; a window keeps
    # p where its mask holds (p * mask equals np.where(mask, p, 0.0): p is finite
    # and positive), so every sum adds the same numbers in the same order.
    # take's default mode="raise" would fill a temporary before out; every
    # index is in range, so "clip" changes nothing but that
    rows = min(step, total)
    mc_rows = min(step, mc_replicates) if ls else 0
    window_rows = min(step, weight_replicates) if windows else 0
    p_buf, d_buf, scratch = (np.empty((rows, n_values)) for _ in range(3))
    log_d_buf, log_rest_buf, w_buf = (np.empty((mc_rows, n_values)) for _ in range(3))
    above, below = (np.empty((window_rows, n_values), dtype=bool) for _ in range(2))
    for start in range(0, total, step):
        idx = rng.integers(0, n_values, size=(min(step, total - start), n_values))
        p = np.take(values, idx, out=p_buf[: len(idx)], mode="clip")
        totals = p.sum(axis=1)
        d = np.divide(p, totals[:, None], out=d_buf[: len(idx)])
        k = min(len(idx), weight_replicates - start)
        for j, (b1, b2) in enumerate(windows if k > 0 else ()):
            inside = np.greater_equal(d[:k], b1, out=above[:k])
            inside &= np.less_equal(d[:k], b2, out=below[:k])
            selected = np.multiply(p[:k], inside, out=scratch[:k]).sum(axis=1)
            masses[j, start : start + k] = selected / totals[:k]
        k = min(len(idx), mc_replicates - start)
        if k <= 0 or not ls:
            continue
        log_d = np.take(log_values, idx[:k], out=log_d_buf[:k], mode="clip")
        log_d -= np.log(totals[:k])[:, None]
        log_rest = np.negative(d[:k], out=log_rest_buf[:k])
        with np.errstate(divide="ignore"):
            np.log1p(log_rest, out=log_rest)
        w = w_buf[:k]
        for i, l in enumerate(ls):
            np.multiply(log_d, l, out=w)
            if n > l:
                w += np.multiply(log_rest, n - l, out=scratch[:k])
            top = w.max(axis=1)
            w -= top[:, None]
            np.exp(w, out=w)
            lden[i, start : start + k] = top + np.log(w.sum(axis=1))
            w *= d[:k]
            lnum[i, start : start + k] = top + np.log(w.sum(axis=1))
    return lnum, lden, masses


# A standard error needs two replicates.  Every replicate count stops at 2**24: a tau
# run holds 16 B per Monte-Carlo replicate per l and 32 B more while it reduces them,
# 16 B per weight replicate per l, and a weight run 10 B per replicate.
_MC_REPLICATES = Spec("integer", lo=2, hi=2**24)
_WEIGHT_VALUE = {"weight_value": Spec(lo=0.0, hi=1.0)}
# tau config fields, checked before l; mc_replicates = 0 skips Monte Carlo
_TAU_FIELDS = {
    "n": Spec("integer", lo=2, hi=2**53),  # used as a float; the windows divide by n - 1
    "mc_replicates": replace(_MC_REPLICATES, lo=0, required=False),
    "weight_replicates": replace(_MC_REPLICATES, lo=1, required=False),
}
# tau_exact and tau_monte_carlo read no n - 1, so they take n = 1 too
_N_AND_REPLICATES = {"n": replace(_TAU_FIELDS["n"], lo=1), "replicates": replace(_MC_REPLICATES, required=False)}
_TAU_RULES = {
    "mc_replicates": ("mc_replicates", ("mc_replicates",),
                      lambda r: r == 0 or _MC_REPLICATES.violation(r) is None,
                      lambda r: f"must be 0 or >= {_MC_REPLICATES.lo}, got {r}"),
}


def _draw_counts(ls):
    """A config's l as a list: one integer stands for [l]; other values pass through unchanged."""
    return [ls] if Spec("integer").violation(ls) is None else ls


def _draw_count_violations(doc: dict) -> list[str]:
    ls = _draw_counts(doc.get("l"))
    if not isinstance(ls, list) or not ls or any(map(_COUNT.violation, ls)):
        return ["l: must be a positive integer or nonempty list of them"]
    n = doc.get("n")
    if Spec("integer").violation(n) is None and any(v > n for v in ls):
        return [f"l: every value must be <= n={n}"]
    return []


@reads(*_TAU_FIELDS, "l")
def tau_violations(doc: dict) -> list[str]:
    """One message per broken rule of a tau config: n, the replicate counts, then l."""
    return field_violations(doc, _TAU_FIELDS, _TAU_RULES) + _draw_count_violations(doc)


_WEIGHT_FIELDS = {"replicates": _MC_REPLICATES}


@reads("interval", *_WEIGHT_FIELDS)
def weight_violations(doc: dict) -> list[str]:
    """One message per broken rule of a weight config: the interval, then replicates."""
    interval = doc.get("interval")
    violations = field_violations(doc, _WEIGHT_FIELDS)
    if (not isinstance(interval, (list, tuple)) or len(interval) != 2
            or any(map(Spec().violation, interval))):
        return ["interval: must be a [beta1, beta2] pair of numbers"] + violations
    if not 0.0 <= interval[0] <= interval[1] <= 1.0:
        return [f"interval: need 0 <= beta1 <= beta2 <= 1, got {interval}"] + violations
    return violations


def weight_estimate(prior: PriorSpec, interval: tuple[float, float], replicates: int,
                    rng: np.random.Generator) -> McEstimate:
    """Monte-Carlo weight(pi, [b1, b2]) = E[sum_x D(x) 1(D(x) in [b1, b2])].

    Per replicate the captured mass is (sum of selected p_x) / (sum of all
    p_x), so the full interval [0, 1] yields exactly 1.0 in every replicate.
    The standard error is the sample standard deviation of the per-replicate
    masses over sqrt(replicates).
    """
    raise_first(weight_violations({"interval": interval, "replicates": replicates}))
    b1, b2 = float(interval[0]), float(interval[1])
    masses = _realizations(prior, rng, windows=[(b1, b2)], weight_replicates=replicates)[2][0]
    return McEstimate(float(masses.mean()), float(masses.std(ddof=1) / math.sqrt(replicates)))


def tau_exact(prior: PriorSpec, n: int, l: int) -> float:
    """Closed-form tau_l, expectation uniform over the raw prior values.

    Computed as the den-weighted mean of the values:
    tau = sum_j pi_j u_j / sum_j u_j with u_j = exp(w_j - max w) and
    w_j = l log pi_j + (n-l) log(1-pi_j), so n up to 1e7 cannot underflow.
    A prior whose values are all equal short-circuits to that value: the
    common factor cancels exactly, and cancelling it symbolically keeps the
    point-mass identity exact in floating point.
    """
    raise_first(field_violations({"n": n}, _N_AND_REPLICATES) + _draw_count_violations({"n": n, "l": l}))
    values = prior.values
    first = values[0]
    if np.all(values == first):
        return float(first)
    w = l * np.log(values)
    if n > l:  # the n == l edge stays free of 0 * log(0)
        with np.errstate(divide="ignore"):
            w = w + (n - l) * np.log1p(-values)
    top = float(np.max(w))  # finite: the values differ and none exceeds 1, so one is below 1
    u = np.exp(w - top)
    return float(np.dot(values, u) / np.sum(u))


def tau_monte_carlo(
    prior: PriorSpec, n: int, l: int, replicates: int, rng: np.random.Generator
) -> McEstimate:
    """Normalized-mode tau_l: sample whole frequency realizations, normalize,
    and form the ratio-of-means estimator over all slots.

    Per replicate r both moments are summed over the N exchangeable slots
    in log space; the final ratio and its delta-method standard error come
    from the per-replicate (numerator, denominator) pairs rescaled by a
    common shift, which cancels in both.
    """
    raise_first(field_violations({"n": n, "replicates": replicates}, _N_AND_REPLICATES)
                + _draw_count_violations({"n": n, "l": l}))
    lnum, lden, _ = _realizations(prior, rng, n=n, ls=[l], mc_replicates=replicates)
    return _tau_mc(lnum[0], lden[0])


def _tau_mc(lnum: np.ndarray, lden: np.ndarray) -> McEstimate:
    replicates = lnum.size
    shift = float(np.max(lden))
    num = np.exp(lnum - shift)
    den = np.exp(lden - shift)
    num_mean = float(num.mean())
    den_mean = float(den.mean())
    value = num_mean / den_mean
    # Delta method for a ratio of means over paired replicates.
    resid = num - value * den
    stderr = float(math.sqrt(np.dot(resid, resid) / (replicates - 1) / replicates) / den_mean)
    return McEstimate(value=value, stderr=stderr)


def tau_lower_large(n: int, l: int, weight_value: float) -> float:
    """Large-regime lower bound 0.4 * l(l-1)/(n(n-1)) * weight_value.

    weight_value is weight(pi, [2/3 (l-1)/(n-1), 4/3 l/n]); asserted when
    n >= 1e3, N >= 1e2, l <= n/10, and pi_max <= 1/20.  Vacuous at l = 1.
    """
    raise_first(tau_violations({"n": n, "l": l})
                + field_violations({"weight_value": weight_value}, _WEIGHT_VALUE))
    return 0.4 * (l * (l - 1.0)) / (n * (n - 1.0)) * weight_value


def tau_lower_small(n: int, l: int, weight_value: float) -> float:
    """Small-l lower bound 0.4 * ((l-1)/(n-1)) * 1.1^-l * weight_value.

    weight_value is weight(pi, [0.7 (l-1)/(n-1), 4/3 (l-1)/(n-1)]).  The
    geometric factor makes the bound less informative as l grows; at l = 1
    it is vacuous (zero).
    """
    raise_first(tau_violations({"n": n, "l": l})
                + field_violations({"weight_value": weight_value}, _WEIGHT_VALUE))
    return 0.4 * ((l - 1.0) / (n - 1.0)) * (1.1 ** -l) * weight_value


def large_interval(n: int, l: int) -> tuple[float, float]:
    """Frequency window the large-regime bound weighs: [2/3 (l-1)/(n-1), 4/3 l/n]."""
    raise_first(tau_violations({"n": n, "l": l}))
    return (2.0 / 3.0) * (l - 1.0) / (n - 1.0), (4.0 / 3.0) * l / n


def _small_interval(n: int, l: int) -> tuple[float, float]:
    """Frequency window the small-l bound weighs: [0.7, 4/3] * (l-1)/(n-1)."""
    base = (l - 1.0) / (n - 1.0)
    return 0.7 * base, (4.0 / 3.0) * base


def estimate_taus(prior: PriorSpec, n: int, ls: list[int], rng: np.random.Generator, *,
                  mc_replicates: int = 0, weight_replicates: int = 10**4) -> list[TauEstimate]:
    """Exact tau, optional normalized-mode MC, and both lower bounds, per l.

    The bounds need weight(pi, .) over each l's two frequency windows (only
    the large one at l = 1, where the small-l bound is vacuous).  Every
    window and the MC moments of every l are reduced from one batch of
    max(mc_replicates, weight_replicates) realizations drawn from rng, in
    chunks of whole rows sized by the element budget _CHUNK_ELEMENTS: the
    windows read the first weight_replicates rows and the MC route the first
    mc_replicates rows (mc_replicates = 0 skips it).  The draws do not depend
    on the chunking, so each l's estimate is the same whether it is requested
    alone or with others, and the bound columns do not depend on
    mc_replicates.  The first tau_violations message is raised as ValueError.
    """
    raise_first(tau_violations({"n": n, "l": list(ls), "mc_replicates": mc_replicates,
                                "weight_replicates": weight_replicates}))
    exact = [tau_exact(prior, n, l) for l in ls]
    windows = {(l, "large"): large_interval(n, l) for l in ls}
    windows.update({(l, "small"): _small_interval(n, l) for l in ls if l > 1})
    lnum, lden, masses = _realizations(
        prior, rng, n=n, ls=ls if mc_replicates else (), mc_replicates=mc_replicates,
        windows=[(lo, min(hi, 1.0)) for lo, hi in windows.values()],
        weight_replicates=weight_replicates,
    )
    weight = {key: min(1.0, float(row.mean())) for key, row in zip(windows, masses)}
    out = []
    for i, l in enumerate(ls):
        mc = _tau_mc(lnum[i], lden[i]) if mc_replicates else None
        small = tau_lower_small(n, l, weight.get((l, "small"), 0.0))
        out.append(TauEstimate(l, exact[i], tau_lower_large(n, l, weight[l, "large"]), small,
                               mc.value if mc else None, mc.stderr if mc else None,
                               prior.regime_ok(n, l)))
    return out


def estimate_tau(prior: PriorSpec, n: int, l: int, rng: np.random.Generator,
                 **replicates) -> TauEstimate:
    """estimate_taus for one l; replicates are its mc_/weight_replicates keywords."""
    return estimate_taus(prior, n, [l], rng, **replicates)[0]
