"""Output checks for the benchmark's CSVs, written independently of noisylab.

Nothing here imports noisylab: the checks recompute what they need from the
config with the standard library.  Each check returns a list of problems; an
empty list means the CSV passed.

Sweep rows compare each Monte-Carlo estimate with the exact probability in
its row.  A count of n Bernoulli(p) draws stays within
``z * sqrt(p (1 - p) / n) + 2 L / (3 n)`` of p, as a proportion, except with
probability at most ``2 exp(-L)`` (Bernstein's inequality, z = sqrt(2 L)).
L is chosen so that the whole file, with one test per row, fails with
probability below ``ALPHA`` when the engine is correct.  The second term only
matters for tiny p, where the normal band alone would be too tight.
"""
from __future__ import annotations

import csv
import io
import math

ALPHA = 1e-3
SCENARIO_COLUMNS = (
    "l", "y", "e_plus", "e_minus", "p_plus", "p_minus", "smoothing_a", "n", "treatment",
    "mc_estimate", "ci_lo", "ci_hi", "exact", "bound", "bound_form", "regime_ok",
    "ordering_holds",
)
SYNTH_COLUMNS = ("instance", "q", "projection", "rate")
SWEEP_TREATMENTS = ("memorize", "loss_correction", "label_smoothing", "peer_loss")
RATE_CEIL = 1.0 - 1e-6


def _rows(text: str, columns) -> tuple[list[dict], list[str]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(columns):
        return [], [f"header is {header!r}, expected {list(columns)!r}"]
    return [dict(zip(columns, row)) for row in reader], []


def _tails(l: int, p: float) -> list[float]:
    """P[Bin(l, p) >= k] for k = 0..l+1, from log-pmf terms via math.lgamma."""
    if p in (0.0, 1.0):
        return [1.0] + [float(p == 1.0)] * l + [0.0]
    log_p, log_q = math.log(p), math.log1p(-p)
    lg = math.lgamma(l + 1)
    pmf = [math.exp(lg - math.lgamma(j + 1) - math.lgamma(l - j + 1) + j * log_p + (l - j) * log_q)
           for j in range(l + 1)]
    return [math.fsum(pmf[k:]) for k in range(l + 1)] + [0.0]


def _is_binomial_tail(value: float, tails) -> bool:
    return any(abs(value - t) <= 1e-9 * max(value, t) + 1e-300 for t in tails)


def sweep_scenarios(config: dict) -> list[tuple[int, int, float]]:
    """(l, y, e) per scenario, in the order the sweep command emits them."""
    grid = config["grid"]
    y = grid.get("base", {}).get("y", 1)
    return [(l, y, float(e)) for l in grid["l"] for e in grid["e"]]


def check_sweep(text: str, config: dict) -> list[str]:
    rows, problems = _rows(text, SCENARIO_COLUMNS)
    if problems:
        return problems
    scenarios = sweep_scenarios(config)
    expected = len(scenarios) * len(SWEEP_TREATMENTS)
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    trials = config["trials"]
    log_budget = math.log(2 * len(rows) / ALPHA)
    z = math.sqrt(2 * log_budget)
    tails = {}
    for i, row in enumerate(rows):
        l, y, e = scenarios[i // len(SWEEP_TREATMENTS)]
        where = f"row {i + 1} (l={l}, e={e}, {row['treatment']})"
        if (int(row["l"]), int(row["y"]), float(row["e_plus"]), float(row["e_minus"])) != (l, y, e, e):
            problems.append(f"{where}: scenario columns do not match the config")
            continue
        if row["treatment"] != SWEEP_TREATMENTS[i % len(SWEEP_TREATMENTS)]:
            problems.append(f"{where}: unexpected treatment")
            continue
        if row["ordering_holds"] == "false":
            problems.append(f"{where}: ordering_holds is false")
        mc, exact = float(row["mc_estimate"]), float(row["exact"])
        if not (0.0 <= mc <= 1.0 and 0.0 <= exact <= 1.0):
            problems.append(f"{where}: mc_estimate {mc!r} or exact {exact!r} is no probability")
            continue
        if row["treatment"] == "memorize":
            draws = trials * l
            if exact != e:
                problems.append(f"{where}: exact {exact!r} is not the flip rate {e!r}")
        else:
            draws = trials
            for p in (e, 1.0 - e):
                if (l, p) not in tails:
                    tails[l, p] = _tails(l, p)
            if not (_is_binomial_tail(exact, tails[l, e]) or _is_binomial_tail(exact, tails[l, 1.0 - e])):
                problems.append(f"{where}: exact {exact!r} is no binomial tail of Bin({l}, {e})")
        if exact in (0.0, 1.0):
            if mc != exact:
                problems.append(f"{where}: mc_estimate {mc!r} differs from exact {exact!r}")
        else:
            tolerance = z * math.sqrt(exact * (1.0 - exact) / draws) + 2.0 * log_budget / (3.0 * draws)
            if abs(mc - exact) > tolerance:
                problems.append(
                    f"{where}: mc_estimate {mc!r} is {abs(mc - exact):.3g} from exact {exact!r} "
                    f"(allowed {tolerance:.3g})"
                )
    return problems


def check_tau(text: str, config: dict) -> list[str]:
    rows, problems = _rows(text, SCENARIO_COLUMNS)
    if problems:
        return problems
    ls = config["l"] if isinstance(config["l"], list) else [config["l"]]
    if len(rows) != 2 * len(ls):
        return [f"{len(rows)} rows, expected {2 * len(ls)}"]
    for i, row in enumerate(rows):
        where = f"row {i + 1} (l={row['l']}, {row['bound_form']})"
        if int(row["l"]) != ls[i // 2] or int(row["n"]) != config["n"]:
            problems.append(f"{where}: l or n does not match the config")
        if row["ordering_holds"] == "false":
            problems.append(f"{where}: ordering_holds is false")
        for column in ("mc_estimate", "ci_lo", "ci_hi", "exact", "bound"):
            cell = row[column]
            if config.get("mc_replicates", 0) == 0 and column in ("mc_estimate", "ci_lo", "ci_hi"):
                continue
            if cell == "" or not math.isfinite(float(cell)):
                problems.append(f"{where}: {column} is not finite ({cell!r})")
    return problems


def expected_rate(q: float, projection: float) -> float:
    """min(max(q * 2 * logistic(projection), 0), 1 - 1e-6)."""
    return min(max(q * 2.0 * (1.0 / (1.0 + math.exp(-projection))), 0.0), RATE_CEIL)


def check_synth(text: str, config: dict) -> list[str]:
    rows, problems = _rows(text, SYNTH_COLUMNS)
    if problems:
        return problems
    if len(rows) != config["count"]:
        return [f"{len(rows)} rows, expected count={config['count']}"]
    for i, row in enumerate(rows):
        q, projection, rate = float(row["q"]), float(row["projection"]), float(row["rate"])
        if int(row["instance"]) != i:
            problems.append(f"row {i + 1}: instance {row['instance']} out of order")
        if not 0.0 <= q <= 1.0:
            problems.append(f"row {i + 1}: q {q!r} outside [0, 1]")
        if not math.isfinite(projection):
            problems.append(f"row {i + 1}: projection is not finite")
        # a few ulps of slack: a logistic evaluated another way may round differently
        elif not math.isclose(rate, expected_rate(q, projection), rel_tol=1e-15, abs_tol=0.0):
            problems.append(f"row {i + 1}: rate {rate!r} != {expected_rate(q, projection)!r}")
        if len(problems) >= 20:
            problems.append("further rows not checked")
            break
    return problems


CHECKS = {"sweep": check_sweep, "tau": check_tau, "noise-synth": check_synth}


def check_output(text: str, config: dict) -> list[str]:
    """Problems found in one command's CSV, judged against its config."""
    try:
        return CHECKS[config["command"]](text, config)
    except (ValueError, TypeError, KeyError) as exc:  # a cell that does not parse
        return [f"malformed CSV: {exc!r}"]
