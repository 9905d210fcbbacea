"""Batch command-line front end: config in, CSV + JSON manifest out.

Commands (one per config file): tau, weight, simulate, bounds, sweep,
noise-synth, plus validate (schema/range check only, writes nothing).
Configs are JSON objects; a mandatory integer seed makes every run
reproducible, and the manifest written next to the CSV echoes the effective
configuration (flag overrides applied) together with tool version, random
stream version, the environment (Python, numpy and scipy versions, platform,
CPU count), wall time and its split into computing the rows and writing the
CSV.  Both files are written atomically: a partial file never appears under
the output name.

Exit codes: 0 success, 2 invalid config, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .freqmodel import build_prior, estimate_taus, weight_estimate
from .mcsim import _Z_95, STREAM_VERSION, BoundReport, InstanceScenario, bound_report, sweep
from .noise import InstanceNoiseSynth

__all__ = ["ValidationReport", "validate", "validate_config", "main", "entry"]

COMMANDS = ("tau", "weight", "simulate", "bounds", "sweep", "noise-synth")

# One fixed layout for all event/estimate tables; the noise-synth command,
# which emits per-instance draws rather than event estimates, has its own.
CSV_COLUMNS = (
    "l",
    "y",
    "e_plus",
    "e_minus",
    "p_plus",
    "p_minus",
    "smoothing_a",
    "n",
    "treatment",
    "mc_estimate",
    "ci_lo",
    "ci_hi",
    "exact",
    "bound",
    "bound_form",
    "regime_ok",
    "ordering_holds",
)
SYNTH_COLUMNS = ("instance", "q", "projection", "rate")

_MAX_SEED = 2**64 - 1

# Distinct substream tags for commands that draw outside the trial engine.
_COMMAND_STREAM = {"tau": 11, "weight": 12, "noise-synth": 13}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# --------------------------------------------------------------------------
# config validation


def _require_int(doc: dict, path: str, key: str, violations: list[str], *, lo=None, hi=None):
    value = doc.get(key)
    where = f"{path}{key}" if not path else f"{path}.{key}"
    if value is None:
        violations.append(f"{where}: {key} required")
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        violations.append(f"{where}: must be an integer, got {value!r}")
        return None
    if lo is not None and value < lo:
        violations.append(f"{where}: must be >= {lo}, got {value}")
        return None
    if hi is not None and value > hi:
        violations.append(f"{where}: must be <= {hi}, got {value}")
        return None
    return value


def _require_real(doc: dict, path: str, key: str, violations: list[str], *, lo=None, hi=None,
                  lo_open=False, hi_open=False, required=True):
    value = doc.get(key)
    where = f"{path}.{key}" if path else key
    if value is None:
        if required:
            violations.append(f"{where}: {key} required")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        violations.append(f"{where}: must be a number, got {value!r}")
        return None
    value = float(value)
    if lo is not None and (value <= lo if lo_open else value < lo):
        violations.append(f"{where}: must be {'>' if lo_open else '>='} {lo}, got {value}")
        return None
    if hi is not None and (value >= hi if hi_open else value > hi):
        violations.append(f"{where}: must be {'<' if hi_open else '<='} {hi}, got {value}")
        return None
    return value


def _check_prior(doc: dict, path: str, violations: list[str]) -> None:
    prior = doc.get("prior")
    if prior is None:
        violations.append(f"{path}: prior required")
        return
    if not isinstance(prior, dict):
        violations.append(f"{path}: must be an object")
        return
    generator = prior.get("generator")
    if generator not in ("uniform", "zipf", "explicit"):
        violations.append(f"{path}.generator: must be one of uniform, zipf, explicit, got {generator!r}")
        return
    if generator in ("uniform", "zipf"):
        _require_int(prior, path, "n_values", violations, lo=1)
    if generator == "zipf":
        _require_real(prior, path, "exponent", violations, lo=0.0, lo_open=True)
    if generator == "explicit":
        values = prior.get("values")
        if not isinstance(values, list) or not values:
            violations.append(f"{path}.values: explicit prior needs a nonempty list of values")
        elif any(isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0 for v in values):
            violations.append(f"{path}.values: all values must be positive numbers")
    if "cap" in prior:
        _require_real(prior, path, "cap", violations, lo=0.0, hi=1.0, lo_open=True)


def _check_scenario(doc, path: str, violations: list[str]) -> None:
    if not isinstance(doc, dict):
        violations.append(f"{path}: must be an object")
        return
    l = _require_int(doc, path, "l", violations, lo=1)
    y = doc.get("y")
    if y not in (-1, 1):
        violations.append(f"{path}.y: must be -1 or 1, got {y!r}")
    e_plus = _require_real(doc, path, "e_plus", violations, lo=0.0, hi=1.0, hi_open=True)
    e_minus = _require_real(doc, path, "e_minus", violations, lo=0.0, hi=1.0, hi_open=True)
    if e_plus is not None and e_minus is not None and e_plus + e_minus >= 1.0:
        violations.append(f"{path}.e_plus: e_plus + e_minus must be < 1, got {e_plus + e_minus}")
    p_plus = _require_real(doc, path, "p_plus", violations, lo=0.0, hi=1.0,
                           lo_open=True, hi_open=True, required=False)
    p_minus = _require_real(doc, path, "p_minus", violations, lo=0.0, hi=1.0,
                            lo_open=True, hi_open=True, required=False)
    if p_plus is not None and p_minus is not None and abs(p_plus + p_minus - 1.0) > 1e-9:
        violations.append(f"{path}.p_plus: p_plus + p_minus must equal 1, got {p_plus + p_minus}")
    _require_real(doc, path, "smoothing_a", violations, lo=0.0, hi=1.0,
                  lo_open=True, hi_open=True, required=False)
    if "n" in doc:
        n = _require_int(doc, path, "n", violations, lo=1)
        if n is not None and l is not None and n < l:
            violations.append(f"{path}.n: must be >= l, got n={n}, l={l}")


def validate_config(doc) -> list[str]:
    """Full schema and range check; returns one message per violation."""
    violations: list[str] = []
    if not isinstance(doc, dict):
        return ["config: must be a JSON object"]
    command = doc.get("command")
    if command is None:
        violations.append("command: command required")
    elif command not in COMMANDS:
        violations.append(f"command: must be one of {', '.join(COMMANDS)}, got {command!r}")
    _require_int(doc, "", "seed", violations, lo=0, hi=_MAX_SEED)
    if "workers" in doc:
        _require_int(doc, "", "workers", violations, lo=1)
    if "out" in doc and not isinstance(doc["out"], str):
        violations.append("out: must be a string path")
    if command not in COMMANDS:
        return violations

    if command == "tau":
        _check_prior(doc, "prior", violations)
        n = _require_int(doc, "", "n", violations, lo=1)
        ls = doc.get("l")
        if isinstance(ls, int) and not isinstance(ls, bool):
            ls = [ls]
        if not isinstance(ls, list) or not ls or any(
            isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in ls
        ):
            violations.append("l: must be a positive integer or nonempty list of them")
        elif n is not None and any(v > n for v in ls):
            violations.append(f"l: every value must be <= n={n}")
        if "mc_replicates" in doc:
            _require_int(doc, "", "mc_replicates", violations, lo=0)
        if "weight_replicates" in doc:
            _require_int(doc, "", "weight_replicates", violations, lo=1)
    elif command == "weight":
        _check_prior(doc, "prior", violations)
        interval = doc.get("interval")
        if (
            not isinstance(interval, list)
            or len(interval) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in interval)
        ):
            violations.append("interval: must be a [beta1, beta2] pair of numbers")
        elif not 0.0 <= interval[0] <= interval[1] <= 1.0:
            violations.append(f"interval: need 0 <= beta1 <= beta2 <= 1, got {interval}")
        _require_int(doc, "", "replicates", violations, lo=1)
    elif command in ("simulate", "bounds"):
        _check_scenario(doc.get("scenario"), "scenario", violations)
        _require_int(doc, "", "trials", violations, lo=1)
    elif command == "sweep":
        _require_int(doc, "", "trials", violations, lo=1)
        scenarios = doc.get("scenarios")
        grid = doc.get("grid")
        if scenarios is None and grid is None:
            violations.append("scenarios: sweep needs scenarios or grid")
        if scenarios is not None:
            if not isinstance(scenarios, list) or not scenarios:
                violations.append("scenarios: must be a nonempty list")
            else:
                for i, s in enumerate(scenarios):
                    _check_scenario(s, f"scenarios[{i}]", violations)
        if grid is not None:
            if not isinstance(grid, dict):
                violations.append("grid: must be an object")
            else:
                for key in ("l", "e"):
                    vals = grid.get(key)
                    if not isinstance(vals, list) or not vals:
                        violations.append(f"grid.{key}: must be a nonempty list")
                    elif key == "l" and any(
                        isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in vals
                    ):
                        violations.append("grid.l: entries must be positive integers")
                    elif key == "e" and any(
                        isinstance(v, bool)
                        or not isinstance(v, (int, float))
                        or not 0.0 <= v < 0.5
                        for v in vals
                    ):
                        violations.append("grid.e: symmetric rates must lie in [0, 0.5)")
                base = grid.get("base", {})
                if not isinstance(base, dict):
                    violations.append("grid.base: must be an object")
    elif command == "noise-synth":
        _require_real(doc, "", "epsilon", violations, lo=0.0, hi=1.0)
        if "sigma" in doc:
            _require_real(doc, "", "sigma", violations, lo=0.0, lo_open=True)
        _require_int(doc, "", "count", violations, lo=1)
        _require_int(doc, "", "feature_dim", violations, lo=1)
    return violations


def validate(config_path) -> ValidationReport:
    """Load and check a config file without touching anything else."""
    try:
        doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except OSError as exc:
        return ValidationReport((f"config: unreadable ({exc})",))
    except json.JSONDecodeError as exc:
        return ValidationReport((f"config: malformed JSON ({exc})",))
    return ValidationReport(tuple(validate_config(doc)))


# --------------------------------------------------------------------------
# execution


def _fmt(value) -> str:
    """Shortest-round-trip cell text; empty for missing values."""
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a temporary sibling, then rename it over path."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, columns, rows) -> int:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")
    return len(rows)


def _command_rng(seed: int, command: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _COMMAND_STREAM[command])))


def _build_prior(doc: dict):
    return build_prior(
        doc["generator"],
        n=doc.get("n_values"),
        exponent=doc.get("exponent"),
        values=doc.get("values"),
        cap=doc.get("cap"),
    )


def _build_scenario(doc: dict) -> InstanceScenario:
    return InstanceScenario(
        l=doc["l"],
        y=doc["y"],
        e_plus=doc["e_plus"],
        e_minus=doc["e_minus"],
        p_plus=doc.get("p_plus", 0.5),
        p_minus=doc.get("p_minus"),
        smoothing_a=doc.get("smoothing_a", 0.1),
        n=doc.get("n"),
    )


def _scenario_cells(s: InstanceScenario) -> list:
    return [s.l, s.y, s.e_plus, s.e_minus, s.p_plus, s.p_minus, s.smoothing_a, s.n]


def _report_rows(report: BoundReport, headline_only: bool) -> list[list]:
    rows = []
    for check in report.checks:
        if headline_only and not check.headline:
            continue
        bound = check.bound
        rows.append(
            _scenario_cells(report.scenario)
            + [
                check.treatment.value,
                check.mc_estimate,
                check.ci[0],
                check.ci[1],
                check.exact,
                bound.value if bound is not None else None,
                bound.kind.value if bound is not None else None,
                bound.regime_ok if bound is not None else None,
                check.ordering_holds,
            ]
        )
    return rows


def _tau_rows(doc: dict, seed: int) -> list[list]:
    n = doc["n"]
    estimates = estimate_taus(
        _build_prior(doc["prior"]),
        n,
        doc["l"] if isinstance(doc["l"], list) else [doc["l"]],
        _command_rng(seed, "tau"),
        mc_replicates=doc.get("mc_replicates", 0),
        weight_replicates=doc.get("weight_replicates", 10**4),
    )
    rows = []
    for est in estimates:
        if est.mc is None:
            mc = ci_lo = ci_hi = None
        else:
            mc = est.mc
            ci_lo = mc - _Z_95 * est.mc_stderr
            ci_hi = mc + _Z_95 * est.mc_stderr
        for form, value, regime in (
            ("tau_lower_large", est.lower_large, est.regime_ok),
            ("tau_lower_small", est.lower_small, est.regime_ok and est.l > 1),
        ):
            rows.append(
                [est.l, None, None, None, None, None, None, n, "tau", mc, ci_lo, ci_hi,
                 est.exact, value, form, regime, (est.exact >= value) if regime else None]
            )
    return rows


def _weight_rows(doc: dict, seed: int) -> list[list]:
    prior = _build_prior(doc["prior"])
    rng = _command_rng(seed, "weight")
    b1, b2 = doc["interval"]
    est = weight_estimate(prior, (b1, b2), doc["replicates"], rng)
    ci_lo = max(0.0, est.value - _Z_95 * est.stderr)
    ci_hi = min(1.0, est.value + _Z_95 * est.stderr)
    return [
        [None, None, None, None, None, None, None, None, "weight",
         est.value, ci_lo, ci_hi, None, None, None, None, None]
    ]


def _sweep_scenarios(doc: dict) -> list[InstanceScenario]:
    if doc.get("scenarios") is not None:
        return [_build_scenario(s) for s in doc["scenarios"]]
    grid = doc["grid"]
    base = grid.get("base", {})
    scenarios = []
    for l in grid["l"]:
        for e in grid["e"]:
            scenarios.append(
                InstanceScenario(
                    l=l,
                    y=base.get("y", 1),
                    e_plus=e,
                    e_minus=e,
                    p_plus=base.get("p_plus", 0.5),
                    smoothing_a=base.get("smoothing_a", 0.1),
                    n=base.get("n"),
                )
            )
    return scenarios


def _synth_rows(doc: dict, seed: int) -> list[list]:
    rng = _command_rng(seed, "noise-synth")
    synth = InstanceNoiseSynth.sample(
        doc["epsilon"], doc["feature_dim"], rng, sigma=doc.get("sigma", 0.1)
    )
    rows = []
    for i in range(doc["count"]):
        feature = rng.standard_normal(doc["feature_dim"])
        q, projection, rate = synth.draw(feature, rng)
        rows.append([i, q, projection, rate])
    return rows


def _env() -> dict:
    """The software and machine a run used, under the benchmark record's field names."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def _execute(command: str, doc: dict, out_path: Path) -> dict:
    """Run a validated config; returns manifest fields describing the output."""
    seed = doc["seed"]
    workers = doc.get("workers", 1)
    started = time.perf_counter()
    columns = CSV_COLUMNS
    if command == "tau":
        rows = _tau_rows(doc, seed)
    elif command == "weight":
        rows = _weight_rows(doc, seed)
    elif command in ("simulate", "bounds"):
        report = bound_report(_build_scenario(doc["scenario"]), doc["trials"], seed, workers=workers)
        rows = _report_rows(report, headline_only=command == "simulate")
    elif command == "sweep":
        rows = []
        for report in sweep(_sweep_scenarios(doc), doc["trials"], seed, workers=workers):
            rows.extend(_report_rows(report, headline_only=True))
    elif command == "noise-synth":
        columns, rows = SYNTH_COLUMNS, _synth_rows(doc, seed)
    else:  # pragma: no cover - guarded by validation
        raise ValueError(f"unknown command {command!r}")
    computed = time.perf_counter()
    count = _write_csv(out_path, columns, rows)
    written = time.perf_counter()
    return {
        "rows": count,
        "wall_time_s": written - started,
        "timings": {"compute_s": computed - started, "write_s": written - computed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noisylab",
        description="Label-noise treatment simulator: exact bounds, binomial oracles, seeded Monte Carlo.",
    )
    parser.add_argument("command", choices=COMMANDS + ("validate",))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", help="output CSV path (default: <command>.csv)")
    parser.add_argument("--trials", type=int, help="override config trials")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--workers", type=int, help="override config worker count")
    args = parser.parse_args(argv)

    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"config: unreadable ({exc})", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config: malformed JSON ({exc})", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print("config: must be a JSON object", file=sys.stderr)
        return 2

    if args.command == "validate":
        violations = validate_config(doc)
        for violation in violations:
            print(violation)
        if violations:
            return 2
        print("config valid")
        return 0

    # flag overrides, then full validation against the effective document
    doc = dict(doc)
    doc["command"] = doc.get("command", args.command)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.workers is not None:
        doc["workers"] = args.workers
    if args.out is not None:
        doc["out"] = args.out
    if doc["command"] != args.command:
        print(
            f"command: config file is for {doc['command']!r}, invoked as {args.command!r}",
            file=sys.stderr,
        )
        return 2
    violations = validate_config(doc)
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        return 2

    out_path = Path(doc.get("out", f"{args.command}.csv"))
    manifest_path = out_path.with_suffix(".manifest.json")
    try:
        result = _execute(args.command, doc, out_path)
        manifest = {
            "tool": "noisylab",
            "version": __version__,
            "stream_version": STREAM_VERSION,
            "env": _env(),
            "command": args.command,
            "seed": doc["seed"],
            "workers": doc.get("workers", 1),
            "config": doc,
            "out": str(out_path),
            **result,
        }
        _write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(f"{args.command}: wrote {result['rows']} rows to {out_path} (manifest {manifest_path})")
    return 0


def entry() -> None:
    raise SystemExit(main())
