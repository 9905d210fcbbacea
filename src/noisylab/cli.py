"""Batch command-line front end: config in, CSV + JSON manifest out.

Commands (one per config file): tau, weight, simulate, bounds, sweep,
noise-synth, plus validate (parse only, writes nothing).  A config is parsed
once: the parse returns every violation together with the run inputs it
built (the prior, the l list, the scenarios), and a run hands those inputs
to its row builder.  Configs are JSON objects; a mandatory integer seed
makes every run reproducible, and the manifest written next to the CSV
echoes the effective configuration (flag overrides applied) together with
tool version, random stream version, the environment (Python, numpy and
scipy versions, platform, CPU count), wall time and its split into
computing the rows and writing the CSV.  Both files are written atomically:
a partial file never appears under the output name.

Exit codes: 0 success, 2 invalid config, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._spec import _COUNT, Spec, field_violations, reads, unknown_fields
from .bounds import BoundValue, ordering_holds
from .freqmodel import PriorSpec, estimate_taus, parse_prior, parse_tau, weight_estimate, weight_violations
from .mcsim import (
    _RUN_FIELDS,
    _SCENARIO_FIELDS,
    _Z_95,
    STREAM_VERSION,
    InstanceScenario,
    batch_violations,
    scenario_violations,
    sweep,
)
from .noise import _SYNTH_FIELDS, InstanceNoiseSynth

__all__ = ["validate_config", "main", "entry"]

# One fixed layout for all event/estimate tables, led by the scenario fields;
# the noise-synth command, which emits per-instance draws rather than event
# estimates, has its own.  Row builders return {column: value} mappings and
# _write_csv orders them by these headers.
CSV_COLUMNS = (
    *_SCENARIO_FIELDS,
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
# noise-synth rows per draw: each chunk draws its features, then its q, so
# this size fixes the draw order and changing it bumps STREAM_VERSION
_CHUNK_ROWS = 1 << 12


# --------------------------------------------------------------------------
# config parse


_TOP_FIELDS = {
    "seed": replace(_RUN_FIELDS["seed"], hi=_MAX_SEED),
    "workers": replace(_RUN_FIELDS["workers"], required=False),
}
_TRIALS = {"trials": _RUN_FIELDS["trials"]}
# commands that run no trials still reject an invalid trials value
_OPTIONAL_TRIALS = {"trials": replace(_RUN_FIELDS["trials"], required=False)}
# grid lists: (spec every entry must fit, message when one does not)
_GRID_ENTRIES = {
    "l": (_SCENARIO_FIELDS["l"], f"entries must be integers in 1..{_SCENARIO_FIELDS['l'].hi}"),
    "e": (Spec(lo=0.0, hi=0.5, hi_open=True), "symmetric rates must lie in [0, 0.5)"),
}
# the scenario fields each grid point takes from the grid, never from grid.base
_GRID_SET = ("l", "e_plus", "e_minus")


def _scenario(entry, path: str) -> tuple[InstanceScenario | None, list[str]]:
    """The scenario a config entry describes, or None and its messages: the build checks
    the entry, and only an entry it rejects is checked again, for every message in order."""
    try:
        return InstanceScenario(**entry), []
    except (TypeError, ValueError):
        violations = scenario_violations(entry, path)
        if not violations:
            raise
        return None, violations


@reads("scenario")
def _parse_scenario(doc: dict) -> tuple[list | None, list[str]]:
    scenario, violations = _scenario(doc.get("scenario"), "scenario")
    return [scenario], violations + batch_violations(1, doc.get("trials"))


@reads("scenarios")
def _parse_scenarios(doc: dict) -> tuple[list | None, list[str]]:
    scenarios = doc.get("scenarios")
    if scenarios is None:
        return None, [] if doc.get("grid") is not None else ["scenarios: sweep needs scenarios or grid"]
    if not isinstance(scenarios, list) or not scenarios:
        return None, ["scenarios: must be a nonempty list"]
    # a batch past a ceiling is reported alone, before its entries are checked one by one
    violations = batch_violations(len(scenarios), doc.get("trials"))
    if violations:
        return None, violations
    built = [_scenario(s, f"scenarios[{i}]") for i, s in enumerate(scenarios)]
    return [s for s, _ in built], [v for _, found in built for v in found]


def _grid_point(base: dict, l: int, e: float) -> dict:
    """The scenario fields of one grid point: base fields, y = 1 by default."""
    return {"y": 1, **base, "l": l, "e_plus": e, "e_minus": e}


@reads("grid")
def _parse_grid(doc: dict) -> tuple[list | None, list[str]]:
    grid = doc.get("grid")
    if grid is None:
        return None, []
    if doc.get("scenarios") is not None:  # sweep would run the scenarios and never read grid
        return None, ["grid: must not be given together with scenarios"]
    if not isinstance(grid, dict):
        return None, ["grid: must be an object"]
    violations, valid = [], {}
    for key, (spec, message) in _GRID_ENTRIES.items():
        vals = grid.get(key)
        if not isinstance(vals, list) or not vals:
            violations.append(f"grid.{key}: must be a nonempty list")
        elif any(map(spec.violation, vals)):
            violations.append(f"grid.{key}: {message}")
        else:
            valid[key] = vals
    violations += unknown_fields(grid, (*_GRID_ENTRIES, "base"), "grid")
    base = grid.get("base", {})
    if not isinstance(base, dict):
        return None, violations + ["grid.base: must be an object"]
    violations += [f"grid.base.{key}: must not be given, the grid sets it"
                   for key in _GRID_SET if key in base]
    # the base fields hold at every grid point once they hold at the largest
    # l (the n >= l rule); placeholders stand in for invalid lists
    point = _grid_point(base, max(valid.get("l", [1])), valid.get("e", [0.0])[0])
    size = batch_violations(len(valid.get("l", ())) * len(valid.get("e", ())), doc.get("trials"), "grid")
    violations += scenario_violations(point, "grid.base") + size
    if violations:
        return None, violations
    return [InstanceScenario(**_grid_point(base, l, e)) for l in grid["l"] for e in grid["e"]], []


def _parse(doc) -> tuple[list, list[str]]:
    """A config's run inputs, in the order its row builder takes them, and one message per
    violation; the inputs are complete only when there are no messages."""
    if not isinstance(doc, dict):
        return [], ["config: must be a JSON object"]
    violations: list[str] = []
    inputs: list = []
    command = doc.get("command")
    spec = _COMMANDS.get(command) if isinstance(command, str) else None
    if command is None:
        violations.append("command: command required")
    elif spec is None:
        violations.append(f"command: must be one of {', '.join(_COMMANDS)}, got {command!r}")
    violations += field_violations(doc, _TOP_FIELDS)
    if "out" in doc and not isinstance(doc["out"], str):
        violations.append("out: must be a string path")
    if spec is not None:
        for step in spec.steps:
            found = field_violations(doc, step) if isinstance(step, dict) else step(doc)
            if isinstance(found, tuple):
                built, found = found
                inputs += [] if built is None else [built]
            violations += found
        violations += unknown_fields(doc, spec.keys)
    return inputs, violations


def validate_config(doc) -> list[str]:
    """Full schema and range check; returns one message per violation."""
    return _parse(doc)[1]


def _load(config_path) -> tuple[object, str | None]:
    """The parsed config file, or None and why it could not be read."""
    try:
        return json.loads(Path(config_path).read_text(encoding="utf-8")), None
    except (OSError, UnicodeDecodeError) as exc:
        return None, f"config: unreadable ({exc})"
    except (json.JSONDecodeError, RecursionError) as exc:
        return None, f"config: malformed JSON ({exc})"


# --------------------------------------------------------------------------
# execution


def _fmt(value) -> str:
    """Shortest-round-trip cell text; empty for missing values."""
    if value is None:
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
    """Write {column: value} rows in header order.

    Absent columns stay empty; a column outside the header raises KeyError.
    """
    position = {name: i for i, name in enumerate(columns)}
    lines = [",".join(columns)]
    for row in rows:
        cells = [""] * len(columns)
        for name, value in row.items():
            cells[position[name]] = _fmt(value)
        lines.append(",".join(cells))
    _write_atomic(path, "\n".join(lines) + "\n")
    return len(rows)


def _command_rng(seed: int, command: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _COMMAND_STREAM[command])))


def _report_rows(headline_only: bool) -> Callable[..., list[dict]]:
    """The row builder of simulate, bounds and sweep: a row per check of each scenario."""
    def rows(doc: dict, scenarios: list[InstanceScenario]) -> list[dict]:
        out = []
        for report in sweep(scenarios, doc["trials"], doc["seed"], doc.get("workers", 1)):
            scenario = {name: getattr(report.scenario, name) for name in _SCENARIO_FIELDS}
            for check in report.checks:
                if headline_only and not check.headline:
                    continue
                out.append({**scenario, "treatment": check.treatment.value,
                            "mc_estimate": check.mc_estimate, "ci_lo": check.ci[0],
                            "ci_hi": check.ci[1], **_bound_cells(check.exact, check.bound)})
        return out

    return rows


def _bound_cells(exact: float, bound: BoundValue | None) -> dict:
    """A row's exact value, its bound's value, form and regime, and their ordering."""
    cells = {"exact": exact, "ordering_holds": ordering_holds(exact, bound)}
    if bound is not None:
        cells.update(bound=bound.value, bound_form=bound.kind.value, regime_ok=bound.regime_ok)
    return cells


def _tau_rows(doc: dict, prior: PriorSpec, ls: list[int]) -> list[dict]:
    n = doc["n"]
    estimates = estimate_taus(prior, n, ls, _command_rng(doc["seed"], "tau"), **{
        key: doc[key] for key in ("mc_replicates", "weight_replicates") if key in doc})
    rows = []
    for est in estimates:
        mc = {} if est.mc is None else {
            "mc_estimate": est.mc.value, "ci_lo": est.mc.value - _Z_95 * est.mc.stderr,
            "ci_hi": est.mc.value + _Z_95 * est.mc.stderr}
        rows += [{"l": est.l, "n": n, "treatment": "tau", **mc, **_bound_cells(est.exact, bound)}
                 for bound in est.bounds]
    return rows


def _weight_rows(doc: dict, prior: PriorSpec) -> list[dict]:
    rng = _command_rng(doc["seed"], "weight")
    est = weight_estimate(prior, doc["interval"], doc["replicates"], rng)
    return [{"treatment": "weight", "mc_estimate": est.value,
             "ci_lo": max(0.0, est.value - _Z_95 * est.stderr),
             "ci_hi": min(1.0, est.value + _Z_95 * est.stderr)}]


def _synth_rows(doc: dict) -> list[dict]:
    rng = _command_rng(doc["seed"], "noise-synth")
    synth = InstanceNoiseSynth.sample(
        doc["epsilon"], doc["feature_dim"], rng, sigma=doc.get("sigma", 0.1)
    )
    table = np.empty((doc["count"], 3))
    for start in range(0, len(table), _CHUNK_ROWS):
        features = rng.standard_normal((min(_CHUNK_ROWS, len(table) - start), doc["feature_dim"]))
        table[start : start + len(features)] = np.column_stack(synth.draw_rows(features, rng))
    return [dict(zip(SYNTH_COLUMNS, (i, *row))) for i, row in enumerate(table.tolist())]


def _env() -> dict:
    """The software and machine a run used, under the benchmark record's field names."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


@dataclass(frozen=True)
class _Command:
    """A run command: its config parse, its row builder and its CSV columns.

    steps parse the config in order.  Each is a table of top-level fields, or
    a function of the config, marked with the keys it reads, that returns its
    messages, or the run input it built (None when its keys are absent) and
    its messages.  rows takes the config and those inputs, in step order.
    """

    steps: tuple
    rows: Callable[..., list[dict]]
    columns: tuple[str, ...] = CSV_COLUMNS

    @property
    def keys(self) -> set[str]:
        """The top-level keys a config may give: the shared ones and those its steps read."""
        return {"command", "out", *_TOP_FIELDS}.union(
            *(step if isinstance(step, dict) else step.keys for step in self.steps))


_ONE_SCENARIO = (_parse_scenario, _TRIALS)
_COMMANDS = {
    "tau": _Command((parse_prior, parse_tau, _OPTIONAL_TRIALS), _tau_rows),
    "weight": _Command((parse_prior, weight_violations, _OPTIONAL_TRIALS), _weight_rows),
    "simulate": _Command(_ONE_SCENARIO, _report_rows(headline_only=True)),
    "bounds": _Command(_ONE_SCENARIO, _report_rows(headline_only=False)),
    "sweep": _Command((_TRIALS, _parse_scenarios, _parse_grid), _report_rows(headline_only=True)),
    "noise-synth": _Command(
        # the rows, held until the write, take about 544 B each: 0.53 GiB at the count
        # ceiling; two chunks of features take 64 KiB per feature: 1 GiB at the ceiling
        ({**_SYNTH_FIELDS, "count": replace(_COUNT, hi=2**20),
          "feature_dim": replace(_COUNT, hi=2**14),
          **_OPTIONAL_TRIALS},),
        _synth_rows, SYNTH_COLUMNS,
    ),
}


def _execute(command: str, doc: dict, inputs: list, out_path: Path) -> dict:
    """Run a config with the inputs its parse built; returns manifest fields describing the output."""
    spec = _COMMANDS[command]
    started = time.perf_counter()
    rows = spec.rows(doc, *inputs)
    computed = time.perf_counter()
    count = _write_csv(out_path, spec.columns, rows)
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
    parser.add_argument("command", choices=(*_COMMANDS, "validate"))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", help="output CSV path (default: <command>.csv)")
    parser.add_argument("--trials", type=int, help="override config trials")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--workers", type=int, help="override config worker count")
    args = parser.parse_args(argv)

    doc, error = _load(args.config)
    if error is None and not isinstance(doc, dict):
        error = "config: must be a JSON object"
    if error is not None:
        print(error, file=sys.stderr)
        return 2

    # flag overrides, then one parse of the effective document
    overrides = {key: getattr(args, key) for key in ("seed", "trials", "workers", "out")}
    doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    if args.command == "validate":
        violations = validate_config(doc)
        print("\n".join(violations) if violations else "config valid")
        return 2 if violations else 0
    doc = {"command": args.command, **doc}
    if doc["command"] != args.command:
        print(
            f"command: config file is for {doc['command']!r}, invoked as {args.command!r}",
            file=sys.stderr,
        )
        return 2
    inputs, violations = _parse(doc)
    if violations:
        print("\n".join(violations), file=sys.stderr)
        return 2

    out_path = Path(doc.get("out", f"{args.command}.csv"))
    manifest_path = out_path.with_suffix(".manifest.json")
    try:
        result = _execute(args.command, doc, inputs, out_path)
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
