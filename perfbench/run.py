"""noisylab benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a human-readable report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics.  The full record
(environment, configs, timings with sample counts, counters) is written to
``.perfbench-work/<workload>-seed<N>-trace<T>.json``.

Every process it starts runs the interpreter running this script, with the
repository's ``src`` first on PYTHONPATH; nothing needs to be installed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_output  # noqa: E402
from tracer import LAYERS, SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
WORK = ROOT / ".perfbench-work"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _worker(*args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def measure_setup(config: Path, samples: int) -> tuple[list[float], int]:
    """Seconds from process start to a validated config, per fresh interpreter.

    One untimed start first fills the bytecode and file caches, which users
    also have warm.  Returns the timings and the number of failed starts.
    """
    times, failed = [], 0
    for i in range(samples + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(_worker("setup", config), stdout=subprocess.PIPE, text=True,
                                env=_child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if i == 0:
            continue
        if code != 0 or line.strip() != "ready 0":
            failed += 1
        else:
            times.append(elapsed)
    return times, failed


def failed_invocations(records: list[dict], digest: str | None, content_ok: bool) -> int:
    """Invocations with a nonzero exit, a missing output or a wrong CSV."""
    return sum(
        1 for r in records
        if r["exit"] != 0 or not r["csv"] or not r["manifest"]
        or r["digest"] != digest or not content_ok
    )


def timing(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values),
            "min": min(values), "max": max(values)}


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics per invocation: exact counts, median self times."""
    first, n = traced[0], len(traced)
    layers, counts = first["layers"], first["counters"]

    def exact(value, unit="count"):
        return {"value": value, "unit": unit, "samples": n}

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = exact(layers[name]["calls"])
        metrics[f"{name}.self_s"] = timing([r["layers"][name]["self_s"] for r in traced], "s")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = exact(
            sum(v["errors"] for k, v in layers.items() if k.split(".")[0] == layer))
    ls_calls = layers["treatments.compare_ls_lc"]["calls"]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics.update({
        "cli.rows": exact(first["rows"]),
        "cli.bytes_out": exact(first["bytes_out"], "bytes"),
        "mcsim.trials": exact(counts["trials"]),
        "mcsim.uniforms": exact(counts["uniforms"]),
        "mcsim.useful_uniform_ratio": exact(
            counts["useful_uniforms"] / counts["uniforms"] if counts["uniforms"] else 0.0, "ratio"),
        "mcsim.ls_table_useful_ratio": exact(
            counts["ls_table_entries"] / ls_calls if ls_calls else 0.0, "ratio"),
        "freqmodel.elements_drawn": exact(counts["elements_drawn"]),
        "trace.overhead_frac": exact(traced_wall / untraced_wall - 1.0, "ratio"),
    })
    return metrics


def count_mismatches(traced: list[dict]) -> int:
    """Traced invocations whose calls or work counts differ from the first one's."""
    def exact(r):
        return ({k: v["calls"] for k, v in r["layers"].items()}, r["counters"], r["rows"])
    return sum(exact(r) != exact(traced[0]) for r in traced)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    config = make_config(workload, seed, size)
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    out, result_path = work / "out.csv", work / "result.json"

    setup_times, setup_failed = measure_setup(config_path, SETUP_SAMPLES)
    measured = seconds / 2 if trace else seconds
    cmd = _worker("measure", config_path, out, result_path, measured)
    if trace:
        cmd += ["--traced-seconds", str(seconds - measured)]
    subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    child = json.loads(result_path.read_text(encoding="utf-8"))

    first_csv = work / "out.first.csv"
    problems = (check_output(first_csv.read_text(encoding="utf-8"), config)
                if first_csv.exists() else ["no CSV was written"])
    records = [child["warmup"], *child["untraced"], *child.get("traced", [])]
    digest = child["untraced"][0]["digest"]
    failed = setup_failed + failed_invocations(records, digest, not problems)
    attempted = SETUP_SAMPLES + len(records)
    mismatches = count_mismatches(child["traced"]) if trace else 0
    if mismatches:
        problems.append(f"exact counts differ in {mismatches} traced invocations")
        failed += mismatches

    untraced = child["untraced"]
    timings = {}
    if setup_times:
        timings["setup_s"] = timing(setup_times, "s")
    timings["wall_s"] = timing([r["wall_s"] for r in untraced], "s")
    timings["cpu_s"] = timing([r["cpu_s"] for r in untraced], "s")
    timings["peak_rss_mb"] = {"value": child["peak_rss_mb"], "unit": "MB", "samples": 1}
    timings["error_rate"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted,
                             "failed": failed, "attempted": attempted}
    record = {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds, "trace": trace,
        "env": child["env"], "configs": {workload: config}, "csv_sha256": digest,
        "timings": timings, "problems": problems,
        "counters": layer_metrics(child["traced"], timings["wall_s"]["value"]) if trace else {},
    }
    (WORK / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def _print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  size {record['size']}  "
          f"env {json.dumps(record['env'], sort_keys=True)}")
    for title, metrics in (("end-to-end", record["timings"]), ("per-layer", record["counters"])):
        if metrics:
            print(f"{title}:")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']!r:>24} {m['unit']:6s} n={m['samples']}")
    for problem in record["problems"][:20]:
        print(f"  check failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="noisylab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the workload at smoke-test size")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    if not (ROOT / "src" / "noisylab" / "cli.py").is_file():
        print(f"noisylab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    _print_report(record)
    timings = record["timings"]
    if args.trace:
        metrics = record["counters"]
    else:
        metrics = {k: v for k, v in timings.items() if k != "error_rate"}
    errors = timings["error_rate"]
    print(json.dumps({
        "correct": errors["failed"] == 0 and not record["problems"],
        "attempted": errors["attempted"],
        "failed": errors["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
