"""Child process of the benchmark: drives noisylab through ``cli.main`` in process.

    python3 worker.py setup CONFIG
        Import noisylab.cli, validate CONFIG, print ``ready <exit code>``, exit.
        The parent times this from process start to the ready line.

    python3 worker.py measure CONFIG OUT_CSV RESULT_JSON SECONDS [--traced-seconds S]
        One untimed warm-up invocation, then closed-loop invocations for
        SECONDS, each timed for wall and process CPU time.  With
        --traced-seconds, span wrappers are installed afterwards and traced
        invocations run for S more seconds.  Writes RESULT_JSON.

The parent puts the repository's ``src`` first on PYTHONPATH; this process
refuses to run against a noisylab imported from anywhere else.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_cli():
    from noisylab import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"noisylab was imported from {cli.__file__}, not from {SRC}")
    return cli


def _quiet_main(cli, argv) -> int:
    """cli.main with its stdout captured; argparse exits count as failures."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def _invoke(cli, argv, out: Path) -> dict:
    manifest = out.with_suffix(".manifest.json")
    for path in (out, manifest):
        path.unlink(missing_ok=True)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    code = _quiet_main(cli, argv)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    record = {"wall_s": wall, "cpu_s": cpu, "exit": code, "csv": out.exists(),
              "manifest": manifest.exists(), "digest": None, "rows": 0, "bytes_out": 0}
    if record["csv"]:
        data = out.read_bytes()
        record["digest"] = hashlib.sha256(data).hexdigest()
        record["bytes_out"] += len(data)
    if record["manifest"]:
        record["bytes_out"] += manifest.stat().st_size
        record["rows"] = json.loads(manifest.read_text(encoding="utf-8")).get("rows", 0)
    return record


def _loop(cli, argv, out: Path, seconds: float, keep: Path, after=None) -> list[dict]:
    """Closed-loop invocations within `seconds` (at least one); keeps the first CSV.

    No invocation starts that the previous one's duration says would end
    past the deadline, so a run lasts `seconds` whatever the workload.
    """
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start + records[-1]["wall_s"] <= seconds:
        records.append(_invoke(cli, argv, out))
        if after is not None:
            records[-1].update(after())
        if len(records) == 1 and records[0]["csv"] and not keep.exists():
            shutil.copyfile(out, keep)
    return records


def env() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def setup(config: str) -> int:
    cli = _import_cli()
    code = _quiet_main(cli, ["validate", "--config", config])
    print(f"ready {code}", flush=True)
    return 0


def measure(args) -> int:
    cli = _import_cli()
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    out = Path(args.out)
    argv = [doc["command"], "--config", args.config, "--out", str(out)]
    keep = out.with_name(out.stem + ".first.csv")
    warmup = _invoke(cli, argv, out)
    untraced = _loop(cli, argv, out, args.seconds, keep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"env": env(), "warmup": warmup, "untraced": untraced, "peak_rss_mb": peak_rss_mb}
    if args.traced_seconds is not None:
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()

        def drain():
            spans, counts = tracer.drain()
            return {"layers": summarize(spans), "counters": counts}

        result["traced"] = _loop(cli, argv, out, args.traced_seconds, keep, after=drain)
        tracer.uninstall()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("config")
    p_measure = sub.add_parser("measure")
    p_measure.add_argument("config")
    p_measure.add_argument("out")
    p_measure.add_argument("result")
    p_measure.add_argument("seconds", type=float)
    p_measure.add_argument("--traced-seconds", type=float)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return setup(args.config)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
