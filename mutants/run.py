"""Mutant gate: small wrong edits of the engine that the named tests must catch.

Each row of MUTANTS is one mutant: the file under src/, the exact text it replaces,
the new text, a one-line reason, and the pytest node ids expected to kill it.  For
each row the gate copies src/ to a temporary directory and applies the edit there;
an edit whose old text does not occur exactly once is stale.  It then runs the
named tests with -x against the copy (pytest's pythonpath pointed at it).  A
mutant is killed when those tests fail, and survives when they pass; any other
pytest outcome, such as a node id that no longer exists, is an error.  Before the
mutants, the union of the named tests runs once on an unedited copy, which must
pass, so that no mutant is killed by a test that already fails.

The gate prints one JSON object (each mutant's outcome and seconds, and the
totals) and exits 1 on any survivor, stale row or error.  It is stdlib-only and
not part of the tier-1 suite.  A mutant leaves the list only together with the
code it mutates; an equivalent mutant is not listed.

    python mutants/run.py > mutants.json
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MCSIM = "noisylab/mcsim.py"
_DRAWS = "tests/test_mcsim.py::TestInversionDraws::"
_CUT = _DRAWS + "test_the_lookup_is_the_scalar_walk_at_every_cut"
_GUIDES = _DRAWS + "test_every_guide_size_is_the_scalar_walk_at_bin_edges_and_cuts"
_JOIN = "tests/test_mcsim.py::TestBlocks::test_the_blocks_join_into_the_chunk_s_draws"
_TOTAL = "tests/test_mcsim.py::TestBoundReport::test_the_wrong_label_total_is_exact_at_every_count"

# (file under src/, old text, new text, reason, killing node ids)
MUTANTS = [
    (MCSIM, "    guide[bins] = -1\n", "",
     "the guide's cut marks dropped: words in a cut's bin all take the count below it",
     [_GUIDES, _CUT]),
    (MCSIM, "np.minimum(np.bincount(bins, minlength=g + 1).cumsum(), top)",
     "np.bincount(bins, minlength=g + 1).cumsum()",
     "the guide's cap dropped: bins past a last cut below 1 - 1/g count len(px)",
     [_GUIDES + "[cuts-end-at-0.7]"]),
    (MCSIM, '* 2.0**-53, "right")', '* 2.0**-53, "left")',
     "a word exactly on a cut no longer counts it",
     [_GUIDES, _CUT]),
    (MCSIM, "shift = 65 - g.bit_length()", "shift = 66 - g.bit_length()",
     "the bin shift off by one: each word reads a bin of a guide half as fine",
     [_GUIDES, _CUT]),
    (MCSIM, "x[rest] = np.minimum(cuts.searchsorted((words[rest] >> 11)",
     "x[rest] = np.minimum(cuts.searchsorted((words[rest] >> 12)",
     "the double off by one bit: a marked word's uniform is halved",
     [_GUIDES, _CUT]),
    (MCSIM, "(l - invert(words(n)) if e_y > 0.5 else invert(words(n)) for n in sizes)",
     "(invert(words(n)) for n in sizes)",
     "the flip dropped: e_y > 1/2 draws the correct-label count",
     [_JOIN, _DRAWS + "test_every_chunk_equals_generator_binomial"]),
    (MCSIM, "sizes = [min(_BLOCK, count - start) for start in range(0, count, _BLOCK)]",
     "sizes = [min(_BLOCK - 1, count - start) for start in range(0, count, _BLOCK - 1)]",
     "blocks of _BLOCK - 1 counts",
     [_JOIN]),
    (MCSIM, "np.array([0, 0, 0, chunk], np.uint64)", "np.array([chunk, 0, 0, 0], np.uint64)",
     "the re-keyed counter in the wrong word: chunks share overlapping ranges",
     [_JOIN]),
    (MCSIM, '"buffer_pos": 4', '"buffer_pos": 3',
     "a re-keyed Philox first returns a stale buffered word",
     [_JOIN]),
    (MCSIM, "rng = np.random.Generator(_rekeyed(bits, key, chunk))",
     "rng = np.random.Generator(bits)",
     "BTPE without re-keying: a BTPE chunk draws from the thread's last stream",
     [_JOIN]),
    (MCSIM, "total += (int((wrong >> 32).sum()) << 32)", "total += (int((wrong >> 32).sum()) << 31)",
     "the 32-bit halves' shift: high halves of a total weigh half",
     [_TOTAL]),
]


def _copy(tmp: Path) -> Path:
    """src/ copied under tmp, without bytecode; its path."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, tests: list[str]) -> int:
    """pytest's exit code for `tests`, run with -x against the package under src."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _run(path: str, old: str, new: str, tests: list[str]) -> str:
    """One mutant's outcome: killed, survived, stale or error."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(Path(tmp))
        text = (src / path).read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale"
        (src / path).write_text(text.replace(old, new), encoding="utf-8")
        code = _pytest(src, tests)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    start = time.perf_counter()
    baseline = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        if _pytest(_copy(Path(tmp)), baseline) != 0:
            print(json.dumps({"error": "the named tests fail on the unedited source",
                              "tests": baseline}, indent=2))
            return 1
    results = []
    for path, old, new, reason, tests in MUTANTS:
        began = time.perf_counter()
        outcome = _run(path, old, new, tests)
        results.append({"file": path, "reason": reason, "outcome": outcome,
                        "seconds": round(time.perf_counter() - began, 2)})
        print(f"{outcome:8} {results[-1]['seconds']:6.2f} s  {reason}", file=sys.stderr)
    totals = {outcome: sum(r["outcome"] == outcome for r in results)
              for outcome in ("killed", "survived", "stale", "error")}
    print(json.dumps({"mutants": results, **totals,
                      "seconds": round(time.perf_counter() - start, 2)}, indent=2))
    return 0 if totals["killed"] == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
