"""Import hygiene: scipy.special stays unloaded until a function computes with it.

Importing scipy.special costs about as much as the rest of a cold
`import noisylab.cli`, and only binom_tail, truncated_normal and combine_rate
use it, each importing it on first use through bounds._special.  This process
loaded it long ago, so every check runs in a fresh interpreter that imports
the same noisylab sources.  Every function that
perfbench's tracer wraps must also keep resolving, or `--trace 1` breaks, and
every name `noisylab/__init__.py` exports, every public method and property
of an exported class and every field of an exported dataclass must keep a
reader (README, "Library quick reference"); no module but `cli` defines
`__all__`.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisylab
from noisylab.bounds import binom_tail
from noisylab.noise import combine_rate, truncated_normal

SRC = Path(noisylab.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

UNLOADED = "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'"

# One valid config per command; the README examples where there is one.
CONFIGS = {
    "tau": {"command": "tau", "seed": 7, "n": 1000, "l": [2, 10],
            "prior": {"generator": "zipf", "n_values": 50, "exponent": 1.1, "cap": 0.05},
            "mc_replicates": 200, "weight_replicates": 400},
    "weight": {"command": "weight", "seed": 7, "interval": [0.05, 0.4], "replicates": 1000,
               "prior": {"generator": "explicit", "values": [0.1, 0.2, 0.3, 0.4]}},
    "simulate": {"command": "simulate", "seed": 42, "trials": 1000,
                 "scenario": {"l": 10, "y": 1, "e_plus": 0.2, "e_minus": 0.2}},
    "bounds": {"command": "bounds", "seed": 42, "trials": 1000,
               "scenario": {"l": 10, "y": 1, "e_plus": 0.2, "e_minus": 0.2}},
    "sweep": {"command": "sweep", "seed": 42, "trials": 1000,
              "grid": {"l": [4, 10], "e": [0.1, 0.3], "base": {"y": 1}}},
    "noise-synth": {"command": "noise-synth", "seed": 3, "epsilon": 0.2, "sigma": 0.1,
                    "count": 10, "feature_dim": 8},
}

# truncated_normal on a window holding most of the mass and on one holding
# little of it.
FIRST_USE_CALLS = (
    "binom_tail(10, 0.8, 6)",
    "truncated_normal(0.2, 0.1, 0.0, 1.0, np.random.default_rng(5))",
    "truncated_normal(3.0, 0.5, 0.0, 1.0, np.random.default_rng(5))",
    "combine_rate(0.3, 0.7)",
)


def _fresh(code: str, cwd: Path) -> str:
    """Run code in a new interpreter importing noisylab from SRC; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300, check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _write_configs(tmp_path: Path, names) -> None:
    for name in names:
        (tmp_path / f"{name}.json").write_text(json.dumps(CONFIGS[name]), encoding="utf-8")


@pytest.mark.parametrize("statement", ["import noisylab", "import noisylab.cli"])
def test_import_leaves_scipy_special_unloaded(tmp_path, statement):
    _fresh(f"import sys\n{statement}\n{UNLOADED}", tmp_path)


def test_validating_every_command_leaves_it_unloaded(tmp_path):
    _write_configs(tmp_path, CONFIGS)
    codes = _fresh(
        "import sys\nfrom noisylab.cli import main\n"
        f"codes = [main(['validate', '--config', name + '.json']) for name in {list(CONFIGS)!r}]\n"
        f"{UNLOADED}\nprint(codes)",
        tmp_path,
    ).splitlines()[-1]
    assert codes == str([0] * len(CONFIGS))


def test_tau_and_weight_runs_leave_it_unloaded(tmp_path):
    _write_configs(tmp_path, ("tau", "weight"))
    codes = _fresh(
        "import sys\nfrom noisylab.cli import main\n"
        "codes = [main([name, '--config', name + '.json', '--out', name + '.csv'])"
        " for name in ('tau', 'weight')]\n"
        f"{UNLOADED}\nprint(codes)",
        tmp_path,
    ).splitlines()[-1]
    assert codes == "[0, 0]"
    assert (tmp_path / "tau.csv").exists() and (tmp_path / "weight.csv").exists()


def test_first_use_loads_it_and_matches_this_process(tmp_path):
    calls = ", ".join(FIRST_USE_CALLS)
    printed = _fresh(
        "import json, sys\nimport numpy as np\n"
        "from noisylab.bounds import binom_tail\n"
        "from noisylab.noise import combine_rate, truncated_normal\n"
        f"{UNLOADED}\n"
        f"values = [{calls}]\n"
        "assert 'scipy.special' in sys.modules\n"
        "print(json.dumps(values))",
        tmp_path,
    )
    namespace = {"np": np, "binom_tail": binom_tail, "truncated_normal": truncated_normal,
                 "combine_rate": combine_rate}
    assert json.loads(printed) == [eval(call, namespace) for call in FIRST_USE_CALLS]


def _tracer_targets() -> tuple:
    """perfbench's TARGETS, read from its source without importing or running it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


def test_every_perfbench_trace_target_resolves():
    targets = _tracer_targets()
    assert targets
    missing = []
    for _, module_name, attr in targets:
        owner = importlib.import_module(f"noisylab.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


# Exports read only by an oracle test, which checks another route against
# them, with the test that reads each one.
ORACLES = {
    "empirical_distribution": "tests/test_treatments.py",  # lc_empirical_loss's label counts
}


def _exports() -> list[str]:
    tree = ast.parse((SRC / "noisylab" / "__init__.py").read_text(encoding="utf-8"))
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _code_names(path: Path) -> set[str]:
    """Every name a Python file imports, reads or looks up as an attribute."""
    return _tree_names(ast.parse(path.read_text(encoding="utf-8")))


def _tree_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _readme_code() -> tuple[list[str], list[str]]:
    """The README's code spans and its Python examples."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"`([^`\n]+)`", text), re.findall(r"```python\n(.*?)```", text, re.DOTALL)


def _readme_names() -> set[str]:
    """Every name in the README's code spans and Python examples."""
    spans, examples = _readme_code()
    return set(re.findall(r"\w+", " ".join(spans + examples)))


def _reader_trees() -> list[ast.AST]:
    """The modules, the acceptance test and the README's Python examples, parsed."""
    paths = [*(SRC / "noisylab").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    return [*(ast.parse(path.read_text(encoding="utf-8")) for path in paths),
            *map(ast.parse, _readme_code()[1])]


def _type_names(exports) -> dict[str, set[str]]:
    """For each export, the names in its return type or its dataclass field types."""
    types = {}
    for name in exports:
        obj = getattr(noisylab, name)
        if dataclasses.is_dataclass(obj):
            hints = [field.type for field in dataclasses.fields(obj)]
        else:
            hints = [obj.__annotations__.get("return", "")] if inspect.isfunction(obj) else []
        types[name] = set(re.findall(r"\w+", " ".join(map(str, hints))))
    return types


def _member_reads(tree: ast.AST, attrs_of: dict[str, set[str]]) -> set[str]:
    """Class.attr for each class the code names or defines and each attribute it reads.

    A read counts only beside its class, and only when no other exported
    class has an attribute of that name: a name two classes share says
    nothing about which one is read.
    """
    names = _tree_names(tree) | {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return {f"{cls}.{attr}" for cls in attrs_of if cls in names
            for attr in read - set().union(*(attrs_of[other] for other in attrs_of if other != cls))}


def _class_attrs(exports) -> dict[str, set[str]]:
    """Each exported class's public attribute names: fields, methods and properties."""
    attrs = {}
    for name in exports:
        cls = getattr(noisylab, name)
        if inspect.isclass(cls):
            fields = {field.name for field in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
            attrs[name] = fields | {attr for attr in dir(cls) if not attr.startswith("_")}
    return attrs


def _public_members(exports) -> list[str]:
    """Each public method and property an exported class defines, as Class.name."""
    kinds = (property, classmethod, staticmethod)
    return [f"{name}.{attr}" for name in exports if inspect.isclass(cls := getattr(noisylab, name))
            for attr, value in vars(cls).items()
            if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))]


def test_every_export_has_a_reader():
    exports = _exports()
    readers = (_code_names(SRC / "noisylab" / "cli.py")
               | _code_names(ROOT / "tests" / "test_acceptance.py")
               | _readme_names()
               | {attr.split(".")[0] for _, _, attr in _tracer_targets()})
    types = _type_names(exports)
    read = {name for name in exports
            if name in readers or any(name in types[other] for other in exports if other != name)}
    assert [name for name in exports if name not in read and name not in ORACLES] == []
    # an oracle is listed only while it is exported, has no other reader, and its test reads it
    assert [name for name, test in ORACLES.items()
            if name not in exports or name in read or name not in _code_names(ROOT / test)] == []


def test_the_public_surface_is_stated_once():
    # __init__.py's imports are the list; cli, which it does not re-export, keeps its own
    modules = sorted((SRC / "noisylab").glob("*.py"))
    assert [path.stem for path in modules if "__all__" in _code_names(path)] == ["cli"]


def test_the_readme_states_the_export_count():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`noisylab/__init__\.py`\s+exports\s+(\d+)\s+names", text)
    assert stated == [str(len(_exports()))]


# Members read only under a name that another exported class also has, with
# the module that reads each one.
SHARED_NAMES = {
    "PriorSpec.regime_ok": "src/noisylab/freqmodel.py",  # TauEstimate.regime_ok is a field
}


def test_every_public_member_of_an_exported_class_has_a_reader():
    # read beside its class in a module, the acceptance test or a README
    # Python example, or named as Class.attr in a README code span or the tracer
    exports = _exports()
    members, attrs_of = _public_members(exports), _class_attrs(exports)
    readers = (set().union(*(_member_reads(tree, attrs_of) for tree in _reader_trees()))
               | set(re.findall(r"(?=\b(\w+\.\w+))", " ".join(_readme_code()[0])))
               | {".".join(attr.split(".")[-2:]) for _, _, attr in _tracer_targets()})
    assert members and [m for m in members if m not in readers and m not in SHARED_NAMES] == []
    # a shared name is listed only while it is a member with no other reader, and its module reads it
    assert [m for m, path in SHARED_NAMES.items() if m not in members or m in readers
            or m.split(".")[1] not in _code_names(ROOT / path)] == []


# Fields read by name rather than as attributes: each class with the module
# that holds its name list and reads the fields through getattr over it.
NAME_LIST_READS = {
    "InstanceScenario": ("cli", "_SCENARIO_FIELDS"),  # the CSV builder's scenario columns
}


def test_every_field_of_an_exported_dataclass_has_a_reader():
    # read as an attribute in a module, the acceptance test, a README Python
    # example or a README code span
    exports = _exports()
    read = {node.attr for tree in _reader_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read |= set(re.findall(r"\.(\w+)", " ".join(_readme_code()[0])))
    by_name = {}
    for cls, (module, names) in NAME_LIST_READS.items():
        assert {"getattr", names} <= _code_names(SRC / "noisylab" / f"{module}.py")
        by_name[cls] = set(getattr(importlib.import_module(f"noisylab.{module}"), names))
    fields = [(name, field.name) for name in exports
              if dataclasses.is_dataclass(cls := getattr(noisylab, name)) for field in dataclasses.fields(cls)]
    assert fields and [f"{cls}.{field}" for cls, field in fields
                       if field not in read and field not in by_name.get(cls, ())] == []


# Every exported entry point with a scalar numeric argument that has a range
# rule, as (callable, valid keyword arguments, the arguments probed).  The
# window ends of truncated_normal are not probed: they may be infinite.
PROBE = """
import json, sys
import numpy as np
from noisylab import *
dist, rates = LabelDist(np.array([0.3, 0.7])), BinaryNoiseRates(0.1, 0.2)
prior, scenario = PriorSpec(np.array([0.1, 0.2, 0.3, 0.4])), InstanceScenario(4, 1, 0.1, 0.1)
rng, joint = np.random.default_rng(0), np.array([[0.2, 0.3], [0.4, 0.1]])
run = {"trials": 10, "seed": 1, "workers": 1}
CALLS = [
    (binom_tail, {"l": 10, "p": 0.5, "k": 3}, "l p k"),
    (lc_success_lower, {"l": 10, "e": 0.2}, "l e"),
    (lc_failure_lower, {"l": 10, "e": 0.2}, "l e"),
    (peer_success_lower, {"l": 4, "p_opposite": 0.5, "e_plus": 0.2, "e_minus": 0.1},
     "l p_opposite e_plus e_minus"),
    (peer_failure_lower, {"l": 10, "e": 0.2}, "l e"),
    (truncated_normal, {"mean": 0.2, "sd": 0.1, "low": 0.0, "high": 1.0, "rng": rng, "size": 3},
     "mean sd size"),
    (BinaryNoiseRates, {"e_plus": 0.1, "e_minus": 0.2}, "e_plus e_minus"),
    (InstanceNoiseSynth, {"epsilon": 0.2, "w": np.ones(3), "sigma": 0.1}, "epsilon sigma"),
    (InstanceNoiseSynth.sample, {"epsilon": 0.2, "dim": 3, "rng": rng, "sigma": 0.1},
     "epsilon dim sigma"),
    (InstanceScenario, {"l": 4, "y": 1, "e_plus": 0.1, "e_minus": 0.2, "p_plus": 0.4,
                        "p_minus": 0.6, "smoothing_a": 0.1, "n": 5},
     "l y e_plus e_minus p_plus p_minus smoothing_a n"),
    (run_trials, {"scenario": scenario, "treatment": Treatment.PEER_LOSS, **run}, "trials seed workers"),
    (bound_report, {"scenario": scenario, **run}, "trials seed workers"),
    (sweep, {"scenarios": [scenario], **run}, "trials seed workers"),
    (memorization_error, {"dist": dist, "y": 1}, "y"),
    (smoothed_label, {"dist": dist, "a": 0.1}, "a"),
    (compare_ls_lc, {"dist": dist, "y": 1, "rates": rates, "a": 0.1}, "y a"),
    (PeerDecision, {"predicted": 1, "margin": 0.5, "tie": False}, "predicted"),
    (peer_predict, {"dist_local": dist, "global_noisy_positive_rate": 0.5},
     "global_noisy_positive_rate"),
    (peer_vertex_check, {"dist_local": dist, "global_rate": 0.5, "grid_points": 11, "q_min": 0.01},
     "global_rate grid_points q_min"),
    (peer_expected_loss, {"joint": joint, "predictor": joint * 2, "q_min": 0.01}, "q_min"),
    (build_prior, {"generator": "zipf", "n": 50, "exponent": 1.1, "cap": 0.05}, "n exponent cap"),
    (tau_exact, {"prior": prior, "n": 100, "l": 3}, "n l"),
    (tau_monte_carlo, {"prior": prior, "n": 100, "l": 3, "replicates": 10, "rng": rng},
     "n l replicates"),
    (weight_estimate, {"prior": prior, "interval": (0.1, 0.5), "replicates": 10, "rng": rng},
     "replicates"),
    (tau_lower_large, {"n": 1000, "l": 3, "weight_value": 0.5}, "n l weight_value"),
    (tau_lower_small, {"n": 1000, "l": 3, "weight_value": 0.5}, "n l weight_value"),
    (large_interval, {"n": 1000, "l": 3}, "n l"),
]
INTEGERS = {"l", "k", "size", "dim", "y", "n", "trials", "seed", "workers", "predicted",
            "grid_points", "replicates"}
for call, kwargs, probed in CALLS:
    name = call.__qualname__
    print(json.dumps([name, "valid"]), flush=True)
    call(**kwargs)
    for arg in probed.split():
        for bad in (True, float("nan"), float("inf"), -float("inf")) + (2.5,) * (arg in INTEGERS):
            label = f"{name}({arg}={bad!r})"
            print(json.dumps([label, "called"]), flush=True)
            try:
                call(**{**kwargs, arg: bad})
                outcome = "returned"
            except Exception as exc:
                outcome = type(exc).__name__
            print(json.dumps([label, outcome]), flush=True)
"""


def test_every_scalar_argument_rejects_bools_nan_infinities_and_fractions(tmp_path):
    # in a fresh interpreter with a timeout, since a call that loops forever must fail the test
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    try:
        result = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=60, check=False)
        stdout, hung = result.stdout, None
        assert result.returncode == 0, result.stderr
    except subprocess.TimeoutExpired as exc:  # its output is bytes, whatever `text` says
        stdout, hung = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or "", True
    outcomes = dict(json.loads(line) for line in stdout.splitlines())
    if hung:  # the last call printed never returned
        outcomes[json.loads(stdout.splitlines()[-1])[0]] = "timed out"
    assert {label: outcome for label, outcome in outcomes.items()
            if outcome not in ("ValueError", "valid")} == {}
    assert len(outcomes) == 332  # 27 valid calls and 305 probes
