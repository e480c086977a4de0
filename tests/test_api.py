"""The package API is the union of the module ``__all__`` lists, pinned by name.

``ctact/__init__`` star-imports six modules, so each module's ``__all__`` is
the one declaration of what it exports.  A name listed by two modules would
be silently shadowed by the later star import; a name the package exposes
that no module lists is a second, drifting declaration.  Below the API, a
private name that no package code reads is dead code, however many tests
call it.
"""

import ast
import re
import shlex
from pathlib import Path

import ctact
from ctact import activations, analysis, attack, cli, grids, harness, pade

from reference_ops import PROTECTED_TRACE_LENGTH

MODULES = (activations, pade, grids, harness, attack, analysis)

# The sorted ``ctact.__all__``.  A name that enters or leaves the package API,
# moved helpers included, must change this list on purpose.
PUBLIC_API = [
    "ActivationKind", "AttackResult", "BASE_CYCLES_DESYNC", "CONSTANT_TIME_CYCLES",
    "COUNTERMEASURES", "DEFAULT_CLOCK_HZ", "DELAY_DISTRIBUTIONS", "DENOMINATOR_EXACT",
    "DENOMINATOR_F32", "DESYNC_CALIBRATION", "DelaySpec", "DeviceTimingModel",
    "ErrorReport", "GELU_THRESHOLD", "GRID_DENSE", "GRID_WIDE", "GaussianTemplate",
    "GridSpec", "INPUT_RANGE", "KindSpec", "NUMERATOR_EXACT", "NUMERATOR_F32", "OpTrace",
    "SIGMOID_THRESHOLD", "SPECS", "SWISH_THRESHOLD", "TANH_THRESHOLD", "ThresholdSolution",
    "UniformityReport", "WelchResult", "__version__", "attack_experiment",
    "balancing_errors", "calibrated_delay", "check_uniformity", "device_model",
    "error_metrics", "evaluate", "fit_template", "gelu_protected", "gelu_ref",
    "inclusive_grid", "measure_host", "profile_phase", "rational_tanh", "relu_protected",
    "relu_ref", "run_attack", "score_increment", "sigmoid_protected", "sigmoid_ref",
    "solve_tanh_threshold", "swish_protected", "swish_ref", "tanh_protected", "tanh_ref",
    "threshold_sweep", "trace_eval", "welch_t_test",
]


def test_no_name_is_exported_by_two_modules():
    owner = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owner, f"{name} exported by {owner[name]} and {module.__name__}"
            owner[name] = module.__name__


def test_package_all_is_the_union_of_the_module_lists():
    exported = {name for module in MODULES for name in module.__all__}
    assert set(ctact.__all__) == {"__version__", *exported}
    assert len(ctact.__all__) == len(set(ctact.__all__))


def test_package_all_is_pinned():
    assert sorted(ctact.__all__) == PUBLIC_API


def test_every_package_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ctact, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_names_the_benchmark_calls_are_exported():
    kinds = ("relu", "sigmoid", "tanh", "gelu", "swish")
    names = ["trace_eval", "rational_tanh",
             *(f"{kind}_protected" for kind in kinds), *(f"{kind}_ref" for kind in kinds)]
    for name in names:
        assert name in ctact.__all__ and callable(getattr(ctact, name)), name


def test_readme_python_examples_run():
    # The quickstart must keep working whenever the public API changes.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    assert namespace["report"].uniform
    assert namespace["trace"].length == PROTECTED_TRACE_LENGTH
    results = namespace["results"]
    assert sum(r.success for r in results.values()) / len(results) == 1.0


def test_readme_cli_examples_run(tmp_path):
    # Each command of the README's Examples block, with its artifacts in a
    # temporary directory, exits 0.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"^Examples:\n\n```\n(.*?)^```$", readme.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 6 and all(argv[0] == "ctact" for argv in commands)
    for i, argv in enumerate(commands):
        assert cli.main([*argv[1:], "--out", str(tmp_path / str(i))]) == 0, argv


def _defined_names(stmt) -> set:
    """The names a module-level statement defines: a function, a class or constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _read_names(stmt) -> set:
    """The names a statement reads: loaded names, augmented targets and attributes."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)  # x += y reads x
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return names


def test_every_private_name_is_read_by_the_package():
    # Each module-level private function, class or constant of src/ctact
    # must be read by package code other than its own definition; an
    # import alone is no read.
    statements = [stmt for path in sorted(Path(ctact.__file__).parent.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [_read_names(stmt) for stmt in statements]
    dead = set()
    for i, stmt in enumerate(statements):
        for name in _defined_names(stmt):
            if name.startswith("_") and not name.endswith("__"):
                if not any(name in read for j, read in enumerate(reads) if j != i):
                    dead.add(name)
    assert not dead, sorted(dead)



def _binds_a_tag_tuple(stmt) -> bool:
    """Whether a module-level assignment's value holds a tuple display of an OP_* name."""
    return isinstance(stmt, (ast.Assign, ast.AnnAssign)) and any(
        isinstance(node, ast.Tuple) and any(
            isinstance(e, ast.Name) and e.id.startswith("OP_") for e in node.elts)
        for node in ast.walk(stmt.value or ast.Tuple([])))


def test_no_tag_tuple_is_typed_by_hand():
    # Each protected block's tags, and the pad's, are derived from its
    # program at import.  Only the unprotected models' exp and erf steps,
    # which have no program in the package, keep typed tuples.
    typed = {name for path in sorted(Path(ctact.__file__).parent.glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body
             if _binds_a_tag_tuple(stmt) for name in _defined_names(stmt)}
    assert typed and all(name.startswith(("_EXP_", "_ERF_")) for name in typed), sorted(typed)
