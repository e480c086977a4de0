"""The package API is the union of the module ``__all__`` lists.

``ctact/__init__`` star-imports six modules, so each module's ``__all__`` is
the one declaration of what it exports.  A name listed by two modules would
be silently shadowed by the later star import; a name the package exposes
that no module lists is a second, drifting declaration.
"""

import re
from pathlib import Path

import ctact
from ctact import activations, analysis, attack, grids, harness, pade

MODULES = (activations, pade, grids, harness, attack, analysis)


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
    assert namespace["trace"].length == 59
    results = namespace["results"]
    assert sum(r.success for r in results.values()) / len(results) == 1.0
