"""Trace recording, uniformity checks, host timing, Welch test."""

import ast
import builtins
import copy
import dataclasses
import inspect
import itertools
import math
import operator
import pickle
import re
import subprocess
import sys
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from ctact import _ops, activations, harness, pade
from ctact._ops import OP_BRANCH, OP_CMP, OP_SELECT, f_mul, recording
from ctact.activations import SPECS, ActivationKind, _ERF_ARG_CAP, _halvings, evaluate
from ctact.grids import GRID_DENSE, GRID_WIDE, as_f32, inclusive_grid
from ctact.harness import (
    _Guarded,
    _ValueEscape,
    check_uniformity,
    measure_host,
    trace_eval,
    welch_t_test,
)

from leak_zoo import ZOO, any_branch
from reference_ops import FLT_MAX, SMALLEST_SUBNORMAL, random_encodings

ALL_KINDS = list(ActivationKind)
SMALL_GRID = inclusive_grid(-6.0, 6.0, 0.5)
# The grids the guarded protected check is held to the per-point loop on:
# the two canonical grids, one of inputs whose squares underflow, and one
# next to FLT_MAX.
ORACLE_GRIDS = {
    "dense": inclusive_grid(*GRID_DENSE),
    "wide": inclusive_grid(*GRID_WIDE),
    "tiny": inclusive_grid(-1e-30, 1e-30, 1e-31),
    "huge": inclusive_grid(3e38, 3.4e38, 1e37),
}


def per_point_report(kind, grid, protected):
    """(uniform, canonical length, deviating inputs) from a trace_eval loop."""
    traces = [trace_eval(kind, x, protected)[0].ops for x in grid]
    deviating = tuple((float(x), len(ops)) for x, ops in zip(grid, traces)
                      if ops != traces[0])
    return not deviating, len(traces[0]), deviating


def report_of(kind, grid, protected):
    report = check_uniformity(kind, grid, protected)
    return report.uniform, report.canonical_length, report.deviating_inputs


def edge_grid() -> np.ndarray:
    """+-0, the smallest subnormal, every power of two from 2**-1 to 2**127
    with its next-up neighbour (the exact-power edge of the halving count),
    +-FLT_MAX and the points around gelu's erf-argument cap, x = cap * sqrt(2)."""
    powers = np.ldexp(np.float32(1.0), np.arange(-1, 128)).astype(np.float32)
    up = np.nextafter(powers, np.float32(np.inf))
    cap = np.float32(float(_ERF_ARG_CAP) * math.sqrt(2.0))
    around = [cap]
    for _ in range(4):
        around = [np.nextafter(around[0], np.float32(0.0))] + around
        around.append(np.nextafter(around[-1], np.float32(np.inf)))
    around = np.array(around, dtype=np.float32)
    points = np.concatenate([
        np.array([0.0, -0.0, SMALLEST_SUBNORMAL], dtype=np.float32),
        np.column_stack([powers, up]).ravel(),
        np.array([FLT_MAX, -FLT_MAX], dtype=np.float32),
        around, -around,
    ])
    assert points.dtype == np.float32 and np.isfinite(points).all()
    return points


def leaky_core(x):
    """A kernel whose trace leaks: one multiply per halving count of x."""
    for _ in range(int(_halvings(x))):
        f_mul(x, np.float32(0.5))
    return x


def bits(x) -> int:
    return int(np.float32(x).view(np.uint32))


class TestTraceEval:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("protected", [True, False])
    def test_value_transparent(self, kind, protected):
        # Tracing must not change the numeric result by a single bit.
        for x in (-7.5, -0.0, 0.0, 0.3, 2.0, 6.9):
            trace, value = trace_eval(kind, x, protected)
            assert bits(value) == bits(evaluate(kind, x, protected))
            assert trace.kind == kind
            assert trace.protected is protected

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_protected_traces_are_branch_free(self, kind):
        trace, _ = trace_eval(kind, 1.7)
        assert OP_BRANCH not in trace.ops

    def test_all_protected_kinds_share_one_length(self):
        lengths = {trace_eval(kind, 0.9)[0].length for kind in ALL_KINDS}
        assert len(lengths) == 1

    def test_unprotected_models_branch(self):
        trace, _ = trace_eval(ActivationKind.SIGMOID, 3.0, protected=False)
        assert OP_BRANCH in trace.ops

    def test_unprotected_relu_trace_is_compare_plus_move(self):
        for x in (-5.0, 0.0, 5.0):
            trace, _ = trace_eval(ActivationKind.RELU, x, protected=False)
            assert trace.ops == (OP_CMP, OP_SELECT)

    def test_unprotected_value_is_finite_even_when_the_model_overflows(self):
        # Far out, where swish rounds to zero in binary32, the returned value
        # must still be the clean reference, with no warnings escaping.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, value = trace_eval(ActivationKind.SWISH, -420.0, protected=False)
        assert float(value) == 0.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            trace_eval(ActivationKind.TANH, float("inf"))

    def test_unprotected_models_end_on_the_largest_inputs(self):
        # Beyond about 2.6e19 the gelu model's erf squares its argument to
        # inf, which no number of halvings brings below 1/2.  Run in a
        # subprocess, so a model that never ends fails by timeout.
        code = ("import numpy as np\n"
                "from ctact.harness import trace_eval\n"
                "big = float(np.finfo(np.float32).max)\n"
                "for kind in ('relu', 'sigmoid', 'tanh', 'gelu', 'swish'):\n"
                "    for x in (3e19, -3e19, big, -big):\n"
                "        trace_eval(kind, x, protected=False)\n")
        subprocess.run([sys.executable, "-W", "error", "-c", code], timeout=60, check=True)


class TestUniformity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_protected_kinds_are_uniform(self, kind):
        report = check_uniformity(kind, SMALL_GRID)
        assert report.uniform
        assert report.deviating_inputs == ()

    def test_unprotected_sigmoid_and_tanh_are_not(self):
        for kind in (ActivationKind.SIGMOID, ActivationKind.TANH):
            report = check_uniformity(kind, SMALL_GRID, protected=False)
            assert not report.uniform
            lengths = {n for _, n in report.deviating_inputs}
            lengths.add(report.canonical_length)
            assert len(lengths) >= 2

    def test_unprotected_relu_is_uniform_but_short(self):
        relu = check_uniformity(ActivationKind.RELU, SMALL_GRID, protected=False)
        assert relu.uniform
        assert relu.canonical_length == 2
        sigmoid = check_uniformity(ActivationKind.SIGMOID, SMALL_GRID, protected=False)
        # Strictly shorter than sigmoid everywhere, not just on average.
        shortest_sigmoid = min(
            [sigmoid.canonical_length] + [n for _, n in sigmoid.deviating_inputs]
        )
        assert relu.canonical_length < shortest_sigmoid

    def test_empty_grid_rejected(self):
        for protected in (True, False):
            for grid in ([], (), np.array([], dtype=np.float32), np.array([])):
                with pytest.raises(ValueError, match="at least one point"):
                    check_uniformity(ActivationKind.TANH, grid, protected)

    @pytest.mark.parametrize("kind, protected", [
        *((kind, True) for kind in ALL_KINDS),
        *((kind, False) for kind in ALL_KINDS),
    ])
    def test_matches_a_per_point_trace_eval_loop(self, kind, protected):
        # check_uniformity gets its traces without trace_eval; the report
        # must be the one a plain per-point loop over trace_eval gives.
        expected = per_point_report(kind, SMALL_GRID, protected)
        # The unprotected cases deviate, bar relu, whose trace is fixed.
        assert expected[0] is (protected or kind is ActivationKind.RELU)
        assert report_of(kind, SMALL_GRID, protected) == expected
        if not protected:
            return
        # The guarded array run against the scalar body, point by point, on
        # every oracle grid; its output bits are the plain array run's, and
        # the caller's grid is left as it was, bits and flags.
        core = SPECS[kind].core
        for name, grid in ORACLE_GRIDS.items():
            before = grid.copy()
            assert report_of(kind, grid, True) == per_point_report(kind, grid, True), name
            guarded = core(_Guarded(grid))
            assert type(guarded) is _Guarded, name
            assert np.array_equal(guarded._values.view(np.uint32),
                                  core(grid).view(np.uint32)), name
            assert np.array_equal(grid.view(np.uint32), before.view(np.uint32)), name
            assert grid.flags.writeable, name

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unprotected_reports_match_the_per_point_loop_everywhere(self, kind):
        # The whole-grid halving counts against trace_eval point by point:
        # both canonical grids, 4,096 random finite encodings, and the edges
        # of the count (powers of two and their next-up neighbours, the
        # extremes, gelu's capped erf argument).  The edges also run
        # protected.
        blocks = [inclusive_grid(*GRID_DENSE), inclusive_grid(*GRID_WIDE),
                  random_encodings()[:4096], edge_grid()]
        for grid in blocks:
            assert report_of(kind, grid, False) == per_point_report(kind, grid, False)
        edges = blocks[-1]
        assert report_of(kind, edges, True) == per_point_report(kind, edges, True)

    @pytest.mark.parametrize("protected", [True, False])
    def test_deviating_inputs_are_reported_as_given(self, protected, monkeypatch):
        # A grid that is not binary32 is checked at its points rounded to
        # binary32, but reports each deviating point as float(x) of the point
        # as given.  A protected kernel is uniform, so a leaky one stands in.
        if protected:
            spec = SPECS[ActivationKind.SIGMOID]
            monkeypatch.setitem(SPECS, ActivationKind.SIGMOID,
                                dataclasses.replace(spec, core=leaky_core))
        points = [1.0, 0.1, 1e-40, 2**100]
        assert float(np.float32(0.1)) != 0.1 and float(np.float32(1e-40)) != 1e-40
        for grid in (points, np.array(points, dtype=np.float64)):
            uniform, length, deviating = report_of(ActivationKind.SIGMOID, grid, protected)
            assert [x for x, _ in deviating] == [0.1, 1e-40, 2.0**100]
            assert all(type(x) is float for x, _ in deviating)
            assert (uniform, length, deviating) == per_point_report(
                ActivationKind.SIGMOID, points, protected)

    @pytest.mark.parametrize("protected", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e39, "1.0", b"1"],
                             ids=["nan", "inf", "-inf", "1e39", "str", "bytes"])
    def test_bad_points_raise_what_as_f32_raises(self, bad, protected):
        # The first point as_f32 rejects raises its exception and message,
        # in a list grid and, bar text, in a binary32 array (where 1e39 is
        # +inf, which as_f32 reports as it reports 1e39); an outer recording
        # stays empty either way.
        with pytest.raises((TypeError, ValueError)) as expected:
            as_f32(bad)
        raises = pytest.raises(type(expected.value), match=re.escape(str(expected.value)))
        grids = [[1.0, 2.0, bad, math.nan, 3.0]]
        if not isinstance(bad, (str, bytes)):
            with np.errstate(over="ignore"):
                grids.append(np.array([1.0, 2.0, bad, math.nan, 3.0], dtype=np.float32))
        for kind in ALL_KINDS:
            for grid in grids:
                with recording() as outer, raises:
                    check_uniformity(kind, grid, protected)
                assert outer == []

    def test_unprotected_check_takes_each_count_trace_once(self, monkeypatch):
        # Structural, not timed: on the dense grid the unprotected check
        # builds or reads each distinct halving count's trace at most once.
        grid = inclusive_grid(*GRID_DENSE)
        for kind in ALL_KINDS:
            spec = SPECS[kind]
            calls = Counter()

            def counted(halvings, model_ops=spec.model_ops):
                calls[halvings] += 1
                return model_ops(halvings)

            monkeypatch.setitem(SPECS, kind, dataclasses.replace(spec, model_ops=counted))
            check_uniformity(kind, grid, protected=False)
            assert set(calls) == set(spec.halvings(grid).tolist()), kind
            assert max(calls.values()) == 1, (kind, calls)
            calls.clear()
            check_uniformity(kind, grid, protected=True)
            assert not calls

    def test_a_check_inside_an_outer_recording_leaves_it_empty(self):
        # A protected check's own recording shadows the caller's for the
        # whole grid, and an unprotected check records nothing.
        with recording() as outer:
            for kind in ALL_KINDS:
                check_uniformity(kind, SMALL_GRID)
                check_uniformity(kind, SMALL_GRID, protected=False)
        assert outer == []

    def test_unprotected_check_restores_the_error_state(self):
        with np.errstate(all="warn"):  # not numpy's default state
            before = np.geterr()
            check_uniformity(ActivationKind.TANH, SMALL_GRID, protected=False)
            assert np.geterr() == before
            # A non-finite point midway through the grid raises before any tracing.
            with pytest.raises(ValueError):
                check_uniformity(ActivationKind.TANH, [1.0, 500.0, float("inf"), 2.0],
                                 protected=False)
            assert np.geterr() == before

    def test_unprotected_wide_grid_check_lets_no_warning_escape(self):
        # No model computes a value that overflows: gelu's square of its erf
        # argument, the one product that could beyond about 2.6e19, has its
        # operand capped.
        grid = inclusive_grid(*GRID_WIDE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ALL_KINDS:
                check_uniformity(kind, grid, protected=False)


# The kernel modules, and the routes that strip a guarded array on purpose,
# which no function a core reaches may take.  The guard raises on each of
# these calls and attributes but cannot guard its own slot, whose name is
# forbidden too.
KERNEL_MODULES = (_ops, pade, activations)
STRIPPING_CALLS = (np.asarray, np.array, np.float32, np.uint32, memoryview)
STRIPPING_ATTRIBUTES = {"base", "data", "item", "tolist", "flat", *_Guarded.__slots__}
# A parameter a function may branch or loop on, because every call passes
# it a constant: _burn's pad count.
CONSTANT_COUNTS = {activations._burn: "count"}
# Each route by which a guarded array's values could reach Python control
# flow or a plain array, as a kernel would take it.
ESCAPE_ROUTES = {
    "__bool__": bool, "__int__": int, "__float__": float, "__index__": operator.index,
    "__complex__": complex, "__iter__": iter, "__len__": len,
    "np.asarray": np.asarray, "np.array": np.array, "np.float32": np.float32,
    "base": lambda a: a.base, "data": lambda a: a.data, "flat": lambda a: a.flat,
    "item": lambda a: a.item(), "tolist": lambda a: a.tolist(), "tobytes": lambda a: a.tobytes(),
    "indexing": lambda a: a[0], "slicing": lambda a: a[1:],
    "reduction": lambda a: a.any(), "np.max": np.max, "ufunc.reduce": np.add.reduce,
    "np.where": lambda a: np.where(a, 1, 0), "ufunc.at": lambda a: np.add.at(a, [0], 1),
    "out=": lambda a: np.add(a, 1, out=np.empty(SMALL_GRID.shape)),
    "pickle.dumps": pickle.dumps, "copy.copy": copy.copy,
}


def _function_nodes():
    """Every function of the kernel modules, nested ones too, by (file, first line)."""
    nodes = {}
    for module in KERNEL_MODULES:
        path = inspect.getsourcefile(module)
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.FunctionDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                nodes[path, first] = node
    return nodes


def _lookup(name, fn):
    """The global or builtin ``name`` refers to in ``fn``, or None."""
    return fn.__globals__[name] if name in fn.__globals__ else getattr(builtins, name, None)


def _resolve(expr, fn):
    """The object a name or a dotted name in ``fn`` refers to, or None."""
    if isinstance(expr, ast.Name):
        return _lookup(expr.id, fn)
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(expr.value, fn), expr.attr, None)
    return None


def _functions_in(obj):
    """The Python functions of the kernel modules that ``obj`` is or holds."""
    if isinstance(obj, (tuple, list)):
        return [f for item in obj for f in _functions_in(item)]
    obj = inspect.unwrap(getattr(obj, "func", obj))  # functools.partial, functools.cache
    modules = {module.__name__ for module in KERNEL_MODULES}
    if inspect.isfunction(obj) and obj.__module__ in modules:
        return [obj]
    return []


def reachable_functions():
    """Each function of the kernel modules a SPECS core reaches, with its body's AST.

    A function reaches every function of the kernel modules that a name in
    its body refers to, directly or through a tuple of functions, such as
    the cast pairs _casts picks from.
    """
    nodes = _function_nodes()
    todo = [spec.core for spec in SPECS.values()]
    found = {}
    while todo:
        fn = todo.pop()
        if fn in found:
            continue
        code = fn.__code__
        found[fn] = body = ast.Module(
            body=nodes[code.co_filename, code.co_firstlineno].body, type_ignores=[])
        for child in ast.walk(body):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                todo.extend(_functions_in(_resolve(child, fn)))
    return found


def _data_names(expr) -> set:
    """The names ``expr`` reads, outside a type test and the recorder check."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) and (
            expr.func.id in ("type", "isinstance", "_active")):
        return set()
    if isinstance(expr, ast.Name) and isinstance(expr.ctx, ast.Load):
        return {expr.id}
    return set().union(*map(_data_names, ast.iter_child_nodes(expr)))


def _branches(node):
    """Each expression in ``node`` that Python control flow tests or loops over."""
    for child in ast.walk(node):
        if isinstance(child, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            yield child.test
        elif isinstance(child, ast.BoolOp):
            yield from child.values
        elif isinstance(child, ast.For):
            yield child.iter
        elif isinstance(child, ast.comprehension):
            yield child.iter
            yield from child.ifs


class TestGuardedRun:
    @pytest.mark.parametrize("route", ESCAPE_ROUTES)
    def test_every_escape_route_raises(self, route):
        g = _Guarded(SMALL_GRID)
        for value in (g, abs(g) > 4, g.view(np.uint32)):
            with pytest.raises(_ValueEscape):
                ESCAPE_ROUTES[route](value)

    def test_the_buffer_protocol_is_refused(self):
        # Python offers no hook for it, so it is a TypeError, not an escape.
        with pytest.raises(TypeError):
            memoryview(_Guarded(SMALL_GRID))

    def test_every_derived_array_stays_guarded(self):
        # Each derivation either stays guarded or raises; none hands out an
        # ndarray, a numpy scalar or a Python number.  Only the elementwise
        # ones and views stay guarded.
        g = _Guarded(SMALL_GRID)
        derivations = {
            "g * 2": lambda: g * np.float32(2), "abs": lambda: abs(g), "neg": lambda: -g,
            "g > 0": lambda: g > 0, "u32 * mask": lambda: np.uint32(7) * (g > 0),
            "max": lambda: g.max(), "any": lambda: g.any(), "sum": lambda: g.sum(),
            "argmax": lambda: g.argmax(), "dot": lambda: g.dot(g), "g[3]": lambda: g[3],
            "g[1:4]": lambda: g[1:4], "reshape": lambda: g.reshape(-1),
            "view u32": lambda: g.view(np.uint32), "view ndarray": lambda: g.view(np.ndarray),
            "astype": lambda: g.astype(int), "np.where": lambda: np.where(g > 0, g, 0),
            "np.count_nonzero": lambda: np.count_nonzero(g),
            "np.array_equal": lambda: np.array_equal(g, g),
            "frexp mantissa": lambda: np.frexp(g)[0], "frexp exponent": lambda: np.frexp(g)[1],
            "nonzero": lambda: g.nonzero()[0],
        }
        assert len(derivations) == 22
        guarded = set()
        for name, derive in derivations.items():
            try:
                result = derive()
            except _ValueEscape:
                continue
            assert type(result) is _Guarded, (name, type(result))
            guarded.add(name)
        assert guarded == {"g * 2", "abs", "neg", "g > 0", "u32 * mask", "view u32",
                           "view ndarray", "frexp mantissa", "frexp exponent"}

    def test_the_guarded_view_is_read_only_and_leaves_the_grid(self):
        # Every write raises, the augmented ones and out= into the grid too.
        grid = SMALL_GRID.copy()
        guarded = _Guarded(grid)
        writes = [
            lambda: operator.setitem(guarded, 0, 1.0),
            lambda: operator.setitem(guarded.view(np.uint32), 0, 1),
            lambda: operator.iadd(guarded, 1),
            lambda: np.add(guarded, 1, out=grid),
            lambda: setattr(guarded, "_values", np.zeros_like(grid)),
        ]
        for write in writes:
            with pytest.raises(_ValueEscape):
                write()
        assert grid.flags.writeable
        assert np.array_equal(grid.view(np.uint32), SMALL_GRID.view(np.uint32))

    def test_a_uniform_kernel_runs_once_and_never_point_by_point(self, monkeypatch):
        def no_loop(*args):
            raise AssertionError("the per-point loop ran")

        monkeypatch.setattr(harness, "_per_point", no_loop)
        for kind in ALL_KINDS:
            spec = SPECS[kind]
            calls = []

            def counted(x, core=spec.core):
                calls.append(x)
                return core(x)

            monkeypatch.setitem(SPECS, kind, dataclasses.replace(spec, core=counted))
            for grid in ORACLE_GRIDS.values():
                assert check_uniformity(kind, grid).uniform
            assert [type(x) for x in calls] == [_Guarded] * len(ORACLE_GRIDS), kind

    @pytest.mark.parametrize("name", ZOO)
    def test_each_zoo_kernel_makes_the_guard_raise_and_gets_the_loops_report(
            self, name, monkeypatch):
        kernel = ZOO[name]
        with pytest.raises(_ValueEscape):
            kernel(_Guarded(SMALL_GRID))
        tanh = SPECS[ActivationKind.TANH]
        monkeypatch.setitem(SPECS, ActivationKind.TANH, dataclasses.replace(tanh, core=kernel))
        fallbacks = []

        def counted(*args, per_point=harness._per_point):
            fallbacks.append(args)
            return per_point(*args)

        monkeypatch.setattr(harness, "_per_point", counted)
        expected = per_point_report(ActivationKind.TANH, SMALL_GRID, True)
        assert not expected[0]
        with recording() as outer:
            assert report_of(ActivationKind.TANH, SMALL_GRID, True) == expected
        assert outer == []
        assert len(fallbacks) == 1

    def test_a_plain_array_run_misses_a_branch_on_a_reduction(self):
        # Why the guard exists: without it, the .any() kernel records one
        # trace for the whole array, while the loop finds its deviations.
        with recording() as ops:
            any_branch(SMALL_GRID)
        assert len(ops) == len(trace_eval(ActivationKind.TANH, 6.0)[0].ops) + 1
        _, deviating = harness._per_point(any_branch, SMALL_GRID, SMALL_GRID)
        assert [x for x, _ in deviating] == [x for x in SMALL_GRID.tolist() if abs(x) <= 4]

    def test_no_warning_escapes_and_the_error_state_is_kept(self, monkeypatch):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid in ORACLE_GRIDS.values():
                for kind in ALL_KINDS:
                    check_uniformity(kind, grid)
            assert np.geterr() == before
            # The guard raises midway through a kernel, and the loop takes over.
            tanh = SPECS[ActivationKind.TANH]
            for kernel in ZOO.values():
                monkeypatch.setitem(SPECS, ActivationKind.TANH,
                                    dataclasses.replace(tanh, core=kernel))
                for grid in ORACLE_GRIDS.values():
                    check_uniformity(ActivationKind.TANH, grid)
                assert np.geterr() == before

    def test_no_function_a_core_reaches_branches_on_a_value(self):
        # The guarded run speaks for the array body.  This speaks for the
        # scalar body too: a function a core reaches may test only whether
        # the recorder is on, a type, or a count every call passes as a
        # constant, so no scalar call can take another path than the array
        # run took.
        reachable = reachable_functions()
        assert activations._burn in reachable and _ops._casts in reachable
        assert _ops._scalar_bits in reachable  # through the cast pair _casts picks
        bad = []
        for fn, node in reachable.items():
            for test in _branches(node):
                names = {name for name in _data_names(test) if name != CONSTANT_COUNTS.get(fn)
                         and not isinstance(_lookup(name, fn), type)}
                if names:
                    bad.append((fn.__name__, test.lineno, sorted(names)))
        assert not bad, bad

    def test_constant_counts_are_passed_constants(self):
        # Each call of a function in CONSTANT_COUNTS passes its count as an
        # int literal or a module-level int, never a value.
        seen = 0
        for fn, node in reachable_functions().items():
            for call in ast.walk(node):
                callee = isinstance(call, ast.Call) and _resolve(call.func, fn)
                if callee in CONSTANT_COUNTS:
                    seen += 1
                    arg = inspect.signature(callee).bind(
                        *call.args, **{kw.arg: kw.value for kw in call.keywords},
                    ).arguments[CONSTANT_COUNTS[callee]]
                    value = arg.value if isinstance(arg, ast.Constant) else _resolve(arg, fn)
                    assert type(value) is int, (fn.__name__, call.lineno)
        assert seen == 4  # relu, sigmoid, tanh and swish pad; gelu does not

    def test_no_function_a_core_reaches_strips_the_guard(self):
        bad = []
        for fn, node in reachable_functions().items():
            for child in ast.walk(node):
                if isinstance(child, ast.Attribute) and child.attr in STRIPPING_ATTRIBUTES:
                    bad.append((fn.__name__, child.lineno, child.attr))
                elif isinstance(child, ast.Constant) and child.value in _Guarded.__slots__:
                    bad.append((fn.__name__, child.lineno, child.value))  # getattr(x, "...")
                elif isinstance(child, ast.Call) and any(
                        _resolve(child.func, fn) is route for route in STRIPPING_CALLS):
                    bad.append((fn.__name__, child.lineno, ast.unparse(child.func)))
        assert not bad, bad


class TestMeasureHost:
    def test_sample_accounting(self, monkeypatch):
        # One row per repetition, one column per grid point, timed in grid
        # order.  Below, evaluate records the points it gets, and a clock
        # that counts its own reads makes each timed call take 1 ns.
        grid = inclusive_grid(-1.0, 1.0, 0.5)
        elapsed = measure_host(ActivationKind.RELU, grid, repetitions=3)
        assert type(elapsed) is np.ndarray and elapsed.dtype == np.int64
        assert elapsed.shape == (3, grid.size)
        assert (elapsed >= 0).all()
        seen = []
        monkeypatch.setattr(harness, "evaluate", lambda kind, x, protected: seen.append(x))
        clock = SimpleNamespace(perf_counter_ns=itertools.count().__next__)
        monkeypatch.setattr(harness, "time", clock)
        elapsed = measure_host(ActivationKind.RELU, [1.0, -2.0, 0.5], repetitions=2)
        assert seen == [1.0, -2.0, 0.5] * 3  # the warm-up pass, then each repetition
        assert all(type(x) is float for x in seen)
        assert elapsed.tolist() == [[1, 1, 1], [1, 1, 1]]

    def test_bad_arguments(self):
        grid = inclusive_grid(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            measure_host(ActivationKind.RELU, grid, repetitions=0)
        with pytest.raises(ValueError):
            measure_host(ActivationKind.RELU, [], repetitions=1)


class TestWelch:
    def test_identical_constant_samples_do_not_leak(self):
        r = welch_t_test([5.0] * 10, [5.0] * 10)
        assert r.t_statistic == 0.0
        assert not r.leak

    def test_distinct_constant_samples_leak(self):
        r = welch_t_test([5.0] * 10, [6.0] * 10)
        assert r.t_statistic == float("inf")
        assert r.leak

    def test_separated_populations_leak(self):
        rng = np.random.default_rng(99)
        a = rng.normal(221.0, 20.0, 4000)
        b = rng.normal(403.0, 20.0, 4000)
        r = welch_t_test(a, b)
        assert r.leak
        assert abs(r.t_statistic) > 100.0

    def test_same_population_does_not_leak(self):
        rng = np.random.default_rng(7)
        a = rng.normal(88.0, 5.0, 4000)
        b = rng.normal(88.0, 5.0, 4000)
        r = welch_t_test(a, b)
        assert not r.leak
        assert r.threshold > 0

    def test_dof_for_balanced_equal_variance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, 500)
        b = rng.normal(0.0, 1.0, 500)
        r = welch_t_test(a, b)
        assert 400 < r.dof < 1000  # Welch-Satterthwaite near 2n-2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_t_test([1.0, 2.0], [1.0, 2.0], alpha=0.0)
        with pytest.raises(ValueError):
            welch_t_test([1.0, 2.0], [1.0, 2.0], alpha=1.0)

    @pytest.mark.parametrize("a, b", [
        ([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, float("inf"), 3.0]),
        ([1e308, -1e308] * 3, [-1e308, 1e308] * 3),
        ([1e100, -1e100] * 3, [1e100, -1e100, 1.0] * 2),
    ], ids=["nan", "inf", "overflow", "dof-overflow"])
    def test_samples_it_cannot_judge_raise(self, a, b):
        # None of these may come back as "no leak": a NaN or infinite
        # sample, a variance that overflows (t 0.0, dof NaN), and a dof
        # whose squared terms overflow.
        with pytest.raises(ValueError):
            welch_t_test(a, b)
