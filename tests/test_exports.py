"""The public surface: every exported or re-exported name resolves."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import polyaurn
from polyaurn import martingale, moments, urns

STD = urns.polya_young(2, 1, 1, 1, 1)


def test_module_all_names_resolve():
    for info in pkgutil.iter_modules(polyaurn.__path__):
        module = importlib.import_module(f"polyaurn.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"polyaurn.{info.name}.__all__ lists missing {name!r}"


def test_package_imports_resolve():
    tree = ast.parse(Path(polyaurn.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert names
    for name in names:
        assert hasattr(polyaurn, name), f"polyaurn does not provide {name!r}"


def test_package_imports_are_in_module_all():
    # the package re-exports a module's public names only: each name it
    # imports from a module is in that module's __all__
    tree = ast.parse(Path(polyaurn.__file__).read_text(encoding="utf-8"))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            listed = importlib.import_module(f"polyaurn.{node.module}").__all__
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert missing == []


def _public_functions():
    for info in pkgutil.iter_modules(polyaurn.__path__):
        module = importlib.import_module(f"polyaurn.{info.name}")
        for name in getattr(module, "__all__", ()):
            if inspect.isfunction(fn := getattr(module, name)):
                yield f"{fn.__module__}.{fn.__name__}", fn


# One call on STD for every public function whose `mode` picks exact or float
# arithmetic, as (N, order, mode) -> value, with the first N beyond the range
# where "auto" is exact; the order is ignored by the functions that take none.
DP, PRODUCTS = urns._AUTO_EXACT_MAX_N + 1, moments._AUTO_EXACT_MAX_N + 1
MODE_CALLS = {
    "polyaurn.urns.exact_pmf_dp": (DP, lambda N, s, mode: urns.exact_pmf_dp(STD, N, mode)),
    "polyaurn.moments.product_ratio":
        (PRODUCTS, lambda N, s, mode: moments.product_ratio(STD, N, s, mode)),
    "polyaurn.moments.rising_factorial_moment":
        (PRODUCTS, lambda N, s, mode: moments.rising_factorial_moment(STD, N, s, mode)),
    "polyaurn.moments.raw_moments":
        (PRODUCTS, lambda N, s, mode: moments.raw_moments(STD, N, s, mode)),
    "polyaurn.moments.g_factor": (PRODUCTS, lambda N, s, mode: moments.g_factor(STD, N, mode)),
    "polyaurn.moments.mixed_rising_moment":
        (PRODUCTS, lambda N, s, mode: moments.mixed_rising_moment(STD, N, (s, 0), mode)),
    "polyaurn.martingale.mean_square":
        (PRODUCTS, lambda N, s, mode: martingale.mean_square(STD, N, mode)),
}


def test_every_mode_follows_the_one_rule():
    # urns._resolve_mode decides exact or float for every `mode`: an unknown
    # mode raises, and beyond the exact range "auto" gives every order, 0
    # included, the type that "float" gives
    found = set()
    for qual, fn in _public_functions():
        mode = inspect.signature(fn).parameters.get("mode")
        if mode is not None and mode.default in ("auto", "exact", "float"):
            found.add(qual)
    assert found == set(MODE_CALLS)
    for qual, (N, call) in MODE_CALLS.items():
        with pytest.raises(ValueError, match="unknown mode 'banana'"):
            call(7, 1, "banana")
        floats = type(call(N, 1, "float"))
        assert type(call(N, 0, "auto")) is type(call(N, 1, "auto")) is floats, qual


def _prod_calls(tree):
    """math.prod, np.prod and bare prod calls, with the names in their arguments."""
    for call in ast.walk(tree):
        func = getattr(call, "func", None)
        if (isinstance(func, ast.Attribute) and func.attr == "prod") or (
                isinstance(func, ast.Name) and func.id == "prod"):
            names = {n.id for n in ast.walk(call) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(call) if isinstance(n, ast.Attribute)}
            yield call, names


def test_schedule_totals_multiply_through_the_one_helper():
    # urns._product multiplies schedule totals pairwise up a tree; a left to
    # right product over them elsewhere would grow one short factor at a time
    helper = next(node for node in ast.walk(ast.parse(inspect.getsource(urns)))
                  if isinstance(node, ast.FunctionDef) and node.name == "_product")
    assert not list(_prod_calls(helper))
    offenders = []
    for path in sorted(Path(polyaurn.__file__).parent.glob("*.py")):
        for call, names in _prod_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if any(key in name for name in names for key in ("total", "dT", "sched")):
                offenders.append(f"{path.name}:{call.lineno}")
    assert offenders == []
