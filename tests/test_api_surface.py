"""Every optional parameter of the package is set, and left out, by a caller
outside the tests.

A default that no program caller overrides is a switch only the tests flip:
such a test exercises a code path the program never takes.  A default that
every program caller overrides is a value only the tests rely on.  This test
reads the sources as syntax trees, without importing them.  For each
function of `src/orbitgap` with an optional parameter, some call in `src/`
or `bench/` must set that parameter, by keyword or by position, and some
such call must leave it out.  Calls are matched to functions by
name; a call through an attribute (`obj.f(...)`) binds its first argument
after `self` when f is a method.  A class's `__init__` is called by the
class's name, and its first argument binds after `self`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitgap"
CALLER_DIRS = ("src", "bench")


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _optional_parameters():
    """(where, function name, parameter, position or None, is method) of each default."""
    found = []
    for path, tree in _trees(PACKAGE):
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        }
        constructors = {
            id(node): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            where = f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            name, method, skip = node.name, id(node) in methods, 0
            if id(node) in constructors:
                # C(...) passes no self: number its parameters from the one after it
                name, method, skip = constructors[id(node)], False, 1
            first_default = len(positional) - len(args.defaults)
            for index in range(first_default, len(positional)):
                found.append((where, name, positional[index].arg, index - skip, method))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((where, name, arg.arg, None, method))
    return found


def _calls():
    """For each called name: (positional arguments before any starred one,
    positional arguments, keywords, bound) of every call.

    A starred positional argument counts as setting every position, and as
    leaving out every position from its own on; a double-starred one counts
    as setting every keyword and as leaving out every keyword.
    """
    calls = {}
    for directory in CALLER_DIRS:
        for _, tree in _trees(ROOT / directory):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name, bound = func.id, False
                elif isinstance(func, ast.Attribute):
                    name, bound = func.attr, True
                else:
                    continue
                plain = next(
                    (i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                    len(node.args),
                )
                count = len(node.args) if plain == len(node.args) else float("inf")
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((plain, count, keywords, bound))
    return calls


def _position(position, method: bool, bound: bool):
    # self is the object the attribute is read from
    return position - 1 if method and bound and position is not None else position


def _is_set(call, parameter: str, position, method: bool) -> bool:
    _, count, keywords, bound = call
    if parameter in keywords or None in keywords:
        return True
    position = _position(position, method, bound)
    return position is not None and count > position


def _is_omitted(call, parameter: str, position, method: bool) -> bool:
    plain, _, keywords, bound = call
    if None in keywords:
        return True
    if parameter in keywords:
        return False
    position = _position(position, method, bound)
    return position is None or plain <= position


def test_every_optional_parameter_is_set_by_a_program_caller():
    calls = _calls()
    unset = [
        f"{where}: {parameter}"
        for where, name, parameter, position, method in _optional_parameters()
        if not any(_is_set(c, parameter, position, method) for c in calls.get(name, []))
    ]
    assert unset == [], f"optional parameters that only the tests set: {unset}"


def test_every_optional_parameter_is_left_out_by_a_program_caller():
    calls = _calls()
    always = [
        f"{where}: {parameter}"
        for where, name, parameter, position, method in _optional_parameters()
        if not any(_is_omitted(c, parameter, position, method) for c in calls.get(name, []))
    ]
    assert always == [], f"defaults that every program caller overrides: {always}"
