"""Every definition of the package is named by the program outside itself.

Public API that only the tests call either gets a real caller or moves into
`tests/` as an oracle.  This test reads the sources as syntax trees, without
importing them.  Each module-level function and class of `src/orbitgap`,
and each public method (a name without a leading underscore), must be
named somewhere in `src/` or `bench/` outside its own definition: as a
name, as an attribute, or in one of the two string tables that resolve
names at run time.  Those are the `(module, path)` keys of `SPANNED` and
`COUNTED` in `bench/trace_child.py`, whose path parts count as names, and
the stage names of `pipeline.COMMANDS`, which `run` turns into
`stage_<name>`.  A name is matched by spelling only, so a method counts as
named when any attribute of that spelling is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitgap"
CALLER_DIRS = ("src", "bench")


def _trees():
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(path: Path, tree: ast.Module):
    """(name, first line, last line) of each module-level function and class
    and of each public method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def _table(tree: ast.Module, name: str):
    """The value assigned to a module-level name, as a literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name}")


def _references(path: Path, tree: ast.Module):
    """(name, line) of each name the file reads, writes or looks up at run time."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
    if path == ROOT / "bench" / "trace_child.py":
        for table in ("SPANNED", "COUNTED"):
            for _, dotted in _table(tree, table):
                for part in dotted.split("."):
                    yield part, 0
    if path == PACKAGE / "pipeline.py":
        for _, stages in _table(tree, "COMMANDS").values():
            for stage in stages:
                yield f"stage_{stage}", 0


def test_every_definition_is_named_by_the_program():
    references: dict[str, set] = {}
    definitions = []
    for path, tree in _trees():
        for name, line in _references(path, tree):
            references.setdefault(name, set()).add((path, line))
        if path.is_relative_to(PACKAGE):
            definitions.extend((path, *d) for d in _definitions(path, tree))
    assert definitions
    unnamed = [
        f"{path.relative_to(ROOT)}:{first} {name}"
        for path, name, first, last in definitions
        if not any(
            where != path or not first <= line <= last
            for where, line in references.get(name, ())
        )
    ]
    assert unnamed == [], f"definitions that only the tests or they themselves name: {unnamed}"
