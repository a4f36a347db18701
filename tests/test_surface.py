"""Every public function, class, method and property in `src/wittkit` has
a caller.

A caller is a use of the name outside its own definition and outside
import statements, in one of: the rest of `src/`, the README, the benchmark
scripts under `bench/`, or the acceptance gate.  Tests other than the
acceptance gate do not count: code that only tests run belongs in
`tests/`, as an oracle.

In Python files a use is an identifier or attribute reference; comments,
docstrings and strings are not uses.  In the README any mention outside an
import line counts.  Methods and properties are the public ones of public
classes, dunders exempt; they are matched by name, so a method that shares
its name with a called one elsewhere passes unseen.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wittkit"
CALLER_FILES = (
    sorted(SRC.rglob("*.py"))
    + sorted((ROOT / "bench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_IMPORT_LINE = re.compile(r"^\s*(from\s+\S+\s+)?import\s")


def _public_definitions():
    """(path, name, first line, last line) of each public module-level
    function and class in src/wittkit."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                out.append((path, node.name, node.lineno, node.end_lineno))
    return out


def _public_methods():
    """(path, "Class.name", first line, last line) of each public method
    and property of a public class in src/wittkit."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    out.append((path, f"{cls.name}.{node.name}",
                                node.lineno, node.end_lineno))
    return out


def _is_export_list(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _python_uses(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every identifier use in a Python file; re-exports
    in `__all__`, like imports, are not uses."""
    uses = []
    todo = [ast.parse(path.read_text(), str(path))]
    while todo:
        node = todo.pop()
        if _is_export_list(node):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
    return uses


def _readme_uses() -> set[str]:
    names = set()
    for line in (ROOT / "README.md").read_text().splitlines():
        if not _IMPORT_LINE.match(line):
            names.update(_IDENT.findall(line))
    return names


def uncalled_names() -> list[str]:
    """Public names of src/wittkit with no caller, as "module.name" or
    "module.Class.name"."""
    uses = {path: _python_uses(path) for path in CALLER_FILES}
    readme = _readme_uses()
    missing = []
    for path, qualname, first, last in (_public_definitions()
                                        + _public_methods()):
        name = qualname.rpartition(".")[2]
        called = name in readme or any(
            used == name and not (other == path and first <= line <= last)
            for other, found in uses.items() for used, line in found)
        if not called:
            module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
            missing.append(f"{module}.{qualname}")
    return missing


def test_scan_sees_the_library():
    names = {name for _, name, _, _ in _public_definitions()}
    assert {"analyze", "Matrix", "classify", "brute_force_lagrangians"} <= names
    methods = {name for _, name, _, _ in _public_methods()}
    assert {"Matrix.det", "LaurentModule.rank", "LaurentModule.factors",
            "DWMultiSignatureZ.all_zero"} <= methods
    assert not any(name.rpartition(".")[2].startswith("_")
                   for name in methods)


def test_every_public_name_has_a_caller():
    assert uncalled_names() == []
