"""Nothing in the package is defined or imported without a reader.

Every module-level name and class method of src/mpinc must be referenced
outside its own definition somewhere in src/, tests/, demos/ or
perfbench/, and no module of src/mpinc may import a name it never uses
(a line marked `# noqa: F401` is exempt). A reference is a name, an
attribute, an imported name, or a word of a string constant that is not
a docstring and holds no whitespace, so monkeypatch paths such as
"mpinc.cli.labels" and the names in __all__ count, and the words of a
message such as "regime identity {name} fails" do not.

The programs alone (src/ without the package __init__, demos/ and
perfbench/ without its test_*.py files) must read every package
definition except a pinned few that only tests read, so the next
test-only name does not land in the package unnoticed.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpinc"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "demos", ROOT / "perfbench"]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def docstrings(tree):
    """The string constants that are docstrings: they name things, they do
    not read them."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def references(tree):
    """(name, line) of every name the module mentions outside docstrings."""
    skip = set(map(id, docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip and not any(ch.isspace() for ch in node.value):
                for word in re.findall(r"\w+", node.value):
                    yield word, node.lineno


def definitions(tree):
    """(name, first line, last line) of each module-level name and each
    method of a module-level class; dunder names are called implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno, item.end_lineno
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno, node.end_lineno


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unread_definitions(readers):
    """(file, line, name) of each package definition that no file among
    readers references outside the definition itself."""
    seen = {}
    for path in readers:
        for name, line in references(parse(path)):
            seen.setdefault(name, []).append((path, line))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in definitions(parse(path)):
            if is_dunder(name):
                continue
            outside = [
                (where, line) for where, line in seen.get(name, [])
                if where != path or not first <= line <= last
            ]
            if not outside:
                unread.append((path.name, first, name))
    return unread


def test_every_package_definition_has_a_reader():
    readers = [path for top in SEARCHED for path in sorted(top.rglob("*.py"))]
    assert unread_definitions(readers) == []


# Package definitions that only tests read, each kept for a stated reason.
TEST_ONLY = {
    "identity": "RatMatrix.identity gives tests the exact identity to compare products with",
    "from_rows": "RatMatrix.from_rows builds test matrices from rows of entries",
    "to_rows": "RatMatrix.to_rows gives tests the rows to compare with",
    "transpose": "RatMatrix.transpose serves the reference pseudoinverse and Gram checks",
    "col_sums": "IncidenceMatrix.col_sums lets tests check column sums against the closed forms",
}


def test_programs_read_every_package_definition_but_the_pinned_ones():
    # The programs are the package, the demos and the benchmark. The
    # package __init__ only re-exports, and its __all__ would count as a
    # reader of every public name. The benchmark's test_*.py files are
    # tests: a local variable there named like a method would hide that
    # only tests read it.
    readers = [
        path for top in SEARCHED if top != ROOT / "tests"
        for path in sorted(top.rglob("*.py"))
        if path != PACKAGE / "__init__.py"
        and not (top == ROOT / "perfbench" and path.name.startswith("test_"))
    ]
    unread = {name for _, _, name in unread_definitions(readers)}
    assert unread == set(TEST_ONLY)


def exported(tree):
    """The names listed in the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    read = exported(tree) | {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert unused == []
