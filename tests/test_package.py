import ast
import importlib
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import mpinc
import reference

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from mpinc import *", namespace)
    assert len(set(mpinc.__all__)) == len(mpinc.__all__)
    for name in mpinc.__all__:
        assert name in namespace, name
        assert getattr(mpinc, name) is namespace[name]


def test_test_references_are_not_shipped():
    # the reference implementations live with the tests, not in the package
    names = {name for name, value in vars(reference).items()
             if getattr(value, "__module__", None) == reference.__name__}
    assert {"rref_gf", "gf_inv", "subset_rank", "rref_rational"} <= names
    for info in pkgutil.iter_modules(mpinc.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"mpinc.{info.name}")
        assert not names & set(vars(module)), info.name


def quickstart_blocks():
    """The python code blocks of README.md's "Quickstart (library)" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quickstart (library)\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def run_block(source, namespace):
    """Run one block a statement at a time in namespace, as a reader types
    it; the values of its expression statements, in order."""
    values = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_readme_quickstart_does_what_its_comments_say(monkeypatch):
    # the three blocks run in one session from the checkout root, and each
    # value a comment states is the value the block gives
    monkeypatch.chdir(ROOT)
    sets, subspaces, designs = quickstart_blocks()
    ns = {}
    # cm.values, penrose_check(A, X).all_ok, X == pseudoinverse_oracle(A)
    assert run_block(sets, ns) == [(Fraction(-1, 12), Fraction(1, 4)), True, True]
    assert (ns["M"].rows, ns["M"].cols) == (5, 10)
    assert (ns["X"].rows, ns["X"].cols) == (10, 5)
    assert run_block(subspaces, ns) == [(Fraction(-1, 6), Fraction(1, 3))]
    assert (ns["M"].rows, ns["M"].cols) == (7, 7)
    assert run_block(designs, ns) == []
    D, X = ns["D"], ns["X"]
    assert (X.rows, X.cols) == (7, 7)
    assert set(X.entries) == {Fraction(1, 3), Fraction(-1, 6)}
    for b, block in enumerate(D.blocks):
        for u in range(1, 8):
            assert X.at(b, u - 1) == (Fraction(1, 3) if u in block else Fraction(-1, 6))
