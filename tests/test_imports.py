"""Every module of the package uses each name it imports, and only the
shared line reader splits text into lines."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "preclones")


def unused_imports(source):
    """The names a module imports but never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport random\nos.sep\n") == [(2, "random")]
    assert unused_imports("from a import b as c, d\nd()\n") == [(1, "c")]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def line_splitters(source):
    """The functions that split text into lines: a call of ``splitlines``,
    ``readline``, ``readlines`` or ``split("\\n")``, or a loop over a file
    from ``open``."""
    def is_open(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"

    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        files = {item.optional_vars.id for node in ast.walk(fn) if isinstance(node, ast.With)
                 for item in node.items
                 if is_open(item.context_expr) and isinstance(item.optional_vars, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                    node.func.attr in ("splitlines", "readline", "readlines")
                    or node.func.attr == "split"
                    and any(getattr(a, "value", None) == "\n" for a in node.args)):
                found.add(fn.name)
            if isinstance(node, (ast.For, ast.comprehension)) and (
                    is_open(node.iter) or getattr(node.iter, "id", None) in files):
                found.add(fn.name)
    return sorted(found)


def test_the_check_sees_a_line_split():
    assert line_splitters("def f(t):\n    return t.splitlines()\n") == ["f"]
    assert line_splitters("def g(t):\n    return t.split('\\n')\n") == ["g"]
    assert line_splitters("def h(t):\n    return t.split()\n") == []
    loop = "def k(p):\n    with open(p) as fh:\n        for line in fh:\n            pass\n"
    assert line_splitters(loop) == ["k"]
    assert line_splitters("def m(p):\n    return [x for x in open(p)]\n") == ["m"]


def test_only_the_shared_reader_splits_text_into_lines():
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            names = line_splitters(fh.read())
        if names:
            found[os.path.basename(path)] = names
    assert found == {"errors.py": ["read_lines"]}
