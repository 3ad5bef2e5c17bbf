"""Every module of the package uses each name it imports, only the shared
line reader splits text into lines, and every library name the benchmark
reads exists."""

import ast
import functools
import glob
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "preclones")
PERFBENCH = os.path.join(ROOT, "perfbench")


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


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def library_aliases(tree):
    """name -> module for every library module a source imports."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "preclones":
            out.update({a.asname or a.name: f"preclones.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            out.update({a.asname: a.name for a in node.names
                        if a.name.startswith("preclones.") and a.asname})
    return out


def bench_names():
    """(module, dotted name) of each library name the benchmark reads: the
    tracer's SPANNED, HOT and GENERATORS, its ``_patch_method(<module>.<Class>,
    "<attr>")`` targets, and the ``<module>.<name>`` reads of workloads.py."""
    tracer, names = parse(os.path.join(PERFBENCH, "tracer.py")), set()
    for node in tracer.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in (
                "SPANNED", "HOT", "GENERATORS"):
            names.update(ast.literal_eval(node.value))
    aliases = library_aliases(tracer)
    for node in ast.walk(tracer):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_patch_method":
            cls, attr = node.args[:2]
            names.add((aliases[cls.value.id], f"{cls.attr}.{attr.value}"))
    workloads = parse(os.path.join(PERFBENCH, "workloads.py"))
    aliases = library_aliases(workloads)
    for node in ast.walk(workloads):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            names.add((aliases[node.value.id], node.attr))
    return sorted(names)


BENCH_NAMES = bench_names()


def test_the_bench_names_cover_each_source():
    assert ("preclones.logic", "parse_formula") in BENCH_NAMES  # SPANNED
    assert ("preclones.logic", "satisfies") in BENCH_NAMES  # HOT
    assert ("preclones.preclone", "FinitaryPreclone.compose") in BENCH_NAMES  # _patch_method
    assert ("preclones.preclone", "t_mod") in BENCH_NAMES  # workloads.py


@pytest.mark.parametrize("module,name", BENCH_NAMES, ids=[f"{m}.{n}" for m, n in BENCH_NAMES])
def test_each_name_the_bench_reads_exists(module, name):
    functools.reduce(getattr, name.split("."), importlib.import_module(module))
