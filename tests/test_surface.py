"""The package exports no name that only the tests call, and no function
has a default that no caller outside the tests overrides."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "boxlab"
README = SRC.parent.parent / "README.md"
BENCH = SRC.parent.parent / "bench"

# bench/tracer.py wraps each of these by name, through getattr on the module
# that defines it, so they stay although only the benchmark and the tests
# call them
TRACED_ONLY = ("box_to_json", "box_from_json", "reduce_measurement",
               "check_reduction")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def exported_names():
    """Every name ``boxlab/__init__.py`` imports from its modules."""
    tree = parse(SRC / "__init__.py")
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def library_references():
    """The names read in the modules of src/boxlab: loaded names and
    attributes.  A def, a class or an import statement reads none."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_by_the_library_or_the_readme():
    readme = README.read_text(encoding="utf-8")
    used = library_references()
    unused = [name for name in exported_names()
              if name not in used and name not in TRACED_ONLY
              and not re.search(r"\b%s\b" % re.escape(name), readme)]
    assert unused == []


def test_the_traced_names_are_exported():
    assert set(TRACED_ONLY) <= set(exported_names())


def passed_arguments(trees):
    """For each called name, the positions and keywords some call passes;
    "*" and "**" stand for every position and every keyword.  A call of
    ``f`` or of ``module.f`` counts for ``f``."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            given = passed.setdefault(name, set())
            given.update(range(len(node.args)))
            given.update("*" for arg in node.args
                         if isinstance(arg, ast.Starred))
            given.update(kw.arg or "**" for kw in node.keywords)
    return passed


def unpassed_defaults(library, callers):
    """(function, parameter) for each parameter with a default of a
    top-level function in ``library`` that no call in ``callers`` passes."""
    passed = passed_arguments(callers)
    found = []
    for tree in library:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            given = passed.get(node.name, set())
            spec = node.args
            positional = spec.posonlyargs + spec.args
            first = len(positional) - len(spec.defaults)
            for i, arg in enumerate(positional[first:], first):
                if not given & {i, "*", arg.arg, "**"}:
                    found.append((node.name, arg.arg))
            for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
                if default is not None and not given & {arg.arg, "**"}:
                    found.append((node.name, arg.arg))
    return found


def test_every_default_is_passed_by_the_library_or_the_benchmark():
    # calls in the tests do not count: a default only they set is a knob
    # that no user of the library turns
    library = [parse(path) for path in sorted(SRC.glob("*.py"))]
    bench = [parse(path) for path in sorted(BENCH.glob("*.py"))]
    assert unpassed_defaults(library, library + bench) == []
