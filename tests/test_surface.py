"""The package exports no name that only the tests call."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "boxlab"
README = SRC.parent.parent / "README.md"

# bench/tracer.py wraps each of these by name, through getattr on the module
# that defines it, so they stay although only the benchmark and the tests
# call them
TRACED_ONLY = ("box_to_json", "box_from_json", "reduce_measurement",
               "check_reduction")


def exported_names():
    """Every name ``boxlab/__init__.py`` imports from its modules."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def library_references():
    """The names read in the modules of src/boxlab: loaded names and
    attributes.  A def, a class or an import statement reads none."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
