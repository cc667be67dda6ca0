"""The package exports no name that only the tests call, every default of
a function is both overridden and relied on by some caller outside the
tests, every function the benchmark's tracer wraps exists, and every value
type that holds arrays is made read-only in one place and compares by
identity; no function takes an ``AffineFunction``, Pr[a = b] and a
unitary's measured direction are each formed in one place, and so are the
memory cap's block walk, the TV distance, the test of a probability vector
and the test of norm 1."""

import ast
import importlib
import pathlib
import re

import numpy as np
import pytest

import boxlab as bl

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "boxlab"
README = SRC.parent.parent / "README.md"
BENCH = SRC.parent.parent / "bench"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def traced_functions():
    """(module, function) of each row of the ``WRAPPED`` table of
    bench/tracer.py, which wraps each function by name through getattr on
    the boxlab module that defines it."""
    [table] = [node.value for node in parse(BENCH / "tracer.py").body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    return [(row.elts[0].id, row.elts[1].value) for row in table.elts]


# the benchmark's tracer wraps these, so they stay although the library may
# not call them
TRACED = {name for _, name in traced_functions()}


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
              if name not in used and name not in TRACED
              and not re.search(r"\b%s\b" % re.escape(name), readme)]
    assert unused == []


def test_the_traced_names_are_exported():
    assert TRACED - library_references() <= set(exported_names())


def test_every_traced_function_exists():
    # a rename in the library would break the benchmark's --trace runs
    traced = traced_functions()
    assert traced
    missing = [(module, name) for module, name in traced
               if not callable(getattr(importlib.import_module(
                   "boxlab." + module), name, None))]
    assert missing == []


def call_arguments(trees):
    """For each called name, one set per call of the positions and
    keywords it passes; "*" and "**" stand for every position and every
    keyword.  A call of ``f`` or of ``module.f`` counts for ``f``."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            given = set(range(len(node.args)))
            given.update("*" for arg in node.args
                         if isinstance(arg, ast.Starred))
            given.update(kw.arg or "**" for kw in node.keywords)
            calls.setdefault(name, []).append(given)
    return calls


def defaults(library):
    """(function, parameter, keys) for each parameter with a default of a
    top-level function in ``library``; a call passes the parameter if it
    passes one of its keys."""
    for tree in library:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            spec = node.args
            positional = spec.posonlyargs + spec.args
            first = len(positional) - len(spec.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield node.name, arg.arg, {i, "*", arg.arg, "**"}
            for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, {arg.arg, "**"}


def unpassed_defaults(library, callers):
    """(function, parameter) for each default that no call in ``callers``
    passes."""
    calls = call_arguments(callers)
    return [(function, parameter)
            for function, parameter, keys in defaults(library)
            if not any(given & keys for given in calls.get(function, []))]


def unomitted_defaults(library, callers):
    """(function, parameter) for each default that every call in
    ``callers`` passes, or that no call reaches."""
    calls = call_arguments(callers)
    return [(function, parameter)
            for function, parameter, keys in defaults(library)
            if all(given & keys for given in calls.get(function, []))]


def library_and_bench():
    library = [parse(path) for path in sorted(SRC.glob("*.py"))]
    bench = [parse(path) for path in sorted(BENCH.glob("*.py"))]
    return library, library + bench


# calls in the tests do not count in either guard: a default only they set
# is a knob that no user of the library turns, and a default only they
# leave out is one that no user of the library relies on

def test_every_default_is_passed_by_the_library_or_the_benchmark():
    assert unpassed_defaults(*library_and_bench()) == []


def test_every_default_is_omitted_by_the_library_or_the_benchmark():
    assert unomitted_defaults(*library_and_bench()) == []


def test_the_default_guards_flag_a_default_never_and_always_passed():
    library = ast.parse(
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def g(a=0): pass\n"
        "def h(a=0): pass\n"
        "def unused(a=0): pass\n"
        "class Kept:\n"
        "    def method(self, a=0): pass\n")
    callers = ast.parse(
        "f(0, 1, c=3)\n"
        "m.f(0, b=2, c=4)\n"
        "g()\n"
        "g(1)\n"
        "h(*xs)\n"
        "h(**kw)\n")
    trees = [library], [library, callers]
    assert unpassed_defaults(*trees) == [("f", "d"), ("unused", "a")]
    assert unomitted_defaults(*trees) == [("f", "b"), ("f", "c"), ("h", "a"),
                                          ("unused", "a")]


def read_only_breaches(trees):
    """(module, line) of each assignment to ``.flags.writeable`` outside
    boxes.py, whose ``read_only`` is the one place arrays are frozen, and of
    each dataclass whose ``__post_init__`` calls ``read_only`` but is not
    declared with ``eq=False``: a generated ``==`` on arrays raises."""
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if name != "boxes.py" and isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Attribute) and t.attr == "writeable"
                    and isinstance(t.value, ast.Attribute)
                    and t.value.attr == "flags" for t in node.targets):
                found.append((name, node.lineno))
            if isinstance(node, ast.ClassDef) and freezes(node) \
                    and not compares_by_identity(node):
                found.append((name, node.lineno))
    return found


def freezes(cls):
    """True if the class's ``__post_init__`` calls ``read_only``."""
    return any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
               and any(isinstance(c, ast.Call) and "read_only" in (
                   getattr(c.func, "id", None), getattr(c.func, "attr", None))
                   for c in ast.walk(f))
               for f in cls.body)


def compares_by_identity(cls):
    """True if the class is declared ``@dataclass(..., eq=False)``."""
    return any(isinstance(d, ast.Call)
               and getattr(d.func, "id", None) == "dataclass"
               and any(kw.arg == "eq" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is False for kw in d.keywords)
               for d in cls.decorator_list)


def test_arrays_are_frozen_in_one_place_by_value_types_that_compare_by_identity():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    assert read_only_breaches(trees) == []
    assert sum(freezes(node) for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)) == 4


def test_the_guard_flags_a_second_freeze_and_a_generated_eq():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "values.flags.writeable = False\n"
        "@dataclass(frozen=True)\n"
        "class Value:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'v', read_only(self.v, float))\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class Same:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'v', boxes.read_only(self.v, float))\n")
    assert read_only_breaches({"other.py": tree}) == [("other.py", 2),
                                                       ("other.py", 4)]
    assert read_only_breaches({"boxes.py": tree}) == [("boxes.py", 4)]


def index_tail(node):
    """The last two indices of a subscript as a tuple, when both are int
    constants: ``t[..., 0, 1]`` gives (0, 1)."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
        tail = node.slice.elts[-2:]
        if len(tail) == 2 and all(isinstance(e, ast.Constant)
                                  and type(e.value) is int for e in tail):
            return tuple(e.value for e in tail)
    return None


def kernel_breaches(trees):
    """(module, line) of each place outside boxes.py that forms Pr[a = b]
    or Pr[a != b] by hand, which ``boxes.agreement`` does: a sum of
    subscripts ending in [0, 0] and [1, 1], or in [0, 1] and [1, 0], or a
    ``.trace`` call; or that calls ``np.linalg.inv``, where a unitary's
    inverse is its conjugate transpose."""
    pairs = ({(0, 0), (1, 1)}, {(0, 1), (1, 0)})
    found = []
    for name, tree in trees.items():
        if name == "boxes.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
                    and {index_tail(node.left), index_tail(node.right)} in pairs:
                found.append((name, node.lineno))
            elif isinstance(node, ast.Call) and (
                    getattr(node.func, "attr", None) == "trace"
                    or ast.unparse(node.func).endswith("linalg.inv")):
                found.append((name, node.lineno))
    return found


def test_each_rule_has_one_kernel():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    assert kernel_breaches(trees) == []


def test_the_guard_flags_agreement_sums_traces_and_inverses():
    tree = ast.parse(
        "equal = row[0, 0] + row[1, 1]\n"
        "differ = t[..., 1, 0] + t[..., 0, 1]\n"
        "law = rows.trace(axis1=1, axis2=2)\n"
        "point = np.linalg.inv(u) @ KET1\n"
        "mixed = eq[0, 0] + eq[0, 1]\n"
        "column = t[:, 0] + t[:, 1]\n"
        "product = row[0, 0] * row[1, 1]\n"
        "other = np.linalg.norm(u) + trace\n")
    assert kernel_breaches({"other.py": tree}) == [
        ("other.py", 1), ("other.py", 2), ("other.py", 3), ("other.py", 4)]
    assert kernel_breaches({"boxes.py": tree}) == []


CAPS = {"PATH_TABLE_CAP", "DISTANCE_BLOCK"}


def names_a_cap(node):
    """True if a node is one of the ``CAPS``, by name or as an attribute."""
    return getattr(node, "id", getattr(node, "attr", None)) in CAPS


def cap_breaches(trees):
    """(module, line) of each place outside boxes.py that binds
    PATH_TABLE_CAP, walks blocks by hand (a cap floor-divided, or a cap as a
    ``range`` step), which ``boxes.blocks`` does, or writes
    ``0.5 * np.abs(``, which ``boxes.tv_distance`` does."""
    found = []
    for name, tree in trees.items():
        if name == "boxes.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                breach = any(alias.name == "PATH_TABLE_CAP"
                             for alias in node.names)
            elif isinstance(node, ast.Name):
                breach = node.id == "PATH_TABLE_CAP" \
                    and isinstance(node.ctx, ast.Store)
            elif isinstance(node, ast.BinOp) and isinstance(node.op,
                                                            ast.FloorDiv):
                breach = names_a_cap(node.left) or names_a_cap(node.right)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                breach = ast.unparse(node.left) == "0.5" \
                    and ast.unparse(node.right).startswith("np.abs(")
            elif isinstance(node, ast.Call):
                breach = getattr(node.func, "id", None) == "range" \
                    and len(node.args) == 3 and names_a_cap(node.args[2])
            else:
                breach = False
            if breach:
                found.append((name, node.lineno))
    return sorted(found)


def test_the_memory_cap_and_the_tv_distance_have_one_home():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    assert cap_breaches(trees) == []


def test_the_guard_flags_cap_copies_hand_walks_and_tv_sums():
    tree = ast.parse(
        "from .boxes import PATH_TABLE_CAP, read_only\n"
        "rows = max(1, PATH_TABLE_CAP // len(ps))\n"
        "step = boxes.PATH_TABLE_CAP // 4 // width\n"
        "rows = DISTANCE_BLOCK // (4 * n_b)\n"
        "starts = range(0, n, PATH_TABLE_CAP)\n"
        "tv = 0.5 * np.abs(p - q).sum(axis=(1, 2))\n"
        "PATH_TABLE_CAP = 2 ** 22\n"
        "once = 0.5 * np.abs(x) * 2 + 1\n"
        "from .boxes import read_only\n"
        "ok = 3 * t > boxes.PATH_TABLE_CAP\n"
        "fine = np.sqrt(3.0 / PATH_TABLE_CAP) + 0.5 * np.sqrt(x)\n"
        "walk = boxes.blocks(n, width, DISTANCE_BLOCK)\n"
        "starts = range(0, n, 2)\n")
    assert cap_breaches({"other.py": tree}) == [
        ("other.py", line) for line in range(1, 9)]
    assert cap_breaches({"boxes.py": tree}) == []


TRAILING_AXES = {"(-2, -1)", "(-1, -2)", "(2, 3)", "(3, 2)"}


def table_sum_breaches(trees):
    """(module, line) of each sum over a table's trailing axes, ``axis=(-2,
    -1)`` or ``axis=(2, 3)`` by keyword or by position, outside
    ``boxes.table_sums``, the one sum of each table of a stack."""
    return sorted((module, node.lineno) for module, tree in trees.items()
                  for function, node in functions(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func).endswith("sum")
                  and any(ast.unparse(arg) in TRAILING_AXES for arg in
                          [*node.args, *(kw.value for kw in node.keywords
                                         if kw.arg == "axis")])
                  and (module, function) != ("boxes.py", "table_sums"))


def test_each_table_sum_has_one_home():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    assert table_sum_breaches(trees) == []


def test_the_guard_flags_table_sums_outside_their_home():
    tree = ast.parse(
        "def table_sums(tables):\n"
        "    return tables.sum(axis=(-2, -1))\n"
        "def check(probs):\n"
        "    return np.abs(probs.sum(axis=(-2, -1)) - 1.0)\n"
        "table /= table.sum(axis=(2, 3), keepdims=True)\n"
        "tv = 0.5 * np.sum(np.abs(p - q), (-1, -2))\n"
        "total = t.sum((3, 2))\n"
        "rows = table.sum(axis=3)\n"
        "peak = table.max(axis=(2, 3))\n"
        "total = table_sums(table)\n")
    assert table_sum_breaches({"boxes.py": tree}) == [
        ("boxes.py", 4), ("boxes.py", 5), ("boxes.py", 6), ("boxes.py", 7)]
    assert table_sum_breaches({"other.py": tree}) == [
        ("other.py", line) for line in (2, 4, 5, 6, 7)]


def functions(tree):
    """(name of the innermost enclosing def, or "<module>", node) of every
    node of a module; a def is its own enclosing one."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            yield inner, child
            yield from walk(child, inner)
    return walk(tree, "<module>")


def names(node, name):
    """True if ``name`` is read anywhere in ``node``, alone or as an
    attribute."""
    return any(isinstance(n, (ast.Name, ast.Attribute))
               and isinstance(n.ctx, ast.Load)
               and getattr(n, "id", getattr(n, "attr", None)) == name
               for n in ast.walk(node))


def norm_tol_reads(trees):
    """(module, function) of each read of NORM_TOL outside
    ``boxes.check_distributions``, the one test of a probability vector."""
    return sorted({(module, function) for module, tree in trees.items()
                   for function, node in functions(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and names(node, "NORM_TOL")
                   and (module, function) != ("boxes.py",
                                              "check_distributions")})


def norm_one_tests(tree):
    """The functions of a module that call ``np.linalg.norm`` and compare
    something with UNITARY_TOL: each tests a norm against it."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(n, ast.Call)
                    and ast.unparse(n.func).endswith("linalg.norm")
                    for n in ast.walk(node))
            and any(isinstance(n, ast.Compare) and names(n, "UNITARY_TOL")
                    for n in ast.walk(node))]


def test_each_norm_test_has_one_home():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    assert norm_tol_reads(trees) == []
    assert len(norm_one_tests(trees["quantum.py"])) == 1


def test_the_guards_flag_copies_of_the_distribution_and_norm_tests():
    # the tests as boxes.mix and quantum.bloch_of wrote them by hand
    tree = ast.parse(
        "NORM_TOL = 1e-12\n"
        "def check_distributions(probs):\n"
        "    if not np.all(probs >= -NORM_TOL):\n"
        "        raise ValueError('within %g' % NORM_TOL)\n"
        "def mix(boxes, weights):\n"
        "    if np.any(weights < -boxes.NORM_TOL):\n"
        "        raise ValueError('negative mixture weight')\n"
        "def bloch_of(psi):\n"
        "    norm = np.linalg.norm(psi, axis=-1)\n"
        "    if not np.all(np.abs(norm - 1.0) <= UNITARY_TOL):\n"
        "        raise ValueError('state is not normalized')\n"
        "def measurement_probs(state):\n"
        "    if abs(np.linalg.norm(state) - 1.0) > quantum.UNITARY_TOL:\n"
        "        raise ValueError('state is not normalized')\n"
        "def unit(c):\n"
        "    return np.any(np.linalg.norm(c, axis=-1) < 1e-12)\n"
        "def unitary(defect):\n"
        "    return np.all(defect <= UNITARY_TOL)\n"
        "TOL = NORM_TOL\n")
    assert norm_tol_reads({"boxes.py": tree}) == [("boxes.py", "<module>"),
                                                  ("boxes.py", "mix")]
    assert norm_tol_reads({"other.py": tree}) == [
        ("other.py", "<module>"), ("other.py", "check_distributions"),
        ("other.py", "mix")]
    assert norm_one_tests(tree) == ["bloch_of", "measurement_probs"]


def mentions_affine_function(annotation):
    """True if an annotation names ``AffineFunction``, alone, as an
    attribute, inside another annotation or in a string."""
    return annotation is not None and any(
        getattr(node, "id", getattr(node, "attr", None)) == "AffineFunction"
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.search(r"\bAffineFunction\b", node.value)
        for node in ast.walk(annotation))


def affine_parameters(trees):
    """(module, function) of each function with a parameter annotated
    ``AffineFunction``.  Line kernels take a ``LineFamily``; an
    ``AffineFunction`` is only a record that ``affine_of``,
    ``tangent_line``, ``best_affine_fit`` and iterating a family return."""
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spec = node.args
                params = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs,
                          spec.vararg, spec.kwarg]
                if any(arg is not None
                       and mentions_affine_function(arg.annotation)
                       for arg in params):
                    found.append((name, node.name))
    return found


def test_no_function_takes_an_affine_function():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    assert affine_parameters(trees) == []


def test_the_guard_flags_a_parameter_annotated_affine_function():
    tree = ast.parse(
        "def kernel(ell: AffineFunction): pass\n"
        "def lines(*ells: list[protocols.AffineFunction]): pass\n"
        "class Lines:\n"
        "    def quoted(self, *, ell: 'AffineFunction | None'): pass\n"
        "def record(family: LineFamily) -> AffineFunction: pass\n"
        "def plain(ell, affine: AffineFunctions): pass\n")
    assert affine_parameters({"other.py": tree}) == [
        ("other.py", "kernel"), ("other.py", "lines"), ("other.py", "quoted")]


def two_of_each():
    """Two values of each value type, built alike from equal arrays."""
    identity = np.eye(2, dtype=np.complex128)
    makers = (bl.pr_box, bl.octahedron_cover,
              lambda: bl.LineFamily([0.75, 0.5], [0.0, 0.5]),
              lambda: bl.simple_bell_spec([identity], [identity]))
    return [(make(), make()) for make in makers]


@pytest.mark.parametrize("first,second", two_of_each(),
                         ids=["box", "cover", "family", "spec"])
def test_value_types_compare_and_hash_by_identity(first, second):
    assert first == first and not first != first
    assert first != second and not first == second
    assert hash(first) == hash(first) and hash(first) != hash(second)
    assert (first == "other") is False and len({first, second, first}) == 2
