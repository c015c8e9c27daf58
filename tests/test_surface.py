"""The package's surface: src/covex defines only what it, or the benchmark, reads.

A public function or method that nothing in the package reads is reference
code for the tests, and lives in tests/oracles.py, or it is dead.  A member
counts as read when a name, an attribute or an import anywhere in
src/covex spells it.  Matching by name is deliberately coarse: a member
that shares its name with a live one passes, but a live member is never
flagged.  The benchmark's tracer wraps methods by name, so the members it
reads stay in the package, named in PERFBENCH_READS, until it stops
reading them.  Its tracer groups name the functions they time; a name the
package no longer defines times nothing, so each such name is listed in
TRACER_STALE_NAMES until the benchmark drops it.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "covex"
PERFBENCH = ROOT / "perfbench"

# Public members that only perfbench/ and the tests read.
PERFBENCH_READS = {
    "tau_permutation",
    "embedding_target",
    "from_rows",
    "contains_vector",
    "contains",
    "apply",
}

# Names in the tracer's GROUPS that nothing in the package defines.
TRACER_STALE_NAMES = {
    "in_matrix_schubert",
    "in_matrix_schubert_cell",
    "in_flag_schubert",
    "locate_flag_cell",
    "in_grass_schubert",
    "target_holds",
    "target_violation",
    "in_conormal_matrix",
    "in_conormal_grass",
    "in_conormal_flag",
    "schubert_class_restriction",
    "localize_grass_class",
}


def _trees(directory):
    return {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def _public_members(tree):
    """The public top-level functions and public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _spelled(tree, strings=False):
    """Every name, attribute and imported name in the tree, and with strings
    every string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


SRC_TREES = _trees(SRC)
READ_IN_SRC = {name for tree in SRC_TREES.values() for name in _spelled(tree)}


def test_every_public_member_is_read_by_the_package_or_the_benchmark():
    unread = sorted(
        f"{module}.{member}"
        for module, tree in SRC_TREES.items()
        for member in _public_members(tree)
        if member.rpartition(".")[2] not in READ_IN_SRC | PERFBENCH_READS
    )
    assert unread == [], "move these into tests/oracles.py or delete them"


# Every binary, reflected, in-place and unary arithmetic dunder.
ARITHMETIC_DUNDERS = {
    f"__{prefix}{op}__"
    for op in (
        "add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
        "lshift", "rshift", "and", "xor", "or",
    )
    for prefix in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__", "__invert__"}


def test_classes_define_only_the_operators_that_the_package_uses():
    """The surface check above skips names that start with "_", so it
    cannot see an operator that only the tests use; the tests build sums,
    differences and negations with tests/oracles.py instead.  ExactMatrix
    multiplies, MultivariatePolynomial multiplies (the tracer wraps its
    __mul__), and PolynomialQ adds and subtracts in the KL recursion."""
    defined = {}
    for module, tree in SRC_TREES.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                names |= {
                    target.id
                    for item in node.body
                    if isinstance(item, ast.Assign)
                    for target in item.targets
                    if isinstance(target, ast.Name)
                }
                if names & ARITHMETIC_DUNDERS:
                    defined[f"{module}.{node.name}"] = names & ARITHMETIC_DUNDERS
    assert defined == {
        "exactla.ExactMatrix": {"__matmul__"},
        "equivariant.MultivariatePolynomial": {"__mul__"},
        "kl.PolynomialQ": {"__add__", "__sub__"},
    }


def test_perfbench_reads_names_only_members_that_the_benchmark_reads():
    """Each exempt name is a public member of the package that perfbench/
    spells and the package itself does not: a name the benchmark stops
    reading, or the package starts reading, leaves the set."""
    defined = {
        member.rpartition(".")[2]
        for tree in SRC_TREES.values()
        for member in _public_members(tree)
    }
    in_perfbench = {
        name for tree in _trees(PERFBENCH).values() for name in _spelled(tree, strings=True)
    }
    assert PERFBENCH_READS <= defined
    assert PERFBENCH_READS <= in_perfbench
    assert not PERFBENCH_READS & READ_IN_SRC


def _tracer():
    """perfbench/tracer.py, loaded without installing it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_the_tracer_finds_every_layer_and_heavy_method():
    """perfbench/tracer.py, loaded without installing it: every layer
    imports, and every heavy method it wraps is in its class's own
    __dict__, where Tracer.install looks it up."""
    tracer = _tracer()
    modules = {layer: importlib.import_module(f"covex.{layer}") for layer in tracer.LAYERS}
    missing = [
        f"{layer}.{cls}.{method}"
        for layer, classes in tracer.HEAVY_METHODS.items()
        for cls, methods in classes.items()
        for method in methods
        if method not in vars(getattr(modules[layer], cls))
    ]
    assert missing == []


def _wrapped_by_the_tracer(module, name):
    """Whether Tracer.install times name in module: a public function
    defined there and not a generator, or a method in its class's own
    __dict__."""
    cls_name, _, method = name.rpartition(".")
    if cls_name:
        cls = vars(module).get(cls_name)
        return inspect.isclass(cls) and method in vars(cls)
    obj = vars(module).get(name)
    return (
        inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not inspect.isgeneratorfunction(obj)
    )


def test_every_tracer_group_name_resolves_in_its_layer():
    """Each name of a tracer group is a function the tracer wraps in the
    group's layer, except the stale names, which no file of src/covex
    spells: a name the package stops defining must join the set, and one
    the benchmark drops must leave it."""
    tracer = _tracer()
    unresolved = {
        name
        for layer, names in tracer.GROUPS.values()
        for name in names
        if not _wrapped_by_the_tracer(importlib.import_module(f"covex.{layer}"), name)
    }
    assert unresolved == TRACER_STALE_NAMES
    sources = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert [name for name in sorted(TRACER_STALE_NAMES) if re.search(rf"\b{name}\b", sources)] == []


def test_a_traced_conormal_matrix_run_counts_its_predicate_calls():
    """In a fresh interpreter with the tracer installed, `covex verify
    conormal-matrix --nmax 2` reaches the conormal.predicate group: the
    suite's checks go through the functions that group names.  Every read
    of a rank matrix goes through the hooked permcore.rank_matrix: a
    `member matrix` query reads it once, for its one w, and `kl 1234 3412`
    twice, for u and w in bruhat_leq."""
    script = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from covex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(json.loads(sys.argv[2]))\n"
        "metrics = tracer.metrics()\n"
        "names = ('conormal.predicate_calls', 'permcore.rank_matrix_calls', 'permcore.distinct_w')\n"
        "print(json.dumps([code, *(metrics[name][0] for name in names)]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    point = str(ROOT / "tests" / "golden" / "embed_random.json")
    counts = []
    for argv in (
        ["verify", "conormal-matrix", "--nmax", "2"],
        ["member", "matrix", point, "2 0 3 1"],
        ["kl", "1234", "3412"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(PERFBENCH), json.dumps(argv)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        counts.append(json.loads(proc.stdout.splitlines()[-1]))
    (code, calls, _, _), member, kl = counts
    assert code == 0
    assert calls > 0
    assert member == [0, 0, 1, 1]
    assert kl == [0, 0, 2, 2]


def test_no_import_in_the_package_goes_unused():
    unused = []
    for module, tree in SRC_TREES.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def _import_time_statements(body):
    """The statements of body that run at import: function bodies and the
    `if TYPE_CHECKING:` branch are left out, class bodies and the other
    branches of if, try and with are walked into."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _import_time_statements(node.orelse)
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_statements(getattr(node, field, []))


def test_no_module_imports_fractions_or_decimal_at_import_time():
    """Work over F_p builds no rational, so fractions (and decimal and
    numbers with it) is imported only in the branches that build one."""
    found = []
    for module, tree in SRC_TREES.items():
        for node in _import_time_statements(tree.body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{module}: {name}" for name in names if name in ("fractions", "decimal")]
    assert found == []
