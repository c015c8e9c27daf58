"""The package's surface: src/covex defines only what it, or the benchmark, reads.

A public function or method that nothing in the package reads is reference
code for the tests, and lives in tests/oracles.py, or it is dead.  A member
counts as read when a name, an attribute or an import anywhere in
src/covex spells it.  Matching by name is deliberately coarse: a member
that shares its name with a live one passes, but a live member is never
flagged.  The benchmark's tracer wraps methods by name, so the members it
reads stay in the package, named in PERFBENCH_READS, until it stops
reading them.
"""

import ast
import importlib
import importlib.util
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


def test_the_tracer_finds_every_layer_and_heavy_method():
    """perfbench/tracer.py, loaded without installing it: every layer
    imports, and every heavy method it wraps is in its class's own
    __dict__, where Tracer.install looks it up."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {layer: importlib.import_module(f"covex.{layer}") for layer in tracer.LAYERS}
    missing = [
        f"{layer}.{cls}.{method}"
        for layer, classes in tracer.HEAVY_METHODS.items()
        for cls, methods in classes.items()
        for method in methods
        if method not in vars(getattr(modules[layer], cls))
    ]
    assert missing == []


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
