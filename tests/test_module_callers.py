"""Every module under ``src/repro``, and every name it exports, has a caller.

A module counts as called when some file in ``src/`` (other than itself
and its package ``__init__``), ``benchmarks/``, ``examples/``,
``perfbench/`` or ``scripts/`` imports it, or imports / reads through a
package alias a name from its ``__all__``.  Tests are not callers: a
module only its own test imports is an orphan, unless it is allowlisted
below with the reason it stays.

A name in a module's ``__all__`` counts as called when a caller file that
is not a package ``__init__`` (a re-export is not a use) imports it or
reads it through an alias, when its own module uses it beyond defining
it, or when an ``ENTRY_POINTS`` target of ``perfbench/tracer.py`` names
it.  Names in allowlisted modules are not checked.

A public method or property of a class in a module's ``__all__`` counts as
called when some caller file reads an attribute of that name (``x.name``;
the scan goes by name, not by type), or when an ``ENTRY_POINTS`` target
names it as ``Class.method``.  A method that only tests read stays only
when a test uses it as a reference oracle for other code
(``ORACLE_METHODS``), or while it waits for its own deletion
(``TEST_ONLY_METHODS``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "scripts")

ALLOWED_ORPHANS = {
    "repro.nn.gradcheck": "numerical-gradient oracle for tests/test_nn_gradcheck.py",
}

ORACLE_METHODS = {
    "repro.data.log.ClickLog.access_counts": (
        "exact per-row counts the profiler and the streaming counts are checked against"
    ),
    "repro.data.synthetic.SyntheticClickLog.bayes_accuracy": (
        "accuracy of the planted model: the bound that says generated labels are learnable"
    ),
    "repro.core.optimizer.StatisticalOptimizer.evaluate": (
        "one-cutoff evaluation the whole-grid sweep of converge() is checked against"
    ),
    "repro.nn.parameter.SparseGrad.coalesced": (
        "merged sparse rows that embedding backward records are compared with"
    ),
    "repro.obs.sampler.ResourceSampler.running": (
        "the sampling thread's liveness, which the no-leaked-thread tests observe"
    ),
}

#: Methods only their own tests read.  Each is due for deletion together
#: with the tests that check nothing else; deleting them all at once would
#: drop ~12 more tests in one change.
TEST_ONLY_METHODS = {
    "repro.core.access_profile.TableProfile.hot_access_share",
    "repro.core.access_profile.TableProfile.top_fraction_share",
    "repro.data.schema.EmbeddingTableSpec.rows_for_bytes",
    "repro.data.zipf.ZipfSampler.probability_of_id",
    "repro.dist.collectives.ProcessGroup.all_gather",
    "repro.dist.collectives.ProcessGroup.barrier",
    "repro.dist.collectives.ProcessGroup.broadcast",
    "repro.dist.collectives.ProcessGroup.reduce_scatter",
    "repro.hw.cluster.Cluster.with_gpus",
    "repro.models.zoo.ModelSpec.batch_size_for",
    "repro.nn.losses.BCEWithLogits.predictions",
    "repro.serve.replay.VirtualClock.advance",
    "repro.train.history.TrainingHistory.converged",
}


def _references(path: Path) -> set[tuple[str, str | None]]:
    """``(module, name)`` pairs a file imports or reads via a module alias."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    refs: set[tuple[str, str | None]] = set()
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                refs.add((alias.name, None))
                aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                refs.add((node.module, alias.name))
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
    return refs


def _exported_names(path: Path) -> set[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _entry_points() -> set[tuple[str, str]]:
    """``(module, "name.attr")`` for every ``"module:name.attr"`` tracer target."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    targets = set()
    for node in tree.body:
        target = node.target if isinstance(node, ast.AnnAssign) else None
        if isinstance(target, ast.Name) and target.id == "ENTRY_POINTS":
            for leaf in ast.walk(node.value):
                if isinstance(leaf, ast.Constant) and ":" in str(leaf.value):
                    module, _, attribute = leaf.value.partition(":")
                    targets.add((module, attribute))
    return targets


def _modules():
    """``(path, dotted module)`` for every non-package module under ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            yield path, ".".join(path.relative_to(SRC).with_suffix("").parts)


def _orphans() -> set[str]:
    callers = {
        path: _references(path)
        for directory in CALLER_DIRS
        for path in (ROOT / directory).rglob("*.py")
    }
    orphans = set()
    for path, module in _modules():
        package, _, leaf = module.rpartition(".")
        names = _exported_names(path)
        skip = (path, path.parent / "__init__.py")
        called = any(
            base == module
            or (base == package and name == leaf)
            or (name in names and module.startswith(base + "."))
            for file, refs in callers.items()
            if file not in skip
            for base, name in refs
        )
        if not called:
            orphans.add(module)
    return orphans


def test_every_module_has_a_caller():
    orphans = _orphans()
    unexpected = sorted(orphans - set(ALLOWED_ORPHANS))
    assert not unexpected, (
        f"modules nothing outside tests imports: {unexpected}; delete them, wire "
        f"them to a caller, or allowlist them here with the reason they stay"
    )
    stale = sorted(set(ALLOWED_ORPHANS) - orphans)
    assert not stale, f"allowlisted modules that gained a caller or are gone: {stale}"


def _orphan_names() -> set[str]:
    refs = set().union(
        *(
            _references(path)
            for directory in CALLER_DIRS
            for path in (ROOT / directory).rglob("*.py")
            if path.name != "__init__.py"
        )
    )
    entry_points = {(module, target.split(".")[0]) for module, target in _entry_points()}
    orphans = set()
    for path, module in _modules():
        if module in ALLOWED_ORPHANS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name in _exported_names(path):
            called = (
                name in used
                or (module, name) in entry_points
                or any(
                    ref == name and (base == module or module.startswith(base + "."))
                    for base, ref in refs
                )
            )
            if not called:
                orphans.add(f"{module}.{name}")
    return orphans


def test_every_exported_name_has_a_caller():
    orphans = sorted(_orphan_names())
    assert not orphans, (
        f"exported names nothing outside tests uses: {orphans}; delete them (and "
        f"their package re-exports), or wire them to a caller"
    )


def _orphan_methods() -> set[str]:
    reads = {
        node.attr
        for directory in CALLER_DIRS
        for path in (ROOT / directory).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    entry_points = _entry_points()
    orphans = set()
    for path, module in _modules():
        exported = _exported_names(path)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, ast.ClassDef) and node.name in exported):
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and item.name not in reads
                    and (module, f"{node.name}.{item.name}") not in entry_points
                ):
                    orphans.add(f"{module}.{node.name}.{item.name}")
    return orphans


def test_every_public_method_has_a_caller():
    orphans = _orphan_methods()
    allowed = set(ORACLE_METHODS) | TEST_ONLY_METHODS
    unexpected = sorted(orphans - allowed)
    assert not unexpected, (
        f"public methods or properties of exported classes that nothing outside "
        f"tests reads: {unexpected}; delete them (and the tests that check nothing "
        f"else), or allowlist a test's reference oracle with the reason it stays"
    )
    stale = sorted(allowed - orphans)
    assert not stale, f"allowlisted methods that gained a caller or are gone: {stale}"
