"""The import layering ROADMAP item 3 states in prose, pinned.

The serving stack (``core`` … ``net``) is what ships; the baselines,
the paper-figure harness, the extensions and the simulation harness sit
*beside* it and may import it, never the other way round.  And
``repro.temporal`` sits below the service, cluster and wire tiers
(``service`` imports ``temporal``), so a temporal cluster is assembled
by its caller out of ``ClusterService`` — not by ``repro.temporal``
reaching up for it.

Every ``import`` statement is read with :mod:`ast` — module level,
function-local and ``TYPE_CHECKING`` alike — so a deleted module cannot
be papered over with a lazy back-import.
"""

import ast
import pathlib

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).resolve().parent

SERVING = (
    "core", "exec", "storage", "service", "cluster", "temporal",
    "streaming", "planner", "net",
)
BESIDE = ("repro.baselines", "repro.bench", "repro.extensions", "repro.simtest")
# (importing module, imported package): the simulated transport is the
# one serving-stack module that exists *for* the simulation harness.
ALLOWED = {("repro.net.sim", "repro.simtest")}
ABOVE_TEMPORAL = ("repro.cluster", "repro.service", "repro.net")


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def imports_in(source: str, package: tuple):
    """Every name a source text imports, relative imports resolved
    against ``package`` (the dotted package the text lives in)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ((base,) if base else ()))
            yield base
            for alias in node.names:  # ``from repro import simtest``
                yield f"{base}.{alias.name}"


def imports_of(path: pathlib.Path):
    """``(module, imported name)`` for every import in one source file."""
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = package = parts[:-1]
    else:
        package = parts[:-1]
    for name in imports_in(path.read_text(), package):
        yield ".".join(parts), name


def edges(*subpackages: str):
    for sub in subpackages:
        for path in sorted((PACKAGE_ROOT / sub).rglob("*.py")):
            yield from imports_of(path)


def test_the_walker_sees_lazy_and_relative_imports():
    source = "def f():\n    from ..simtest import clock\n    from . import sim\n"
    assert set(imports_in(source, ("repro", "net"))) == {
        "repro.simtest", "repro.simtest.clock", "repro.net", "repro.net.sim",
    }
    found = set(edges("net", "cluster"))
    # TYPE_CHECKING-guarded, in net/sim.py:
    assert ("repro.net.sim", "repro.simtest.clock") in found
    # Function-local, in ClusterService.stream_router:
    assert ("repro.cluster.service", "repro.streaming.cluster") in found


def test_the_serving_stack_imports_nothing_that_sits_beside_it():
    offenders = sorted(
        (module, name)
        for module, name in edges(*SERVING)
        for package in BESIDE
        if _within(name, package) and (module, package) not in ALLOWED
    )
    assert not offenders, offenders


def test_temporal_sits_below_service_cluster_and_net():
    offenders = sorted(
        (module, name)
        for module, name in edges("temporal")
        if any(_within(name, package) for package in ABOVE_TEMPORAL)
    )
    assert not offenders, offenders
