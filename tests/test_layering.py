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

The same walk takes a **thread census**: every place ``src/repro``
constructs a thread, a thread pool, a process pool or anything from
``multiprocessing`` is on a list that says what runs in parallel there.
A ``QueryService`` is one lane (DESIGN.md "Taking turns"); a pool that
comes back has to say here what it buys.

And a **walk census**: Algorithm 4 is one loop
(``BestFirstProcessor._walk``) with three collectors on it (DESIGN.md
"One walk, two cell models, three collectors"), so the two methods that
create candidates are called from that loop and nowhere else, no engine
overrides a search, and the temporal tier reaches an index's walk only
through the index's own query methods.

And an **engine census**: every query runs on the vector cell model; an
engine name (``"tuple"`` names the scalar reference) resolves in one
place, ``I3Index.engine_processor``, and only the index's query methods
and the simulation harness's differential pass one.

And a **lattice census**: Section 5.3's OR bound is one stdlib-only
lattice, ``core/or_semantics.witness_max``, behind one ``OrBound``;
each engine's OR cell model says only how a fetched keyword's documents
are held.

And a **cache-read census**: ``QueryService`` reads its result cache in
one place, admission on the caller's thread; the lane only writes it.

And a **cache census**: the data file keeps one cache, the decoded
cells; pages sit in one page store with no pool in front of it.

And a **weight census**: a term weight is quantised to f32 once, when
its ``SpatialDocument`` is made (S2I's public per-tuple API keeps its
own rounding), and a whole document is the only unit an ``I3Index``
write takes, so its mutation events are document events.

And a **log census**: the write-ahead log is one module
(``storage/wal.py`` alone frames records), its two users are the
durable targets (``DurableIndex`` and the temporal slice), every record
they append carries the document record (``wal_body``), and no code
turns bytes into a document by itself: ``document_from_record`` is the
one decoder.

And a **layout census**: the 32-byte slot is described once, in
``storage/records.py`` (``exec/columns.RECORD_DTYPE`` restates it for
numpy and asserts its itemsize), and ``core`` decodes a data page with
the codec's page decoder, never one ``TupleCodec.decode`` per slot.
"""

import ast
import inspect
import pathlib
import re
import struct

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


# (file under src/repro, what it constructs) -> (how many sites, why).
THREAD_CENSUS = {
    ("service/service.py", "Thread"): (
        1, "the lane: the one thread that executes a QueryService's queue",
    ),
    ("net/server.py", "Thread"): (
        2, "the accept loop, and one per connection blocked in recv "
        "(capped by max_connections); neither traverses an index",
    ),
}
_CONSTRUCTORS = ("Thread", "Timer")


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


def concurrency_sites(source: str):
    """What a source text constructs that runs beside its caller: calls
    of ``Thread``/``Timer``/``*PoolExecutor`` (bare or through a
    module), and any call into ``multiprocessing``."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        callee = ast.unparse(node.func)
        name = callee.rpartition(".")[2]
        if callee.startswith("multiprocessing."):
            yield callee
        elif name in _CONSTRUCTORS or name.endswith("PoolExecutor"):
            yield name


def test_every_thread_and_pool_says_what_runs_on_it():
    source = (
        "import threading as t\n"
        "def f():\n"
        "    t.Thread(target=g).start()\n"
        "    pool = futures.InterpreterPoolExecutor(max_workers=4)\n"
        "    multiprocessing.Pool(2)\n"
    )
    assert sorted(concurrency_sites(source)) == [
        "InterpreterPoolExecutor", "Thread", "multiprocessing.Pool",
    ]
    found = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        for what in concurrency_sites(path.read_text()):
            key = (path.relative_to(PACKAGE_ROOT).as_posix(), what)
            found[key] = found.get(key, 0) + 1
    listed = {key: count for key, (count, _why) in THREAD_CENSUS.items()}
    assert found == listed, (
        "src/repro constructs a thread or pool the census does not list "
        "(or no longer constructs one it lists): add the site to "
        "THREAD_CENSUS with what runs in parallel on it"
    )
    assert all(why for _count, why in THREAD_CENSUS.values())


def test_the_walker_sees_lazy_and_relative_imports():
    source = "def f():\n    from ..simtest import clock\n    from . import sim\n"
    assert set(imports_in(source, ("repro", "net"))) == {
        "repro.simtest", "repro.simtest.clock", "repro.net", "repro.net.sim",
    }
    found = set(edges("net", "cluster"))
    # TYPE_CHECKING-guarded, in net/sim.py:
    assert ("repro.net.sim", "repro.simtest.clock") in found
    # Function-local, in ClusterService.streams:
    assert ("repro.cluster.service", "repro.streaming.service") in found


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


def _calls_of(tree: ast.AST, method: str) -> int:
    """How many ``x.<method>(...)`` calls a syntax tree contains."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        for node in ast.walk(tree)
    )


def test_one_walk_and_nothing_beside_it():
    trees = {
        path.relative_to(PACKAGE_ROOT).as_posix(): ast.parse(path.read_text())
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
    }
    (loop,) = (
        node
        for node in ast.walk(trees["core/query.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "_walk"
    )
    for method in ("_root_candidate", "_children_of"):
        sites = {name: _calls_of(tree, method) for name, tree in trees.items()}
        assert {n: c for n, c in sites.items() if c} == {"core/query.py": 1}, method
        assert _calls_of(loop, method) == 1, f"{method} is called outside the loop"
    classes = {}  # class name -> (base names, methods it defines)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {ast.unparse(b).rpartition(".")[2] for b in node.bases}
                methods = {
                    n.name for n in node.body if isinstance(n, ast.FunctionDef)
                }
                classes[node.name] = (bases, methods)
    walk = classes["BestFirstProcessor"][1]
    assert {"_walk", "search", "iter_search", "range_search"} <= walk

    def is_processor(name: str) -> bool:
        bases = classes.get(name, (set(), set()))[0]
        return "BestFirstProcessor" in bases or any(map(is_processor, bases))

    for name, (_bases, methods) in classes.items():
        if name == "BestFirstProcessor":
            continue
        # ``search`` is also the verb of services, clients and baselines;
        # what must not exist is an *engine* with a walk of its own.
        banned = {"iter_search", "range_search"}
        if is_processor(name):
            banned |= {"search", "_walk"}
        assert not banned & methods, (name, sorted(banned & methods))
    assert classes["I3QueryProcessor"][1] == {"__init__", "cells_for"}
    for name, tree in trees.items():
        if name.startswith("temporal/"):
            named = {
                getattr(node, "attr", getattr(node, "id", None))
                for node in ast.walk(tree)
            }
            assert "_processor" not in named, name


# file under src/repro -> why it may pass ``engine=`` or name an engine
ENGINE_NAMERS = {
    "core/index.py": "the one resolution point and the query methods "
    "that take a name",
    "simtest/harness.py": "the exec-equivalence differential against "
    "the tuple reference",
}


_ENGINE_SEAM = {"resolve_engine", "available_engines", "default_engine", "HAS_NUMPY"}


def _engine_uses(tree: ast.AST):
    """What a syntax tree does with engine names: ``"name"`` (passes
    ``engine=``, resolves a name, or takes an ``engine`` parameter),
    ``"pin"`` (an ``.engine`` attribute) or ``"seam"`` (a deleted
    resolver)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
            any(k.arg == "engine" for k in node.keywords)
            or (ast.unparse(node.func).endswith("engine_processor") and node.args)
        ):
            yield "name"
        elif isinstance(node, ast.FunctionDef) and any(
            a.arg == "engine" for a in node.args.args + node.args.kwonlyargs
        ):
            yield "name"
        elif isinstance(node, ast.Attribute) and node.attr == "engine":
            yield "pin"
        if {getattr(node, f, None) for f in ("id", "attr", "name")} & _ENGINE_SEAM:
            yield "seam"


def test_engine_names_resolve_at_the_index():
    found = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        uses = set(_engine_uses(ast.parse(path.read_text())))
        if uses:
            found[path.relative_to(PACKAGE_ROOT).as_posix()] = uses
    assert found == {name: {"name"} for name in ENGINE_NAMERS}, found
    assert all(ENGINE_NAMERS.values())


_STRUCT_CALLS = {"Struct", "pack", "pack_into", "unpack", "unpack_from", "iter_unpack", "calcsize"}


def _struct_size(fmt: str):
    try:
        return struct.calcsize(fmt)
    except struct.error:  # a ``pack`` of something that is not struct
        return None


def test_the_slot_layout_is_written_once():
    from repro.storage.records import TUPLE_SIZE

    slot_formats = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        name = path.relative_to(PACKAGE_ROOT).as_posix()
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            fmt = node.args[0]
            if (
                ast.unparse(node.func).rpartition(".")[2] in _STRUCT_CALLS
                and isinstance(fmt, ast.Constant)
                and isinstance(fmt.value, str)
                and _struct_size(fmt.value) == TUPLE_SIZE
            ):
                slot_formats.setdefault(name, []).append(fmt.value)
        if name.startswith("core/"):
            decodes = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and ast.unparse(node) in ("TupleCodec.decode", "TupleCodec.is_empty")
            ]
            assert not decodes, f"{name}:{decodes} decodes a page slot by slot"
    assert slot_formats == {"storage/records.py": ["<QddfI"]}


_LATTICE_NAME = re.compile(r"apriori|lattice|witness|subset|powerset", re.I)
_HOLDER_CALLS = ("sig_bits", "id_set")  # what the lattice asks a holder


def _is_lattice(func: ast.AST) -> bool:
    """Whether a function is (or holds) a Section 5.3 lattice: it says
    so in its name, or it asks fetched holders for signature bits or id
    sets, which only a lattice needs."""
    if _LATTICE_NAME.search(func.name):
        return True
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _HOLDER_CALLS
        for node in ast.walk(func)
    )


def test_the_or_lattice_is_written_once():
    lattices = []
    classes = {}  # class name -> methods it defines
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        name = path.relative_to(PACKAGE_ROOT).as_posix()
        tree = ast.parse(path.read_text())
        # Module-level functions and methods; nested helpers count as
        # part of the function that holds them.
        outer = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
                classes[node.name] = {m.name for m in methods}
                outer += methods
        lattices += [f"{name}::{f.name}" for f in outer if _is_lattice(f)]
        if name.startswith("core/"):
            imported = {n for _m, n in imports_of(path)}
            uses = {
                ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            }
            assert "itertools.combinations" not in imported | uses, name
    assert lattices == ["core/or_semantics.py::witness_max"]
    numpy = [n for _m, n in imports_of(PACKAGE_ROOT / "core/or_semantics.py")
             if _within(n, "numpy")]
    assert not numpy
    assert {"prune", "upper_bound", "textual_bound"} <= classes["OrBound"]
    for model in ("ColumnOr", "OrSemantics"):
        assert not {"prune", "upper_bound", "textual_bound"} & classes[model], model


def _spells(tree: ast.AST, value: str) -> bool:
    """Whether the module holds the string constant ``value`` (a
    docstring never is a bare key like ``"terms"``)."""
    return any(
        isinstance(n, ast.Constant) and n.value == value for n in ast.walk(tree)
    )


def test_each_record_is_decoded_once():
    """One codec per record.  The document record's ``"terms"`` key is
    spelled only in its codec's module; only ``read_frame`` unpacks a
    frame header, for sockets and the simulated transport alike; and
    the simulation builds no query itself, it decodes trace queries
    with the wire's ``query_from_args``."""
    terms, frame_formats, unpacks, built, classes = set(), set(), [], [], set()
    query_types = ("TopKQuery", "TemporalQuery", "TimeRange", "RecencySpec")
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        name = path.relative_to(PACKAGE_ROOT).as_posix()
        tree = ast.parse(path.read_text())
        if _spells(tree, "terms"):
            terms.add(name)
        if _spells(tree, "!I"):
            frame_formats.add(name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
            if name.startswith("net/") and isinstance(node, ast.FunctionDef):
                unpacks += [
                    f"{name}::{node.name}" for n in ast.walk(node)
                    if isinstance(n, ast.Call)
                    and ast.unparse(n.func).startswith("_HEADER.unpack")
                ]
            if (
                name.startswith("simtest/")
                and isinstance(node, ast.Call)
                and ast.unparse(node.func).rpartition(".")[2] in query_types
            ):
                built.append(f"{name}:{node.lineno}")
    assert terms == {"model/document.py"}
    assert frame_formats == {"net/protocol.py"}
    assert unpacks == ["net/protocol.py::read_frame"]
    assert "FrameAssembler" not in classes
    assert not built, built


def _cache_calls(func: ast.AST, methods: tuple) -> int:
    """How many ``cache.<method>(...)`` / ``self.cache.<method>(...)``
    calls a function makes."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods
        and ast.unparse(node.func.value).rpartition(".")[2] == "cache"
        for node in ast.walk(func)
    )


def test_the_result_cache_is_read_once_at_admission():
    functions = {}  # "Class.method" or "function" -> node
    for path in sorted((PACKAGE_ROOT / "service").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        functions[f"{node.name}.{method.name}"] = method
    readers = [
        name for name, func in functions.items()
        if _cache_calls(func, ("get", "get_or_compute"))
    ]
    assert readers == ["QueryService._lookup"]
    assert _cache_calls(functions["QueryService._answer"], ("put",)) == 1


def test_the_data_file_keeps_one_cache():
    """The paper counts cold page I/O, and DESIGN.md keeps one thing warm
    between queries: the decoded cells.  No page pool, no knob that
    builds one, and a fresh index's slotted file reads its page file
    directly."""
    from repro.core.index import I3Index
    from repro.spatial.geometry import UNIT_SQUARE

    assert not (PACKAGE_ROOT / "storage" / "buffer.py").exists()
    takers = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(a.arg == "buffer_pages" for a in params):
                    takers.append(
                        f"{path.relative_to(PACKAGE_ROOT)}::{node.name}"
                    )
    assert not takers, takers
    index = I3Index(UNIT_SQUARE)
    assert index.data.slotted.store is index.data.file


def _strings(nodes):
    return {
        c.value for n in nodes for c in ast.walk(n)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    }


def test_a_weight_is_quantised_once_and_a_document_is_the_write_unit():
    from repro.core.index import I3Index

    calls, defs, kinds = set(), set(), set()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        name = path.relative_to(PACKAGE_ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "f32":
                defs.add(name)
            elif isinstance(node, ast.Call):
                callee = ast.unparse(node.func).rpartition(".")[2]
                if callee == "f32":
                    calls.add(name)
                elif callee in ("MutationEvent", "_emit"):
                    # ``MutationEvent("insert", ...)``, ``_emit(kind="insert", ...)``
                    kinds |= _strings(node.args[:1])
                    kinds |= _strings(k.value for k in node.keywords if k.arg == "kind")
            elif isinstance(node, ast.Compare) and ast.unparse(node.left) == "event.kind":
                kinds |= _strings(node.comparators)
    assert defs == {"storage/records.py"}
    assert calls == {"model/document.py", "baselines/s2i.py"}, calls
    assert not {"insert_tuple", "delete_tuple"} & set(vars(I3Index))
    assert kinds == {"insert", "delete", "bulk_load"}, kinds


_DECODING_CALLS = {"unpack", "unpack_from", "iter_unpack", "loads", "frombuffer"}


def test_one_write_ahead_log_carries_the_one_document_record():
    gone = {"encode" + "_document", "decode" + "_document"}  # the binary codec
    repo = PACKAGE_ROOT.parent.parent
    spelled, framers, users, appends, decoders = [], set(), set(), [], []
    for path in sorted(repo.glob("*/**/*.py")):
        if path.parts[len(repo.parts)] not in ("src", "tests", "benchmarks", "examples"):
            continue
        tree = ast.parse(path.read_text())
        name = path.relative_to(repo).as_posix()
        spelled += [
            f"{name}:{n.lineno}" for n in ast.walk(tree)
            if (isinstance(n, ast.Name) and n.id in gone)
            or (isinstance(n, ast.Attribute) and n.attr in gone)
            or (isinstance(n, ast.FunctionDef) and n.name in gone)
            or (isinstance(n, ast.alias) and n.name in gone)
        ]
        if not name.startswith("src/"):
            continue
        module = path.relative_to(PACKAGE_ROOT).as_posix()
        if _spells(tree, "<II") or _spells(tree, "<BQ"):  # frame, record prefix
            framers.add(module)
        if any(isinstance(n, ast.Name) and n.id == "WriteAheadLog" for n in ast.walk(tree)):
            users.add(module)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if (  # ``self._wal.append(...)``, ``s.log.append(...)``
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and ast.unparse(node.func.value).endswith(("_wal", ".log"))
            ):
                body = node.args[1] if len(node.args) > 1 else None
                appends.append(
                    f"{module}:{node.lineno}"
                    + ("" if isinstance(body, ast.Call)
                       and ast.unparse(body.func) == "wal_body" else " (no wal_body)")
                )
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                calls = {
                    ast.unparse(n.func).rpartition(".")[2]
                    for n in ast.walk(func) if isinstance(n, ast.Call)
                }
                if "SpatialDocument" in calls and calls & _DECODING_CALLS:
                    decoders.append(f"{module}::{func.name}")
    for doc in [repo / "README.md", repo / "DESIGN.md", *sorted((repo / "docs").glob("*.md"))]:
        spelled += [doc.name for word in gone if word in doc.read_text()]
    assert not spelled, spelled
    assert framers == {"storage/wal.py"}, framers
    assert users == {"core/recovery.py", "temporal/index.py"}, users
    # DurableIndex's insert, delete and update, and the slice's _log.
    assert len(appends) == 4, appends
    assert not [a for a in appends if a.endswith("(no wal_body)")], appends
    assert not decoders, decoders
    from repro.core.recovery import wal_documents

    called = {
        ast.unparse(n.func)
        for n in ast.walk(ast.parse(inspect.getsource(wal_documents)))
        if isinstance(n, ast.Call)
    }
    assert "document_from_record" in called
