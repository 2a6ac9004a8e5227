"""Per-layer self time, measured from outside the program.

The program under test is not edited: :class:`LayerTracer` wraps the
public functions and methods of each layer module (listed in
:data:`LAYERS`) for the duration of a traced round and restores the
originals afterwards.  A wrapper records a span only while the
benchmark has an operation open (:meth:`LayerTracer.op`), only on the
thread that opened it and only in the benchmark's own process, so work
done on dispatcher threads or in forked pool workers stays inside the
span that waited for it (``exec`` for task bodies).

A layer's self time is its span's duration minus the duration of the
wrapped calls nested inside it.  Per operation, the self times of every
layer plus the time no wrapper covered (``unattributed``) sum to the
operation's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import threading
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

#: layer -> (module, attribute) targets.  ``"Class.method"`` is wrapped on
#: the class and on every subclass that overrides it; abstract methods are
#: never called and are skipped.  Layers are named after the modules.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "service": [
        ("repro.service.core", "SpatialQueryService.prepare"),
        ("repro.service.core", "SpatialQueryService.execute"),
        ("repro.service.core", "one_shot_join"),
        ("repro.service.cache", "ResultCache.get_or_compute"),
    ],
    "systems": [
        ("repro.systems.base", "SpatialJoinSystem.prepare_dataset"),
        ("repro.systems.base", "SpatialJoinSystem.join_prepared"),
        ("repro.systems.base", "SpatialJoinSystem.run"),
    ],
    "codec": [
        ("repro.data.loaders", name) for name in (
            "to_tsv_line", "from_tsv_line", "encode_dataset", "decode_lines",
            "encode_batch", "decode_lines_batch",
        )
    ] + [
        ("repro.geometry.wkt", name)
        for name in ("to_wkt", "from_wkt", "wkt_parts", "wkt_of_parts")
    ],
    "hdfs": [
        ("repro.hdfs.filesystem", f"SimulatedHDFS.{name}") for name in (
            "write_file", "write_batch_file", "write_blocks", "read_file",
            "read_all", "read_batch_file", "read_block", "export_files",
            "install_files", "copy_to_local", "copy_from_local",
        )
    ],
    "partitioning": [
        ("repro.core.partitioning", "Partitioner.partition"),
    ] + [
        ("repro.core.partitioning", f"SpatialPartitioning.{name}")
        for name in ("assign_multi", "assign_best", "assign_points")
    ],
    "index": [
        ("repro.index.strtree", name) for name in (
            "STRtree.__init__", "STRtree.query", "STRtree.query_many",
            "STRtree.count_query", "sync_tree_join",
        )
    ] + [
        ("repro.index.rtree", name) for name in (
            "RTree.insert", "RTree.insert_many", "RTree.query",
        )
    ] + [
        ("repro.index.quadtree", name) for name in (
            "QuadTree.insert", "QuadTree.insert_many", "QuadTree.query",
        )
    ] + [
        ("repro.index.grid", name) for name in (
            "GridIndex.insert", "GridIndex.insert_many", "GridIndex.query",
            "GridIndex.assign_points",
        )
    ],
    "globaljoin": [
        ("repro.core.globaljoin", name) for name in (
            "pair_partitions", "pair_partitions_nested",
            "pair_partitions_sweep", "pair_partitions_indexed",
        )
    ],
    "localjoin": [
        ("repro.core.localjoin", name) for name in (
            "local_join", "indexed_nested_loop_join", "plane_sweep_join",
            "sync_rtree_join",
        )
    ],
    "refine": [("repro.core.localjoin", "refine_candidates")] + [
        ("repro.geometry.engine", f"GeometryEngine.{name}") for name in (
            "points_in_polygon", "intersects", "point_polyline_distance",
            "within_distance", "points_within_distance",
            "points_in_polygons", "points_within_distances", "refine_pairs",
        )
    ],
    "mapreduce": [("repro.mapreduce.job", "MapReduceJob.run")],
    "spark": [("repro.spark.context", "SparkContext.run_stage_tasks")],
    "shuffle": [
        ("repro.shuffle.sfilter", "SFilter.__init__"),
        ("repro.shuffle.sfilter", "SFilter.contains"),
        ("repro.shuffle.repartition", "split_hot_cells"),
    ],
    "exec": [("repro.exec.backend", "ExecutorBackend.run_tasks")],
    "plan": [
        ("repro.plan.planner", "plan_query"),
        ("repro.plan.planner", "rank_plans"),
        # The service's planning step; its return value is the plan the
        # query runs under (rank_plans only returns the ranking).
        ("repro.service.core", "SpatialQueryService._resolve_plan"),
    ],
    "stats": [("repro.data.stats", "describe")],
    "costmodel": [("repro.cluster.costmodel", "CostModel.cost_clock")],
    "pairs": [("repro.pairs", "unique_pairs"), ("repro.pairs", "concat_pairs")],
}

LAYER_NAMES = tuple(LAYERS)


def _import_program() -> None:
    """Import every module of the program before anything is patched.

    A module imported while the wrappers are installed would bind a
    wrapper under its own name (``from x import f``) and keep it after
    :meth:`LayerTracer.uninstall`; importing everything first means every
    alias exists when the patch sites are collected.  Lazy package
    exports (PEP 562 ``__getattr__`` over ``_EXPORTS``) cache what they
    resolve in the package namespace, so they are resolved here too.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        # The linter is not part of the program; __main__ runs the CLI.
        if not (info.name.startswith("repro.analysis")
                or info.name.endswith(".__main__")):
            importlib.import_module(info.name)
    for name in sorted(sys.modules):
        module = sys.modules[name]
        if name == "repro" or name.startswith("repro."):
            for export in getattr(module, "_EXPORTS", ()):
                getattr(module, export)


def _class_targets(cls: type, name: str) -> list[tuple[type, str]]:
    """``cls`` and every subclass that defines *name* itself."""
    out, todo, seen = [], [cls], set()
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        if name in vars(klass):
            fn = vars(klass)[name]
            if not getattr(fn, "__isabstractmethod__", False):
                out.append((klass, name))
        todo.extend(klass.__subclasses__())
    return sorted(out, key=lambda t: (t[0].__module__, t[0].__qualname__))


class LayerTracer:
    """Installs layer wrappers and accumulates per-system self time.

    Totals live in :attr:`self_s` (``(system, layer) -> seconds``),
    :attr:`unattributed_s` and :attr:`wall_s` (``system -> seconds``) and
    :attr:`ops` (``system -> operations``); :attr:`plans` counts the plan
    descriptions each system's queries ran under.
    """

    def __init__(self):
        _import_program()
        self.self_s: dict = defaultdict(float)
        self.unattributed_s: dict = defaultdict(float)
        self.wall_s: dict = defaultdict(float)
        self.ops: Counter = Counter()
        self.plans: dict = defaultdict(Counter)
        self._stack: list | None = None
        self._system = None
        self._tid = threading.get_ident()
        self._pid = os.getpid()
        #: (container, key, original, wrapper); container is a module,
        #: a class or a module-level dict.
        self._sites: list[tuple[object, object, object, object]] = []
        self._installed = False
        self._collect_sites()

    # --------------------------------------------------------- patching
    def _collect_sites(self) -> None:
        #: module-level function -> its wrapper (functions hash by identity)
        wrappers: dict = {}
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, name = attr.split(".")
                    for klass, key in _class_targets(getattr(module, cls_name), name):
                        fn = vars(klass)[key]
                        self._sites.append((klass, key, fn, self._wrap(layer, fn)))
                else:
                    fn = getattr(module, attr)
                    wrappers.setdefault(fn, self._wrap(layer, fn))
        # Every alias of a wrapped function in the program's namespaces:
        # its defining module, ``from x import f`` copies and module-level
        # dispatch tables such as ``LOCAL_JOIN_ALGORITHMS``.
        for mod_name in sorted(sys.modules):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            module = sys.modules[mod_name]
            for key, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._sites.append((module, key, value, wrappers[value]))
                elif type(value) is dict:
                    for k, v in value.items():
                        if isinstance(v, types.FunctionType) and v in wrappers:
                            self._sites.append((value, k, v, wrappers[v]))

    def _wrap(self, layer: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # Calling a generator function does no work; each resumption
            # does, so each resumption is one span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return tracer._iterate(layer, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Swap every wrapper in (idempotent)."""
        if self._installed:
            return
        for container, key, _original, wrapped in self._sites:
            _put(container, key, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        """Restore every original object (idempotent)."""
        if not self._installed:
            return
        for container, key, original, _wrapped in reversed(self._sites):
            _put(container, key, original)
        self._installed = False

    def sites(self) -> list[tuple[object, object, object]]:
        """``(container, key, original)`` of every patched location."""
        return [(c, k, o) for c, k, o, _w in self._sites]

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -------------------------------------------------------- recording
    def _recording(self) -> bool:
        return (
            self._stack is not None
            and threading.get_ident() == self._tid
            and os.getpid() == self._pid
        )

    def _close(self, layer: str, frame: list, start: float) -> None:
        duration = time.perf_counter() - start
        stack = self._stack
        stack.pop()
        self.self_s[(self._system, layer)] += duration - frame[0]
        stack[-1][0] += duration

    def _call(self, layer, fn, args, kwargs):
        if not self._recording():
            return fn(*args, **kwargs)
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(layer, frame, start)
        if layer == "plan" and hasattr(result, "fingerprint"):
            self.plans[self._system][result.describe()] += 1
        return result

    def _iterate(self, layer, gen):
        while True:
            if not self._recording():
                try:
                    item = next(gen)
                except StopIteration:
                    return
            else:
                frame = [0.0]
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(layer, frame, start)
            yield item

    @contextmanager
    def op(self, system: str):
        """Attribute the wrapped calls made inside to *system*.

        Yields a one-item list that receives the operation's wall
        seconds when the block exits.
        """
        if self._stack is not None:
            raise RuntimeError("operations do not nest")
        root = [0.0]
        out = [0.0]
        self._stack = [root]
        self._system = system
        start = time.perf_counter()
        try:
            yield out
        finally:
            wall = time.perf_counter() - start
            self._stack = None
            self._system = None
            self.unattributed_s[system] += wall - root[0]
            self.wall_s[system] += wall
            self.ops[system] += 1
            out[0] = wall


def _put(container, key, value) -> None:
    if type(container) is dict:
        container[key] = value
    else:
        setattr(container, key, value)
