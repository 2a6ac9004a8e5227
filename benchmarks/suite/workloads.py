"""The benchmark's four workloads and the metrics they report.

Every workload is closed-loop with one client and no think time, and
every workload runs all three systems: one round issues the same
operation to each system, rotating which system goes first.  A
:class:`Run` is one process's share of a benchmark run: it sets the
workload up once, then runs rounds until ``seconds`` of wall time have
passed.  Every answer is checked against :mod:`oracle`.

With ``trace`` on, rounds alternate between untraced and traced; the
traced ones run with :class:`layers.LayerTracer` installed and give the
per-layer numbers, and the two halves' join latencies give the tracing
overhead.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

import numpy as np

from repro import spatial_join
from repro.data import (
    DOMAIN_NYC,
    census_blocks,
    hotspot_points,
    linear_water,
    taxi_points,
    tiger_edges,
)
from repro.geometry.mbr import MBR
from repro.service import SpatialQueryService

from . import oracle
from .layers import LayerTracer

SYSTEMS = ("HadoopGIS", "SpatialHadoop", "SpatialSpark")
KEY = {"HadoopGIS": "hadoopgis", "SpatialHadoop": "spatialhadoop",
       "SpatialSpark": "spatialspark"}
BLOCK_SIZE = 1 << 15

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (
    [("setup_s", "s")]
    + [(f"{KEY[s]}_join_ms", "ms") for s in SYSTEMS]
    + [("latency_gmean_ms", "ms"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]
)

#: Layers whose self time is reported per system: those the system
#: enters on every workload.  The others are printed in the trace table
#: but are not metrics, because on some workload their time reads 0:
#: HadoopGIS indexes and joins inside the pool workers when serving,
#: SpatialHadoop's warm join reads prepared blocks, only the serving
#: workload shuffles, and ``stats`` is memoized per prepared dataset.
TRACED_LAYERS = {
    "HadoopGIS": ("service", "systems", "codec", "hdfs", "partitioning",
                  "refine", "mapreduce", "exec", "plan", "costmodel"),
    "SpatialHadoop": ("service", "systems", "hdfs", "globaljoin", "refine",
                      "mapreduce", "exec", "plan", "costmodel", "pairs"),
    "SpatialSpark": ("service", "systems", "codec", "hdfs", "index", "refine",
                     "spark", "exec", "plan", "costmodel"),
}

#: Counts per executed join from the program's counter ledger.
LEDGER = ("codec.parse_bytes", "codec.serialize_bytes", "hdfs.bytes_read",
          "hdfs.bytes_written", "index.node_visits", "localjoin.candidates",
          "refine.useful_ratio", "shuffle.bytes", "shuffle.records_pruned",
          "exec.tasks")
#: Counts a system charges on no workload: SpatialHadoop's map-side join
#: probes no index; SpatialSpark writes nothing and, under the broadcast
#: plans its planner picks here, shuffles nothing.
LEDGER_UNUSED = {
    "HadoopGIS": (),
    "SpatialHadoop": ("index.node_visits",),
    "SpatialSpark": ("codec.serialize_bytes", "hdfs.bytes_written",
                     "shuffle.bytes", "shuffle.records_pruned"),
}


def ledger_keys(system: str) -> tuple:
    return tuple(k for k in LEDGER if k not in LEDGER_UNUSED[system])


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, printed with ``--trace 1``."""
    out = []
    for system in SYSTEMS:
        key = KEY[system]
        out += [(f"{key}.{layer}.self_ms", "ms") for layer in TRACED_LAYERS[system]]
        out.append((f"{key}.unattributed_ms", "ms"))
        # Simulated cluster seconds, never mixed with measured ones.
        out.append((f"{key}.costmodel.model_s", "sim_s"))
        out += [(f"{key}.{name}", "ratio" if name.endswith("ratio") else
                 "count") for name in ledger_keys(system)]
    out += [("service.cache.hit_ratio", "ratio"), ("trace_overhead", "ratio")]
    return out


def rotated(seq, k: int) -> tuple:
    k %= len(seq)
    return tuple(seq[k:]) + tuple(seq[:k])


def ledger(report) -> dict:
    """The :data:`LEDGER` counts of one executed join."""
    c = report.counters
    # The filter's candidates, counted where refine tests them (broadcast
    # plans probe an index without charging join.candidates): one
    # point-in-polygon test or one pairwise MBR test per candidate.
    candidates = c.get("geom.pip_tests", 0.0) + c.get("geom.mbr_tests", 0.0)
    return {
        "codec.parse_bytes": c.get("parse.bytes", 0.0),
        "codec.serialize_bytes": c.get("serialize.bytes", 0.0),
        "hdfs.bytes_read": c.get("hdfs.bytes_read", 0.0),
        "hdfs.bytes_written": c.get("hdfs.bytes_written", 0.0),
        "index.node_visits": c.get("index.node_visits", 0.0),
        "localjoin.candidates": candidates,
        "refine.useful_ratio": len(report.pairs) / max(candidates, 1.0),
        "shuffle.bytes": c.get("shuffle.bytes_disk", 0.0) + c.get("shuffle.bytes_mem", 0.0),
        "shuffle.records_pruned": c.get("shuffle.records_pruned", 0.0),
        "exec.tasks": float(report.engine_profile["exec"]["tasks"]),
    }


class Run:
    """One process's share of a run: timed samples, checks, trace totals.

    *part* numbers the process within the run; rounds start their
    system rotation there, so the processes of a run lead with every
    system in turn.
    """

    def __init__(self, *, seed: int, seconds: float, scale: float,
                 trace: bool, part: int = 0):
        self.seed = seed
        self.part = part
        self.seconds = seconds
        self.scale = scale
        self.trace = trace
        self.tracer = LayerTracer() if trace else None
        #: (system, kind, traced) -> op wall seconds; kind is "join"
        #: (executed), "hit", "range_hot", "range_wide" or "prepare".
        self.samples: dict = defaultdict(list)
        self.model_s: dict = defaultdict(list)
        self.ledgers: dict = defaultdict(list)
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        #: summed wall seconds of the timed loop's operations.
        self.busy_s = 0.0
        self.loop_ops = 0

    def size(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def scoped(self, traced: bool):
        """Wrappers installed for a traced round, nothing otherwise."""
        return self.tracer.installed() if traced else nullcontext()

    # --------------------------------------------------------- operations
    def op(self, system, kind, fn, check, *, traced=False, timed_loop=True):
        """Run one operation, check its answer, record its latency.

        *kind* may be a callable of the result (joins served from the
        cache are ``"hit"``).  Returns the result, or None when the
        operation raised.
        """
        self.attempted += 1
        try:
            if traced:
                with self.tracer.op(system) as wall:
                    result = fn()
                seconds = wall[0]
            else:
                start = time.perf_counter()
                result = fn()
                seconds = time.perf_counter() - start
        except Exception as err:  # a failed op is counted, the run goes on
            self.failed += 1
            print(f"FAILED {system} {kind}: {err!r}", file=sys.stderr)
            return None
        ok = check(result)
        if callable(kind):
            kind = kind(result)
        if timed_loop:
            self.samples[(system, kind, traced)].append(seconds)
            self.busy_s += seconds
            self.loop_ops += 1
        if not ok:
            self.failed += 1
            print(f"WRONG ANSWER {system} {kind}", file=sys.stderr)
        return result

    def join(self, system, fn, expected, *, traced=False, timed_loop=True):
        """A join: checked pairs, plus model seconds and ledger if executed."""

        def check(report):
            return report.status == "ok" and report.pairs == expected

        def kind(report):
            return "hit" if report.cache_hit else "join"

        report = self.op(system, kind, fn, check, traced=traced,
                         timed_loop=timed_loop)
        if report is not None and report.ok and not report.cache_hit and timed_loop:
            self.model_s[system].append(report.breakdown_seconds()["TOT"])
            self.ledgers[system].append(ledger(report))
        return report

    # ------------------------------------------------------------- phases
    def set_up(self, workload) -> object:
        """Set *workload* up, timing it.

        The set-up's joins are checked inside the timing; comparing two
        pair sets costs well under a millisecond.
        """
        start = time.perf_counter()
        state = workload.setup(self.part)
        self.setup_s.append(time.perf_counter() - start)
        return state

    def loop(self, workload, state) -> None:
        """The timed loop: rounds until ``seconds`` have passed.

        At least one round runs, two with tracing (one untraced, one
        traced), so every metric has a sample unless all of its
        operations failed; such a metric reads NaN, and the failures mark
        the run incorrect.  With tracing, odd rounds run traced.  The
        collector runs between rounds, so its pauses rarely land inside a
        timed operation.
        """
        start = time.perf_counter()
        min_rounds = 2 if self.trace else 1
        index = 0
        while index < min_rounds or time.perf_counter() - start < self.seconds:
            traced = self.trace and index % 2 == 1
            gc.collect()
            with self.scoped(traced):
                workload.round(state, self.part + 1 + index, traced=traced)
            index += 1


# ------------------------------------------------------------------ workloads
class Workload:
    """Interface: inputs and oracle, one set-up, one round of the loop."""

    name = ""
    why = ""
    #: Operation kinds, per system, whose median latencies make up
    #: ``latency_gmean_ms``.
    latency_kinds = ("join",)

    def __init__(self, run: Run):
        self.run = run

    def setup(self, index: int):
        """Build what the timed loop needs; return it as the loop's state.

        *index* rotates which system is set up first."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what :meth:`setup` built."""

    def round(self, state, index: int, *, traced: bool) -> None:
        """Issue round *index*'s operations to every system."""
        raise NotImplementedError


class _OneShot(Workload):
    """``spatial_join`` per system per round: the full pipeline per call."""

    def __init__(self, run: Run):
        super().__init__(run)
        self.left, self.right = self.inputs()
        self.expected = oracle.join_pairs(self.left, self.right)

    def inputs(self):
        raise NotImplementedError

    def round(self, state, index, *, traced=False, timed_loop=True) -> None:
        for system in rotated(SYSTEMS, index):
            self.run.join(
                system,
                lambda s=system: spatial_join(
                    self.left, self.right, system=s, block_size=BLOCK_SIZE
                ),
                self.expected, traced=traced, timed_loop=timed_loop,
            )

    def setup(self, index: int):
        # One full-size warm-up join per system: the first call pays the
        # program's lazy imports and first-touch costs.
        self.round(None, index, timed_loop=False)


#: The census-block tessellation is a fixed map; ``--seed`` draws the
#: points.  Blocks drawn per seed put the taxi hotspots over blocks with
#: different vertex counts, and the refine work (vertices tested) swung
#: by 30% between seeds.
CENSUS_SEED = 1


class OneShotPointsPolygons(_OneShot):
    name = "oneshot_points_polygons"
    why = ("taxi points x census blocks through spatial_join: every call "
           "pays ingest, partitioning, indexing, planning and the join")

    def inputs(self):
        return (taxi_points(self.run.size(5_000), seed=self.run.seed),
                census_blocks(self.run.size(500), seed=CENSUS_SEED))


#: A 2x2 degree window of the TIGER-like generators: dense enough that a
#: few dozen edge/water pairs intersect, few enough that refine is cheap.
POLYLINE_DOMAIN = MBR(-75.0, 40.0, -73.0, 42.0)


class OneShotPolylines(_OneShot):
    name = "oneshot_polylines"
    why = ("TIGER edges x linear water through spatial_join: long shapes "
           "make the WKT codec and index dominate and leave refine a few percent")

    def inputs(self):
        seed = self.run.seed
        n = self.run.size(1_500)
        return (tiger_edges(n, seed=2 * seed, domain=POLYLINE_DOMAIN),
                linear_water(n, seed=2 * seed + 1, domain=POLYLINE_DOMAIN))


#: SpatialHadoop bakes its partitioning into the prepared blocks, so the
#: service cannot re-plan it per query; pin the grid the one-shot planner
#: picks on these inputs.  (Its default STR partitioning is sampled, and
#: the number of overlapping partition pairs, hence of map tasks, swings
#: by a third from seed to seed.)
WARM_KWARGS = {"SpatialHadoop": {"partitioner": "grid"}}
#: Joins per round.  SpatialHadoop's warm join takes 15 ms against 300 ms
#: for the others; once per round, a run held only 25 of them, and its
#: median spread 9-10% over ten seeds that do the same work (5.8-6.6%
#: with 160 per run).
WARM_REPEATS = {"SpatialHadoop": 8}


class WarmPointsPolygons(OneShotPointsPolygons):
    name = "warm_points_polygons"
    why = ("the same join on datasets prepared once by the service, cache "
           "off: skips the prepare layers, so local join and refine dominate")

    def setup(self, index: int):
        svc = SpatialQueryService(block_size=BLOCK_SIZE, cache_entries=0)
        handles = {}
        for system in rotated(SYSTEMS, index):
            kwargs = WARM_KWARGS.get(system)
            handles[system] = (
                svc.prepare(self.left, system=system, system_kwargs=kwargs,
                            roles=("a",)),
                svc.prepare(self.right, system=system, system_kwargs=kwargs,
                            roles=("b",)),
            )
            a, b = handles[system]
            self.run.join(system, lambda: a.join(b), self.expected,
                          timed_loop=False)
        return svc, handles

    def teardown(self, state) -> None:
        state[0].close()

    def round(self, state, index, *, traced=False) -> None:
        _svc, handles = state
        for system in rotated(SYSTEMS, index):
            a, b = handles[system]
            for _ in range(WARM_REPEATS.get(system, 1)):
                self.run.join(system, lambda a=a, b=b: a.join(b), self.expected,
                              traced=traced)


#: Lower-left quarter of the NYC extent: the census blocks of the serving
#: workload, overlapping the hot corner of ``hotspot_points``.
SERVE_RIGHT_DOMAIN = MBR(DOMAIN_NYC.xmin, DOMAIN_NYC.ymin,
                         DOMAIN_NYC.xmin + DOMAIN_NYC.width / 2,
                         DOMAIN_NYC.ymin + DOMAIN_NYC.height / 2)
#: Skew-aware shuffle on a fixed grid (the service locks these knobs).
SERVE_KWARGS = {"shuffle": True, "partitioner": "grid", "n_partitions": 16}
SERVE_RIGHTS = 3
SERVE_MAX_LIVE = 4
#: Half of the serving pattern's 25-operation cycle, which is two halves
#: and one more range query: per 100 logical operations, 60 range
#: queries, 24 joins on a pair not queried yet, 8 repeats of a cached
#: pair and 8 prepares.  The mix is assumed, not measured: no trace or
#: paper at hand gives one, so it is chosen to run every serving path
#: (range, new join, cache hit, prepare, unload) in every cycle, and its
#: one-in-four cache hit rate stands for no real traffic.  Each half
#: prepares a new left side and joins it with every right side.  A round
#: of the timed loop is one whole cycle, so every run pools the same mix:
#: the right sides differ in how much refine work their hot-corner blocks
#: cost, and the first query on a dataset ships its blocks to the worker
#: pool, so with the mix left to where each process's share of the loop
#: ended, medians moved by 10%.
SERVE_HALF_CYCLE = ("prepare", "join", "range", "range", "join", "range",
                    "repeat", "range", "join", "range", "range", "range")
#: The range boxes are part of the workload; ``--seed`` draws the data.
SERVE_PATTERN_SEED = 20150901


def serving_cycles():
    """Endless stream of serving cycles, each a list of logical operations.

    ``("prepare", m, dropped)`` prepares left side ``m`` (``dropped`` is
    the oldest live left side once more than :data:`SERVE_MAX_LIVE` are
    live, else None); ``("join", m, j)`` joins the newest left side with
    right side ``j``; ``("repeat", m, 0)`` repeats its first join, a cache
    hit; ``("range_hot", m, box)`` and ``("range_wide", m, box)``, in
    turn, query a live left side with a 1% x 1% box inside the 3% x 3%
    hot corner (about 200 of the side's 2000 points) or a 20% x 20% box
    anywhere (about 8 of them).  The two range kinds are timed apart: a
    hot query takes 10 to 20 times longer, and one median over both
    would fall in the gap between them.  Left side 0 exists after set-up.
    """
    rng = np.random.default_rng(SERVE_PATTERN_SEED)
    d = DOMAIN_NYC
    live = [0]
    m = j = ranges = 0
    while True:
        cycle = []
        for kind in SERVE_HALF_CYCLE + SERVE_HALF_CYCLE + ("range",):
            if kind == "prepare":
                m, j = m + 1, 0
                live.append(m)
                dropped = live.pop(0) if len(live) > SERVE_MAX_LIVE else None
                cycle.append(("prepare", m, dropped))
            elif kind == "join":
                cycle.append(("join", m, j))
                j += 1
            elif kind == "repeat":
                cycle.append(("repeat", m, 0))
            else:
                hot = ranges % 2 == 0
                if hot:
                    w, h = 0.01 * d.width, 0.01 * d.height
                    x0 = d.xmin + rng.random() * (0.03 * d.width - w)
                    y0 = d.ymin + rng.random() * (0.03 * d.height - h)
                else:
                    w, h = 0.2 * d.width, 0.2 * d.height
                    x0 = d.xmin + rng.random() * (d.width - w)
                    y0 = d.ymin + rng.random() * (d.height - h)
                side = live[(ranges // 2) % len(live)]
                cycle.append(("range_hot" if hot else "range_wide", side,
                              (x0, y0, x0 + w, y0 + h)))
                ranges += 1
        yield cycle


class ServeMixedSkewed(Workload):
    name = "serve_mixed_skewed"
    why = ("service with cache, 2 workers and skew-aware shuffle serving an "
           "assumed mix of range queries, new and repeated joins and prepares "
           "on hot data")
    latency_kinds = ("join", "range_hot", "range_wide", "prepare")

    def __init__(self, run: Run):
        super().__init__(run)
        self.n_left = run.size(2_000)
        self.rights = [
            census_blocks(run.size(250), seed=CENSUS_SEED + j,
                          domain=SERVE_RIGHT_DOMAIN)
            for j in range(SERVE_RIGHTS)
        ]
        self.right_mbrs = [oracle.mbr_array(r) for r in self.rights]
        self._lefts: dict = {}
        self._pairs: dict = {}
        self.expected(0, 0)  # the set-up's join, answered outside its timing

    def left(self, m: int):
        """(geometries, mbrs) of left side *m*, generated on first use.

        Each process of a run draws its own left sides.  How a side's hot
        cell splits sets how many map tasks a SpatialHadoop join runs;
        when every process replayed the same few sides, a run's mean
        ranged from 27.2 to 30.2 tasks per join between seeds.
        """
        if m not in self._lefts:
            seed = np.random.SeedSequence([self.run.seed, self.run.part, m])
            geoms = hotspot_points(self.n_left, seed=int(seed.generate_state(1)[0]))
            self._lefts[m] = (geoms, oracle.mbr_array(geoms))
        return self._lefts[m]

    def expected(self, m: int, j: int) -> frozenset:
        if (m, j) not in self._pairs:
            geoms, mbrs = self.left(m)
            self._pairs[(m, j)] = oracle.join_pairs(
                geoms, self.rights[j], mbrs, self.right_mbrs[j])
        return self._pairs[(m, j)]

    def _prepare(self, svc, system, m):
        return svc.prepare(self.left(m)[0], system=system,
                           system_kwargs=SERVE_KWARGS, roles=("a",))

    def setup(self, index: int):
        svc = SpatialQueryService(workers=2, block_size=BLOCK_SIZE)
        handles = {}
        for system in rotated(SYSTEMS, index):
            rights = [
                svc.prepare(r, system=system, system_kwargs=SERVE_KWARGS,
                            roles=("b",))
                for r in self.rights
            ]
            lefts = {0: self._prepare(svc, system, 0)}
            handles[system] = (lefts, rights)
            self.run.join(system, lambda: lefts[0].join(rights[0]),
                          self.expected(0, 0), timed_loop=False)
        return svc, handles, serving_cycles()

    def teardown(self, state) -> None:
        state[0].close()

    def round(self, state, index, *, traced=False) -> None:
        """One cycle of logical operations, each issued to every system."""
        svc, handles, cycles = state
        for i, op in enumerate(next(cycles)):
            kind, m, arg = op
            if kind.startswith("range"):
                geoms, mbrs = self.left(m)
                want = oracle.range_ids(geoms, mbrs, arg)
            elif kind == "prepare":
                want = len(self.left(m)[0])
            else:
                want = self.expected(m, arg)
            for system in rotated(SYSTEMS, index + i):
                self._execute(svc, handles[system], system, op, want, traced)
            if kind == "prepare" and arg is not None:
                self._lefts.pop(arg, None)
                for j in range(SERVE_RIGHTS):
                    self._pairs.pop((arg, j), None)

    def _execute(self, svc, handles, system, op, want, traced) -> None:
        run = self.run
        lefts, rights = handles
        kind, m, arg = op
        # Handle lookups stay inside the timed callables: an operation on
        # a side whose prepare failed counts as failed.
        if kind in ("join", "repeat"):
            run.join(system, lambda: lefts[m].join(rights[arg]), want,
                     traced=traced)
        elif kind.startswith("range"):
            run.op(system, lambda r: "hit" if r.cache_hit else kind,
                   lambda: lefts[m].range(arg), lambda r: r.ids == want,
                   traced=traced)
        else:
            handle = run.op(system, "prepare",
                            lambda: self._prepare(svc, system, m),
                            lambda h: h.alive and len(h) == want, traced=traced)
            if handle is not None:
                lefts[m] = handle
            dropped = lefts.pop(arg, None) if arg is not None else None
            if dropped is not None:
                dropped.unload()


WORKLOADS = {
    cls.name: cls for cls in (
        OneShotPointsPolygons, WarmPointsPolygons, OneShotPolylines,
        ServeMixedSkewed,
    )
}
