"""Workloads, operation streams and metrics of the DeepMapping benchmark.

One client sends operations in a closed loop: each call starts after the
previous one returned and its answer was checked. A run is a sequence of
whole rounds; every round of a workload holds the same operations, so
the share of failed operations is the same in every run. The structure
is built from a relation with a fixed data seed and a fixed model seed;
``--seed`` picks the query keys and the write stream.
"""
from __future__ import annotations

import contextlib
import gc
import math
import os
import pickle
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.baselines.memory_pool import MemoryPool
from repro.core.deepmapping import DeepMapping, DeepMappingConfig
from repro.core.lookup_spark import lookup_distributed
from repro.core.model import TrainConfig
from repro.workloads.datasets import REGISTRY, uncompressed_nbytes

from .reference import Reference
from .trace import Tracer

# the synthetic relations' rows per scale factor (workloads/datasets.py)
SYNTH_ROWS_PER_SF = 2_000_000
# the training set-up of the repository's per-table benchmarks
TRAIN = TrainConfig(epochs=20, batch_size=1024)
ABSENT_SHARE = 0.05  # of each lookup batch: half inside the key domain, half outside
UNSEEN_SHARE = 0.02  # of each update batch: one column gets a value never seen
# operations that fail on every call because of a known fault in the
# program; their wrong answers count as failed but leave ``correct`` true
KNOWN_FAULTS = {
    "range_scan": "DeepMapping.lookup_range reads its bounds as dense indices, "
                  "so on keys that start at 1 it answers keys lo+1 .. hi",
}


# one round: WRITES writes, each followed by a small lookup, then
# MID_LOOKUPS mid-size lookups, one large lookup local and through Spark,
# and RANGES range scans
WRITES, MID_LOOKUPS, RANGES = 27, 4, 2


@dataclass(frozen=True)
class Workload:
    relation: str  # name in repro.workloads.datasets.REGISTRY
    pool_fraction: float | None  # pool budget as a share of raw bytes; None = unbounded
    io_bandwidth: float | None  # simulated device, bytes/s; None = off


WORKLOADS = {
    "fits_high": Workload("synth_multi_high", None, None),
    "exceeds_low": Workload("synth_multi_low", 0.3, 25e6),
}


@dataclass(frozen=True)
class Scale:
    rows: int
    batches: tuple[int, int, int]  # the 1k, 10k and 100k lookup batches
    write_rows: int
    range_keys: int
    builds: int
    tail_samples: int  # p95s need this many samples: 10 beyond the p95


FULL = Scale(20_000, (1_000, 10_000, 100_000), 50, 10_000, 3, 200)
TINY = Scale(2_000, (100, 1_000, 5_000), 10, 500, 1, 0)


class _NoTrace:
    """Stands in for :class:`Tracer` when the run is not traced."""

    spans = ()

    def begin_op(self, kind: str) -> None:
        pass

    def count(self, name: str, value: float) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()


class _PandasSession:
    """Lets the repository's relation generators hand back their pandas
    frame instead of a Spark DataFrame, so the relation is generated in
    this process without a Spark job."""

    @staticmethod
    def createDataFrame(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf


def make_relation(relation: str, rows: int) -> tuple[pd.DataFrame, object]:
    """The relation's rows (data seed fixed by the registry) and its key
    space with the registry's headroom for inserts."""
    wl = REGISTRY[relation]
    pdf = wl.build(_PandasSession(), rows / SYNTH_ROWS_PER_SF)
    if len(pdf) != rows:
        raise RuntimeError(f"{relation}: generated {len(pdf)} rows, wanted {rows}")
    return pdf, wl.key_space(pdf)


class Run:
    """One benchmark run of one workload against one structure."""

    def __init__(self, name: str, seed: int, spark, workdir: str, *,
                 scale: Scale = FULL, trace: bool = False):
        self.name, self.wl, self.scale = name, WORKLOADS[name], scale
        self.spark, self.workdir = spark, workdir
        self.rng = np.random.default_rng(seed)
        self.traced = trace
        self.tracer = Tracer() if trace else _NoTrace()
        self.pdf, self.ks = make_relation(self.wl.relation, scale.rows)
        self.key_col = REGISTRY[self.wl.relation].key_cols[0]
        self.value_cols = list(REGISTRY[self.wl.relation].value_cols)
        self.cards = [int(self.pdf[c].max()) + 1 for c in self.value_cols]
        self.correlated = self.wl.relation.endswith("_high")
        lo = self.ks.lows[0]
        self.ref = Reference(self.pdf, self.key_col, self.value_cols, lo,
                             lo + self.ks.cards[0] - 1)
        # range scans cover fixed intervals that do not depend on the seed;
        # their first keys are never deleted, so every scan meets the same
        # (faulty) bounds handling
        step = max(1, scale.rows // 8)
        self.range_starts = [lo + i * step for i in range(4)]
        self.protected = np.asarray(self.range_starts, dtype=np.int64)
        self.unseen = 0
        self.samples: dict[str, list[float]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []
        self.dm: DeepMapping | None = None

    # -- inputs ---------------------------------------------------------------
    def values_for(self, keys: np.ndarray) -> dict[str, np.ndarray]:
        """Values drawn the way ``repro.synth_data.synth_correlation`` draws
        the relation's: periodic in the key digits with 2 % flipped (high
        correlation) or uniform (low)."""
        out = {}
        for j, (c, card) in enumerate(zip(self.value_cols, self.cards)):
            if self.correlated:
                v = (keys - 1) // 10**j % 10 % card
                flip = self.rng.random(len(keys)) < 0.02
                v = np.where(flip, self.rng.integers(0, card, len(keys)), v)
            else:
                v = self.rng.integers(0, card, len(keys))
            out[c] = v.astype(np.int64)
        return out

    def lookup_keys(self, n: int, forced: np.ndarray | None = None) -> np.ndarray:
        """``n`` keys: uniform over live keys, ABSENT_SHARE absent (half in
        the key domain, half outside it), plus ``forced`` keys."""
        live = self.ref.live_keys()
        keys = live[self.rng.integers(0, len(live), n)]
        n_abs = max(2, int(n * ABSENT_SHARE))
        absent = self.ref.absent_keys()
        inside = absent[self.rng.integers(0, len(absent), n_abs // 2)]
        off = self.rng.integers(1, 1000, n_abs - n_abs // 2)
        outside = np.where(off % 2 == 0, self.ref.lo - off, self.ref.hi + off)
        keys[:n_abs] = np.concatenate([inside, outside])
        if forced is not None:
            keys[n_abs:n_abs + len(forced)] = forced
        self.rng.shuffle(keys)
        return keys

    def write_batch(self, kind: str) -> tuple[np.ndarray, pd.DataFrame | None]:
        m = self.scale.write_rows
        live = self.ref.live_keys()
        if kind == "insert":
            start = int(live.max()) + 1
            if start + m - 1 <= self.ref.hi:
                keys = np.arange(start, start + m, dtype=np.int64)
            else:  # key domain used up: insert absent keys inside it
                keys = self.rng.choice(self.ref.absent_keys(), m, replace=False)
            return keys, pd.DataFrame({self.key_col: keys, **self.values_for(keys)})
        if kind == "update":
            keys = self.rng.choice(live, m, replace=False)
            vals = self.values_for(keys)
            n_unseen = max(1, round(m * UNSEEN_SHARE))
            for i in self.rng.choice(m, n_unseen, replace=False):
                j = int(self.rng.integers(0, len(self.value_cols)))
                self.unseen += 1
                vals[self.value_cols[j]][i] = self.cards[j] + self.unseen
            return keys, pd.DataFrame({self.key_col: keys, **vals})
        keys = self.rng.choice(np.setdiff1d(live, self.protected), m, replace=False)
        return keys, None

    # -- operations -------------------------------------------------------------
    def _record(self, kind: str, seconds: float | None, ok: bool) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
        if seconds is not None:
            self.samples.setdefault(kind, []).append(seconds)

    def _call(self, kind: str, fn, timed: bool):
        """Run ``fn`` as one operation; returns (result, seconds) or, when
        it raises, records the failure and returns (None, None)."""
        self.tracer.begin_op(kind if timed else "warmup")
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # a failing call is counted, the run goes on
            if timed:
                self._record(kind, None, False)
            self.errors.append(f"{kind}: {type(e).__name__}: {e}")
            return None, None
        return out, time.perf_counter() - t0

    def op_lookup(self, kind: str, keys: np.ndarray, timed: bool = True):
        res, dt = self._call(kind, lambda: self.dm.lookup(keys), timed)
        if dt is not None and timed:
            self._record(kind, dt, self.ref.check_rows(keys, res))
        return dt

    def op_write(self, kind: str, timed: bool = True) -> np.ndarray:
        keys, df = self.write_batch(kind)
        call = {
            "insert": lambda: self.dm.insert(df),
            "update": lambda: self.dm.update(df),
            "delete": lambda: self.dm.delete(keys),
        }[kind]
        _, dt = self._call(kind, call, timed)
        self.tracer.count("rows_modified", len(keys))
        if dt is not None:
            if kind == "delete":
                self.ref.delete(keys)
            else:
                self.ref.upsert(df)
            if timed:
                self._record(kind, dt, True)
        return keys

    def op_spark(self, keys: np.ndarray, timed: bool = True) -> None:
        kdf = self.spark.createDataFrame(pd.DataFrame({self.key_col: keys}))
        tr = self.tracer

        def call():
            with tr.span("lookup_spark.submit"):
                sdf = lookup_distributed(self.spark, self.dm, kdf)
            with tr.span("lookup_spark.execute"):
                return sdf.toPandas()

        res, dt = self._call("spark_lookup", call, timed)
        if dt is not None and timed:
            self._record("spark_lookup", dt, self.ref.check_spark(keys, res))

    def op_range(self, lo: int, timed: bool = True) -> None:
        hi = lo + self.scale.range_keys
        res, dt = self._call("range_scan", lambda: self.dm.lookup_range(lo, hi), timed)
        if dt is not None and timed:
            self._record("range_scan", dt, self.ref.check_range(lo, hi, res))

    def round(self, r: int, timed: bool = True) -> None:
        b1, b10, b100 = self.scale.batches
        for i in range(WRITES):
            kind = ("insert", "update", "delete")[i % 3]
            written = self.op_write(kind, timed)
            self.op_lookup("lookup_1k", self.lookup_keys(b1, written), timed)
        for _ in range(MID_LOOKUPS):
            self.op_lookup("lookup_10k", self.lookup_keys(b10), timed)
        keys = self.lookup_keys(b100)
        self.op_lookup("lookup_100k", keys, timed)
        self.op_spark(keys, timed)
        for i in range(RANGES):
            lo = self.range_starts[(r * RANGES + i) % len(self.range_starts)]
            self.op_range(lo, timed)

    # -- phases -------------------------------------------------------------------
    def setup(self) -> list[float]:
        """Build the structure ``scale.builds`` times; keep the last build."""
        budget = None
        if self.wl.pool_fraction is not None:
            budget = int(uncompressed_nbytes(self.pdf) * self.wl.pool_fraction)
        config = DeepMappingConfig(train=TRAIN)
        times, self.build_spans = [], []
        for i in range(self.scale.builds):
            self.dm_dir = os.path.join(self.workdir, f"build{i}")
            pool = MemoryPool(budget, io_bandwidth=self.wl.io_bandwidth)
            gc.collect()
            self.tracer.begin_op("setup")
            first = len(self.tracer.spans)
            t0 = time.perf_counter()
            dm = DeepMapping.build(
                self.pdf, [self.key_col], self.value_cols, config,
                workdir=self.dm_dir, pool=pool, key_space=self.ks,
            )
            times.append(time.perf_counter() - t0)
            self.build_spans.append((first, len(self.tracer.spans)))
            if i + 1 < self.scale.builds:
                del dm
                shutil.rmtree(self.dm_dir)
        self.dm = dm
        return times

    def warm_up(self) -> None:
        """One call of every operation, untimed: Spark's first job starts
        its Python workers, and the first call of each path loads code."""
        b1, b10, b100 = self.scale.batches
        for kind in ("insert", "update", "delete"):
            self.op_lookup("lookup_1k", self.lookup_keys(b1, self.op_write(kind, False)), False)
        self.op_lookup("lookup_10k", self.lookup_keys(b10), False)
        keys = self.lookup_keys(b100)
        self.op_lookup("lookup_100k", keys, False)
        self.op_spark(keys, timed=False)
        self.op_range(self.range_starts[0], timed=False)

    def measure(self, seconds: float) -> int:
        """Whole rounds until ``seconds`` have passed and every p95 has its
        samples; returns the number of rounds. Storage is read after a fixed
        number of rounds, so it does not depend on the machine's speed."""
        min_rounds = max(1, math.ceil(self.scale.tail_samples / WRITES))
        gc.collect()
        gc.freeze()  # collections during the run skip the set-up's objects
        self.first_span = len(self.tracer.spans)
        self.pool_before = _pool_stats(self.dm.pool)
        t0 = time.perf_counter()
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - t0 < seconds:
            self.round(rounds)
            rounds += 1
            if rounds == min_rounds:
                self.storage = self.read_storage()
        self.pool_after = _pool_stats(self.dm.pool)
        gc.unfreeze()
        self.rounds = rounds
        return rounds

    def read_storage(self) -> dict[str, float]:
        dm = self.dm
        out = {
            "bytes_at_rest": sum(dm.storage_breakdown().values()),
            "raw_bytes": uncompressed_nbytes(self.ref.relation()),
            "disk_bytes": _tree_bytes(self.dm_dir),
        }
        if self.traced:
            out["aux_rows"] = dm.aux.n_entries
            out["aux_partitions"] = self.tracer.last_partitions
            out["model_bytes"] = dm.model.nbytes_stored()
            out["broadcast_bytes"] = len(pickle.dumps(dm, protocol=pickle.HIGHEST_PROTOCOL))
        return out

    # -- results ------------------------------------------------------------------
    def _percentile(self, q: float, kinds: list[str]) -> tuple[float, str, int]:
        vals = sum((self.samples.get(k, []) for k in kinds), [])
        return (float(np.percentile(vals, q)) * 1e3 if vals else float("nan"), "ms", len(vals))

    def end_to_end(self, setup_times: list[float]) -> dict[str, tuple[float, str, int]]:
        """{metric: (value, unit, samples)}."""
        def p50(kind):
            return self._percentile(50, [kind])

        st = self.storage
        return {
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            "lookup_1k_p50_ms": p50("lookup_1k"),
            "lookup_10k_p50_ms": p50("lookup_10k"),
            "lookup_100k_p50_ms": p50("lookup_100k"),
            "spark_lookup_100k_p50_ms": p50("spark_lookup"),
            "range_scan_p50_ms": p50("range_scan"),
            "insert_p50_ms": p50("insert"),
            "update_p50_ms": p50("update"),
            "bytes_at_rest_ratio": (st["bytes_at_rest"] / st["raw_bytes"], "ratio", 1),
            "disk_bytes_mb": (st["disk_bytes"] / 2**20, "MB", 1),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }

    def ungated(self) -> dict[str, tuple[float, str, int]]:
        """Metrics that are printed but not in BENCHMARK.json: on a shared
        machine their run-to-run spread exceeds any bound the benchmark
        may set (see README.md)."""
        return {
            "delete_p50_ms": self._percentile(50, ["delete"]),
            "lookup_1k_p95_ms": self._percentile(95, ["lookup_1k"]),
            "modify_p95_ms": self._percentile(95, ["insert", "update", "delete"]),
        }

    def per_layer(self, e2e: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a traced run: {metric: (value, unit)}."""
        t = self.tracer
        n = self.rounds
        lookups = ("lookup_1k", "lookup_10k", "lookup_100k", "range_scan")
        writes = ("insert", "update", "delete")
        measured = [k for k in set(t.op_kinds) if k not in ("setup", "warmup")]
        tot = t.totals(self.first_span)

        def incl(name, kinds=measured):
            return sum(tot[(k, name)][0] for k in kinds if (k, name) in tot)

        def self_s(name, kinds=measured):
            return sum(tot[(k, name)][1] for k in kinds if (k, name) in tot)

        def cnt(name, kinds=measured):
            return sum(t.counts[k].get(name, 0.0) for k in kinds)

        def ms_round(sec):
            return (sec * 1e3 / n, "ms/round")

        # set-up: per build, median over builds
        train, sweep = [], []
        for first, last in self.build_spans:
            build = sum(t.per_call("deepmapping.build", first, last))
            ch = t.children_of("deepmapping.build", first, last)
            not_sweep = sum(ch[c][0] for c in ch if c not in ("encoding.featurize", "model.predict"))
            train.append(sum(t.per_call("model.train", first, last)))
            sweep.append(build - not_sweep)

        inferred = cnt("model.rows_inferred", lookups)
        lb = t.children_of("partition_store.lookup_batch", self.first_span)
        lb_calls = len(t.per_call("partition_store.lookup_batch", self.first_span))
        pool = {k: (self.pool_after[k] - self.pool_before[k]) / n for k in self.pool_after}
        st = self.storage
        submit = t.per_call("lookup_spark.submit", self.first_span)
        execute = t.per_call("lookup_spark.execute", self.first_span)
        return {
            "encoding.key_check_ms": ms_round(incl("encoding.key_check")),
            "encoding.featurize_ms": ms_round(incl("encoding.featurize")),
            "encoding.decode_ms": ms_round(incl("encoding.decode")),
            "encoding.encode_ms": ms_round(incl("encoding.encode")),
            "bitvector.get_ms": ms_round(incl("bitvector.get")),
            "bitvector.set_ms": ms_round(incl("bitvector.set")),
            "bitvector.range_ms": ms_round(incl("bitvector.range")),
            "model.predict_ms": ms_round(incl("model.predict")),
            "model.rows_inferred": (cnt("model.rows_inferred") / n, "rows/round"),
            "model.useful_ratio": (
                (inferred - cnt("aux_table.hits", lookups)) / inferred if inferred else 0.0,
                "ratio"),
            "model.train_ms": (statistics.median(train) * 1e3, "ms"),
            "model.train_epochs": (t.counts["setup"].get("model.train_epochs", 0.0)
                                   / len(self.build_spans), "count"),
            "model.stored_bytes": (st["model_bytes"], "bytes"),
            "deepmapping.build_sweep_ms": (statistics.median(sweep) * 1e3, "ms"),
            "deepmapping.lookup_self_ms": ms_round(self_s("deepmapping.lookup")),
            "deepmapping.write_self_ms": ms_round(self_s("deepmapping.write")),
            "aux_table.lookup_ms": ms_round(incl("aux_table.lookup")),
            "aux_table.probes": (cnt("aux_table.probes") / n, "keys/round"),
            "aux_table.hits": (cnt("aux_table.hits") / n, "keys/round"),
            "aux_table.apply_ms": ms_round(incl("aux_table.apply")),
            "aux_table.rows": (st["aux_rows"], "rows"),
            "aux_table.partitions": (st["aux_partitions"], "count"),
            "partition_store.partitions_per_lookup": (
                lb["memory_pool.get"][1] / lb_calls if lb_calls else 0.0, "count"),
            "partition_store.probe_ms": ms_round(self_s("partition_store.lookup_batch")),
            "partition_store.partitions_written": (
                cnt("partition_store.partitions_written", writes) / n, "count/round"),
            "partition_store.write_bytes_per_row": (
                cnt("partition_store.bytes_written", writes)
                / max(1.0, cnt("rows_modified", writes)), "bytes/row"),
            "memory_pool.hits": (pool["hits"], "count/round"),
            "memory_pool.misses": (pool["misses"], "count/round"),
            "memory_pool.evictions": (pool["evictions"], "count/round"),
            "memory_pool.bytes_read": (pool["bytes_read"], "bytes/round"),
            "memory_pool.io_ms": (pool["io_time"] * 1e3, "ms/round"),
            "memory_pool.decompress_ms": (pool["decompress_time"] * 1e3, "ms/round"),
            "memory_pool.deserialize_ms": (pool["deserialize_time"] * 1e3, "ms/round"),
            "lookup_spark.broadcast_bytes": (st["broadcast_bytes"], "bytes"),
            "lookup_spark.submit_ms": (statistics.median(submit) * 1e3 if submit else 0.0, "ms"),
            "lookup_spark.execute_ms": (statistics.median(execute) * 1e3 if execute else 0.0, "ms"),
            "lookup_spark.overhead_ms": (
                e2e["spark_lookup_100k_p50_ms"][0] - e2e["lookup_100k_p50_ms"][0], "ms"),
        }

    def op_counts(self) -> dict[str, tuple[int, int]]:
        return {k: (v, self.failed.get(k, 0)) for k, v in sorted(self.attempted.items())}

    def correct(self) -> bool:
        """True when every failed operation is of a kind with a known fault
        and failed by a wrong answer, not by raising."""
        if self.errors:
            return False
        return all(k in KNOWN_FAULTS for k in self.failed)


_POOL_FIELDS = ("hits", "misses", "evictions", "bytes_read", "io_time",
                "decompress_time", "deserialize_time")


def _pool_stats(pool: MemoryPool) -> dict[str, float]:
    stats = getattr(pool, "stats", None)
    return {f: float(getattr(stats, f, 0.0)) for f in _POOL_FIELDS}


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def run_workload(name: str, seed: int, seconds: float, trace: bool, spark,
                 workdir: str, scale: Scale = FULL, spans_path: str | None = None) -> dict:
    """Run one workload with its structure under ``workdir``; returns its
    result record. A traced run writes its spans to ``spans_path``."""
    run = Run(name, seed, spark, workdir, scale=scale, trace=trace)
    tracer = run.tracer
    if trace:
        tracer.install()
    phases = {}
    try:
        t0 = time.perf_counter()
        setup_times = run.setup()
        t1 = time.perf_counter()
        run.warm_up()
        t2 = time.perf_counter()
        run.measure(seconds)
        phases = {"setup": t1 - t0, "warm_up": t2 - t1, "measure": time.perf_counter() - t2}
    finally:
        if trace:
            tracer.uninstall()
    e2e = run.end_to_end(setup_times)
    out = {
        "run": run,
        "end_to_end": e2e,
        "ungated": run.ungated(),
        "ops": run.op_counts(),
        "correct": run.correct(),
        "rounds": run.rounds,
        "phases": phases,
    }
    if trace:
        out["per_layer"] = run.per_layer(e2e)
        out["untraced"] = tracer.missing
        if spans_path:
            tracer.write(spans_path)
    return out
