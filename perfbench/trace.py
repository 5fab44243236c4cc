"""Layer tracing for the benchmark's traced run.

The tracer wraps the public entry points of each layer of ``repro`` from
the outside (the program itself is not changed) and records, for every
call, a span ``[name, start, end, parent, op]``: the entry point's name,
its start and end on ``time.perf_counter``, the index of the span that
was open when it was called (``-1`` for none) and the id of the benchmark
operation that caused it. Counts (rows inferred, keys probed, partitions
written, ...) are recorded at the same boundaries, per operation kind.
Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children; the calls of one thread never overlap, so this is the part of
its interval no child covers.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

from repro.baselines import memory_pool, partition_store
from repro.core import aux_table, bitvector, deepmapping, encoding, model, nn


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_kinds: list[str] = []
        # counts[op kind][counter name]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.last_partitions = 0
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------------
    def begin_op(self, kind: str) -> None:
        """Attribute the following spans and counts to a new operation."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)

    @property
    def op_kind(self) -> str:
        return self.op_kinds[self._op] if self._op >= 0 else "none"

    def count(self, name: str, value: float) -> None:
        self.counts[self.op_kind][name] += float(value)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a version that records a span named
        ``name`` and then calls ``after(tracer, args, result)``."""
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:  # entry point renamed or removed: its metrics read 0
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        is_static = isinstance(raw, staticmethod)
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, args, out)
            return out

        setattr(owner, attr, staticmethod(traced) if is_static else traced)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap the entry points of every traced layer."""
        ks, lc = encoding.KeySpace, encoding.LabelCodec
        self.wrap(ks, "contains", "encoding.key_check")
        self.wrap(ks, "dense_index", "encoding.key_check")
        self.wrap(ks, "features_from_dense", "encoding.featurize")
        self.wrap(lc, "decode", "encoding.decode")
        self.wrap(lc, "encode", "encoding.encode")

        bv = bitvector.BitVector
        self.wrap(bv, "get", "bitvector.get")
        self.wrap(bv, "set", "bitvector.set")
        self.wrap(bv, "set_indices_in_range", "bitvector.range")

        self.wrap(model.MappingModel, "predict", "model.predict",
                  lambda t, a, out: t.count("model.rows_inferred", len(a[1])))
        self.wrap(nn.MultiTaskMLP, "fit", "model.fit",
                  lambda t, a, out: t.count("model.train_epochs", len(out)))
        self.wrap(deepmapping, "train_model", "model.train")

        at = aux_table.AuxTable
        self.wrap(at, "lookup", "aux_table.lookup", _count_aux_lookup)
        self.wrap(at, "apply", "aux_table.apply")
        self.wrap(at, "build", "aux_table.build")

        ps = partition_store.PartitionedStore
        self.wrap(ps, "lookup_batch", "partition_store.lookup_batch")
        self.wrap(ps, "build", "partition_store.build", _count_store_build)
        self.wrap(memory_pool.MemoryPool, "get", "memory_pool.get")

        dm = deepmapping.DeepMapping
        self.wrap(dm, "build", "deepmapping.build")
        self.wrap(dm, "lookup", "deepmapping.lookup")
        self.wrap(dm, "lookup_range", "deepmapping.lookup_range")
        for w in ("insert", "update", "delete"):
            self.wrap(dm, w, "deepmapping.write")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------------
    def totals(self, first: int = 0) -> dict[tuple[str, str], list[float]]:
        """{(op kind, span name): [inclusive seconds, self seconds, calls]}
        over the spans recorded from index ``first`` on."""
        child = np.zeros(len(self.spans))
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for i in range(first, len(self.spans)):
            name, t0, t1, parent, op = self.spans[i]
            kind = self.op_kinds[op] if op >= 0 else "none"
            rec = out[(kind, name)]
            rec[0] += t1 - t0
            rec[1] += t1 - t0 - child[i]
            rec[2] += 1
        return out

    def per_call(self, name: str, first: int = 0,
                 last: int | None = None) -> list[float]:
        """Durations in seconds of the spans named ``name`` among spans
        ``first .. last - 1``."""
        return [s[2] - s[1] for s in self.spans[first:last] if s[0] == name]

    def children_of(self, name: str, first: int = 0,
                    last: int | None = None) -> dict[str, list[float]]:
        """{child name: [inclusive seconds, calls]} over the direct children
        of the spans named ``name`` among spans ``first .. last - 1``."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for s in self.spans[first:last]:
            if s[3] >= 0 and self.spans[s[3]][0] == name:
                out[s[0]][0] += s[2] - s[1]
                out[s[0]][1] += 1
        return out

    def write(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({
                    "name": name, "start": t0, "end": t1, "parent": parent,
                    "op": op, "kind": self.op_kinds[op] if op >= 0 else "none",
                }) + "\n")


def _count_aux_lookup(t: Tracer, args, out) -> None:
    mask = out[0]
    t.count("aux_table.probes", len(mask))
    t.count("aux_table.hits", int(np.count_nonzero(mask)))


def _count_store_build(t: Tracer, args, out) -> None:
    store = args[0]
    t.last_partitions = store.n_partitions
    t.count("partition_store.partitions_written", store.n_partitions)
    t.count("partition_store.bytes_written", store.nbytes_disk)
