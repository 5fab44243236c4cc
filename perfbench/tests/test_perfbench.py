"""Tests of the benchmark itself: a tiny traced run of every workload, and
the checker counting wrong answers as failed.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
# Spark's Python workers import repro and perfbench too
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, str(ROOT), os.environ.get("PYTHONPATH")) if p
)

from perfbench.bench import KNOWN_FAULTS, TINY, WORKLOADS, Run, run_workload  # noqa: E402
from perfbench.reference import Reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run(name, spark, tmp_path):
    spans = tmp_path / "spans.jsonl"
    res = run_workload(name, 7, 0.0, True, spark, str(tmp_path / "work"),
                       scale=TINY, spans_path=str(spans))
    assert res["run"].errors == []
    assert res["correct"]
    attempted = {k: a for k, (a, _) in res["ops"].items()}
    failed = {k: f for k, (_, f) in res["ops"].items() if f}
    assert set(attempted) == {"insert", "update", "delete", "lookup_1k", "lookup_10k",
                              "lookup_100k", "spark_lookup", "range_scan"}
    # the lookup_range bounds fault fails every range scan and nothing else
    assert failed == {"range_scan": attempted["range_scan"]}
    assert set(failed) <= set(KNOWN_FAULTS)

    e2e = res["end_to_end"]
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        value, unit, n = e2e[m["name"]]
        assert unit == m["unit"] and n >= 1
        assert math.isfinite(value) and value > 0, m["name"]
    for value, unit, n in res["ungated"].values():
        assert unit == "ms" and math.isfinite(value) and n >= 1
    layer = res["per_layer"]
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert layer[m["name"]][1] == m["unit"]
        assert math.isfinite(layer[m["name"]][0]), m["name"]
    assert res["untraced"] == []
    assert layer["model.rows_inferred"][0] > 0
    assert layer["aux_table.probes"][0] > 0
    assert layer["partition_store.partitions_written"][0] > 0

    lines = spans.read_text().splitlines()
    first = json.loads(lines[0])
    assert set(first) == {"name", "start", "end", "parent", "op", "kind"}
    assert all(json.loads(line)["end"] >= json.loads(line)["start"] for line in lines)


def _reference() -> Reference:
    pdf = pd.DataFrame({"key": np.arange(1, 11), "v0": np.arange(10) % 3,
                        "v1": np.arange(10) % 4})
    ref = Reference(pdf, "key", ["v0", "v1"], 1, 20)
    ref.delete(np.array([4]))
    return ref


def _answer(ref: Reference, keys: np.ndarray) -> pd.DataFrame:
    """A correct answer in the shape DeepMapping.lookup returns."""
    live, vals = ref.expected(keys)
    out = {"key": keys}
    for j, c in enumerate(ref.value_cols):
        col = np.full(len(keys), None, dtype=object)
        col[live] = vals[j, live]
        out[c] = col
    return pd.DataFrame(out)


def test_checker_accepts_a_correct_answer():
    ref = _reference()
    keys = np.array([3, 4, 15, 0, 99, 10, 3])  # live, deleted, absent, outside
    assert ref.check_rows(keys, _answer(ref, keys))
    assert ref.check_range(2, 6, _answer(ref, np.array([2, 3, 5])))
    assert ref.check_spark(keys, _answer(ref, keys).astype({"v0": "Int64", "v1": "Int64"}))


def test_checker_rejects_a_flipped_value():
    ref = _reference()
    keys = np.array([3, 4, 15, 10])
    res = _answer(ref, keys)
    res.loc[0, "v1"] = res.loc[0, "v1"] + 1
    assert not ref.check_rows(keys, res)
    assert not ref.check_spark(keys, res.astype({"v0": "Int64", "v1": "Int64"}))


def test_checker_rejects_a_malformed_answer():
    ref = _reference()
    keys = np.array([3, 4, 15, 10])
    assert not ref.check_rows(keys, _answer(ref, keys).drop(columns="v1"))
    assert not ref.check_rows(keys, _answer(ref, keys).assign(v0="x"))


def test_checker_rejects_a_missing_null():
    ref = _reference()
    keys = np.array([3, 4, 15, 10])
    res = _answer(ref, keys)
    res.loc[1, "v0"] = 0  # key 4 was deleted and must come back NULL
    assert not ref.check_rows(keys, res)
    assert not ref.check_spark(keys, res.astype({"v0": "Int64", "v1": "Int64"}))


class _WrongLookup:
    """A structure whose answers are correct except for one change."""

    def __init__(self, ref: Reference, change):
        self.ref, self.change = ref, change

    def lookup(self, keys):
        res = _answer(self.ref, np.asarray(keys))
        self.change(res, self.ref)
        return res


def _flip_first_live(res, ref):
    i = int(np.flatnonzero(ref.expected(res["key"].to_numpy())[0])[0])
    res.loc[i, "v0"] = res.loc[i, "v0"] + 1


def _fill_first_absent(res, ref):
    i = int(np.flatnonzero(~ref.expected(res["key"].to_numpy())[0])[0])
    res.loc[i, "v0"] = 0


@pytest.mark.parametrize("change", [_flip_first_live, _fill_first_absent])
def test_run_counts_a_wrong_answer_as_failed(change, tmp_path):
    run = Run("fits_high", 7, None, str(tmp_path), scale=TINY)
    run.dm = _WrongLookup(run.ref, change)
    keys = run.lookup_keys(100)
    run.op_lookup("lookup_1k", keys)
    assert run.op_counts() == {"lookup_1k": (1, 1)}
    assert not run.correct()

    run.dm = _WrongLookup(run.ref, lambda res, ref: None)
    run.op_lookup("lookup_1k", keys)
    assert run.op_counts() == {"lookup_1k": (2, 1)}
