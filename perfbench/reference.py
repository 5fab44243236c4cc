"""The benchmark's own reference for the relation a workload serves.

The relation is kept as dense numpy arrays indexed by key: one bool array
of live keys and one int64 array per value column. Every write the
benchmark sends to the structure is applied here too, so each answer can
be checked against what the relation holds at that moment, never against
a saved copy of an earlier output.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.oracle import assert_equivalent


class Reference:
    """Live keys and values of a relation with one integer key column.

    Keys ``lo .. hi`` (inclusive) form the key domain; keys outside it are
    never live. ``pdf`` holds the initial rows.
    """

    def __init__(self, pdf: pd.DataFrame, key_col: str, value_cols: list[str],
                 lo: int, hi: int):
        self.key_col = key_col
        self.value_cols = list(value_cols)
        self.lo, self.hi = int(lo), int(hi)
        keys = pdf[key_col].to_numpy(np.int64)
        self.live = np.zeros(self.hi + 1, dtype=bool)
        self.vals = np.zeros((len(self.value_cols), self.hi + 1), dtype=np.int64)
        self.live[keys] = True
        for j, c in enumerate(self.value_cols):
            self.vals[j, keys] = pdf[c].to_numpy(np.int64)

    # -- state ----------------------------------------------------------------
    def live_keys(self) -> np.ndarray:
        return np.flatnonzero(self.live)

    def absent_keys(self) -> np.ndarray:
        """Keys inside the domain that are not live."""
        return np.flatnonzero(~self.live[self.lo:]) + self.lo

    def upsert(self, df: pd.DataFrame) -> None:
        keys = df[self.key_col].to_numpy(np.int64)
        self.live[keys] = True
        for j, c in enumerate(self.value_cols):
            self.vals[j, keys] = df[c].to_numpy(np.int64)

    def delete(self, keys: np.ndarray) -> None:
        self.live[np.asarray(keys, dtype=np.int64)] = False

    def relation(self) -> pd.DataFrame:
        """The live relation as a pandas frame, ascending by key."""
        keys = self.live_keys()
        out = {self.key_col: keys}
        for j, c in enumerate(self.value_cols):
            out[c] = self.vals[j, keys]
        return pd.DataFrame(out)

    # -- checks -----------------------------------------------------------------
    def expected(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(live mask, [n_cols, n] values) for query keys; absent keys and
        keys outside the domain are not live and must come back NULL."""
        keys = np.asarray(keys, dtype=np.int64)
        inside = (keys >= self.lo) & (keys <= self.hi)
        live = np.zeros(len(keys), dtype=bool)
        live[inside] = self.live[keys[inside]]
        vals = np.zeros((len(self.value_cols), len(keys)), dtype=np.int64)
        vals[:, live] = self.vals[:, keys[live]]
        return live, vals

    def check_rows(self, keys: np.ndarray, res: pd.DataFrame) -> bool:
        """True iff ``res`` answers ``keys`` in order: the key column echoes
        the query and each value column holds the live value or NULL."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        try:  # an answer without the expected columns or types is wrong
            if len(res) != len(keys):
                return False
            if not np.array_equal(res[self.key_col].to_numpy(np.int64), keys):
                return False
            live, vals = self.expected(keys)
            for j, c in enumerate(self.value_cols):
                col = res[c].to_numpy(dtype=object)
                if not np.array_equal(pd.isna(col), ~live):
                    return False
                if not np.array_equal(col[live].astype(np.int64), vals[j, live]):
                    return False
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def check_range(self, lo: int, hi: int, res: pd.DataFrame) -> bool:
        """True iff ``res`` holds exactly the live keys ``lo <= key < hi``,
        ascending, with their values (range bounds in key space)."""
        keys = np.flatnonzero(self.live[max(lo, 0):max(hi, 0)]) + max(lo, 0)
        return self.check_rows(keys, res)

    def check_spark(self, keys: np.ndarray, collected: pd.DataFrame) -> bool:
        """Check a collected Spark answer with a DuckDB left join of the
        query keys against the live relation (``repro.oracle``)."""
        cols = ", ".join(f"r.{c} AS {c}" for c in self.value_cols)
        sql = (
            f"SELECT q.{self.key_col} AS {self.key_col}, {cols} "
            f"FROM q LEFT JOIN r ON q.{self.key_col} = r.{self.key_col}"
        )
        try:
            assert_equivalent(
                _Collected(collected), sql,
                q=pd.DataFrame({self.key_col: np.asarray(keys, dtype=np.int64)}),
                r=self.relation(),
            )
        except AssertionError:
            return False
        return True


class _Collected:
    """An already collected Spark answer, in the shape ``assert_equivalent``
    reads (it calls ``toPandas``), so the job is not run a second time."""

    def __init__(self, pdf: pd.DataFrame):
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self._pdf
