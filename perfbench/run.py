"""Run the DeepMapping benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload fits_high --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. ``--workload all`` runs every workload in
one process. With ``--trace 0`` the last line of standard output is one
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. The lines above it print every metric
with its unit and sample count, and the attempted and failed operations
per operation type. Scratch files go under ``.bench_build/perfbench`` in
the checkout and are removed at the end, except the traced run's spans
(``spans-<workload>-<seed>.jsonl``, one JSON object per span).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
# numeric-library threads per process
THREADS = 1


def _environment(tmp: Path) -> int:
    """Pin thread counts and scratch directories for this process and the
    Spark JVM and Python workers it starts; returns Spark's local slots:
    half the cores, so slots times numeric threads stay within them and a
    Spark job does not need every core of a shared machine at once.
    Must run before numpy is imported."""
    slots = max(1, len(os.sched_getaffinity(0)) // (2 * THREADS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    sys.path[:0] = [str(SRC), str(ROOT)]
    return slots


def _start_spark(slots: int, tmp: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{slots}]")
        .appName("perfbench")
        .config("spark.driver.memory", "1g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(tmp))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp}")
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def _report(name: str, res: dict, trace: bool) -> dict:
    """Print a workload's metrics and operation counts; return its result
    object."""
    phases = ", ".join(f"{k} {v:.1f} s" for k, v in res["phases"].items())
    print(f"== {name}: {res['rounds']} rounds ({phases})")
    for metric, (value, unit, n) in res["end_to_end"].items():
        print(f"  {metric:28s} {value:14.4f} {unit:6s} n={n}")
    for metric, (value, unit, n) in res["ungated"].items():
        print(f"  {metric:28s} {value:14.4f} {unit:6s} n={n} (not gated)")
    if trace:
        for metric, (value, unit) in res["per_layer"].items():
            print(f"  {metric:40s} {value:16.4f} {unit}")
    for kind, (att, fail) in res["ops"].items():
        print(f"  ops {kind:14s} attempted={att:6d} failed={fail:6d}")
    for err in res["run"].errors[:5]:
        print(f"  error: {err}")
    for entry in res.get("untraced", []):
        print(f"  not traced (no such entry point): {entry}")
    metrics = res["per_layer"] if trace else {k: v[:2] for k, v in res["end_to_end"].items()}
    return {
        "correct": res["correct"],
        "attempted": sum(a for a, _ in res["ops"].values()),
        "failed": sum(f for _, f in res["ops"].values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2

    tmp = WORK / "tmp"
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    tmp.mkdir(parents=True)
    slots = _environment(tmp)
    from perfbench.bench import WORKLOADS, run_workload

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)} or all")

    spark = _start_spark(slots, tmp)
    results = {}
    try:
        for name in names:
            workdir = WORK / f"{name}-{args.seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                   spark, str(workdir),
                                   spans_path=str(WORK / f"spans-{name}-{args.seed}.jsonl"))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            results[name] = _report(name, res, bool(args.trace))
    finally:
        _stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.flush()
    last = results[names[0]] if len(names) == 1 else {"workloads": results}
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
