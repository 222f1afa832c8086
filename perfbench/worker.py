"""The Spark side of one benchmark run, in a process of its own.

``run.py`` starts this script with a JSON spec and reads back the JSON
result it writes. The script times set-up from before PySpark and the
program are imported until the first (warm-up) query has returned, runs
an uncounted warm-up loop and then the measured loop, and, in a traced
run, the traced query and the stream pass. Then it stops the session and
the JVM and waits for them. Only standard-library modules are imported at
module level, so the set-up clock covers every import the program needs.
"""
from __future__ import annotations

import json
import os
import shlex
import sys
import time
from pathlib import Path

# Session parity with jobs/_util.get_spark: local[*], 64 shuffle
# partitions, Arrow on, broadcast joins off. The remaining settings are
# deployment only: paths, driver memory, UI and logging.
SQL_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
DRIVER_MEMORY = "2g"
# Queries run back to back for this long after set-up and before the
# measured loop, uncounted: on cont-long the two queries after set-up ran
# 20-40% slower than later ones (JIT and Python-worker warm-up).
WARMUP_S = 3.0
# Printed with every run, next to SQL_CONF.
AQE_CONF = ["spark.sql.adaptive.enabled",
            "spark.sql.adaptive.coalescePartitions.enabled",
            "spark.sql.adaptive.coalescePartitions.parallelismFirst"]
CORE_CONF = ["spark.master", "spark.driver.memory", "spark.python.worker.reuse",
             "spark.local.dir"]


def build_session(work: Path):
    from pyspark.sql import SparkSession

    tmp = work / "tmp"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", "local[*]",
        "--driver-memory", DRIVER_MEMORY,
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={work / 'spark-local'}"),
        "--driver-java-options",
        shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "pyspark-shell",
    ])
    builder = SparkSession.builder.appName("perfbench").config(
        "spark.sql.warehouse.dir", str(work / "warehouse"))
    for k, v in SQL_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def effective_conf(spark) -> dict:
    conf = dict(spark.sparkContext.getConf().getAll())
    out = {k: spark.conf.get(k) for k in SQL_CONF}
    out.update({k: spark.conf.get(k) for k in AQE_CONF})
    out.update({k: conf.get(k, "default") for k in CORE_CONF})
    out["defaultParallelism"] = spark.sparkContext.defaultParallelism
    return out


def stop_session(spark) -> None:
    """Stop the session, then the JVM, and wait for the JVM to exit; the
    Python workers are the JVM's children and exit with it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


def python_worker_rss_mb(marker: str) -> float:
    """Largest peak RSS (VmHWM) among this run's PySpark Python workers.

    Not the sum: the number of workers follows the number of kernel tasks,
    which AQE picks from the input size, and each extra worker adds about
    135 MB of interpreter and library memory to a sum.
    """
    peak_kb = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if b"pyspark.daemon" not in cmd and b"pyspark.worker" not in cmd:
                continue
            with open(f"/proc/{pid}/environ", "rb") as f:
                if marker.encode() not in f.read().split(b"\0"):
                    continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:  # the process exited while we looked
            continue
    return peak_kb / 1024


def _rows(spark_rows, cols: list[str]) -> list[dict]:
    return [{c: r[c] for c in cols} for r in spark_rows]


# ---------------------------------------------------------------- batch


def run(spec: dict, t_ask: float, out: dict) -> None:
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS, key_cols
    from repro.core.spark_runner import local_filter_expr, run_query
    from repro.core.windows import with_window_ids

    query = WORKLOADS[spec["workload"]].query
    path = spec["input"]
    cols = [*key_cols(query), *(a.name for a in query.aggregates),
            "events", "kernel_seconds"]

    spark = build_session(Path(spec["work"]))
    try:
        query.compile()
        out["rows"] = [_rows(run_query(spark.read.parquet(path), query).collect(), cols)]
        out["setup_s"] = time.time() - t_ask
        out["conf"] = effective_conf(spark)

        def closed_loop(seconds: float) -> list[float]:
            """Run queries back to back for ``seconds`` (at least one)."""
            lat: list[float] = []
            t_loop = time.perf_counter()
            while not lat or time.perf_counter() - t_loop < seconds:
                t0 = time.perf_counter()
                rows = run_query(spark.read.parquet(path), query).collect()
                lat.append(time.perf_counter() - t0)
                out["rows"].append(_rows(rows, cols))
            return lat

        out["warmup_latencies_s"] = closed_loop(WARMUP_S)
        out["latencies_s"] = closed_loop(spec["seconds"])
        out["peak_rss_mb"] = python_worker_rss_mb(spec["marker"])
        if not spec["trace"]:
            return

        sc = spark.sparkContext
        tracer = Tracer()
        qid = "traced"
        with tracer.span("bench.query", qid):
            with tracer.span("query.compile", qid):
                cq = query.compile()
            with tracer.span("windows.explode", qid):
                df = spark.read.parquet(path)
                flt = local_filter_expr(cq)
                if flt is not None:
                    df = df.filter(flt)
                rows_in = df.count()
                rows_out = with_window_ids(df, query.window, query.time_col).count()
            with tracer.span("spark_runner.run_query", qid) as sp:
                sc.setJobGroup(qid, "perfbench traced query")
                rows = run_query(spark.read.parquet(path), query).collect()
                sc.setLocalProperty("spark.jobGroup.id", None)
        out["rows"].append(_rows(rows, cols))
        out["layer"] = {"wall_s": sp.duration, "rows_in": rows_in, "rows_out": rows_out,
                        "default_parallelism": sc.defaultParallelism,
                        **_task_counts(sc, qid)}
        out["stream"] = run_stream(spark, spec, query, tracer)
        out["spans"] = tracer.to_json()
    finally:
        stop_session(spark)


def _task_counts(sc, group: str) -> dict:
    """Tasks of the stage that ran the kernel (the last stage of the query's
    job group) and failed tasks over all of its stages."""
    st = sc.statusTracker()
    stages = []
    for jid in st.getJobIdsForGroup(group):
        info = st.getJobInfo(jid)
        if info is not None:
            stages.extend(s for s in (st.getStageInfo(sid) for sid in info.stageIds)
                          if s is not None)
    ran = [s for s in stages if s.numCompletedTasks + s.numFailedTasks > 0]
    last = max(ran, key=lambda s: s.stageId)
    return {"tasks": last.numTasks,
            "failed_tasks": sum(s.numFailedTasks for s in stages)}


# ------------------------------------------------------------ streaming


def _progress_end(p: dict) -> float:
    """Epoch seconds at which a micro-batch finished."""
    from datetime import datetime

    start = datetime.fromisoformat(p["timestamp"].replace("Z", "+00:00")).timestamp()
    return start + p["durationMs"]["triggerExecution"] / 1000


def _file_batches(ckpt: Path) -> dict[str, int]:
    """File name -> file-source log offset, from the checkpoint's source log."""
    out: dict[str, int] = {}
    for f in (ckpt / "sources" / "0").iterdir():
        if f.name.startswith("."):
            continue
        for line in f.read_text().splitlines()[1:]:
            entry = json.loads(line)
            out[entry["path"].rsplit("/", 1)[-1]] = int(entry["batchId"])
    return out


def _data_batches(sq) -> list[dict]:
    """Progress of the micro-batches that read input, as plain dicts."""
    return [p for p in (json.loads(p.json) for p in sq.recentProgress)
            if p["numInputRows"] > 0]


def _wait_for_rows(sq, rows: int, timeout_s: float) -> list[dict]:
    deadline = time.time() + timeout_s
    while True:
        if sq.exception() is not None:
            raise RuntimeError(str(sq.exception()))
        progress = _data_batches(sq)
        if sum(p["numInputRows"] for p in progress) >= rows:
            return progress
        if time.time() > deadline:
            raise RuntimeError(f"stream did not read {rows} rows within {timeout_s} s")
        time.sleep(0.02)


def run_stream(spark, spec: dict, query, tracer) -> dict:
    """Stream the spec's file source through ``run_query_streaming``.

    The warm-up file is in the source directory from the start. Then an
    open-loop generator releases the staged files, file i due at
    t0 + i * RELEASE_S whether or not the stream keeps up; each file is
    written in full beforehand and appears by an atomic rename.
    """
    from perfbench.workloads import EVENTS_PER_FILE, RELEASE_S, key_cols
    from repro.core.streaming import run_query_streaming

    source, ckpt = Path(spec["source"]), Path(spec["work"]) / "checkpoint"
    staged = sorted(Path(spec["staged"]).iterdir())
    cols = [*key_cols(query), *(a.name for a in query.aggregates), "events"]

    qid = "stream"
    t_start = time.time()
    with tracer.span("query.compile", qid) as compile_span:
        query.compile()
    stream = spark.readStream.schema(spec["schema"]).parquet(str(source))
    sq = (run_query_streaming(stream, query).writeStream.format("memory")
          .queryName("perfbench_stream").outputMode("update")
          .option("checkpointLocation", str(ckpt)).start())
    _wait_for_rows(sq, EVENTS_PER_FILE, 120)

    t0 = time.time() + RELEASE_S
    due = [t0 + i * RELEASE_S for i in range(len(staged))]
    released: list[float] = []

    for f, d in zip(staged, due):
        time.sleep(max(0.0, d - time.time()))
        os.utime(f)
        os.rename(f, source / f.name)
        released.append(time.time())
    progress = _wait_for_rows(sq, EVENTS_PER_FILE * (len(staged) + 1), 120)
    sq.stop()
    t_stop = time.time()

    final: dict[tuple, dict] = {}
    for r in spark.sql("SELECT * FROM perfbench_stream").collect():
        k = tuple(r[c] for c in key_cols(query))
        if k not in final or r["events"] > final[k]["events"]:
            final[k] = {c: r[c] for c in cols}

    # Spans of the stream: its lifetime, with the compile span and one
    # span per micro-batch (from the progress events) as children.
    root = tracer.add("bench.query", qid, t_start, t_stop, None)
    compile_span.parent = root
    for p in progress:
        end = _progress_end(p)
        tracer.add("streaming.batch", qid,
                   end - p["durationMs"]["triggerExecution"] / 1000, end, root)

    batch_end = {int(p["sources"][0]["endOffset"]["logOffset"]): _progress_end(p)
                 for p in progress}
    file_batch = _file_batches(ckpt)
    return {
        "rows": list(final.values()),
        "progress": progress,
        "latencies_s": [batch_end[file_batch[f.name]] - d for f, d in zip(staged, due)],
        "generator_late_s": [r - d for r, d in zip(released, due)],
        "backlog_rows_end": EVENTS_PER_FILE * len(staged) - sum(
            p["numInputRows"] for p in progress[1:] if _progress_end(p) <= released[-1]),
    }


def main() -> None:
    t_ask = time.time()
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path[:0] = [spec["src"], spec["root"]]
    out: dict = {}
    run(spec, t_ask, out)
    Path(spec["result"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
