"""Per-layer metrics of a traced run.

The Spark-side numbers come from the worker: spans around the calls into
``Query.compile``, ``local_filter_expr`` + ``with_window_ids`` and
``run_query``; task counts from the status tracker; the per-substream
``METRIC_FIELDS`` of the result; and, for streaming, the micro-batch
progress events. The conversion and fold numbers come from a
single-thread replay in this process of ``events_from_pandas`` and
``aggregate_substream`` over the same substreams. The ``streaming``
metrics come from the traced run's stream pass, which runs the workload's
query through ``run_query_streaming`` on a stream input of its own.
"""
from __future__ import annotations

import statistics

import pandas as pd

from perfbench.trace import Span, Tracer, self_time_by_name, self_times
from perfbench.workloads import Workload, key_cols, substreams
from repro.core.events import events_from_pandas
from repro.core.executor import aggregate_substream

def replay(pdf: pd.DataFrame, wl: Workload, tracer: Tracer) -> dict:
    """Run the whole job on one thread: filter and window tagging with
    NumPy, then ``events_from_pandas`` and ``aggregate_substream`` per
    substream, each call in its own span."""
    q = wl.query
    events = peak = 0
    with tracer.span("bench.query", "replay") as root:
        with tracer.span("query.compile", "replay"):
            cq = q.compile()
        for _, sub in substreams(pdf, q).groupby(key_cols(q), sort=False):
            with tracer.span("events.convert", "replay"):
                ev = events_from_pandas(sub, time_col=q.time_col,
                                        type_col=q.type_col, attr_cols=cq.attr_cols)
            with tracer.span("executor.fold", "replay"):
                res = aggregate_substream(ev, cq)
            events += len(ev)
            peak = max(peak, res.peak_state_bytes)
    return {"wall_s": root.duration, "events": events, "peak_state_bytes": peak}


def _durations(spans: list[Span], name: str, query_id: str | None = None) -> list[float]:
    return [s.duration for s in spans
            if s.name == name and (query_id is None or s.query_id == query_id)]


def _spark_runner(res: dict) -> dict:
    layer = res["layer"]
    rows = res["rows"][-1]  # the traced query's result
    events = [r["events"] for r in rows]
    kernel = sum(r["kernel_seconds"] for r in rows)
    return {
        "spark_runner.substreams": len(events),
        "spark_runner.events_max": max(events),
        "spark_runner.events_mean": statistics.fmean(events),
        "spark_runner.kernel_s_sum": kernel,
        "spark_runner.kernel_share": kernel / (layer["wall_s"] * layer["default_parallelism"]),
        "spark_runner.tasks": layer["tasks"],
        "spark_runner.failed_tasks": layer["failed_tasks"],
    }


def _streaming(st: dict) -> tuple[dict, list[int]]:
    progress = st["progress"]
    measured = progress[1:] or progress  # the first batch is the warm-up file
    state = [p["stateOperators"][0] for p in progress]
    return {
        "streaming.batches": len(progress),
        "streaming.file_latency_p50_s": statistics.median(st["latencies_s"]),
        "streaming.batch_s_p50": statistics.median(
            p["durationMs"]["triggerExecution"] / 1000 for p in measured),
        "streaming.add_batch_s_p50": statistics.median(
            p["durationMs"]["addBatch"] / 1000 for p in measured),
        "streaming.rows_per_batch": statistics.fmean(p["numInputRows"] for p in measured),
        "streaming.state_rows": state[-1]["numRowsTotal"],
        "streaming.state_bytes": state[-1]["memoryUsedBytes"],
        "streaming.state_rows_updated_per_batch": statistics.fmean(
            s["numRowsUpdated"] for s in state[1:] or state),
        "streaming.generator_late_s": max(st["generator_late_s"]),
        "streaming.backlog_rows_end": st["backlog_rows_end"],
    }, [s["numRowsTotal"] for s in state]


def per_layer(wl: Workload, pdf: pd.DataFrame, res: dict, e2e: dict) -> tuple[dict, dict]:
    """Per-layer metrics as {name: value}, and the trace document."""
    tracer = Tracer()
    tracer.extend(res["spans"])
    rep = replay(pdf, wl, tracer)
    spans = tracer.spans
    layer = res["layer"]

    convert_s = sum(_durations(spans, "events.convert", "replay"))
    fold_s = sum(_durations(spans, "executor.fold", "replay"))
    m: dict[str, float] = {
        "query.compile_s": statistics.median(_durations(spans, "query.compile")),
    }
    m.update(_spark_runner(res))
    stream, state_rows = _streaming(res["stream"])
    m.update(stream)
    wall = layer["wall_s"]
    rising = all(b > a for a, b in zip(state_rows, state_rows[1:]))
    notes = [
        f"traced query wall {wall:.3f} s; single-thread convert + fold "
        f"{convert_s + fold_s:.3f} s = {(convert_s + fold_s) / wall:.0%} of it; "
        f"kernel stage tasks {layer['tasks']}",
        f"stream pass: state rows after each batch {state_rows} "
        f"(rises every batch: {rising})",
    ]
    overhead = wall - e2e["latency_p50_s"]
    m.update({
        "windows.rows_in": layer["rows_in"],
        "windows.rows_out": layer["rows_out"],
        "windows.fanout": layer["rows_out"] / layer["rows_in"],
        "windows.explode_s": statistics.median(_durations(spans, "windows.explode")),
        "events.convert_s": convert_s,
        "events.convert_ns_per_event": convert_s / rep["events"] * 1e9,
        "executor.fold_s": fold_s,
        "executor.fold_ns_per_event": fold_s / rep["events"] * 1e9,
        "executor.peak_state_bytes": rep["peak_state_bytes"],
        "replay.single_thread_s": rep["wall_s"],
        "trace.overhead_s": overhead,
    })
    doc = {
        "spans": tracer.to_json(),
        "self_times": self_times(spans),
        "self_time_by_name": self_time_by_name(spans),
        "notes": notes,
    }
    return m, doc
