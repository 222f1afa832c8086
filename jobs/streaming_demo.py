"""Structured Streaming demo: Cogra as a stateful streaming aggregation.

Writes the stock workload as chronological file chunks, runs the q3'-style
ANY query through ``run_query_streaming`` (keyed state per (sector,
company): one Cogra aggregator per open window, plus the last event time
and the late-event count), and prints the final per-window aggregates.

Usage: ``spark-submit jobs/streaming_demo.py``
"""
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _util import get_spark

from repro.core.aggregates import Avg, Count
from repro.core.granularity import Semantics
from repro.core.query import Query, WindowSpec
from repro.core.streaming import run_query_streaming
from repro.synth_data import stock_stream_pdf


def main() -> None:
    spark = get_spark("cogra-streaming-demo")
    pdf = stock_stream_pdf(n=5_000, seed=11)
    query = Query(
        pattern="SEQ(D+, U)",
        semantics=Semantics.ANY,
        aggregates=(Count(), Avg("U", "price")),
        partition_by=("sector", "company"),
        window=WindowSpec(size=1_000, slide=500),
    )
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        src.mkdir()
        base = time.time()
        for i, chunk in enumerate(np.array_split(np.arange(len(pdf)), 5)):
            p = src / f"part-{i:03d}.json"
            pdf.iloc[chunk].to_json(p, orient="records", lines=True)
            os.utime(p, (base + i, base + i))  # in-order micro-batches
        schema = spark.createDataFrame(pdf.head(1)).schema
        stream = (
            spark.readStream.schema(schema)
            .option("maxFilesPerTrigger", 1)
            .json(str(src))
        )
        out = run_query_streaming(stream, query)
        q = (
            out.writeStream.format("memory")
            .queryName("cogra_demo")
            .outputMode("update")
            .option("checkpointLocation", str(pathlib.Path(tmp) / "ckpt"))
            .trigger(availableNow=True)
            .start()
        )
        q.awaitTermination(300)
        # Update mode appends one row per key and micro-batch. ``events``
        # is cumulative per key, so the final row is the one with the
        # most events (``last`` is non-deterministic after a shuffle).
        rows = spark.sql(
            """
            SELECT sector, company, wid,
                   max_by(count_star, events) AS count_star,
                   max_by(avg_U_price, events) AS avg_U_price,
                   max(events) AS events
            FROM cogra_demo GROUP BY sector, company, wid
            ORDER BY sector, company, wid
            """
        )
        rows.show(40, truncate=False)
        print(f"result rows: {rows.count()}")
    spark.stop()


if __name__ == "__main__":
    main()
