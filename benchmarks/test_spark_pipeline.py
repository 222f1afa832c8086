"""End-to-end Spark pipeline benchmark: the full Catalyst + applyInPandas
executor (filter -> window explode -> partition -> Cogra kernel) on the
stock workload with the paper's sliding-window shape."""
from dataclasses import replace

import pytest

from repro.core.query import WindowSpec
from repro.core.spark_runner import run_query
from repro.harness.experiments import stock_query
from repro.synth_data import stock_stream_pdf

QUERY = replace(stock_query(), window=WindowSpec(size=2_000, slide=1_000))


@pytest.fixture(scope="module")
def stock_df(spark):
    df = spark.createDataFrame(stock_stream_pdf(n=50_000, seed=11))
    df.cache().count()
    return df


def test_spark_pipeline_cogra(benchmark, spark, stock_df):
    def run():
        return run_query(stock_df, QUERY, exact=False).count()

    rows = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert rows > 0
