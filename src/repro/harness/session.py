"""The Spark session settings shared by the test suite and ``jobs/``."""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_session(app: str, shuffle_partitions: int | str = 64) -> SparkSession:
    """Get or create the session. Launch options (master, driver memory)
    must already be in ``PYSPARK_SUBMIT_ARGS``; broadcast joins are off so
    that shuffles run even at small scale."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", str(shuffle_partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
