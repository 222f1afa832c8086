"""Shared spark-submit plumbing for the jobs in this directory.

Run them with ``spark-submit`` or plain ``python``; a local session is
created either way.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

from repro.harness.session import get_session


def get_spark(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    return get_session(app)
