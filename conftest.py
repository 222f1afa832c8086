import os
import sys


def _driver_mem() -> str:
    """Heap of the Spark driver JVM: the tier-1 command's rule, half of
    ``MemTotal`` in whole GiB clamped to 2-8 g (2 g if it cannot be read),
    capped at ~75% of a real cgroup memory limit.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > this rule.
    spark.driver.memory is read at JVM launch, not from SparkConf, so it
    must be in PYSPARK_SUBMIT_ARGS before pyspark is imported anywhere —
    this runs at conftest import, which pytest loads before any test
    module.

    An unbounded cgroup value (cgroup-v1's ~9.2e18 "unlimited" sentinel,
    v2's "max", or a missing file) sets no cap, so the JVM is never handed
    a heap larger than the machine.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    gib, src = 2, "default"
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
        gib, src = min(8, max(2, kib // 2097152)), "meminfo"
    except (OSError, ValueError, StopIteration):
        pass
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            limit = int(open(p).read().strip()) / (1 << 30)
        except (OSError, ValueError):  # missing, or v2's "max"
            continue
        if 1 <= limit <= 1024 and int(limit * 0.75) < gib:  # v1 "unlimited": ~8.6e9
            gib, src = max(1, int(limit * 0.75)), f"cgroup:{p}"
    os.environ["_SPARK_DRIVER_MEM_SRC"] = src
    return f"{gib}g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402

from repro.harness.session import get_session  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (shuffle partitions, Arrow, broadcast threshold) come from
    ``repro.harness.session``, the same builder the jobs use.
    """
    s = get_session("repro", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
