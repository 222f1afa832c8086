"""Benchmark of the Cogra reproduction, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload any-slide --seed 1 --seconds 20 --trace 0

One run: generate the workload's input from the seed and write it to
parquet, start ``perfbench/worker.py`` in a fresh process that times
set-up and then the measured loop against the program's public entry
points, stop every process the run started, check every result row
against a reference computed here, and print the metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"
WORKER_TIMEOUT_S = 150


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor; the smoke tests use a tiny one")
    ap.add_argument("--corrupt-rows", type=int, default=0,
                    help="corrupt this many result rows before checking "
                         "(tests that the check counts them as failed)")
    return ap.parse_args(argv)


def run_record() -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    java = subprocess.run(["java", "-version"], capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "java": java.stderr.splitlines()[0] if java.stderr else "unknown",
    }


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat, in clock ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def cpu_shares(before: list[int], after: list[int]) -> dict:
    """Busy and stolen (taken by the hypervisor) shares of all CPUs over
    an interval; steal explains run-to-run spread on a shared host."""
    d = [b - a for a, b in zip(before, after)]
    total = sum(d) or 1
    idle = d[3] + d[4]
    return {"busy": round((total - idle - d[7]) / total, 4),
            "steal": round(d[7] / total, 4)}


def _marked_pids(marker: str) -> list[int]:
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                if marker.encode() in f.read().split(b"\0"):
                    pids.append(int(pid))
        except OSError:
            continue
    return pids


def reap(marker: str) -> None:
    """Kill every process left with this run's marker in its environment
    (the JVM and Python workers re-parent away from us) and wait until all
    are gone."""
    left = _marked_pids(marker)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.time() + 10
        while left and time.time() < deadline:
            time.sleep(0.1)
            left = _marked_pids(marker)
        if not left:
            break
    if left:
        raise RuntimeError(f"processes {left} outlived the run")


def run_worker(spec: dict, env: dict, log: Path) -> dict:
    spec_path = WORK / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(log, "ab") as lf:
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec_path)],
            cwd=WORK, env=env, stdout=lf, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0:
        tail = log.read_text(errors="replace")[-4000:]
        raise RuntimeError(f"worker failed ({code}):\n{tail}")
    return json.loads(Path(spec["result"]).read_text())


def corrupt(rows: list[dict], n: int, query) -> None:
    name = query.aggregates[0].name
    for r in rows[:n]:
        r[name] = (r[name] or 0.0) + 1.0


def write_inputs(wl, args) -> tuple[dict, dict]:
    """Generate the inputs from the seed and write them under WORK.

    Returns the inputs by name and the paths that go into the worker's
    spec. The traced run also gets a stream input: a warm-up file in the
    source directory and the files the generator will release.
    """
    from perfbench.workloads import EVENTS_PER_FILE, ddl_schema

    inputs = {"batch": wl.batch_input(args.seed, args.scale)}
    path = WORK / "input.parquet"
    inputs["batch"].to_parquet(path, index=False)
    paths = {"input": str(path)}
    if args.trace:
        pdf = inputs["stream"] = wl.stream_input(args.seed)
        source, staged = WORK / "source", WORK / "staged"
        source.mkdir()
        staged.mkdir()
        for i in range(0, len(pdf), EVENTS_PER_FILE):
            dest = source if i == 0 else staged
            pdf.iloc[i:i + EVENTS_PER_FILE].to_parquet(
                dest / f"part-{i // EVENTS_PER_FILE:05d}.parquet", index=False)
        paths.update(source=str(source), staged=str(staged), schema=ddl_schema(pdf))
    return inputs, paths


def end_to_end(events: int, res: dict) -> dict:
    lat = res["latencies_s"]
    return {
        "setup_s": res["setup_s"],
        "latency_p50_s": statistics.median(lat),
        "events_per_s": events * len(lat) / sum(lat),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(values: dict, kind: str) -> dict:
    """Attach the units declared in BENCHMARK.json; the computed and the
    declared metric names must match exactly."""
    units = {m["name"]: m["unit"] for m in declared()[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    # Every process the run starts inherits this variable, so the run can
    # find and stop them all at the end.
    token = uuid.uuid4().hex
    marker = f"PERFBENCH_RUN={token}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
               PYSPARK_PYTHON=sys.executable, TMPDIR=str(WORK / "tmp"),
               PYTHONDONTWRITEBYTECODE="1", PERFBENCH_RUN=token)
    env.pop("PYSPARK_SUBMIT_ARGS", None)
    try:
        record = {"before": run_record()}
        inputs, paths = write_inputs(wl, args)
        spec = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
                "work": str(WORK), "src": str(SRC), "root": str(ROOT),
                "result": str(WORK / "result.json"), "marker": marker, **paths}
        cpu0 = cpu_times()
        try:
            res = run_worker(spec, env, WORK / "worker.log")
        finally:
            reap(marker)
        record["after"] = {"loadavg": os.getloadavg(),
                           "cpu_during_worker": cpu_shares(cpu0, cpu_times())}
        result = finish(wl, inputs, res, args, record)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


def finish(wl, inputs: dict, res: dict, args, record: dict) -> dict:
    from perfbench import layers
    from perfbench.workloads import check_rows, reference

    query = wl.query
    results = [("batch", rows) for rows in res["rows"]]
    if args.trace:
        results.append(("stream", res["stream"]["rows"]))
    if args.corrupt_rows:
        corrupt(results[-1][1], args.corrupt_rows, query)
    expected = {name: reference(inputs[name], wl) for name in inputs}
    attempted = failed = 0
    for name, rows in results:
        a, f = check_rows(rows, expected[name], query)
        attempted, failed = attempted + a, failed + f

    e2e = end_to_end(len(inputs["batch"]), res)
    why = {w["name"]: w["why"] for w in declared()["workloads"]}
    print(f"workload {wl.name}: {why[wl.name]}")
    print(f"run record: {json.dumps(record)}")
    print(f"spark conf: {json.dumps(res['conf'])}")
    print(f"checked rows: {attempted} attempted, {failed} failed "
          f"({len(results)} results; reference rows: "
          + ", ".join(f"{k} {len(v)}" for k, v in expected.items()) + ")")
    print(f"samples: {len(res['latencies_s'])} queries; "
          f"latencies_s {[round(x, 4) for x in res['latencies_s']]}; "
          f"uncounted warm-up {[round(x, 4) for x in res['warmup_latencies_s']]}")
    metrics = with_units(e2e, "end_to_end")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        values, trace_doc = layers.per_layer(wl, inputs["batch"], res, e2e)
        metrics = with_units(values, "per_layer")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        for line in trace_doc["notes"]:
            print(line)
        TRACES.mkdir(exist_ok=True)
        out = TRACES / f"{wl.name}-seed{args.seed}.json"
        out.write_text(json.dumps({"record": record, "conf": res["conf"], **trace_doc}))
        print(f"spans written to {out.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
