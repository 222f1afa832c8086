"""Run the evaluation experiments (E1-E6, paper Figures 5-10) and write
their result tables to ``experiments_results.md`` — the measured numbers
recorded in EXPERIMENTS.md come from this job.

Usage: ``spark-submit jobs/run_all_experiments.py [output.md] [NAME ...]``

With no NAME every experiment runs; otherwise only the named ones (e.g.
``E3-any-all``). Each experiment also writes ``<output>.<NAME>.csv``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _util import get_spark

from repro.harness.experiments import EXPERIMENTS
from repro.harness.reporting import to_markdown
from repro.harness.runner import run_sweep


def main(out_path: str, names: list[str]) -> None:
    spark = get_spark("run-all-experiments")
    sections = []
    try:
        for name in names:
            print(f"=== {name} ===", flush=True)
            sweep = EXPERIMENTS[name]
            table = run_sweep(spark, name, sweep)
            md = to_markdown(table, name, sweep.x_name)
            print(md, flush=True)
            sections.append(md)
            csv = pathlib.Path(out_path).with_suffix(f".{name}.csv")
            table.to_csv(csv, index=False)
    finally:
        spark.stop()
    pathlib.Path(out_path).write_text(
        "# Measured experiment tables (generated by jobs/run_all_experiments.py)\n\n"
        + "\n".join(sections)
    )
    print(f"wrote {out_path}")


if __name__ == "__main__":
    args = sys.argv[1:]
    out = "experiments_results.md"
    if args and args[0] not in EXPERIMENTS:
        out = args.pop(0)
    unknown = [a for a in args if a not in EXPERIMENTS]
    if unknown:
        sys.exit(f"unknown experiment(s) {unknown}; choose from {list(EXPERIMENTS)}")
    main(out, args or list(EXPERIMENTS))
