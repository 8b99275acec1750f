"""Benchmark of the verified solve pipeline and the frobpde CLI.

    python3 bench/run.py --workload dense_rational --seed 1 --seconds 20 --trace 0

Workloads: dense_rational, sparse_ray, cli_mixed (see workloads.py).  Run
from the root of a source checkout: the program is imported from ./src, and
the CLI runs as ``python -m frobpde.cli`` with ./src on PYTHONPATH.  With
``--trace 0`` the result carries the end-to-end metrics, with ``--trace 1``
the per-layer ones.  End-to-end times are scaled to a reference machine
speed (see workloads.Calibration); the raw times are printed after them.
The last line of standard output is the result as one JSON object; the
lines before it name every metric with its unit, and bench/out/ receives
the full report (environment, raw samples, errors and, when traced, the
spans).
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frobpde" / "__init__.py").is_file():
        print(f"error: no frobpde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import frobpde

    if Path(frobpde.__file__).resolve().parent != (SRC / "frobpde").resolve():
        print(f"error: frobpde imported from {frobpde.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    result, report = workloads.run_workload(args.workload, args.seed, args.seconds, args.trace)
    out = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, **report}, indent=1))

    print("env " + json.dumps(report["env"]))
    for err in report["errors"]:
        print("failure " + err, file=sys.stderr)
    if "failed_share" in report:
        print(f"{'failed_share':40s} {report['failed_share']:.6g} share "
              f"({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    for name, value in report.get("raw", {}).items():
        print(f"{name + ' (raw)':40s} {value:.6g} {result['metrics'][name]['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
