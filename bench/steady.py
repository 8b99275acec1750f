"""Steadiness check of the benchmark against the bounds in BENCHMARK.json.

    python3 bench/steady.py --runs 10 --sets 2 --seconds 20

Runs ``bench/run.py --trace 0`` once per seed and workload (workloads
interleaved, so that a slow spell of the machine hits all of them), ``runs``
seeds per set.  For every end-to-end metric it reports the spread of a set,
(q3 - q1) / median with the quartiles of ``statistics.quantiles(n=4)``, and
how much worse the median of each later set is than that of the first, as a
share of the first.  It exits with status 1 when a spread or a drift exceeds
the metric's bound, or when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_share(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def check(bench, results):
    """Lines of the report and the list of violations."""
    lines, bad = [], []
    for workload, sets in results.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drifts = [worse_share(medians[0], m, metric["better"]) for m in medians[1:]]
            lines.append(
                f"{workload:15s} {name:24s} median {' / '.join(f'{m:.5g}' for m in medians):24s}"
                f" spread {' / '.join(f'{s:.3f}' for s in spreads):14s}"
                f" worse {' / '.join(f'{d:+.3f}' for d in drifts) or '-':8s} bound {bound}"
            )
            if max(spreads) > bound:
                bad.append(f"{workload} {name}: spread {max(spreads):.3f} > {bound}")
            if drifts and max(drifts) > bound:
                bad.append(f"{workload} {name}: median worse by {max(drifts):.3f} > {bound}")
    return lines, bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    failed = []
    for s in range(args.sets):
        for k in range(args.runs):
            seed = args.first_seed + s * args.runs + k
            for workload in workloads:
                res = run_once(workload, seed, seconds)
                results[workload][s].append(res)
                if not res["correct"] or res["failed"]:
                    failed.append(f"{workload} seed {seed}: {res['failed']}/{res['attempted']} failed")
                print(f"set {s} seed {seed} {workload}: " + ", ".join(
                    f"{n}={m['value']:.5g}" for n, m in res["metrics"].items()), flush=True)
    lines, bad = check(bench, results)
    print("\n".join(lines))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-seed{args.first_seed}.json").write_text(json.dumps(results, indent=1))
    for msg in failed + bad:
        print("FAIL " + msg)
    return 1 if failed or bad else 0


if __name__ == "__main__":
    sys.exit(main())
