"""The three workloads, their closed measuring loop and their metrics.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has ended.  Every workload measures
both paths to a result, so that every end-to-end metric exists on each: a
round is one calibration, one CLI subprocess and a few in-process verified
solves, and every other round adds a start-up probe (a fresh interpreter
timing ``import frobpde.cli``), so that all of them see the same machine
state.  Rounds continue
until the run has lasted ``seconds``, the main path of the workload has at
least ``min_samples`` timed operations, enough for ten samples beyond the
p90, and the other path its share of that (see Workload).

Untraced runs (``trace=0``) give the end-to-end metrics.  Traced runs
(``trace=1``) wrap every call in a span and give the per-layer metrics; each
traced solve is paired with an untraced solve of the same problem, and the
difference of their medians is the tracing overhead.  The names and units of
both sets of metrics are those of BENCHMARK.json.
"""

import gc
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import defaultdict
from pathlib import Path

from frobpde import (
    OutsideEstimatedDomain,
    RegularSingularPDE,
    classify,
    eval_solution,
    parse_expr,
    radius_estimate,
    residual_max,
    resonance_scan,
    solve,
    to_series,
)

import problems as P
from tracer import NULL, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
MIN_SAMPLES = 100
CLI_TIMEOUT_S = 60

_LAYER_SPANS = (
    "frobenius.solve",
    "indicial.resonance_scan",
    "indicial.classify",
    "expr_parser.parse",
    "expr_parser.to_series",
    "verify.residual_max",
    "verify.eval_solution",
    "frobenius.radius_estimate",
)

# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------

# Rational coefficients: 1/(1-xy) fills the support (S ~ 1.5 N) and the
# solution fills the lattice, so the recurrence dominates.
DENSE_MODELS = ("legendre_II", "chebyshev_II")
# Support of at most 3 monomials, solutions on one ray or the diagonal;
# disturbed_heat adds removable resonances.
SPARSE_MODELS = ("bessel_I", "bessel_II", "airy_I", "airy_II", "hermite_I",
                 "laguerre_I", "laguerre_II", "disturbed_heat")
# Small catalog problems for the CLI mix, hermite_II among them as a dense one.
CLI_MODELS = ("bessel_I", "airy_II", "laguerre_II", "disturbed_heat", "hermite_II",
              "legendre_I", "hermite_I", "bessel_II")


class Workload:
    """Problems solved in-process (each with an order-N/2 companion) and the
    CLI jobs, all drawn from one seed."""

    def __init__(self, name, seed, workdir):
        rng = random.Random(seed)
        # Models and orders are fixed per workload; the seed draws only the
        # parameters and points, so every seed costs about the same.
        if name == "dense_rational":
            self.solves = self._pool(DENSE_MODELS, (40,) * 8, rng)
        elif name == "sparse_ray":
            self.solves = self._pool(SPARSE_MODELS, (80,) * 3, rng)
        elif name == "cli_mixed":
            self.solves = self._pool(CLI_MODELS, (8, 16, 24), rng)
            self.solves += [P.free_form_problem(f"free-{n}", rng, n) for n in (16, 24)]
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.companions = [p.at_order(max(4, p.order // 2)) for p in self.solves]
        for p in self.solves + self.companions:
            if p.model is not None:
                p.oracle = P.build_oracle(p)

        if name == "cli_mixed":
            files = list(self.solves)
            files += [P.free_form_problem(f"free-auto-{n}", rng, n, auto_point=True) for n in (12, 20)]
            files += [P.resonant_problem(f"resonant-{n}", rng, n) for n in (10, 18)]
            per_sub = 4
            # The CLI is the main path.  The problems take about 2 ms against
            # about 170 ms for a CLI call, so eight per round give their p90
            # enough samples.
            self.solves_per_round, self.cli_share = 8, 1.0
        else:
            # the CLI runs the companion problems, so that start-up, parsing
            # and emission are not drowned by the recurrence
            files = self.companions
            per_sub = 1
            # The solves are the main path; half as many CLI calls keep a
            # run well under a minute.
            self.solves_per_round, self.cli_share = 2, 0.5
        paths = {}
        for p in files:
            path = Path(workdir) / f"{p.pid}.json"
            path.write_text(json.dumps(p.file_payload()))
            paths[p.pid] = path
        self.jobs = _cli_jobs(files, paths, rng, per_sub)
        if name == "cli_mixed":
            by_id = {p.pid: p for p in files}
            for sub, pid in (("solve", "resonant-10"), ("verify", "resonant-18"),
                             ("scan-resonance", "resonant-10"), ("solve", "free-auto-12"),
                             ("solve", "free-auto-20"), ("solve", "hermite_II-2")):
                self.jobs.append(P.problem_job(sub, by_id[pid], paths[pid]))

    @staticmethod
    def _pool(models, orders, rng):
        return [P.catalog_problem(f"{m}-{k}", m, rng, n)
                for k, n in enumerate(orders) for m in models]


def _eligible(sub, prob):
    if sub == "catalog-solve":
        return prob.model is not None
    if sub in ("verify", "radius", "scan-resonance") and prob.auto_point:
        return False
    if sub == "radius":
        return prob.order >= 10
    return True


def _cli_jobs(files, paths, rng, per_sub):
    """`per_sub` jobs for every subcommand; which problem file each job
    uses depends only on the position in `files`, not on the seed."""
    jobs = []
    for index, sub in enumerate(P.SUBCOMMANDS):
        eligible = [p for p in files if _eligible(sub, p)]
        for k in range(per_sub):
            if sub == "transform-prepare":
                jobs.append(P.transform_job(rng, 8 + 4 * (k % 3)))
            elif sub == "euler":
                jobs.append(P.euler_job(rng))
            else:
                prob = eligible[(index + k * len(P.SUBCOMMANDS)) % len(eligible)]
                jobs.append(P.problem_job(sub, prob, paths[prob.pid]))
    return jobs


# ---------------------------------------------------------------------------
# The measured operations
# ---------------------------------------------------------------------------


def verified_solve(prob, tr):
    """Problem strings to checked coefficients: parse, to_series, solve,
    residual, radius and evaluation."""
    with tr.span("expr_parser.parse"):
        asts = [parse_expr(text) for text in prob.abc]
    with tr.span("expr_parser.to_series"):
        series = [to_series(ast, prob.params, prob.order) for ast in asts]
    pde = RegularSingularPDE(prob.A, prob.B, prob.C, *series)
    with tr.span("frobenius.solve"):
        sol = solve(pde, *prob.point, prob.order, resonance_policy=prob.policy)
    with tr.span("verify.residual_max"):
        report = residual_max(pde, sol)
    with tr.span("frobenius.radius_estimate"):
        radius = radius_estimate(sol) if prob.order >= 10 else None
    with tr.span("verify.eval_solution"):
        value = eval_solution(sol, *P.EVAL_POINT)
    return pde, sol, report, radius, value


def diagnose(pde, prob, tr):
    """The indicial layer on its own: classification and resonance scan."""
    conic = pde.conic()
    with tr.span("indicial.classify"):
        classify(conic)
    with tr.span("indicial.resonance_scan"):
        report = resonance_scan(conic, *prob.point, prob.order)
    return report


def check_solve(prob, pde, sol, report, radius, value):
    """Raise CheckFailed unless the solve matches its oracle (or, without
    one, the operator residual); return the oracle error or None."""
    coeffs = {(q1, q2): v for (q1, q2), v in sol.coeffs.items()}
    scale = max([1.0] + [abs(v) for v in coeffs.values()])
    if not report.max_residual <= P.RESIDUAL_GATE * scale:
        raise P.CheckFailed(f"{prob.pid}: residual_max {report.max_residual:.3e}")
    if prob.oracle is None:
        res = P.residual_of(prob, [pde.a, pde.b, pde.c], *prob.point, coeffs)
        if not res <= P.RESIDUAL_GATE:
            raise P.CheckFailed(f"{prob.pid}: operator residual {res:.3e}")
        x, y = P.EVAL_POINT
        want = P.prefactor(*prob.point) * sum(v * x ** q1 * y ** q2 for (q1, q2), v in coeffs.items())
        if not P.close(value, want, 1e-9):
            raise P.CheckFailed(f"{prob.pid}: value {value} expected {want}")
        return None
    err = P.oracle_error(prob.oracle, coeffs)
    if not err <= P.ORACLE_GATE:
        raise P.CheckFailed(f"{prob.pid}: oracle error {err:.3e}")
    if not P.close(value, prob.oracle.value, 1e-9):
        raise P.CheckFailed(f"{prob.pid}: value {value} expected {prob.oracle.value}")
    if not P.close(radius, prob.oracle.radius, 1e-6):
        raise P.CheckFailed(f"{prob.pid}: radius {radius} expected {prob.oracle.radius}")
    return err


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(job, env, cwd):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "frobpde.cli", *job.argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0, proc


_IMPORT_CODE = ("import time; t = time.perf_counter(); import frobpde.cli; "
                "print(repr(time.perf_counter() - t))")


class Calibration:
    """A fixed, program-independent computation timed next to the measured
    operations.

    The machine this benchmark runs on shares its cores: its speed toggles
    by up to 1.8x many times a second, and the share of time it spends slow
    changes by 30% or more between runs.  A bivariate Cauchy product of two
    dense tables, pure Python like the program and with a similar working
    set, slows down in the same spells.  End-to-end times are therefore
    reported at the reference speed, raw time times
    REFERENCE_S / (mean calibration time in the run); raw times stay in the
    report.  The mean, not the median: like a longer operation, it follows
    the share of time the machine spends slow, while the median of a bimodal
    speed jumps between the modes.  A start-up probe is short (under 0.1 s),
    so each probe is scaled by the mean of the two calibrations around it
    instead, and setup_s is the median of the scaled probes; that spread
    less from run to run than scaling by the mean of the run.  The garbage
    collector is off while the calibration runs, so that its time does not
    depend on the size of the program's heap.
    """

    #: calibration time at the reference speed (one uncontended 2-core
    #: Xeon VM, CPython 3.11)
    REFERENCE_S = 0.015
    ORDER = 22

    def __init__(self):
        rng = random.Random(0)
        self.table = {(i, n - i): complex(rng.random(), rng.random())
                      for n in range(self.ORDER + 1) for i in range(n + 1)}
        self.samples = []

    def run(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            out = {}
            for (p1, p2), f in self.table.items():
                for (r1, r2), g in self.table.items():
                    if p1 + p2 + r1 + r2 <= self.ORDER:
                        key = (p1 + r1, p2 + r2)
                        out[key] = out.get(key, 0j) + f * g
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def factor(self):
        """Multiplier taking a time measured in this run to the reference speed."""
        return self.REFERENCE_S / statistics.fmean(self.samples)


def run_child(code, env, cwd):
    """Run `python -c code` in a fresh interpreter; return (wall time, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0, proc.stdout


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digits = []

    def record(self, fn):
        """Run one checked operation; count it and any failure."""
        self.attempted += 1
        try:
            err = fn()
        except Exception as exc:  # every failure of the program is counted, not fatal
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        if err is not None:
            self.digits.append(P.digits(err))


def _quantile(data, q):
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


def environment(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def run_workload(workload, seed, seconds, trace, min_samples=MIN_SAMPLES):
    """Measure one workload; return (result line, report)."""
    env_record = environment(workload, seed, seconds, trace)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="problems-", dir=OUT)
    try:
        with warnings.catch_warnings():
            # a point outside the estimated bidisc fails the operation
            warnings.simplefilter("error", OutsideEstimatedDomain)
            return _run(workload, seed, seconds, trace, min_samples, env_record, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, min_samples, env_record, workdir):
    env = child_env()
    t_setup = time.perf_counter()
    cal = Calibration()
    run_child(_IMPORT_CODE, env, workdir)  # compiles the bytecode caches
    wl = Workload(workload, seed, workdir)
    env_record["bench_setup_s"] = time.perf_counter() - t_setup

    tally = Tally()
    tracer = Tracer() if trace else NULL
    top_s, half_s, untraced_s, cli_s = [], [], [], defaultdict(list)
    imports, import_cal, bare = [], [], []
    for prob in {p.model: p for p in wl.solves}.values():  # warm-up, one per model
        verified_solve(prob, NULL)

    def in_process(i):
        prob = wl.solves[i % len(wl.solves)]
        half = wl.companions[i % len(wl.solves)]

        def timed(p, sink, tr):
            t0 = time.perf_counter()
            out = verified_solve(p, tr)
            sink.append(time.perf_counter() - t0)
            return check_solve(p, *out)

        if not trace:
            tally.record(lambda: timed(prob, top_s, NULL))
            tally.record(lambda: timed(half, half_s, NULL))
            return

        def traced():
            tracer.problem = f"{prob.pid}#{i}"
            with tracer.span("bench.verified_solve"):
                pde, sol, report, radius, value = verified_solve(prob, tracer)
            scan = diagnose(pde, prob, tracer)
            tracer.count("frobenius.solve.coeffs", len(sol.coeffs))
            tracer.count("frobenius.solve.fill", len(sol.coeffs) / ((prob.order + 1) * (prob.order + 2) / 2))
            support = set(pde.a.coeffs) | set(pde.b.coeffs) | set(pde.c.coeffs)
            tracer.count("expr_parser.to_series.terms", len(support - {(0, 0)}))
            tracer.count("verify.residual_max.layers_checked", report.checked_up_to)
            tracer.count("indicial.resonance_scan.hits", len(scan.hits))
            if tuple(sorted(scan.hit_indices())) != tuple(sorted(prob.hits)):
                raise P.CheckFailed(f"{prob.pid}: scan hits differ from the lattice scan")
            return check_solve(prob, pde, sol, report, radius, value)

        # alternate the order, so that neither side always runs first
        steps = [lambda: timed(prob, untraced_s, NULL), traced]
        for step in steps if i % 2 == 0 else reversed(steps):
            tally.record(step)

    def cli(j):
        job = wl.jobs[j % len(wl.jobs)]

        def call():
            wall, proc = run_cli(job, env, workdir)
            cli_s[job.sub].append(wall)
            return P.check_cli(job, proc.returncode, proc.stdout, proc.stderr)

        tally.record(call)

    # Each path stops at the end of a whole pass over its problems or jobs,
    # so that every run weighs them alike; the solves go on at least as long
    # as the CLI calls, so that both paths span the same stretch of time.
    start = time.perf_counter()
    i = j = rounds = 0
    while True:
        time_up = time.perf_counter() - start >= seconds
        cli_done = time_up and j >= wl.cli_share * min_samples and j % len(wl.jobs) == 0

        def solve_done():
            return cli_done and i >= min_samples and i % len(wl.solves) == 0

        if cli_done and solve_done():
            break
        if tally.attempted > 20 and tally.failed * 2 > tally.attempted:
            break  # mostly failing: stop early, the result is incorrect anyway
        cal.run()
        if rounds % 2 == 0:
            imports.append(float(run_child(_IMPORT_CODE, env, workdir)[1]))
            cal.run()
            import_cal.append(cal.samples[-2:])
            if trace:
                bare.append(run_child("pass", env, workdir)[0])
        rounds += 1
        if not cli_done:
            cli(j)
            j += 1
        for _ in range(wl.solves_per_round):
            if solve_done():
                break
            in_process(i)
            i += 1
    elapsed = time.perf_counter() - start

    all_cli = [w for v in cli_s.values() for w in v]
    env_record.update(measured_s=elapsed, cli_calls=len(all_cli),
                      loadavg_end=list(os.getloadavg()))
    report = {"env": env_record, "errors": tally.errors}
    if not trace:
        env_record.update(solves=len(top_s), companions=len(half_s))
        raw = {
            "setup_s": statistics.median(imports),
            "problems_per_s": len(top_s) / sum(top_s) if top_s else math.nan,
            "verified_solve_ms_p50": 1e3 * statistics.median(top_s) if top_s else math.nan,
            "verified_solve_ms_p90": 1e3 * _quantile(top_s, 90) if len(top_s) > 1 else math.nan,
            "cli_ms_p50": 1e3 * statistics.median(all_cli) if all_cli else math.nan,
            "cli_ms_p90": 1e3 * _quantile(all_cli, 90) if len(all_cli) > 1 else math.nan,
        }
        f = cal.factor()
        metrics = {name: value * f for name, value in raw.items()}
        metrics["problems_per_s"] = raw["problems_per_s"] / f
        metrics["setup_s"] = Calibration.REFERENCE_S * statistics.median(
            t / statistics.fmean(c) for t, c in zip(imports, import_cal))
        metrics["growth_exp"] = (math.log2(statistics.median(top_s) / statistics.median(half_s))
                                 if top_s and half_s else math.nan)
        metrics["oracle_digits_min"] = min(tally.digits, default=math.nan)
        report["raw"] = raw
        report["calibration_s"] = cal.samples
        report["failed_share"] = tally.failed / max(1, tally.attempted)
        report["samples_s"] = {"verified_solve": top_s, "companion": half_s, "cli": dict(cli_s),
                               "import": imports, "import_calibration": import_cal}
    else:
        env_record.update(solves=len(untraced_s))
        metrics = _per_layer(tracer, untraced_s, cli_s, imports, bare)
        metrics["bench.calibration_ms"] = 1e3 * statistics.fmean(cal.samples)
        report["spans"] = tracer.to_json()
    result = {
        "correct": tally.failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in BENCH["per_layer" if trace else "end_to_end"]},
    }
    return result, report


def _per_layer(tracer, untraced_s, cli_s, imports, bare):
    self_times = tracer.self_times()
    runs = [pid for pid in self_times if pid is not None]
    med = statistics.median

    def busy_ms(name):
        return 1e3 * med([self_times[pid].get(name, 0.0) for pid in runs]) if runs else math.nan

    def mean_count(name):
        values = [tracer.counts[pid][name] for pid in runs if name in tracer.counts[pid]]
        return sum(values) / len(values) if values else math.nan

    metrics = {f"{name}.busy_ms": busy_ms(name) for name in _LAYER_SPANS}
    per_coeff = [self_times[pid]["frobenius.solve"] * 1e6 / tracer.counts[pid]["frobenius.solve.coeffs"]
                 for pid in runs if tracer.counts[pid].get("frobenius.solve.coeffs")]
    metrics["frobenius.solve.us_per_coeff"] = med(per_coeff) if per_coeff else math.nan
    for name in ("frobenius.solve.coeffs", "frobenius.solve.fill", "indicial.resonance_scan.hits",
                 "expr_parser.to_series.terms", "verify.residual_max.layers_checked"):
        metrics[name] = mean_count(name)
    metrics["bench.verified_solve.self_ms"] = busy_ms("bench.verified_solve")
    traced = tracer.durations("bench.verified_solve")
    metrics["trace.overhead_ms"] = (1e3 * (med(traced) - med(untraced_s))
                                    if traced and untraced_s else math.nan)
    for sub in P.SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_ms"] = 1e3 * med(cli_s[sub]) if cli_s[sub] else math.nan
    metrics["cli.import_ms"] = 1e3 * med(imports)
    metrics["cli.interpreter_ms"] = 1e3 * med(bare)
    return metrics
