"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The steadiness test runs the real benchmark six times (about three minutes).
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from frobpde import catalog, parse_expr, to_series  # noqa: E402

import problems as P  # noqa: E402
import steady  # noqa: E402
import workloads as W  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("model", sorted(P.MODELS))
def test_model_strings_give_the_catalog_series(model):
    rng = random.Random(5)
    for _ in range(3):
        prob = P.catalog_problem(model, model, rng, 12)
        pde = catalog.make_pde(prob.catalog_entry(), 12)
        assert (prob.A, prob.B, prob.C) == (pde.A, pde.B, pde.C)
        series = [to_series(parse_expr(t), prob.params, 12) for t in prob.abc]
        assert series == [pde.a, pde.b, pde.c]
        assert prob.consts0 == tuple(s.constant_term() for s in series)
        assert prob.conic_coeffs() == pde.conic().coefficients()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_points_lie_on_the_conic_away_from_strict_resonances(workload, tmp_path):
    wl = W.Workload(workload, 3, tmp_path)
    for prob in wl.solves + wl.companions:
        assert abs(P.conic_value(prob.conic_coeffs(), *prob.point)) < P.TOL
        if prob.policy == "strict":
            assert not prob.hits, prob.pid
        else:
            assert all(q1 != q2 for q1, q2 in prob.hits), prob.pid


def test_same_seed_same_problems(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = W.Workload("cli_mixed", 11, tmp_path / "a")
    b = W.Workload("cli_mixed", 11, tmp_path / "b")
    assert [p.file_payload() for p in a.solves] == [p.file_payload() for p in b.solves]
    def jobs(wl):
        return [(j.sub, j.problem.file_payload() if j.problem else j.argv) for j in wl.jobs]

    assert jobs(a) == jobs(b)


def test_oracle_gate_catches_a_corrupted_coefficient():
    prob = P.catalog_problem("legendre_II", "legendre_II", random.Random(2), 12)
    oracle = P.build_oracle(prob)
    table = {Q: v for Q, v in oracle.table.items() if v != 0}
    assert P.oracle_error(oracle, table) == 0.0
    table[(3, 3)] *= 1 + 1e-6
    assert P.oracle_error(oracle, table) > P.ORACLE_GATE


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_every_workload(workload, trace):
    result, report = W.run_workload(workload, seed=7, seconds=0, trace=trace, min_samples=12)
    assert result["failed"] == 0, report["errors"]
    assert result["correct"]
    assert result["attempted"] >= 24
    if not trace:
        assert report["failed_share"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*BENCH["command"], "--workload", "cli_mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_two_sets_of_runs_agree_within_the_bounds():
    assert steady.main(["--runs", "3", "--sets", "2", "--seconds", "1",
                        "--workloads", "cli_mixed", "--first-seed", "101"]) == 0
