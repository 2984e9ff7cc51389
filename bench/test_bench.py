"""Tests of the benchmark itself: input generators, failure accounting,
and the negative control.

    python3 -m pytest bench/ -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import inputs
import run
import worker
import workloads


def worker_result(*args):
    proc = subprocess.run([sys.executable, str(workloads.BENCH / "worker.py"), *args],
                          cwd=workloads.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda rng: inputs.commutation_edges(rng, "abcd", 2),
    lambda rng: inputs.diagonal_factors(rng, 10),
    lambda rng: inputs.query_pool(rng, [["a", "b"], ["[a,b]"], ["R(a)", "R(b)"]], 12),
    lambda rng: inputs.example_cycle(rng, list(range(8)), 2),
])
def test_generators_follow_the_seed(make):
    assert make(inputs.rng_for(7, "x")) == make(inputs.rng_for(7, "x"))
    assert make(inputs.rng_for(7, "x")) != make(inputs.rng_for(8, "x"))


def test_commutation_edges_are_distinct_pairs():
    edges = inputs.commutation_edges(inputs.rng_for(1), "abcd", 6)
    assert sorted(edges) == sorted({(a, b) for a, b in edges if a < b})
    with pytest.raises(ValueError):
        inputs.commutation_edges(inputs.rng_for(1), "abc", 4)


def test_diagonal_factors_are_nonzero_and_not_all_integral():
    for seed in range(20):
        factors = inputs.diagonal_factors(inputs.rng_for(seed), 3)
        assert all(factors)
        assert any(f.denominator != 1 for f in factors)


def test_rescaled_table_is_an_isomorphic_algebra():
    sys.path.insert(0, str(workloads.SRC))
    from rblie.algebras import StructureAlgebra, load_algebra

    so3 = load_algebra(workloads.SO3)
    factors = {"a": Fraction(2, 3), "b": Fraction(-5), "c": Fraction(1, 4)}
    scaled = StructureAlgebra(so3.names, so3.kind, dot=inputs.rescale_table(so3.dot, factors),
                              bracket=inputs.rescale_table(so3.bracket, factors))
    assert scaled.validate().passed
    # [a', b'] = (2/3)(-5) [a, b] = (-10/3) c = (-10/3)(4) c'
    assert scaled.bracket[("a", "b")] == {"c": Fraction(-40, 3)}


def test_example_cycle_visits_every_example_each_round():
    cycle = inputs.example_cycle(inputs.rng_for(3), list(range(8)), 2)
    assert sorted(cycle[:8]) == sorted(cycle[8:]) == list(range(8))


# -- accounting ---------------------------------------------------------------


def test_percentile_leaves_ten_items_beyond():
    for p in run.TAIL_PERCENTILE.values():
        n = run.items_needed(p)
        assert run.percentile(range(n), p)[1] >= 10
        assert run.percentile(range(n - 1), p)[1] < 10


def test_raising_items_are_counted_not_fatal(monkeypatch):
    def deep():
        raise RecursionError("too deep")

    def fake(seed, index, tracer, untimed, corrupt):
        return workloads.Plan([deep, deep, deep, lambda: (True, None)])

    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake)
    result = worker.run_pass("fake", 1, 0, False, False)
    assert (result["attempted"], result["failed"]) == (4, 3)
    assert result["errors"] == {"RecursionError": 3}


def test_without_the_program_no_result_is_printed(tmp_path):
    shutil.copytree(workloads.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "derived-free",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_program_that_raises_in_set_up_gets_a_false_verdict(tmp_path):
    shutil.copytree(workloads.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(workloads.SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src" / "rblie" / "free_rb.py").write_text("raise RuntimeError('broken')\n")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "derived-free",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == run.MIN_PASSES
    assert result["metrics"] == {}


# -- negative control ---------------------------------------------------------


@pytest.mark.parametrize("workload", ["derived-free", "env-queries", "cli-readme"])
def test_outputs_pass_their_oracles(workload):
    result = worker_result(workload, "1", "0")
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]


@pytest.mark.parametrize("workload", ["derived-free", "env-queries", "cli-readme"])
def test_corrupted_rule_drives_fail_ratio_above_zero(workload):
    # the engine's corrupt_sign switch flips one sign in its Jacobi rule;
    # for the CLI the hidden --corrupt-rule flag sets it
    result = worker_result(workload, "1", "0", "--corrupt-sign")
    assert result["failed"] > 0


# -- tracing ------------------------------------------------------------------


def test_traced_basis_enum_reports_every_layer_and_makes_no_products():
    result = worker_result("basis-enum", "1", "0", "--trace")
    layers = result["layers"]
    names = {m["name"] for m in json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
             ["per_layer"]}
    assert names - set(layers) == {"cli.interp_start_ms", "cli.import_ms",
                                   "trace.overhead_s", "trace.overhead_share",
                                   "trace.residual_share"}
    assert layers["straighten.mult_calls"] == 0
    assert layers["straighten.basis_calls"] > 0
    assert result["failed"] == 0
