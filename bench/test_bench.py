"""Fast tests of the benchmark itself: seeded inputs, metric names, and
the references and checks that judge every operation.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The slower check that exact counts repeat under a seed is in
counts_check.py.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from groverweight import oracle, statevector, subspace, sure_success

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_under_a_seed(workload):
    first = [op.desc for op in workloads.make_round(workload, 7, 0)]
    again = [op.desc for op in workloads.make_round(workload, 7, 0)]
    other = [op.desc for op in workloads.make_round(workload, 8, 0)]
    next_round = [op.desc for op in workloads.make_round(workload, 7, 1)]
    assert first == again
    assert first != other
    assert first != next_round


def test_metric_names_and_counts():
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, *_ in spans.LAYER_METRICS
    ]
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS
    assert set(spans.EXACT_COUNTS) <= {name for name, *_ in spans.LAYER_METRICS}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("w", [0.05, 11 / 32, 0.41, 0.4999, 0.7])
def test_sure_success_reference_matches_the_plane_kernel(w):
    plan = sure_success.plan_for_weight(w)
    for u in (w, 1 - w):
        vec = subspace.evolve(u, plan.schedule)
        reference = workloads._sure_solution_probability(plan.k, plan.theta1, plan.theta2, u)
        assert reference == pytest.approx(abs(vec[1]) ** 2, abs=1e-10)


@pytest.mark.parametrize("k, g", [(3, 3), (31, 29791), (999, 998001), (99, 970299), (999_999, 999_999)])
def test_binomial_reference_matches_scipy_stats(k, g):
    from scipy.stats import binom

    p = workloads._query_accuracy(k)
    assert workloads.bdtr((g - 1) // 2, g, p) == pytest.approx(binom.cdf((g - 1) // 2, g, p), rel=1e-8)


def test_hex_reference_matches_to_hex():
    orc = oracle.make_random_oracle(6, 23, seed=3)
    assert workloads._hex_reference(orc.bits) == orc.to_hex()


def test_checks_reject_wrong_results():
    classical_op = workloads._classical_op(5, 25)
    assert classical_op.check(classical_op.call()) is None
    assert classical_op.check(classical_op.call() * (1 + 1e-6))

    counting_op = workloads._counting_op((Fraction(7), Fraction(7, 2)), 7, "register")
    plan, masses = counting_op.call()
    assert counting_op.check((plan, masses)) is None
    assert counting_op.check((plan, [masses[0], 0.99]))

    exact_op = workloads._exact_op(3, 1 << 19, 1 << 20, 1 << 19)
    assert exact_op.check(0.5)

    inst = workloads._Instance(8, 40, seed=1)
    assert inst.build_op().check(inst.build_op().call()) is None
    schedule = subspace.PhaseSchedule.standard(2)
    run_op = inst.run_op("standard", schedule)
    good = run_op.call()
    assert run_op.check(good) is None
    assert run_op.check(statevector.StateVector(n=8, amps=np.roll(good.amps, 1)))


def test_report_parser_reads_csv_and_json():
    csv_text = "# command = mu\n# version = 0\n# seed = none\nk,mu\n1,0.25\n"
    json_text = json.dumps({"metadata": {"command": "mu"}, "columns": ["k", "mu"], "rows": [["1", "0.25"]]})
    for text in (csv_text, json_text):
        meta, columns, rows = workloads.parse_report(text)
        assert meta["command"] == "mu" and columns == ["k", "mu"] and rows == [["1", "0.25"]]
    assert workloads._rows_match([["1", "0.25"]], [(1, 0.25)]) is None
    assert workloads._rows_match([["1", "0.26"]], [(1, 0.25)])
    assert workloads._rows_match([["1", "nan"]], [(1, math.nan)]) is None


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        [0, "outer", 0.0, 10.0, None, "0"],
        [1, "inner", 1.0, 4.0, 0, "0"],
        [2, "inner", 5.0, 6.0, 0, "0"],
        [3, "leaf", 2.0, 3.0, 1, "0"],
    ]
    summary = spans.self_times(tracer.spans)
    assert summary["outer"] == (1, 10.0, 6.0)
    assert summary["inner"] == (2, 4.0, 3.0)
    assert summary["leaf"] == (1, 1.0, 1.0)


def test_tracing_restores_the_package_and_counts_calls():
    original = subspace.evolve
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert subspace.evolve is not original
        with tracer.recording("op.planner"):
            sure_success.plan_for_weight(0.3)
        sure_success.plan_for_weight(0.4)  # outside an operation: not recorded
    assert subspace.evolve is original
    metrics = spans.layer_metrics(tracer, {})
    assert metrics["sure_success.plans"] == 1
    assert metrics["sure_success.k_sum"] == sure_success.select_k(0.3)
    assert metrics["subspace.evolve_calls"] == 2
    assert metrics["sure_success.branch_yield"] == 1.0
    assert metrics["sure_success.plan_self_s"] <= metrics["sure_success.plan_s"]
