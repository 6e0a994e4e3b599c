"""Tests of the benchmark itself: its metric catalogue, generated inputs
and guards.  Run with ``python3 -m pytest perfbench/tests -q``."""

import json
import re
from pathlib import Path

import pytest

import catalogue
import workloads
from catalogue import END_TO_END, GATE_BOUNDS, PER_LAYER, WORKLOADS
from workloads import CANARY, BenchFailure, ElectWorkload, Ledger

ROOT = Path(__file__).resolve().parents[2]


def test_metric_names_are_plain():
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert catalogue.NAME_RE.match(name), name


def test_every_layer_metric_names_what_it_moves_and_where():
    for metric in PER_LAYER:
        assert metric.moves in catalogue.E2E_BY_NAME, metric.name
        assert metric.workloads and set(metric.workloads) <= set(WORKLOADS), metric.name
        moved = catalogue.E2E_BY_NAME[metric.moves]
        assert set(metric.workloads) <= set(moved.workloads), metric.name


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    gated = catalogue.gated_end_to_end()
    assert [m["name"] for m in spec["end_to_end"]] == [m.name for m in gated]
    for entry, metric in zip(spec["end_to_end"], gated):
        assert entry["unit"] == metric.unit and entry["better"] == metric.better
        assert entry["bound"] == GATE_BOUNDS[metric.name] <= 0.25
        assert set(metric.workloads) == set(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [m.unit for m in PER_LAYER]
    assert [m["better"] == "higher" for m in spec["per_layer"]] == [
        m.name in catalogue.LAYER_HIGHER_IS_BETTER for m in PER_LAYER]


def test_seed_changes_the_cases_but_not_the_canary():
    one, two = workloads.elect_cases(1), workloads.elect_cases(2)
    assert one == workloads.elect_cases(1)
    assert one != two
    assert CANARY in one and CANARY in two
    assert (CANARY.n, CANARY.alpha, CANARY.seed) == (512, 0.5, 2)
    assert CANARY.expect_messages == 411687
    assert sorted({c.alpha for c in one}) == [0.25, 0.5, 1.0]
    later = workloads.elect_cases(1, 1)
    assert later != one and CANARY in later
    assert [(c.protocol, c.n, c.alpha) for c in later] == [(c.protocol, c.n, c.alpha) for c in one]
    assert workloads.serve_chain(1, 0, 2) != workloads.serve_chain(2, 0, 2)
    assert workloads.serve_chain(1, 0, 2) != workloads.serve_chain(1, 1, 2)
    assert workloads.wire_specs(1) != workloads.wire_specs(2)


def test_serve_chain_shares_half_of_each_campaign_with_the_previous():
    from repro.analysis.sweeps import enumerate_sweep_specs

    def keys(campaign):
        specs = enumerate_sweep_specs("t", campaign["grid"], campaign["trials"],
                                      master_seed=campaign["master_seed"])
        return [(json.dumps(s.point, sort_keys=True), s.seed) for s in specs]

    chain = [keys(c) for c in workloads.serve_chain(7, 3, 2)]
    for previous, current in zip(chain, chain[1:]):
        half = len(current) // 2
        assert current[:half] == previous[half:]
        assert not set(current[half:]) & set(k for c in chain[: chain.index(current)] for k in c)


def test_vec_guard_trips_when_timers_would_reroute_to_ref():
    from repro.obs import PhaseTimers

    for case in workloads.elect_cases(1):
        workloads.ensure_vec_case(case)
        with pytest.raises(BenchFailure, match="fall back to ref"):
            workloads.ensure_vec_case(case, timers=PhaseTimers())


def test_traced_guard_trips_on_any_reference_engine_run(tmp_path):
    class FakeTracer:
        def __init__(self, runs, vec):
            self.calls = {"sim.run": runs, "sim.vec": vec}

    bench = ElectWorkload("vec", 1, tmp_path, Ledger(), workloads.Calibration())
    ops = [{}] * 5
    bench.traced_checks(ops, FakeTracer(0, 5))
    with pytest.raises(BenchFailure):
        bench.traced_checks(ops, FakeTracer(1, 4))
    with pytest.raises(BenchFailure):
        bench.traced_checks(ops, FakeTracer(0, 4))


def test_tail_needs_ten_samples_beyond_it():
    assert catalogue.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert catalogue.tail(list(range(20)))[1] == 50.0
    value, pct = catalogue.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)
    assert sum(1 for i in range(100) if i > value) == 10


def test_ledger_counts_a_failed_check_as_a_failed_operation():
    ledger = Ledger()
    ledger.record([])
    ledger.record(["bad", "worse"])
    assert (ledger.attempted, ledger.failed, len(ledger.problems)) == (2, 1, 2)


def test_reference_seconds_use_the_idle_points_around_each_pass():
    calibration = workloads.Calibration()
    calibration.idle_points = [[0.016, 0.016, 0.016], [0.008, 0.008, 0.5], [0.008, 0.008, 0.008]]
    # An op after idle point 1 uses points 1 and 2; one slow sample among
    # them does not move the median.
    ref = workloads.Calibration.REF_S
    assert calibration.scale(1) == 1.0
    assert calibration.scale(0) == (ref / 0.016) ** workloads.Calibration.EXPONENT
    ops = [{"seconds": 2.0, "position": 0}]
    assert workloads.timing(ops, None) == [2.0]
    assert workloads.timing(ops, calibration) == [2.0 * calibration.scale(0)]
    with pytest.raises(RuntimeError):
        workloads.Calibration().measure(len, ())
    calibration.measure(len, ())
    assert len(calibration.idle_points) == 4


def test_pass_count_depends_on_the_arguments_only():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == catalogue.RUN_SECONDS
    for workload in WORKLOADS:
        assert catalogue.passes_for(workload, catalogue.RUN_SECONDS) == catalogue.PASSES[workload]
        assert catalogue.passes_for(workload, 2 * catalogue.RUN_SECONDS) == 2 * catalogue.PASSES[workload]
        assert catalogue.passes_for(workload, 0.1) == 1


def test_settle_waits_out_a_busy_child():
    import subprocess
    import sys

    assert workloads.settle(timeout=1.0)[1]
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        waited, idle = workloads.settle(timeout=0.6)
    finally:
        child.kill()
        child.wait()
    assert not idle and waited >= 0.6


def test_trace_overhead_pairs_alternate_on_the_same_inputs():
    import run

    class Bench:
        def __init__(self):
            self.calls = []

        def run_pass(self, index, traced):
            self.calls.append((index, traced))
            calibration.idle_points.append([workloads.Calibration.REF_S])
            return [{"seconds": 2.0 if traced else 1.0, "position": 0}]

    class FakeTracer:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    bench, calibration = Bench(), workloads.Calibration()
    calibration.idle_points.append([workloads.Calibration.REF_S])
    plain, traced, ratios = run.run_pairs(bench, calibration, FakeTracer(), 3)
    assert bench.calls == [(0, False), (0, True), (1, True), (1, False), (2, False), (2, True)]
    assert (len(plain), len(traced), ratios) == (3, 3, [2.0, 2.0, 2.0])


def test_rates_divide_run_totals():
    ops = [{"messages": m} for m in (10, 10, 40)]
    assert workloads.rate(ops, [1.0, 1.0, 3.0], lambda op: op["messages"]) == 12.0
    assert workloads.rate(ops, [1.0, 1.0, 3.0], lambda op: 1) == 0.6
