"""Tests of the benchmark's own code: span self time, the tail rule, input
determinism, and agreement of BENCHMARK.json with the metrics produced."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(start, end, parent=None, counted=0.0):
    return SimpleNamespace(start=start, end=end, parent=parent, counted_child_s=counted)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span(0.0, 10.0),  # 0: root
        _span(1.0, 4.0, parent=0, counted=0.5),  # 1
        _span(2.0, 3.0, parent=1),  # 2: grandchild, only reduces span 1
        _span(5.0, 9.0, parent=0),  # 3
        _span(6.0, 7.0, parent=3),  # 4
        _span(6.5, 8.0, parent=3),  # 5: overlaps 4; the union is covered once
        _span(8.5, 12.0, parent=3),  # 6: runs past its parent; clipped at 9
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx([10 - 3 - 4, 3 - 1 - 0.5, 1.0, 4 - 2.5, 1.0, 1.5, 3.5])


def test_tracer_records_nested_spans_and_counted_calls():
    t = tracer.Tracer()
    leaf = t.wrap("io.format_float", lambda x: str(x))  # counted
    inner = t.wrap("io.write_csv", lambda: [leaf(i) for i in range(3)])
    outer = t.wrap("phasematch.period_sweep", lambda: inner())
    t.round = 7
    outer()
    names = [s.name for s in t.spans]
    assert names == ["phasematch.period_sweep", "io.write_csv"]
    assert t.spans[1].parent == 0 and t.spans[0].parent is None
    assert {s.round for s in t.spans} == {7}
    assert t.calls == {"io.format_float": 3}
    assert t.spans[1].counted_child_s == pytest.approx(t.seconds["io.format_float"])
    assert t.spans[0].counted_child_s == 0.0


def test_tracer_install_wraps_reimports_and_uninstall_restores():
    sys.path.insert(0, str(HERE.parent / "src"))
    import coexpm.cli  # noqa: F401

    import coexpm

    before = coexpm.dispersion.ktp_axes
    assert coexpm.phasematch.ktp_axes is before
    t = tracer.Tracer()
    t.install(coexpm, {})
    try:
        assert coexpm.phasematch.ktp_axes is coexpm.dispersion.ktp_axes is not before
        coexpm.phasematch.degeneracy_pump_nm(25.0)
    finally:
        t.uninstall()
    assert coexpm.phasematch.ktp_axes is before and coexpm.dispersion.ktp_axes is before
    assert [s.name for s in t.spans] == ["phasematch.degeneracy_pump_nm", "phasematch.brentq"]
    assert t.spans[1].parent == 0
    assert t.calls["phasematch.delta_k"] >= 3  # two bracket ends plus Brent steps


def test_layer_metrics_are_per_traced_round():
    t = tracer.Tracer()
    fmt = t.wrap("io.format_float", lambda x: str(x))
    sweep = t.wrap("phasematch.period_sweep", lambda: [fmt(i) for i in range(3)])
    for r in range(4):
        t.round = r
        with t.span("cli.design"):
            sweep()
    m = layers.layer_metrics(t, 4, 0.5)
    assert m["phasematch.period_sweep.calls"] == 1.0
    assert m["io.format_float.calls"] == 3.0
    assert m["cli.design.s"] >= m["phasematch.period_sweep.s"] > 0.0
    assert m["poling.efficiency_samples.n1066.s"] == 0.0  # idle layer
    assert m["trace.overhead_s"] == 0.5
    assert list(m) == list(layers.UNITS)


@pytest.mark.parametrize(
    "n, pct, value",
    [
        (1, 50.0, 1.0),
        (20, 50.0, 10.5),  # too few rounds for a tail: the median stands in
        (21, 100.0 * 11 / 21, 11.0),  # 11th largest: exactly ten rounds beyond it
        (100, 90.0, 90.0),
        (1000, 99.0, 990.0),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_rounds_beyond(n, pct, value):
    values = [float(v) for v in range(n, 0, -1)]  # order must not matter
    got_pct, got = measure.tail(values)
    assert got_pct == pytest.approx(pct)
    assert got == value
    if n > 20:
        assert sum(v > got for v in values) == 10


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_inputs_are_a_function_of_the_seed(workload):
    a = [workloads.round_inputs(workload, 5, r) for r in range(20)]
    assert a == [workloads.round_inputs(workload, 5, r) for r in range(20)]
    assert a != [workloads.round_inputs(workload, 6, r) for r in range(20)]
    assert len({json.dumps(x, sort_keys=True) for x in a}) == 20


def test_design_inputs_stay_in_their_ranges():
    for r in range(200):
        x = workloads.round_inputs("design", 3, r)
        assert 20.0 <= x["temperature_c"] <= 60.0
        assert 1.5 <= x["period_mm"] <= 3.0


def test_benchmark_json_matches_the_metrics_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
