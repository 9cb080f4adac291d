"""Tests of the benchmark's own code: python -m pytest bench -q"""
import inspect
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing      # noqa: E402
import workloads    # noqa: E402


def _span(name, start, end, parent, hot_s=0.0):
    return tracing.Span(name, start, end, parent, 0, hot_s)


def test_self_time_subtracts_children_hot_calls_and_overlap_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0, hot_s=0.5),   # overlaps a on [3, 4]
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),          # clipped to the root's end
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0 - 0.5, 1.0, 3.0])


def test_covered_merges_and_clips():
    assert tracing.covered([(5, 7), (0, 2), (1, 3), (6, 9)], 0.5, 8.0) == \
        pytest.approx(2.5 + 3.0)
    assert tracing.covered([], 0.0, 1.0) == 0.0


@pytest.mark.parametrize("seed", [1, workloads.HELD_OUT_SEED])
def test_sweep_points_repeat_for_a_seed_and_keep_the_plan(seed):
    points = workloads.sweep_points(seed)
    assert points == workloads.sweep_points(seed)
    assert points != workloads.sweep_points(seed + 1)
    assert len(points) == workloads.SWEEP_POINTS
    for i, p in enumerate(points):
        kind, n_atoms = workloads.SWEEP_KINDS[i % len(workloads.SWEEP_KINDS)]
        assert (p.kind, len(p.config.atoms)) == (kind, n_atoms)
        z = [a.position for a in p.config.atoms]
        assert z[-1] <= 0.25
        if n_atoms == 2:
            assert z[1] >= 3.0 * z[0]
        # the round trip 2 z1 is the shortest delay: the default plan
        assert min(p.config.delays) == 2.0 * z[0]
        assert p.settings.dt == min(p.config.delays) / 64.0
        assert p.settings.t_end == 40.0 * z[0]
        assert workloads.plan_steps(p.settings.t_end, p.settings.dt) == \
            workloads.SWEEP_STEPS


def _targets():
    import importlib
    out = []
    for module, path, *_ in tracing.TARGETS:
        owner = importlib.import_module(module)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        out.append((owner, attr, inspect.getattr_static(owner, attr)))
    return out


def test_remove_restores_every_original():
    before = _targets()
    installed = tracing.install(tracing.Tracer())
    try:
        assert installed.missing == []
        for owner, attr, original in before:
            assert inspect.getattr_static(owner, attr) is not original
    finally:
        installed.remove()
    for owner, attr, original in before:
        assert inspect.getattr_static(owner, attr) is original


def test_traced_pipeline_counts_steps_rhs_and_history(tmp_path):
    point = workloads.sweep_points(3)[0]          # c_ee alone, two atoms
    presets = sys.modules["wqsim.presets"]
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    installed = tracing.install(tracer)
    try:
        presets.run_pipeline(point.config, point.settings, tmp_path,
                             kind=point.kind)
    finally:
        installed.remove()
    m = tracing.pass_metrics(tracer, 0)
    steps = workloads.SWEEP_STEPS
    n_delays = len(point.config.round_trip_delays)
    assert m["dde.integrate.calls"] == 1
    assert m["dde.steps"] == steps
    assert m["dde.rhs.evals"] == 4 * steps + 1
    assert m["dde.history.samples"] == n_delays * (4 * steps + 1)
    assert m["runio.write_csv.calls"] == 1
    assert m["runio.write_csv.rows"] == steps + 1
    assert m["runio.write_csv.bytes"] == (tmp_path / "cee.csv").stat().st_size
    assert m["dde.steps_per_s.dim1"] > 0 and m["dde.steps_per_s.dim2"] == 0
    assert 0 <= m["presets.self_s"] < m["presets.run_pipeline.s"]
    assert math.isclose(m["dde.integrate.self_s"],
                        m["dde.integrate.s"] - m["dde.rhs.s"]
                        - m["dde.history.s"])
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans
               if s.parent >= 0}
    assert parents["dde.integrate"] == "frequency.solve_cee"
    assert parents["frequency.solve_cee"] == "presets.run_pipeline"


def test_output_digest_ignores_only_the_manifest_timestamp(tmp_path):
    (tmp_path / "a.csv").write_text("x\n1\n")
    (tmp_path / "manifest.txt").write_text("timestamp = 1\nk = v\n")
    first = workloads.output_digest(tmp_path)
    (tmp_path / "manifest.txt").write_text("timestamp = 2\nk = v\n")
    assert workloads.output_digest(tmp_path) == first
    (tmp_path / "manifest.txt").write_text("timestamp = 2\nk = w\n")
    assert workloads.output_digest(tmp_path) != first


def test_benchmark_json_lists_the_metrics_the_code_reports():
    import json
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
