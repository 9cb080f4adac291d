"""Span and counter tracing for the benchmark, installed from outside wqsim.

Each traced function is replaced, at the name its calling module imported
(for example `wqsim.presets.solve_spectral_pair` and
`wqsim.frequency.integrate`), by a wrapper that records a span and the
counters of that call.  Spans stay in memory until the run writes them out.

Two call sites are too hot for one span per call (up to about 10^6 calls
per pass): the rhs closures a `DelaySystem` carries and
`HistoryBuffer.sample`.  Their calls and time are accumulated as counters,
and their time is charged to the enclosing span (the `dde.integrate` call)
as covered child time, so self times stay exact.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from workloads import plan_steps

_clock = time.perf_counter


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    pass_id: int
    hot_s: float = 0.0   # time of hot calls (counters only) inside this span
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float
            ) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans and its hot
    calls cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i], s.start, s.end) - s.hot_s
            for i, s in enumerate(spans)]


class Tracer:
    """In-memory spans plus per-pass counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.pass_id = -1
        self._stack: list[int] = []

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._stack.clear()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, _clock(), math.nan, parent,
                               self.pass_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = _clock()
        self._stack.pop()
        return span

    def hot(self, name: str, seconds: float) -> None:
        counters = self.counters[self.pass_id]
        counters[name + ".calls"] += 1
        counters[name + ".s"] += seconds
        if self._stack:
            self.spans[self._stack[-1]].hot_s += seconds

    def write_jsonl(self, path: Path, t0: float) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "name": s.name, "pass": s.pass_id, "parent": s.parent,
                    "start": s.start - t0, "end": s.end - t0,
                    "self_s": own, **s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _span_wrapper(tracer: Tracer, name: str, fn: Callable,
                  after: Callable | None = None) -> Callable:
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        if after is not None:
            after(span, sig.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def _hot_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.hot(name, _clock() - t0)

    return wrapper


def _integrate_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """dde.integrate span; the system's rhs is swapped for a counting copy."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        system = bound.arguments["system"]
        bound.arguments["system"] = dataclasses.replace(
            system, rhs=_hot_wrapper(tracer, "dde.rhs", system.rhs))
        index = tracer.open("dde.integrate")
        try:
            result = fn(*bound.args, **bound.kwargs)
        finally:
            span = tracer.close(index)
        span.attrs.update(dim=system.dim, steps=plan_steps(
            bound.arguments["t_span"][1], bound.arguments["dt"]))
        return result

    return wrapper


def _after_pair(span, args, result) -> None:
    span.attrs.update(record_stride=result.stride,
                      record_bytes=result.cegk.nbytes + result.cgek.nbytes)


def _after_two_photon(span, args, result) -> None:
    pair = args["pair"]
    n = len(pair.kgrid)
    # nodes folded into the running sums: up to the latest checkpoint
    n_rec = 1 + max((pair.index_at(t) for t, _ in result), default=-1)
    span.attrs.update(checkpoints=len(result), gflop=16.0 * n_rec * n * n / 1e9)


def _after_oracle(span, args, result) -> None:
    n = len(args["kgrid"])
    m = len(result.ckk_grid)
    span.attrs.update(steps=plan_steps(args["t_end"], args["dt"]),
                      state_bytes=16 * (1 + 2 * n + n * m))


def _after_snapshot(span, args, result) -> None:
    span.attrs["points"] = len(result.z_values)


def _after_csv(span, args, result) -> None:
    span.attrs.update(rows=len(args["columns"][0]),
                      bytes=Path(result).stat().st_size)


# (module, attribute path, span name, kind, after-hook).  A target missing
# from the library is skipped and reported; its metrics then read 0.
TARGETS = (
    ("wqsim.presets", "run_pipeline", "presets.run_pipeline", "span", None),
    ("wqsim.presets", "solve_cee", "frequency.solve_cee", "span", None),
    ("wqsim.presets", "solve_spectral_pair", "frequency.solve_spectral_pair",
     "span", _after_pair),
    ("wqsim.presets", "solve_two_photon", "frequency.solve_two_photon",
     "span", _after_two_photon),
    ("wqsim.presets", "solve_single_atom", "spatial.solve", "span", None),
    ("wqsim.presets", "solve_two_atom_single_excitation", "spatial.solve",
     "span", None),
    ("wqsim.presets", "field_snapshot", "spatial.field_snapshot", "span",
     _after_snapshot),
    ("wqsim.presets", "single_excitation_norm",
     "spatial.single_excitation_norm", "span", None),
    ("wqsim.presets", "write_csv", "runio.write_csv", "span", _after_csv),
    ("wqsim.presets", "write_manifest", "runio.write_manifest", "span", None),
    ("wqsim.verify", "solve_cee", "frequency.solve_cee", "span", None),
    ("wqsim.verify", "oracle_full_grid", "frequency.oracle", "span",
     _after_oracle),
    ("wqsim.spatial", "solve_cee", "frequency.solve_cee", "span", None),
    ("wqsim.spatial", "field_snapshot", "spatial.field_snapshot", "span",
     _after_snapshot),
    ("wqsim.frequency", "integrate", "dde.integrate", "integrate", None),
    ("wqsim.spatial", "integrate", "dde.integrate", "integrate", None),
    ("wqsim.dde", "Trajectory.sample_grid", "dde.sample_grid", "span", None),
    ("wqsim.dde", "HistoryBuffer.sample", "dde.history", "hot", None),
)


class Installed:
    """Wrappers in place; `remove()` puts every original back."""

    def __init__(self, saved: list[tuple[object, str, object]],
                 missing: list[str]) -> None:
        self.saved = saved
        self.missing = missing

    def remove(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []


def install(tracer: Tracer) -> Installed:
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for module_name, path, name, kind, after in TARGETS:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        try:
            for part in owner_path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{module_name}.{path}")
            continue
        if kind == "span":
            wrapped = _span_wrapper(tracer, name, original, after)
        elif kind == "integrate":
            wrapped = _integrate_wrapper(tracer, original)
        else:
            wrapped = _hot_wrapper(tracer, name, original)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)
    return Installed(saved, missing)


# ---------------------------------------------------------------------------
# per-layer metrics of one pass
# ---------------------------------------------------------------------------

LAYER_METRICS = {
    "dde.integrate.calls": "count", "dde.steps": "count",
    "dde.rhs.evals": "count", "dde.history.samples": "count",
    "dde.sample_grid.calls": "count",
    "dde.integrate.s": "s", "dde.rhs.s": "s", "dde.history.s": "s",
    "dde.integrate.self_s": "s", "dde.sample_grid.s": "s",
    "dde.steps_per_s.dim1": "1/s", "dde.steps_per_s.dim2": "1/s",
    "dde.steps_per_s.dim2N": "1/s",
    "frequency.solve_cee.s": "s", "frequency.solve_spectral_pair.s": "s",
    "frequency.pair.record_stride": "count",
    "frequency.pair.record_bytes": "bytes",
    "frequency.solve_two_photon.s": "s",
    "frequency.two_photon.checkpoints": "count",
    "frequency.two_photon.gflop": "GFLOP",
    "frequency.oracle.s": "s", "frequency.oracle.steps": "count",
    "frequency.oracle.step_ms": "ms", "frequency.oracle.state_bytes": "bytes",
    "spatial.solve.s": "s", "spatial.field_snapshot.calls": "count",
    "spatial.field_snapshot.points": "count", "spatial.field_snapshot.s": "s",
    "spatial.single_excitation_norm.s": "s",
    "runio.write_csv.calls": "count", "runio.write_csv.rows": "count",
    "runio.write_csv.bytes": "bytes", "runio.write_csv.s": "s",
    "runio.write_manifest.s": "s",
    "presets.run_pipeline.s": "s", "presets.self_s": "s",
    "trace.overhead_s": "s",
}


def pass_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded: it
    compares runs, not spans)."""
    selfs = self_times(tracer.spans)
    time_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)
    dim_steps: dict[str, float] = defaultdict(float)
    dim_s: dict[str, float] = defaultdict(float)
    pipeline_self = 0.0
    for s, own in zip(tracer.spans, selfs):
        if s.pass_id != pass_id:
            continue
        time_s[s.name] += s.duration
        calls[s.name] += 1
        for key, value in s.attrs.items():
            if key == "record_stride":
                attr[f"{s.name}.{key}"] = max(attr[f"{s.name}.{key}"], value)
            elif key != "dim":
                attr[f"{s.name}.{key}"] += value
        if s.name == "dde.integrate":
            dim = s.attrs["dim"]
            label = "dim1" if dim == 1 else "dim2" if dim == 2 else "dim2N"
            dim_steps[label] += s.attrs["steps"]
            dim_s[label] += s.duration
        elif s.name == "presets.run_pipeline":
            pipeline_self += own
    counters = tracer.counters[pass_id]
    oracle_steps = attr["frequency.oracle.steps"]
    out = {
        "dde.integrate.calls": calls["dde.integrate"],
        "dde.steps": attr["dde.integrate.steps"],
        "dde.rhs.evals": counters["dde.rhs.calls"],
        "dde.history.samples": counters["dde.history.calls"],
        "dde.sample_grid.calls": calls["dde.sample_grid"],
        "dde.integrate.s": time_s["dde.integrate"],
        "dde.rhs.s": counters["dde.rhs.s"],
        "dde.history.s": counters["dde.history.s"],
        "dde.integrate.self_s": (time_s["dde.integrate"] - counters["dde.rhs.s"]
                                 - counters["dde.history.s"]),
        "dde.sample_grid.s": time_s["dde.sample_grid"],
        "frequency.solve_cee.s": time_s["frequency.solve_cee"],
        "frequency.solve_spectral_pair.s":
            time_s["frequency.solve_spectral_pair"],
        "frequency.pair.record_stride":
            attr["frequency.solve_spectral_pair.record_stride"],
        "frequency.pair.record_bytes":
            attr["frequency.solve_spectral_pair.record_bytes"],
        "frequency.solve_two_photon.s": time_s["frequency.solve_two_photon"],
        "frequency.two_photon.checkpoints":
            attr["frequency.solve_two_photon.checkpoints"],
        "frequency.two_photon.gflop": attr["frequency.solve_two_photon.gflop"],
        "frequency.oracle.s": time_s["frequency.oracle"],
        "frequency.oracle.steps": oracle_steps,
        "frequency.oracle.step_ms": (1e3 * time_s["frequency.oracle"]
                                     / oracle_steps if oracle_steps else 0.0),
        "frequency.oracle.state_bytes": attr["frequency.oracle.state_bytes"],
        "spatial.solve.s": time_s["spatial.solve"],
        "spatial.field_snapshot.calls": calls["spatial.field_snapshot"],
        "spatial.field_snapshot.points":
            attr["spatial.field_snapshot.points"],
        "spatial.field_snapshot.s": time_s["spatial.field_snapshot"],
        "spatial.single_excitation_norm.s":
            time_s["spatial.single_excitation_norm"],
        "runio.write_csv.calls": calls["runio.write_csv"],
        "runio.write_csv.rows": attr["runio.write_csv.rows"],
        "runio.write_csv.bytes": attr["runio.write_csv.bytes"],
        "runio.write_csv.s": time_s["runio.write_csv"],
        "runio.write_manifest.s": time_s["runio.write_manifest"],
        "presets.run_pipeline.s": time_s["presets.run_pipeline"],
        "presets.self_s": pipeline_self,
    }
    for label in ("dim1", "dim2", "dim2N"):
        out[f"dde.steps_per_s.{label}"] = (
            dim_steps[label] / dim_s[label] if dim_s[label] else 0.0)
    return {k: float(v) for k, v in out.items()}
