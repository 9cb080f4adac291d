"""wqsim benchmark: one workload per run, closed loop, one pass at a time.

    python3 bench/run.py --workload cascade_fig2 --seed 1 --seconds 40 --trace 0

Run from the repository root; wqsim is imported from ./src.  Workloads:

  cascade_fig2  run_preset("fig2"): c_ee -> pair solve -> two-photon
                quadrature, and the few large CSVs it writes.
  oracle_desk   `wqsim verify oracle`: solve_cee plus the direct-integration
                oracle (dense mode-space RK4; one 2000-step c_ee DDE solve).
  sweep_small   48 seeded small systems through run_pipeline (c_ee alone,
                spatial with one and with two atoms): the DDE engine at
                dimension 1 and 2 and many small CSVs.

The run repeats passes while the next one is expected to end within
--seconds (at least one pass), checks every pass's output, and prints, as
its last line, one JSON object: end-to-end metrics with --trace 0, per-layer
metrics from wrappers around wqsim's module functions with --trace 1.  A
traced run spends half its time on untraced passes, for the tracing
overhead.  Spans and a run record go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# set-ups per run: this process's own, then fresh processes, half before
# and half after the passes, so slow and fast spells of a shared machine
# both reach the median
SETUP_PROBES = (2, 2)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "numerics_err": "1"}


def cap_threads() -> dict[str, str]:
    """Pin every BLAS/OpenMP pool to at most 2 threads (fewer if the machine
    has fewer cores), before numpy loads."""
    n = str(min(2, len(os.sched_getaffinity(0))))
    caps = {var: n for var in ("WQSIM_THREADS", "OPENBLAS_NUM_THREADS",
                               "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    os.environ.update(caps)
    return caps


def machine_facts(caps: dict[str, str]) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(), **caps}


def timed_setup(workload: str, seed: int):
    t0 = time.perf_counter()
    wl = workloads.setup(workload, seed)
    return wl, time.perf_counter() - t0


def setup_samples(workload: str, seed: int, repeats: int) -> list[float]:
    """Set-up time of fresh processes: import wqsim plus building inputs."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_passes(wl, seconds: float, first_pass: int, work: Path,
               results: dict, tracer=None) -> list[float]:
    """Closed loop: passes one after another while the next is expected to
    end within `seconds`.  Records failures and output fingerprints in
    `results`; returns the pass wall times."""
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        pass_id = first_pass + len(walls)
        out = work / f"pass{pass_id}"
        out.mkdir()
        if tracer is not None:
            tracer.begin_pass(pass_id)
        problems: list[str] = []
        t0 = time.perf_counter()
        try:
            outcome = wl.run(out)
        except Exception:           # a failed pass is counted, not fatal
            walls.append(time.perf_counter() - t0)
            problems.append(traceback.format_exc(limit=3))
        else:
            walls.append(time.perf_counter() - t0)
            problems += wl.check(outcome, out)
            value = wl.numerics(outcome)
            results["numerics"].append(value)
            fingerprint = (repr(value), workloads.output_digest(out))
            reference = results.setdefault("fingerprint", fingerprint)
            if fingerprint != reference:
                problems.append(f"pass {pass_id} output differs from the first")
        shutil.rmtree(out)
        results["attempted"] += 1
        if problems:
            results["failed"] += 1
            print(f"pass {pass_id} FAILED:\n  " + "\n  ".join(problems),
                  file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            return walls


def describe_walls(label: str, walls: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it (or the
    maximum, when there are fewer than 11 passes), and the count."""
    n = len(walls)
    text = f"{label}: median {statistics.median(walls):.4f} s"
    if n >= 11:
        q = int(100 * (1 - 10 / n))
        tail = statistics.quantiles(walls, n=100)[q - 1]
        text += f", p{q} {tail:.4f} s"
    else:
        text += f", max {max(walls):.4f} s (n < 11: no tail percentile)"
    return text + f", {n} passes"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "wqsim" / "__init__.py").is_file():
        print(f"error: wqsim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(SRC))

    wl, own_setup = timed_setup(args.workload, args.seed)
    if args.probe_setup:
        print(own_setup)
        return 0
    setups = [own_setup] + setup_samples(args.workload, args.seed,
                                         SETUP_PROBES[0])

    facts = machine_facts(caps)
    print("machine: " + json.dumps(facts))
    print("plan: " + json.dumps(wl.plan))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    results = {"attempted": 0, "failed": 0, "numerics": []}
    t_run = time.perf_counter()
    try:
        # a traced run spends half its time untraced, half traced
        budget = args.seconds / 2 if args.trace else args.seconds
        walls = run_passes(wl, budget, 0, work, results)
        setups += setup_samples(args.workload, args.seed, SETUP_PROBES[1])
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "machine": facts, "plan": wl.plan,
                  "wall_s": walls, "setup_s": setups}
        print(describe_walls("wall_s", walls))
        if args.trace:
            metrics = traced_metrics(wl, args, budget, work, results, walls,
                                     t_run, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not results["numerics"]:
        print("error: no pass completed", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = end_to_end_metrics(wl, walls, setups, results["numerics"])
    units = tracing.LAYER_METRICS if args.trace else END_TO_END
    print(f"fail_ratio: {results['failed']}/{results['attempted']} = "
          f"{results['failed'] / results['attempted']:.4g}")
    record["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": results["failed"] == 0,
        "attempted": results["attempted"], "failed": results["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def end_to_end_metrics(wl, walls: list[float], setups: list[float],
                       numerics: list[float]) -> dict[str, float]:
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numerics_err": statistics.median(numerics),
    }
    print(f"setup_s: median {metrics['setup_s']:.4f} s of {len(setups)} set-ups")
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MiB")
    print(f"numerics_err: {metrics['numerics_err']!r} ({wl.numerics_name})")
    return metrics


def traced_metrics(wl, args, budget: float, work: Path, results: dict,
                   untraced: list[float], t_run: float, record: dict
                   ) -> dict[str, float]:
    """Install the wrappers, repeat the passes traced, remove the wrappers;
    per-layer metrics are medians over the traced passes."""
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        traced = run_passes(wl, budget, len(untraced), work, results, tracer)
    finally:
        installed.remove()
    for target in installed.missing:
        print(f"trace: {target} not found; its metrics read 0")
    print(describe_walls("traced wall_s", traced))
    per_pass = [tracing.pass_metrics(tracer, len(untraced) + i)
                for i in range(len(traced))]
    metrics = {k: statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    for name, unit in tracing.LAYER_METRICS.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_jsonl(spans, t_run)
    record.update(traced_wall_s=traced, missing_targets=installed.missing,
                  spans=spans.name, per_pass=per_pass)
    return {k: metrics[k] for k in tracing.LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main())
