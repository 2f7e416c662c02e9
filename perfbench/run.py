"""scbundle benchmark: end-to-end wall time per workload, per-layer spans
from a separate traced run, and an untimed catalog correctness pass.

Run from the repository root:

    python3 perfbench/run.py --workload heisenberg-verify --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload heisenberg-verify --seed 1 --seconds 18 --trace 1
    python3 perfbench/run.py --workload all --seconds 18      # every workload, then the catalog pass

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead, and writes the spans.  Every result
is also written to ``perfbench/out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``wall_s`` and ``setup_s`` are seconds rescaled to a reference machine
speed, by the mean time of a fixed calibration kernel run before and
between the measurements (calibration.py), because the CPU speed a process
sees on a shared machine drifts by up to 2x.  Raw seconds are kept in the
result file.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2.  The seed reaches the program
only through ``SCBUNDLE_SEED``; without ``--seed`` each scenario keeps the
seed pinned in its config.  One process, one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SEED_ENV_VAR = "SCBUNDLE_SEED"
# Pinned before numpy loads: one process on one thread keeps pass times
# steady on a small shared machine and stays within nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 5        # fresh processes per run; setup_s is their median
MIN_PASSES = 4           # timed passes even when --seconds is shorter
MIN_TRACED_PASSES = 4    # traced runs: at least two untraced and two traced
TAIL_BEYOND = 10         # samples required above the reported tail percentile

_SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import scbundle.verify
from scbundle import scenarios
for name in {names!r}:
    scn = scenarios.load_scenario(name)
    scn.build_action() if scn.action_name is not None else scn.build_hamiltonian()
print(json.dumps({{"setup_s": time.perf_counter() - start,
                  "module": scbundle.verify.__file__}}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_program():
    if not (SRC / "scbundle" / "__init__.py").is_file():
        raise BenchError(f"no scbundle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scbundle
    if Path(scbundle.__file__).resolve().parent != (SRC / "scbundle").resolve():
        raise BenchError(f"scbundle imported from {scbundle.__file__}, not {SRC}")


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


# -- environment stamp ---------------------------------------------------------

def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unknown ({type(err).__name__})"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment_stamp(seed) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "processes": 1,
        "seed": seed,
        "seed_source": SEED_ENV_VAR if seed is not None else "scenario config",
        "git_commit": _git_commit(),
    }


# -- measurement ---------------------------------------------------------------

def measure_setup(workload, clock) -> list:
    """Raw seconds for import + load_scenario + build_action (build_hamiltonian
    for scenarios without an action) in fresh processes."""
    code = _SETUP_CHILD.format(src=str(SRC), names=[n for n, _ in workload.scenarios])
    raw = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=120, cwd=str(ROOT))
        if done.returncode != 0:
            raise BenchError(f"setup process failed: {done.stderr.strip()[-500:]}")
        info = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(info["module"]).resolve().parent != (SRC / "scbundle").resolve():
            raise BenchError(f"setup process imported {info['module']}")
        raw.append(info["setup_s"])
        clock.sample()
    return raw


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it, or (None, None) when there are too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None, None
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Timed:
    """A timed pass: whether it was traced, and its result."""

    traced: bool
    result: object


def timed_passes(workload, seconds: float, tracer=None) -> tuple:
    """A warm-up pass, then passes until ``seconds`` would be exceeded, each
    followed by a calibration sample.  With a tracer, passes alternate
    untraced / traced.  Returns the warm-up, the passes and the clock."""
    from calibration import ReferenceClock
    from workloads import run_pass

    warmup = run_pass(workload)
    passes: list = []
    minimum = MIN_TRACED_PASSES if tracer is not None else MIN_PASSES
    start = time.perf_counter()
    clock = ReferenceClock()
    while len(passes) < minimum or (
            (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
            with tracer:
                result = run_pass(workload)
        else:
            result = run_pass(workload)
        passes.append(Timed(traced, result))
        clock.sample()
    return warmup, passes, clock


def _unexpected(workload, result) -> list:
    return [f for f in result.errors + result.failing_checks if f not in workload.known_failures]


def _outcome(workload, warmup, passes) -> dict:
    """Operation counts and output agreement, against the warm-up pass.

    A failed operation is an error or a FAIL verdict (see
    workloads.PassResult) that is not among the workload's known failures,
    or any operation of a pass whose output bytes differ from the warm-up's."""
    attempted = failed = mismatch = 0
    for p in (t.result for t in passes):
        attempted += p.operations
        if p.output != warmup.output:
            mismatch += 1
            failed += p.operations
        else:
            failed += len(_unexpected(workload, p))
    first = passes[0].result
    return {
        "attempted": attempted,
        "failed": failed,
        "report_mismatch": mismatch,
        "correct": mismatch == 0 and failed == 0,
        "check_pass_ratio": 1 - (len(first.failing_checks) + len(first.errors)) / first.operations,
        "failing_checks": first.failing_checks,
        "unexpected_failures": _unexpected(workload, first),
        "errors": first.errors,
    }


def _wall_summary(passes, clock) -> dict:
    raw = [t.result.seconds for t in passes]
    ref = [clock.rescale(s) for s in raw]
    tail_ref, pct = tail(ref)
    return {"wall_s": statistics.median(ref), "wall_tail_s": tail_ref, "tail_percentile": pct,
            "wall_raw_s": statistics.median(raw), "wall_raw_tail_s": tail(raw)[0],
            "wall_samples": ref, "wall_raw_samples": raw}


def run_workload(name: str, seed, seconds: float, trace: bool) -> dict:
    from calibration import ReferenceClock
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = _spec()
    workload = WORKLOADS[name]
    detail: dict = {"workload": name, "why": workload.why, "trace": int(trace),
                    "seconds": seconds, "environment": environment_stamp(seed)}
    if trace:
        tracer = Tracer()
        warmup, passes, clock = timed_passes(workload, seconds, tracer)
        traced = [t for t in passes if t.traced]
        untraced = [t for t in passes if not t.traced]
        values = tracer.layer_metrics([i for i, t in enumerate(passes) if t.traced])
        values["trace.overhead_ratio"] = (statistics.median(t.result.seconds for t in traced)
                                          / statistics.median(t.result.seconds for t in untraced))
        values["verify.suite_errors"] = statistics.median(t.result.suite_errors for t in traced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
        tracer.write(spans_path)
        detail.update(untraced=_wall_summary(untraced, clock), traced=_wall_summary(traced, clock),
                      spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
        declared = spec["per_layer"]
    else:
        setup_clock = ReferenceClock()
        setup_raw = measure_setup(workload, setup_clock)
        setup_ref = [setup_clock.rescale(s) for s in setup_raw]
        warmup, passes, clock = timed_passes(workload, seconds)
        summary = _wall_summary(passes, clock)
        detail["setup_calibration_samples"] = setup_clock.samples
        values = {
            "wall_s": summary["wall_s"],
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail.update(summary, setup_samples=setup_ref, setup_raw_samples=setup_raw,
                      setup_raw_s=statistics.median(setup_raw), warmup_raw_s=warmup.seconds)
        declared = spec["end_to_end"]
    detail["passes"] = len(passes)
    detail["calibration_samples"] = clock.samples
    detail.update(_outcome(workload, warmup, passes))
    if sorted(values) != sorted(m["name"] for m in declared):
        raise BenchError("metrics measured differ from those BENCHMARK.json declares")
    detail["metrics"] = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                         for m in declared}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-trace{int(trace)}-seed{seed}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n")
    return detail


def _print_detail(detail: dict) -> None:
    name = detail["workload"]
    for metric, m in detail["metrics"].items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    if not detail["trace"]:
        pct = detail["tail_percentile"]
        tail_text = (f"p{pct:.0f} = {detail['wall_tail_s']:.4f} s" if pct is not None
                     else f"no tail percentile (needs more than {TAIL_BEYOND} passes)")
        print(f"{name}  wall_s over {detail['passes']} passes (warm-up excluded): median "
              f"{detail['wall_s']:.4f} s, {tail_text}; raw median {detail['wall_raw_s']:.4f} s; "
              f"setup raw median {detail['setup_raw_s']:.4f} s")
    print(f"{name}  check_pass_ratio = {detail['check_pass_ratio']:.4f} ratio")
    print(f"{name}  report_mismatch = {detail['report_mismatch']} count")
    print(f"{name}  FAIL: {', '.join(detail['failing_checks']) or 'none'}")
    print(f"{name}  errors: {', '.join(detail['errors']) or 'none'}")
    print(f"{name}  not known failures: {', '.join(detail['unexpected_failures']) or 'none'}")
    print(f"{name}  environment = {json.dumps(detail['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        _import_program()
        from workloads import WORKLOADS, catalog_pass
        if args.seed is not None:
            os.environ[SEED_ENV_VAR] = str(args.seed)
        else:
            os.environ.pop(SEED_ENV_VAR, None)
        if args.workload == "all":
            for name in WORKLOADS:
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
                if args.seed is not None:
                    cmd += ["--seed", str(args.seed)]
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = done.stdout.strip().splitlines()
                print("\n".join(lines[:-1]))
                if done.returncode != 0:
                    raise BenchError(f"{name} failed: {done.stderr.strip()[-500:]}")
            catalog_pass()
            return 0
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)} or all)")
        detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    _print_detail(detail)
    print(json.dumps({"correct": detail["correct"], "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
