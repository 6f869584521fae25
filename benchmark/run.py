"""ossvqa benchmark: one workload, one process, one thread.

    python3 benchmark/run.py --workload presets --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer table.  Human-readable lines come first, the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value", "unit"}``).  ``--smoke`` shrinks every
budget so the whole run takes seconds; its numbers are not comparable.

When ``BASELINE.json`` holds a record digest for the workload and seed,
taken under the same numpy, scipy, Python, CPU kernels and COBYLA backend,
the run must reproduce it; a different digest counts as one failed call.

Exit codes: 0 success, 1 an output failed the correctness gate or the
baseline digest (the result is still printed), 2 the package source is
missing or a set-up probe failed (no result is printed).
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, OPTIMIZER_LAYER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BASELINE = HERE / "BASELINE.json"
# env fields that can change a record; the others only describe the host
PHYSICS_ENV = ("python", "numpy", "scipy", "machine", "cobyla_backend", "numpy_simd")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MIN_POOLED_CALLS = 100  # latency percentiles only from at least this many calls

# name -> (unit, better).  E2E_CONTRACT is the subset printed in the JSON
# line: the metrics every workload has and that are never 0.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "wall_s": ("s", "lower"),
    "reference_ms": ("ms", "lower"),
    "run_p50_ms": ("ms", "lower"),
    "run_p90_ms": ("ms", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
    "optimum_hit_rate": ("ratio", "higher"),
    "optimality_gap": ("objective", "lower"),
    "dominant_fraction_p50": ("ratio", "higher"),
    "feasible_fraction_p50": ("ratio", "higher"),
}
E2E_CONTRACT = ("setup_s", "wall_ref", "peak_rss_mb")
AMPLITUDE_BYTES = 16  # complex128


def layer_metric_names(layers) -> dict:
    names = {}
    for layer in layers:
        names[f"{layer}.calls"] = ("count", "lower")
        names[f"{layer}.self_s"] = ("s", "lower")
    names["simulator.bytes_moved"] = ("B", "lower")
    names["vqa.improve_ratio"] = ("ratio", "higher")
    names["trace.wall_s"] = ("s", "lower")
    names["trace.unattributed_s"] = ("s", "lower")
    names["trace.overhead_s"] = ("s", "lower")
    return names


# ---------------------------------------------------------------------------
# set-up


def build(workload: str, seed: int, smoke: bool):
    return workloads.BUILDERS[workload](seed, smoke)


def probe(args) -> int:
    """Child process: time import plus workload build, print it as JSON."""
    t0 = time.perf_counter()
    import ossvqa  # noqa: F401

    build(args.workload, args.seed, args.smoke)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def setup_times(args) -> list[float]:
    """Median-ready set-up times, each from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy

    pyprima = importlib.util.find_spec("scipy._lib.pyprima") is not None
    try:  # the SIMD kernels numpy dispatches to on this CPU
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    except ImportError:
        simd = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numpy_simd": simd,
        "cobyla_backend": "scipy._lib.pyprima (pure-Python PRIMA port)"
        if pyprima else "scipy.optimize._cobyla (compiled)",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Timings, per-call digests and layer stats of one pass over the calls.

    An untraced pass also times the reference kernel between calls and
    keeps each call's time in units of the kernel's (``relative``)."""

    def __init__(self, calls, traced: bool, kernel: str) -> None:
        self.traced = traced
        self.tracer = Tracer(LAYERS if traced else (OPTIMIZER_LAYER,))
        self.latencies: list[float] = []
        self.relative: list[float] = []
        self.references: list[float] = []
        self.outputs: list = []
        self.errors: dict[int, str] = {}
        pending: list[float] = []  # latencies since the last kernel run
        with self.tracer:
            if not traced:
                self.references.append(reference.timed(kernel))
            t0 = time.perf_counter()
            for i, call in enumerate(calls):
                c0 = time.perf_counter()
                try:
                    out = call.run()
                except Exception:  # a failing call is counted, the run goes on
                    out = None
                    self.errors[i] = traceback.format_exc()
                self.latencies.append(time.perf_counter() - c0)
                self.outputs.append(out)
                if traced:
                    continue
                pending.append(self.latencies[-1])
                if sum(pending) >= reference.EVERY_S or i == len(calls) - 1:
                    before = self.references[-1]
                    self.references.append(reference.timed(kernel))
                    around = (before + self.references[-1]) / 2
                    self.relative += [t / around for t in pending]
                    pending = []
            self.wall_s = time.perf_counter() - t0 - sum(self.references[1:])
        self.optimizer_s = self.tracer.stats[OPTIMIZER_LAYER].total_s
        self.summaries = [
            None if i in self.errors else call.summarize(out)
            for i, (call, out) in enumerate(zip(calls, self.outputs))
        ]
        self.digests = [None if s is None else workloads.digest(s) for s in self.summaries]

    def drop_outputs(self) -> None:
        self.outputs = []


def warm_up(calls, kernel: str) -> None:
    """One call per group, untimed: lazy imports and first-call caches."""
    reference.timed(kernel)
    seen = set()
    for call in calls:
        if call.group not in seen:
            seen.add(call.group)
            try:
                call.run()
            except Exception:  # the timed pass runs it again and counts it
                pass


def run_passes(calls, seconds: float, trace: bool, kernel: str) -> list[Pass]:
    """Passes until the next one would end past the time budget.  A traced
    run alternates untraced and traced passes, starting untraced, so the
    reference pass is always untraced."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(Pass(calls, traced, kernel))
        if len(passes) > 1:
            passes[-1].drop_outputs()
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed + passes[-1].wall_s > seconds:
            return passes


def judge(calls, passes: list[Pass]) -> tuple[int, list[str]]:
    """Gate the reference pass; every later call must reproduce its digest.
    Returns the number of failed calls and a message for each failure."""
    ref = passes[0]
    failed, messages = 0, []
    for i, call in enumerate(calls):
        problems = [f"raised\n{ref.errors[i]}"] if i in ref.errors else call.check(ref.outputs[i])
        failed += bool(problems)
        messages += [f"{call.label}: {msg}" for msg in problems]
    for n, p in enumerate(passes[1:], start=1):
        kind = "traced" if p.traced else "untraced"
        for i, call in enumerate(calls):
            if i in p.errors:
                problem = f"raised\n{p.errors[i]}"
            elif p.digests[i] != ref.digests[i]:
                problem = "record differs from pass 0"
            else:
                continue
            failed += 1
            messages.append(f"{call.label} ({kind} pass {n}): {problem}")
    return failed, messages


def baseline_digest(workload: str, seed: int, env: dict) -> tuple[str | None, str]:
    """The committed record digest for this workload and seed, or None and
    the reason there is none to compare with."""
    if not BASELINE.is_file():
        return None, f"{BASELINE.name} is missing"
    base = json.loads(BASELINE.read_text(encoding="utf-8"))
    differ = [k for k in PHYSICS_ENV if base["env"].get(k) != env.get(k)]
    if differ:
        return None, f"environment differs in {', '.join(differ)}"
    expected = base["workloads"].get(workload, {}).get("digests", {}).get(str(seed))
    if expected is None:
        return None, f"seed {seed} is not in {BASELINE.name}"
    return expected, BASELINE.name


# ---------------------------------------------------------------------------
# metrics


def run_records(summaries) -> list[dict]:
    """The summaries that are run records (from run_experiment)."""
    return [s for s in summaries if isinstance(s, dict) and "n_evaluations" in s]


def quality(summaries) -> dict:
    """Result quality of the run records among the summaries; deterministic."""
    records = run_records(summaries)
    if not records:
        return {}
    gaps = [r["best_feasible"]["value"] - r["classical_optimum"]["value"]
            for r in records if r["best_feasible"] is not None]
    return {
        "optimum_hit_rate": statistics.fmean(
            r["mode"] in r["classical_optimum"]["solutions"] for r in records),
        "optimality_gap": statistics.fmean(gaps) if gaps else float("inf"),
        "dominant_fraction_p50": statistics.median(r["dominant_fraction"] for r in records),
        "feasible_fraction_p50": statistics.median(r["feasible_fraction"] for r in records),
    }


def end_to_end(setup: list[float], passes: list[Pass], peak_rss_mb: float,
               attempted: int, failed: int) -> dict:
    """name -> (value, sample count) for every metric that applies."""
    # each call at its median over the passes, in units of the kernel
    # timed around it; and, as measured, at its fastest over the passes
    relative = [statistics.median(r) for r in zip(*(p.relative for p in passes))]
    fastest = [min(times) for times in zip(*(p.latencies for p in passes))]
    references = [r for p in passes for r in p.references]
    out = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_ref": (sum(relative), len(passes)),
        "wall_s": (sum(fastest), len(passes)),
        "reference_ms": (statistics.median(references) * 1e3, len(references)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "error_rate": (failed / attempted, attempted),
    }
    latencies = [x for p in passes for x in p.latencies]
    if len(latencies) >= MIN_POOLED_CALLS:
        q = statistics.quantiles(latencies, n=10, method="inclusive")
        out["run_p50_ms"] = (statistics.median(latencies) * 1e3, len(latencies))
        out["run_p90_ms"] = (q[8] * 1e3, len(latencies))
    records = run_records(passes[0].summaries)
    if records:
        nfev = sum(r["n_evaluations"] for r in records)
        rates = [nfev / p.optimizer_s for p in passes]
        out["evals_per_s"] = (statistics.median(rates), len(rates))
    for name, value in quality(passes[0].summaries).items():
        out[name] = (value, len(records))
    return out


def per_layer(setup_tracer, setup_wall: float, passes: list[Pass]) -> dict:
    """One in-process set-up plus the mean traced pass, layer by layer."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    k = len(traced)
    out = {}
    self_total = 0.0
    for layer in LAYERS:
        s = setup_tracer.stats[layer]
        calls = s.calls + sum(p.tracer.stats[layer].calls for p in traced) / k
        self_s = s.self_s + sum(p.tracer.stats[layer].self_s for p in traced) / k
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        self_total += self_s
    rotation = "simulator.apply_swap_rotation"
    amplitudes = setup_tracer.stats[rotation].amplitudes + sum(
        p.tracer.stats[rotation].amplitudes for p in traced) / k
    out["simulator.bytes_moved"] = amplitudes * AMPLITUDE_BYTES
    records = run_records(passes[0].summaries)
    nfev = sum(r["n_evaluations"] for r in records)
    accepted = sum(len(r["iterations"]) for r in records)
    out["vqa.improve_ratio"] = accepted / nfev if nfev else 0.0
    wall = setup_wall + statistics.fmean(p.wall_s for p in traced)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - self_total
    out["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                               - statistics.median(p.wall_s for p in untraced))
    return out


def print_table(title: str, rows: list[tuple], total: float | None = None) -> None:
    print(f"# {title}")
    header = ("metric", "value", "unit", "better", "n")
    if total:
        header += ("share",)
    print("  ".join(f"{h:<40}" if i == 0 else f"{h:>12}" for i, h in enumerate(header)))
    for name, value, unit, better, n, *share in rows:
        cells = [f"{name:<40}", f"{value:>12.6g}", f"{unit:>12}", f"{better:>12}", f"{n:>12}"]
        if total:
            cells.append(f"{share[0]:>11.1%}" if share else f"{'':>12}")
        print("  ".join(cells))


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["presets", "ladder", "verify"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal budgets; checks plumbing, not speed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ossvqa" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'ossvqa'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return probe(args)
    try:
        setup = setup_times(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import ossvqa  # noqa: F401

    env = environment()
    setup_tracer = Tracer(LAYERS if args.trace else ())
    with setup_tracer:
        t0 = time.perf_counter()
        calls = build(args.workload, args.seed, args.smoke)
        setup_wall = time.perf_counter() - t0
    kernel = workloads.REFERENCE[args.workload]
    warm_up(calls, kernel)
    passes = run_passes(calls, args.seconds, bool(args.trace), kernel)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(calls) * len(passes)
    failed, failures = judge(calls, passes)
    record_digest = workloads.digest(passes[0].digests)
    if args.smoke:
        expected, source = None, "smoke budgets"
    else:
        expected, source = baseline_digest(args.workload, args.seed, env)
    if expected is None:
        baseline = f"not compared, {source}"
    elif expected == record_digest:
        baseline = f"matches {source}"
    else:  # the physics changed: one failure for the whole reference pass
        baseline = f"DIFFERS from {source} ({expected})"
        failed += 1
        failures.append(f"record digest {record_digest} differs from {source} {expected}")
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(calls)} calls per pass, "
          f"{len(passes)} passes ({sum(p.traced for p in passes)} traced)")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"digest {args.workload} {record_digest}")
    print(f"# baseline digest: {baseline}")

    if args.trace:
        values = per_layer(setup_tracer, setup_wall, passes)
        names = layer_metric_names(LAYERS)
        wall = values["trace.wall_s"]
        rows = []
        for name, value in values.items():
            unit, better = names[name]
            share = [value / wall] if name.endswith(".self_s") or name.startswith("trace.") else []
            rows.append((name, value, unit, better, sum(p.traced for p in passes), *share))
        print_table("per-layer, one set-up plus the mean traced pass", rows, total=wall)
        contract = values
    else:
        values = end_to_end(setup, passes, peak_rss_mb, attempted, failed)
        rows = [(name, v, *E2E_METRICS[name], n) for name, (v, n) in values.items()]
        print_table("end-to-end", rows)
        contract = {name: values[name][0] for name in E2E_CONTRACT}
        names = E2E_METRICS

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": names[name][0]}
                    for name, value in contract.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
