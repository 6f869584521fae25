"""Write ``benchmark/BASELINE.json``: every workload over ten seeds.

    python3 benchmark/collect.py

Takes the workloads and ``run_seconds`` from ``BENCHMARK.json`` and runs
``run.py`` once per (workload, seed) for seeds 0 to 9 with tracing off, one
run at a time.  For every printed metric it records the median, the
quartiles and the spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``), and for every seed the record
digest.  Then it makes one traced run per workload on seed 0, records its
per-layer table and tracing overhead, and checks that its record digest
equals the untraced one.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
OUT = HERE / "BASELINE.json"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = range(10)
TRACE_SEED = 0
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    out = {"result": json.loads(lines[-1]), "table": {}}
    for line in lines[:-1]:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.startswith("digest "):
            out["digest"] = line.split()[2]
        elif not line.startswith(("#", "metric ")):
            name, value, unit, better = line.split()[:4]
            out["table"][name] = {"value": float(value), "unit": unit, "better": better}
    return out


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def collect(workload: str) -> tuple[dict, dict]:
    runs = {}
    for seed in SEEDS:
        runs[seed] = run_once(workload, seed, 0)
        res = runs[seed]["result"]
        print(f"{workload} seed {seed}: correct {res['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              file=sys.stderr)
    first = runs[SEEDS[0]]
    summary = {
        "seeds": list(SEEDS),
        "all_correct": all(r["result"]["correct"] for r in runs.values()),
        "digests": {str(s): r["digest"] for s, r in runs.items()},
        # every printed metric; in_json marks those in the JSON line
        "metrics": {
            name: {"unit": row["unit"], "better": row["better"],
                   "in_json": name in first["result"]["metrics"],
                   **spread([r["table"][name]["value"] for r in runs.values()])}
            for name, row in first["table"].items()
            if all(name in r["table"] for r in runs.values())
        },
    }
    traced = run_once(workload, TRACE_SEED, 1)
    values = {name: m["value"] for name, m in traced["result"]["metrics"].items()}
    wall = values["trace.wall_s"]
    layers = sorted({name.rsplit(".", 1)[0] for name in values if name.endswith(".self_s")})
    summary["traced"] = {
        "seed": TRACE_SEED,
        "correct": traced["result"]["correct"],
        "digest_matches_untraced": traced["digest"] == runs[TRACE_SEED]["digest"],
        "trace": {name: values[name] for name in
                  ("trace.wall_s", "trace.unattributed_s", "trace.overhead_s")},
        "derived": {name: values[name] for name in
                    ("simulator.bytes_moved", "vqa.improve_ratio")},
        # layers the workload calls, with their share of the traced wall time
        "per_layer": {
            layer: {"calls": values[f"{layer}.calls"],
                    "self_s": values[f"{layer}.self_s"],
                    "share": values[f"{layer}.self_s"] / wall}
            for layer in layers if values[f"{layer}.calls"]
        },
    }
    return summary, first["env"]


def main() -> int:
    report = {"seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        summary, report["env"] = collect(workload)
        report["workloads"][workload] = summary
        for name, s in summary["metrics"].items():
            mark = "*" if s["in_json"] else " "
            print(f"{workload:8} {mark}{name:22} median {s['median']:.4g} {s['unit']} "
                  f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 3)}")
    OUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
