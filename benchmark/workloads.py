"""The benchmark's workloads, built from a workload seed.

Each builder returns the list of top-level calls one pass makes.  Building
is the set-up the benchmark times as ``setup_s``: it imports the package,
resolves presets, and builds instances, circuits and start states.  The
program then receives only these generated inputs.

Every call looks its function up on the module at call time
(``vqa.run_experiment``, not a reference taken while building), so a
tracer installed after set-up sees it.

Why these workloads:

- ``presets`` reproduces the paper: tiny states (9 to 256 amplitudes), so
  time goes to Python overhead per gate, COBYLA bookkeeping and scoring
  each sampled string.  It exercises per-call overhead, not bandwidth.
- ``ladder`` runs instances with 3,125 and 46,656 amplitudes at a fixed
  evaluation budget with the exact expectation.  Swap rotations are bound
  by memory bandwidth there; the non-busy rung adds a 60,480-schedule
  oracle and the tour rung an objective that couples blocks.
- ``verify`` has no optimiser: group closures, orbits, mixing verdicts,
  all 576 reach plans on ossp224 (many short circuits, each with a new
  basis) and the CLI checks.  It alone exercises ``groups`` and ``cli``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

import gate

PRESETS = ("ossp224", "ossp133", "ossp133-restricted")
# COBYLA's evaluation count changes from run seed to run seed; 20 runs per
# preset keep the pass's total work within a few percent across seeds
RUN_SEEDS_PER_PRESET = 20
LADDER_RUNGS = (
    # label, (machines, time_slots, jobs), objective kind, depth, evaluations
    ("ossp155", (1, 5, 5), "linear", 3, 60),
    ("tsp166", (1, 6, 6), "tsp", 2, 40),
    ("ossp336", (3, 3, 6), "linear", 1, 30),
)
LADDER_SHOTS = 1024
VERIFY_GROUP_SHAPES = ((1, 5, 5), (2, 3, 3))
SMOKE_REACH_PAIRS = 8


@dataclass
class Call:
    """One top-level call into the package and how to judge its output."""

    group: str
    label: str
    run: Callable[[], object]
    summarize: Callable[[object], object]  # JSON-ready, feeds the digest
    check: Callable[[object], list]  # failure messages, empty when correct


def digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _late(module, name, *args, **kwargs):
    """Call module.name(*args) with the attribute looked up at call time."""
    return lambda: getattr(module, name)(*args, **kwargs)


def _run_record_summary(record) -> dict:
    doc = record.to_dict()
    doc.pop("sidecar")
    return doc


def _experiment_call(group, label, instance, objective, circuit, state, config,
                     *, depth, initial_state, shots, engine, oracle) -> Call:
    from ossvqa import vqa

    return Call(
        group=group,
        label=label,
        run=_late(vqa, "run_experiment", instance, objective, depth=depth,
                  initial_state=initial_state, config=config, shots=shots,
                  engine=engine),
        summarize=_run_record_summary,
        check=lambda record: gate.check_run_record(
            record, oracle, instance, objective, circuit, state),
    )


def _smoke_budget(settings: dict, circuit) -> dict:
    if settings["kind"] == "sgd":
        return {**settings, "max_iters": 1, "sample_size": 4}
    # COBYLA needs n + 2 evaluations to build its first model
    return {**settings, "max_iters": circuit.n_beta + circuit.n_gamma + 2}


def build_presets(seed: int, smoke: bool = False) -> list[Call]:
    """run_experiment on each preset with its shipped settings, over run
    seeds 20*seed .. 20*seed+19."""
    from ossvqa import presets, simulator, vqa

    oracle = gate.Oracle()
    calls = []
    for name in PRESETS:
        instance, objective, run = presets.resolve_preset(name)
        circuit = simulator.build_circuit(instance, objective, run["depth"])
        state = simulator.basis_state(instance, run["initial_state"], run["engine"])
        settings = dict(run["optimizer"])
        if smoke:
            settings = _smoke_budget(settings, circuit)
        for k in range(1 if smoke else RUN_SEEDS_PER_PRESET):
            run_seed = RUN_SEEDS_PER_PRESET * seed + k
            config = vqa.OptimizerConfig(**{**settings, "seed": run_seed})
            calls.append(_experiment_call(
                name, f"{name}/seed{run_seed}", instance, objective, circuit,
                state, config, depth=run["depth"],
                initial_state=run["initial_state"], shots=run["shots"],
                engine=run["engine"], oracle=oracle,
            ))
    return calls


def _identity_schedule(instance) -> str:
    """Job j at position j: a feasible start for any shape."""
    return "".join(
        "".join("1" if j == p else "0" for j in range(instance.jobs))
        for p in range(instance.positions)
    )


def build_ladder(seed: int, smoke: bool = False) -> list[Call]:
    """Three growing rungs; weights and distances are drawn from the seed."""
    import numpy as np
    from ossvqa import instances, simulator, vqa

    rng = np.random.default_rng(seed)
    oracle = gate.Oracle()
    calls = []
    for label, shape, kind, depth, budget in LADDER_RUNGS:
        instance = instances.OsspInstance(*shape)
        if kind == "linear":
            rows = rng.integers(0, 10, size=(instance.positions, instance.jobs))
            objective = instances.linear_from_rows(instance, rows.tolist())
        else:
            upper = np.triu(rng.integers(1, 10, size=(instance.jobs,) * 2), 1)
            objective = instances.TspObjective(tuple(map(tuple, (upper + upper.T).tolist())))
        initial = _identity_schedule(instance)
        circuit = simulator.build_circuit(instance, objective, depth)
        state = simulator.basis_state(instance, initial, "subspace")
        if smoke:
            budget = circuit.n_beta + circuit.n_gamma + 2
        # a tolerance far below any step keeps COBYLA on the full budget
        config = vqa.OptimizerConfig(kind="tr", seed=seed, max_iters=budget,
                                     shots=0, tol=1e-12)
        calls.append(_experiment_call(
            label, f"{label}/seed{seed}", instance, objective, circuit, state,
            config, depth=depth, initial_state=initial, shots=LADDER_SHOTS,
            engine="subspace", oracle=oracle,
        ))
    return calls


def _run_cli(argv: list[str]):
    """cli.main with its stdout captured; stderr notes are dropped."""
    from ossvqa import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return argv, code, out.getvalue()


def _group_summary(elements) -> dict:
    return {"order": len(elements), "elements": digest(sorted(elements))}


def _reach_summary(plan) -> dict:
    return {"word": plan.word, "beta": [float(b) for b in plan.params.beta],
            "fidelity": plan.fidelity}


def build_verify(seed: int, smoke: bool = False) -> list[Call]:
    """Group closures, orbits, mixing verdicts, reach plans and CLI checks.

    The seed picks each orbit's start and the order of families and reach
    pairs; the work done is the same for every seed.
    """
    from ossvqa import groups, instances, presets, vqa

    rng = random.Random(seed)
    calls = []
    for shape in VERIFY_GROUP_SHAPES:
        instance = instances.OsspInstance(*shape)
        tag = "x".join(map(str, shape))
        generators = groups.group_generators(instance)
        perms = [groups.vertex_permutation(instance, g) for g in generators]
        calls.append(Call(
            "closure", f"closure/{tag}", _late(groups, "generate_group", perms),
            _group_summary, lambda g, inst=instance: gate.check_group(g, inst),
        ))
        start = rng.choice(instances.enumerate_solutions(instance))
        calls.append(Call(
            "orbit", f"orbit/{tag}", _late(groups, "orbit", instance, start, generators),
            sorted, lambda o, inst=instance: gate.check_orbit(o, inst),
        ))
        families = [
            list(f) for r in range(1, instance.jobs)
            for f in itertools.combinations(range(1, instance.jobs), r)
        ]
        rng.shuffle(families)
        for family in families:
            calls.append(Call(
                "mixing", f"mixing/{tag}/{family}",
                _late(groups, "check_mixing_family", instance, family),
                lambda v: v,
                lambda v, inst=instance, fam=family: gate.check_mixing(v, inst, fam),
            ))

    instance, objective, _ = presets.resolve_preset("ossp224")
    solutions = instances.enumerate_solutions(instance)
    pairs = list(itertools.product(solutions, repeat=2))
    rng.shuffle(pairs)
    if smoke:
        pairs = pairs[:SMOKE_REACH_PAIRS]
    for source, target in pairs:
        calls.append(Call(
            "reach", f"reach/{source}/{target}",
            _late(vqa, "compile_reach", instance, source, target),
            _reach_summary,
            lambda plan, inst=instance, s=source, t=target: gate.check_reach(plan, inst, s, t),
        ))

    for name in PRESETS[:1] if smoke else PRESETS:
        instance, _, _ = presets.resolve_preset(name)
        for command in ("group-check", "enumerate"):
            calls.append(Call(
                "cli", f"cli/{command}/{name}",
                functools.partial(_run_cli, [command, "--preset", name]),
                lambda r: [r[0], r[1], json.loads(r[2])],
                lambda r, inst=instance: gate.check_cli(r, inst),
            ))
    return calls


# the reference kernel each workload's call times are divided by
REFERENCE = {"presets": "small", "ladder": "large", "verify": "small"}

BUILDERS = {
    "presets": build_presets,
    "ladder": build_ladder,
    "verify": build_verify,
}
