"""Command-line front end for the scheduling pipeline.

Subcommands: enumerate, graph, group-check, reach, simulate, optimize,
report.  Output is JSON-first; writing to a path ending in .csv renders the
tabular part of the same record as CSV.  All commands are deterministic for
a given (inputs, seed); wall-clock data is confined to a 'sidecar' field.

Exit codes: 0 success, 2 validation failure, 3 verification mismatch,
4 capability exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .errors import CapabilityError, DomainError, VerificationError
from .groups import (
    BRUTE_FORCE_VERTEX_CAP,
    bruteforce_feasibility_preservers,
    build_constraint_graph,
    cycle_notation,
    generate_group,
    group_generators,
    group_order,
    orbit,
    verify_block_system,
    vertex_permutation,
)
from .instances import (
    bits_to_int,
    enumerate_solutions,
    index_to_coordinate,
    instance_to_dict,
    job_blocks,
    load_instance,
    objective_values,
    position_blocks,
    solution_count,
)
from .presets import list_presets, resolve_preset
from .simulator import (
    ParameterVector,
    apply_circuit,
    basis_state,
    build_circuit,
    expectation,
    feasible_mass,
)
from .vqa import OptimizerConfig, annotate_rows, compile_reach, run_experiment

SEED_ENV_VAR = "OSSVQA_SEED"
ORBIT_SOLUTION_CAP = 100_000


# ---------------------------------------------------------------------------
# plumbing


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _resolve_inputs(args):
    """Load (instance, objective, run settings) from --preset or --instance."""
    if getattr(args, "preset", None):
        return resolve_preset(args.preset)
    if getattr(args, "instance", None):
        instance, objective = load_instance(args.instance)
        return instance, objective, {}
    raise DomainError("provide --instance PATH or --preset NAME")


def _resolve_seed(args) -> int:
    """--seed, else the OSSVQA_SEED environment variable, else 0."""
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(env)
        except ValueError:
            raise DomainError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def _rows_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return out.getvalue()


def _emit(record: dict, args, csv_rows: list[dict] | None = None) -> None:
    """Write the JSON record to --out or stdout; .csv targets get the
    tabular rendering instead."""
    out = getattr(args, "out", None)
    if out is None:
        print(json.dumps(record, indent=2))
        return
    if str(out).endswith(".csv"):
        if csv_rows is None:
            raise DomainError("this subcommand has no CSV rendering")
        text = _rows_to_csv(csv_rows)
    else:
        text = json.dumps(record, indent=2) + "\n"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    _say(f"wrote {out}")


def _parse_floats(text: str | None, what: str) -> list[float]:
    if not text:
        return []
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError(f"could not parse {what} list {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{what} angles must be finite, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    instance, objective, _ = _resolve_inputs(args)
    solutions = enumerate_solutions(instance)
    values = objective_values(objective, instance, np.array([bits_to_int(z) for z in solutions]))
    scored = [{"bitstring": z, "value": v} for z, v in zip(solutions, values.tolist())]
    scored.sort(key=lambda row: (row["value"], row["bitstring"]))
    optimum = scored[0]["value"] if scored else None
    for row in scored:
        row["optimal"] = row["value"] == optimum
    record = {
        "instance": instance_to_dict(instance, objective),
        "n_solutions": len(scored),
        "optimum": optimum,
        "solutions": scored,
    }
    _emit(record, args, csv_rows=scored)
    return 0


def cmd_graph(args) -> int:
    instance, objective, _ = _resolve_inputs(args)
    graph = build_constraint_graph(instance)
    p, j = instance.positions, instance.jobs
    expected = p * j * (j - 1) // 2 + j * p * (p - 1) // 2
    record = {
        "instance": instance_to_dict(instance, objective),
        "n_vertices": graph.n_vertices,
        "edge_count": graph.edge_count(),
        "expected_edge_count": expected,
        "job_blocks": [list(b) for b in job_blocks(instance)],
        "position_blocks": [list(b) for b in position_blocks(instance)],
        "vertices": [
            {"index": n, "coordinate": list(index_to_coordinate(instance, n))}
            for n in range(1, instance.n_bits + 1)
        ],
    }
    if instance.n_bits <= 32:
        record["edges"] = [
            [a + 1, b + 1]
            for a in range(graph.n_vertices)
            for b in range(a + 1, graph.n_vertices)
            if graph.adjacency[a, b]
        ]
    if graph.edge_count() != expected:
        _emit(record, args)
        raise VerificationError(
            f"edge count {graph.edge_count()} != closed form {expected}"
        )
    _emit(record, args)
    return 0


def _describe_element(instance, g) -> str:
    if g.swap_roles:
        return "position/job transposer"
    if g.job_perm != tuple(range(instance.jobs)):
        return f"job transposition {cycle_notation(g.job_perm)}"
    if g.position_perm != tuple(range(instance.positions)):
        return f"position transposition {cycle_notation(g.position_perm)}"
    return "identity"


def cmd_group_check(args) -> int:
    instance, objective, _ = _resolve_inputs(args)
    generators = group_generators(instance)
    perms = [vertex_permutation(instance, g) for g in generators]
    claimed = group_order(instance)
    group = generate_group(perms)
    generated = len(group)
    order_match = generated == claimed

    small = solution_count(instance) <= ORBIT_SOLUTION_CAP
    solutions = enumerate_solutions(instance) if small else []
    if solutions:
        transitive = orbit(instance, solutions[0], generators) == set(solutions)
    else:
        transitive = None

    pair_gens = [g for g in generators if not g.swap_roles]
    blocks_ok = {
        "job_blocks": verify_block_system(instance, job_blocks(instance), pair_gens),
        "position_blocks": verify_block_system(
            instance, position_blocks(instance), pair_gens
        ),
    }

    brute_match = None
    notice = None
    if instance.n_bits <= BRUTE_FORCE_VERTEX_CAP:
        preservers = bruteforce_feasibility_preservers(
            build_constraint_graph(instance), solutions
        )
        brute_match = preservers == group
    else:
        notice = (
            f"exhaustive permutation scan skipped ({instance.n_bits} bits "
            f"> cap {BRUTE_FORCE_VERTEX_CAP}); order and orbit checks still run"
        )

    record = {
        "instance": instance_to_dict(instance, objective),
        "generators": [
            {
                "name": _describe_element(instance, g),
                "cycles": cycle_notation(vertex_permutation(instance, g)),
            }
            for g in generators
        ],
        "claimed_order": claimed,
        "generated_order": generated,
        "order_match": order_match,
        "transitive": transitive,
        "block_systems": blocks_ok,
        "bruteforce_match": brute_match,
    }
    if notice:
        record["notice"] = notice
    _emit(record, args)
    failures = [
        label
        for label, ok in [
            ("order", order_match),
            ("transitivity", transitive),
            ("job blocks", blocks_ok["job_blocks"]),
            ("position blocks", blocks_ok["position_blocks"]),
            ("brute force", brute_match),
        ]
        if ok is False
    ]
    if failures:
        raise VerificationError(f"group check failed: {', '.join(failures)}")
    _say(f"group order {generated} verified; transitive: {transitive}")
    return 0


def cmd_reach(args) -> int:
    instance, objective, _ = _resolve_inputs(args)
    plan = compile_reach(instance, args.source, args.target)
    record = {
        "instance": instance_to_dict(instance, objective),
        "source": args.source,
        "target": args.target,
        "word": plan.word,
        "depth": plan.circuit.depth,
        "n_rotation_slots": plan.circuit.n_beta,
        "beta": [float(b) for b in plan.params.beta],
        "gamma": [float(g) for g in plan.params.gamma],
        "fidelity": plan.fidelity,
    }
    _emit(record, args)
    _say(f"word {plan.word} fidelity {plan.fidelity:.6f}")
    return 0


def _resolve_circuit_inputs(args):
    """(instance, objective, run settings, depth, initial state, engine),
    each flag falling back to the preset's setting."""
    instance, objective, run = _resolve_inputs(args)
    depth = args.depth if args.depth is not None else run.get("depth", 1)
    initial = args.initial or run.get("initial_state")
    if initial is None:
        raise DomainError("provide --initial BITSTRING (or use a preset)")
    engine = args.engine or run.get("engine", "subspace")
    return instance, objective, run, depth, initial, engine


def cmd_simulate(args) -> int:
    instance, objective, _, depth, initial, engine = _resolve_circuit_inputs(args)
    shots = args.shots if args.shots is not None else 0
    seed = _resolve_seed(args)

    circuit = build_circuit(instance, objective, depth)
    beta = _parse_floats(args.beta, "beta")
    gamma = _parse_floats(args.gamma, "gamma")
    if not beta:
        beta = [0.0] * circuit.n_beta
    if not gamma:
        gamma = [0.0] * circuit.n_gamma
    params = ParameterVector(beta, gamma)
    state = apply_circuit(circuit, params, basis_state(instance, initial, engine))
    diag = circuit.phase_for(state.basis)
    rows = annotate_rows(instance, state, diag, shots, np.random.SeedSequence(seed))
    record = {
        "instance": instance_to_dict(instance, objective),
        "depth": depth,
        "engine": engine,
        "initial_state": initial,
        "shots": shots,
        "seed": seed,
        "params": {"beta": beta, "gamma": gamma},
        "expectation": expectation(state, diag),
        "feasible_mass": feasible_mass(instance, state),
        "mode": rows[0]["bitstring"],
        "histogram": rows,
    }
    _emit(record, args, csv_rows=rows)
    return 0


def cmd_optimize(args) -> int:
    instance, objective, run, depth, initial, engine = _resolve_circuit_inputs(args)
    shots = args.shots if args.shots is not None else run.get("shots", 1024)
    seed = _resolve_seed(args)

    settings = dict(run.get("optimizer", {}))
    if args.optimizer:
        settings["kind"] = args.optimizer
    if args.sgd_samples is not None:
        settings["sample_size"] = args.sgd_samples
    if args.sgd_radius is not None:
        settings["radius"] = args.sgd_radius
    if args.max_iters is not None:
        settings["max_iters"] = args.max_iters
    settings["seed"] = seed
    config = OptimizerConfig(**settings)

    record = run_experiment(
        instance, objective, depth=depth, initial_state=initial,
        config=config, shots=shots, engine=engine,
    )
    _emit(record.to_dict(), args, csv_rows=record.histogram)
    gap = None
    if record.best_feasible is not None:
        gap = record.best_feasible["value"] - record.classical_optimum["value"]
    _say(
        f"mode {record.mode} value {record.histogram[0]['value']:g} "
        f"(classical optimum {record.classical_optimum['value']:g}, "
        f"best feasible gap {gap if gap is not None else 'n/a'}) "
        f"dominant fraction {record.dominant_fraction:.3f}"
    )
    return 0


def cmd_report(args) -> int:
    with open(args.record, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(
                f"parse error in {args.record} at line {exc.lineno} "
                f"column {exc.colno}: {exc.msg}"
            ) from None
    rows = record.get("histogram") or []
    if args.format == "csv" or (args.out and str(args.out).endswith(".csv")):
        text = _rows_to_csv(rows)
    else:
        lines = []
        key = "count" if rows and "count" in rows[0] else "probability"
        width = max((len(r["bitstring"]) for r in rows), default=9)
        lines.append(f"{'bitstring':<{width}}  {key:>11}  {'value':>7}  feasible")
        for r in rows:
            lines.append(
                f"{r['bitstring']:<{width}}  {r[key]:>11.6g}  "
                f"{r['value']:>7g}  {str(r['feasible']).lower()}"
            )
        summary = [
            f"mode {record.get('mode')} "
            f"dominant fraction {record.get('dominant_fraction', 0):.3f}",
            f"best expectation {record.get('best_expectation')}",
            f"classical optimum {record.get('classical_optimum', {}).get('value')}",
        ]
        text = "\n".join(lines + summary) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _say(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, out=True):
    sub.add_argument("--instance", help="path to an instance JSON file")
    sub.add_argument("--preset", help=f"shipped preset: {', '.join(list_presets())}")
    if out:
        sub.add_argument("--out", help="write JSON (or CSV for .csv paths) here")


def _add_circuit_args(sub):
    sub.add_argument("--depth", type=int, default=None)
    sub.add_argument("--initial", help="initial basis bit string")
    sub.add_argument("--engine", choices=["full", "subspace"], default=None)
    sub.add_argument("--shots", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ossvqa",
        description="Open-shop scheduling: enumeration, symmetry checks, "
        "swap-mixer circuits, and variational optimization.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="list all solutions with objective values")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("graph", help="emit the constraint graph and its blocks")
    _add_common(p)
    p.set_defaults(func=cmd_graph)

    p = subs.add_parser("group-check", help="verify the symmetry group")
    _add_common(p)
    p.set_defaults(func=cmd_group_check)

    p = subs.add_parser("reach", help="compile one solution onto another")
    _add_common(p)
    p.add_argument("--source", required=True, help="feasible bit string")
    p.add_argument("--target", required=True, help="feasible bit string")
    p.set_defaults(func=cmd_reach)

    p = subs.add_parser("simulate", help="apply a parametrized circuit and measure")
    _add_common(p)
    _add_circuit_args(p)
    p.add_argument("--beta", help="comma-separated mixer angles")
    p.add_argument("--gamma", help="comma-separated phase angles")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("optimize", help="run the variational experiment")
    _add_common(p)
    _add_circuit_args(p)
    p.add_argument("--optimizer", choices=["tr", "sgd"], default=None)
    p.add_argument("--sgd-samples", type=int, default=None)
    p.add_argument("--sgd-radius", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("report", help="render a saved run record")
    p.add_argument("--record", required=True, help="run record JSON path")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        _say(f"error: {exc}")
        return 2
    except VerificationError as exc:
        _say(f"verification failed: {exc}")
        return 3
    except CapabilityError as exc:
        _say(f"capability exceeded: {exc}")
        return 4
    except FileNotFoundError as exc:
        _say(f"error: {exc}")
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
