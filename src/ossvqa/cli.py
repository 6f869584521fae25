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
import itertools
import json
import math
import sys

import numpy as np

from .errors import CapabilityError, DomainError, VerificationError
from .groups import (
    BRUTE_FORCE_VERTEX_CAP,
    GROUP_CLOSURE_CAP,
    PermutationGroup,
    bruteforce_feasibility_preservers,
    cycle_notation,
    edge_count,
    group_generators,
    group_order,
    identity_perm,
    orbit,
    verify_block_system,
    vertex_permutation,
)
from .instances import (
    enumerate_solutions,
    index_to_coordinate,
    instance_to_dict,
    int_to_bits,
    job_blocks,
    load_instance,
    optimum,
    position_blocks,
    read_json,
    scored_solutions,
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
    """--seed (default 0), refused when negative."""
    seed = args.seed
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


def _write(path, text: str) -> None:
    """Write text to path; DomainError (exit 2) when the file cannot be
    written, such as a directory or a missing parent."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from None
    _say(f"wrote {path}")


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
    _write(out, text)


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
    solutions, values = scored_solutions(instance, objective)
    best, optimal = optimum(values)  # the oracle's tie rule
    order = np.lexsort((solutions, values))  # by value, ties by string
    scored = [
        {"bitstring": int_to_bits(z, instance.n_bits), "value": v, "optimal": o}
        for z, v, o in zip(solutions[order].tolist(), values[order].tolist(),
                           optimal[order].tolist())
    ]
    record = {
        "instance": instance_to_dict(instance, objective),
        "n_solutions": len(scored),
        "optimum": best,
        "solutions": scored,
    }
    _emit(record, args, csv_rows=scored)
    return 0


def cmd_graph(args) -> int:
    """The constraint graph as its block cliques, listing edges up to N = 32.
    The graph is read from the instance's blocks, so no adjacency matrix is
    built and no size is refused; its edge count is the closed form
    P*C(J,2) + J*C(P,2) (edge_count)."""
    instance, objective, _ = _resolve_inputs(args)
    jblocks, pblocks = job_blocks(instance), position_blocks(instance)
    record = {
        "instance": instance_to_dict(instance, objective),
        "n_vertices": instance.n_bits,
        "edge_count": edge_count(instance),
        "job_blocks": [list(b) for b in jblocks],
        "position_blocks": [list(b) for b in pblocks],
        "vertices": [
            {"index": n, "coordinate": list(index_to_coordinate(instance, n))}
            for n in range(1, instance.n_bits + 1)
        ],
    }
    if instance.n_bits <= 32:
        record["edges"] = sorted(
            [a, b] for block in jblocks + pblocks
            for a, b in itertools.combinations(block, 2)
        )
    _emit(record, args)
    return 0


def _describe_element(instance, g) -> str:
    if g.swap_roles:
        return "position/job transposer"
    if g.job_perm != tuple(range(instance.jobs)):
        return f"job transposition {cycle_notation(g.job_perm)}"
    return f"position transposition {cycle_notation(g.position_perm)}"


def cmd_group_check(args) -> int:
    """Compare the Schreier-Sims order of the generated group with the
    closed form, check that the group is transitive on the solutions and
    that the job and position blocks are block systems, and, up to
    BRUTE_FORCE_VERTEX_CAP bits and GROUP_CLOSURE_CAP elements, compare
    the group with every feasibility-preserving permutation. Past 63 bits
    the solutions cannot be enumerated, and it exits 4 before any
    generator is built. No element of the group is listed."""
    instance, objective, _ = _resolve_inputs(args)
    solutions = enumerate_solutions(instance)
    generators = group_generators(instance)
    perms = [vertex_permutation(instance, g) for g in generators]
    claimed = group_order(instance)
    # the group acts on n_bits points, also when no generator names them
    group = PermutationGroup(perms or [identity_perm(instance.n_bits)])
    generated = group.order
    order_match = generated == claimed

    transitive = orbit(instance, solutions[0], generators) == set(solutions)

    pair_gens = [g for g in generators if not g.swap_roles]
    blocks_ok = {
        "job_blocks": verify_block_system(instance, job_blocks(instance), pair_gens),
        "position_blocks": verify_block_system(
            instance, position_blocks(instance), pair_gens
        ),
    }

    brute_match = None
    notice = None
    if instance.n_bits > BRUTE_FORCE_VERTEX_CAP:
        notice = (
            f"exhaustive permutation scan skipped ({instance.n_bits} bits "
            f"> cap {BRUTE_FORCE_VERTEX_CAP}); order and orbit checks still run"
        )
    elif generated > GROUP_CLOSURE_CAP:  # the scan would hold every preserver
        notice = (
            f"exhaustive permutation scan skipped (group order {generated} "
            f"> cap {GROUP_CLOSURE_CAP}); order and orbit checks still run"
        )
    else:
        preservers = bruteforce_feasibility_preservers(instance, solutions)
        brute_match = preservers == group

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
    rows = annotate_rows(circuit, state, shots, np.random.SeedSequence(seed))
    record = {
        "instance": instance_to_dict(instance, objective),
        "depth": depth,
        "engine": engine,
        "initial_state": initial,
        "shots": shots,
        "seed": seed,
        "params": {"beta": beta, "gamma": gamma},
        "expectation": expectation(state, circuit.phase_for(state.basis)),
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


def _render_record(record, args) -> str:
    """The record's histogram as CSV, or as a table with a summary."""
    rows = record.get("histogram") or []
    if args.format == "csv" or (args.out and str(args.out).endswith(".csv")):
        return _rows_to_csv(rows)
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
    side = record.get("sidecar") or {}
    if "optimizer_seconds" in side:  # records written before stage timings lack them
        summary.append(
            f"timing {side['n_evaluations']} evaluations, optimizer "
            f"{side['optimizer_seconds']:.3f} s ({side['ms_per_evaluation']:.3f} ms per "
            f"evaluation), readout {side['readout_seconds']:.3f} s, oracle "
            f"{side['oracle_seconds']:.3f} s"
        )
    return "\n".join(lines + summary) + "\n"


def cmd_report(args) -> int:
    record = read_json(args.record)
    try:
        text = _render_record(record, args)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(
            f"{args.record} is not a run record: {type(exc).__name__}: {exc}"
        ) from None
    if args.out:
        _write(args.out, text)
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
    sub.add_argument("--seed", type=int, default=0)


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


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
