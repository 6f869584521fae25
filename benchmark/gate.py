"""Correctness gate: checks a workload's outputs against independent facts.

Each check returns a list of failure messages, empty when the output is
correct.  The gate runs outside the timed region and with tracing removed,
so its own calls into the package count in no metric.
"""

from __future__ import annotations

import json

EXACT_TOL = 1e-9
FIDELITY_TOL = 1e-10


def score(instance, objective, z: str) -> float:
    """Objective value of a feasible string, computed without the package's
    vectorised evaluator: linear weights summed over set bits, or the closed
    tour read off the (city, step) one-hot layout."""
    ones = [i for i, c in enumerate(z) if c == "1"]
    if hasattr(objective, "weights"):
        return float(sum(objective.weights[i] for i in ones))
    jobs = instance.jobs
    city_at_step = {}
    for i in ones:
        city, step = divmod(i, jobs)
        city_at_step[step] = city
    d = objective.distances
    return float(sum(
        d[city_at_step[s]][city_at_step[(s + 1) % jobs]] for s in range(jobs)
    ))


class Oracle:
    """Brute-force optimum over ``enumerate_solutions``, memoised per input."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def optimum(self, instance, objective) -> tuple[float, set[str]]:
        key = (instance, objective)
        if key not in self._cache:
            from ossvqa.instances import enumerate_solutions

            scored = [(score(instance, objective, z), z)
                      for z in enumerate_solutions(instance)]
            best = min(v for v, _ in scored)
            self._cache[key] = (best, {z for v, z in scored if abs(v - best) <= EXACT_TOL})
        return self._cache[key]


def check_run_record(record, oracle: Oracle, instance, objective, circuit, state) -> list[str]:
    """A RunRecord from run_experiment: optimum, histogram total, exact value."""
    from ossvqa import simulator

    failures = []
    best, solutions = oracle.optimum(instance, objective)
    claimed = record.classical_optimum
    if abs(claimed["value"] - best) > EXACT_TOL or set(claimed["solutions"]) != solutions:
        failures.append(
            f"classical optimum {claimed['value']} {sorted(claimed['solutions'])} "
            f"!= brute force {best} {sorted(solutions)}"
        )
    if record.shots:
        total = sum(row["count"] for row in record.histogram)
        if total != record.shots:
            failures.append(f"histogram counts sum to {total}, not {record.shots}")
    else:
        total = sum(row["probability"] for row in record.histogram)
        if abs(total - 1.0) > EXACT_TOL:
            failures.append(f"probabilities sum to {total}")
    if record.config["shots"] == 0:
        params = simulator.ParameterVector(record.best_params["beta"],
                                           record.best_params["gamma"])
        final = simulator.apply_circuit(circuit, params, state)
        fresh = simulator.expectation(final, circuit.phase_for(final.basis))
        if not abs(fresh - record.best_expectation) <= EXACT_TOL:
            failures.append(
                f"best_expectation {record.best_expectation!r} != fresh {fresh!r}"
            )
    return failures


def check_group(elements, instance) -> list[str]:
    from ossvqa.groups import group_order

    claimed = group_order(instance)
    if len(elements) != claimed:
        return [f"generated order {len(elements)} != group_order {claimed}"]
    return []


def check_orbit(found, instance) -> list[str]:
    from ossvqa.instances import enumerate_solutions

    # the full group acts transitively on the solutions of every shape
    if set(found) != set(enumerate_solutions(instance)):
        return [f"orbit has {len(found)} strings, not every solution"]
    return []


def check_mixing(verdict, instance, family) -> list[str]:
    # adjacent job transpositions generate S_J only when all are present, and
    # job moves never change which positions are occupied
    expected = instance.is_busy and set(family) == set(range(1, instance.jobs))
    if verdict is not expected:
        return [f"mixing verdict {verdict} for family {family}, expected {expected}"]
    return []


def _jobs_at_positions(instance, z: str) -> list[int]:
    """The job in each position of a busy schedule (one-hot blocks)."""
    jobs = instance.jobs
    return [z[p * jobs:(p + 1) * jobs].index("1") for p in range(instance.positions)]


def check_reach(plan, instance, source: str, target: str) -> list[str]:
    """A ReachPlan: its word relabels the source's jobs into the target's,
    and its circuit carries |source> onto |target>.  The overlap is read off
    the final amplitudes here, not taken from the plan's own fidelity."""
    from ossvqa import simulator

    failures = []
    assignment = _jobs_at_positions(instance, source)
    for w in plan.word:  # transposition of jobs w - 1 and w, first listed first
        swap = {w - 1: w, w: w - 1}
        assignment = [swap.get(j, j) for j in assignment]
    if assignment != _jobs_at_positions(instance, target):
        failures.append(f"word {plan.word} maps the source to jobs {assignment}")
    start = simulator.basis_state(instance, source, "subspace")
    final = simulator.apply_circuit(plan.circuit, plan.params, start)
    overlap = float(abs(final.amps[final.basis.values() == int(target, 2)].sum()))
    if not overlap >= 1 - FIDELITY_TOL:
        failures.append(f"overlap with the target {overlap!r} below 1 - {FIDELITY_TOL}")
    return failures


def check_cli(result, instance) -> list[str]:
    from ossvqa.groups import group_order
    from ossvqa.instances import solution_count

    argv, code, out = result
    if code != 0:
        return [f"ossvqa {' '.join(argv)} exited {code}"]
    doc = json.loads(out)
    failures = []
    if argv[0] == "enumerate":
        want = solution_count(instance)
        if doc["n_solutions"] != want or len(doc["solutions"]) != want:
            failures.append(
                f"enumerate gave {doc['n_solutions']} / {len(doc['solutions'])} rows, "
                f"solution_count is {want}"
            )
    else:
        want = group_order(instance)
        if doc["generated_order"] != want or not doc["order_match"]:
            failures.append(f"group-check order {doc['generated_order']} != {want}")
        if doc["transitive"] is not True:
            failures.append("group-check found the action intransitive")
        brute_expected = True if instance.n_bits <= 10 else None
        if doc["bruteforce_match"] is not brute_expected:
            failures.append(f"bruteforce_match is {doc['bruteforce_match']}")
    return failures
