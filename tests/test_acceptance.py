"""Acceptance gate: twelve numbered guarantees, one test per criterion.

Each test checks a shipped behavior at its stated tolerance and time
budget and prints a single PASS line (visible with -s; with -v the
pass/fail verdict is the test line itself). Criteria 9, 10, and 12
share one batch of seeded optimization runs.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from ossvqa.cli import main
from ossvqa.groups import (
    bruteforce_feasibility_preservers,
    check_mixing_family,
    generate_group,
    group_generators,
    group_order,
    orbit,
    vertex_permutation,
)
from ossvqa.instances import (
    OsspInstance,
    enumerate_solutions,
    evaluate_objective,
    int_to_bits,
    is_feasible,
    solution_count,
)
from ossvqa.presets import resolve_preset
from ossvqa.simulator import (
    ParameterVector,
    QuantumState,
    amplitude,
    apply_circuit,
    apply_mixer,
    apply_phase_separator,
    apply_simultaneous_mixer,
    apply_swap_rotation,
    basis_state,
    build_circuit,
    full_basis,
    mixer_hamiltonian,
    mixers,
    phase_separator,
    phase_table,
    probabilities,
    pure_state,
    subspace_basis,
)
from ossvqa.vqa import OptimizerConfig, compile_reach, objective_value, run_experiment

SCORES_224 = {
    "0010000110000100": 5, "0010000101001000": 5,
    "0010010000011000": 7, "0100000100101000": 7,
    "0010100000010100": 7, "0100001000011000": 8,
    "0100000110000010": 8, "0010100001000001": 8,
    "0010010010000001": 8, "1000000100100100": 8,
    "0001001010000100": 9, "0001001001001000": 9,
    "1000001000010100": 9, "1000000101000010": 9,
    "0100001010000001": 9, "0100100000100001": 10,
    "0100100000010010": 10, "0001010000101000": 10,
    "0001100000100100": 10, "1000001001000001": 10,
    "1000010000100001": 11, "1000010000010010": 11,
    "0001100001000010": 11, "0001010010000010": 11,
}
SCORES_133 = {
    "001010100": 5, "001100010": 6, "010001100": 6,
    "010100001": 7, "100001010": 8, "100010001": 8,
}
OPTIMA_224 = {"0010000110000100", "0010000101001000"}
REACHABLE_133 = {"100010001", "010100001", "100001010", "010001100"}

_RUN_CACHE: dict[str, list] = {}


def counting_law_instances():
    out = []
    for m, t in itertools.product(range(1, 7), repeat=2):
        if m * t > 6:
            continue
        for j in range(1, m * t + 1):
            out.append(OsspInstance(m, t, j))
    return out


def preset_runs(name):
    """Ten seeded optimization runs (seeds 0..9) from a preset's run block."""
    if name not in _RUN_CACHE:
        instance, objective, run = resolve_preset(name)
        records = []
        for seed in range(10):
            settings = dict(run["optimizer"])
            settings["seed"] = seed
            records.append(run_experiment(
                instance, objective, depth=run["depth"],
                initial_state=run["initial_state"],
                config=OptimizerConfig(**settings),
                shots=run["shots"], engine=run["engine"],
            ))
        _RUN_CACHE[name] = records
    return _RUN_CACHE[name]


def test_criterion_01_enumeration_goldens(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "rows.json"
    assert main(["enumerate", "--preset", "ossp224", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert {r["bitstring"]: r["value"] for r in doc["solutions"]} == SCORES_224
    assert main(["enumerate", "--preset", "ossp133", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert {r["bitstring"]: r["value"] for r in doc["solutions"]} == SCORES_133
    assert doc["optimum"] == 5.0
    assert doc["solutions"][0]["bitstring"] == "001010100"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1 PASS: 24 + 6 enumerated rows match ({elapsed:.2f}s)")


def test_criterion_02_counting_law():
    t0 = time.perf_counter()
    checked = 0
    for inst in counting_law_instances():
        p, j = inst.positions, inst.jobs
        want = math.factorial(p) // math.factorial(p - j)
        assert len(enumerate_solutions(inst)) == want == solution_count(inst)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 2 PASS: {checked} instances obey the counting law "
          f"({elapsed:.2f}s)")


def test_criterion_03_group_orders_and_bruteforce():
    t0 = time.perf_counter()
    for m, t, j, want in [(2, 2, 4, 1152), (1, 3, 3, 72), (1, 3, 2, 12)]:
        inst = OsspInstance(m, t, j)
        assert group_order(inst) == want
        perms = [vertex_permutation(inst, g) for g in group_generators(inst)]
        assert len(generate_group(perms)) == want
    inst = OsspInstance(1, 3, 3)
    generated = generate_group(
        [vertex_permutation(inst, g) for g in group_generators(inst)]
    )
    scanned = bruteforce_feasibility_preservers(inst, enumerate_solutions(inst))
    assert scanned == generated
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3 PASS: orders 1152/72/12; 9!-scan matches the "
          f"generated group ({elapsed:.2f}s)")


def test_criterion_04_transitivity():
    for inst in counting_law_instances():
        sols = enumerate_solutions(inst)
        reached = orbit(inst, sols[0], group_generators(inst))
        assert reached == set(sols)
    print("criterion 4 PASS: one orbit covers every solution set")


def test_criterion_05_gate_identities_and_unitarity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 17))
        a, b = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        context = rng.integers(0, 2, size=n)
        for pa, pb in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            bits = context.copy()
            bits[a - 1], bits[b - 1] = pa, pb
            z = "".join(map(str, bits))
            out = apply_swap_rotation(pure_state(n, z), (a, b), math.pi / 2)
            swapped = bits.copy()
            swapped[a - 1], swapped[b - 1] = pb, pa
            w = "".join(map(str, swapped))
            assert abs(amplitude(out, w) - 1j) < 1e-12
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

        m = int(rng.integers(2, 11))
        ca, cb = (int(v) + 1 for v in rng.choice(m, size=2, replace=False))
        amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        st = QuantumState(full_basis(m), amps / np.linalg.norm(amps))
        same = apply_swap_rotation(st, (ca, cb), 0.0)
        assert np.max(np.abs(same.amps - st.amps)) < 1e-12

    inst133, obj133, _ = resolve_preset("ossp133")
    sub = subspace_basis(inst133, "100010001")
    sep = phase_table(phase_separator(obj133, inst133, sub), sub)
    fam = mixers(inst133)
    trials = 0
    for k in range(1000):
        amps = rng.normal(size=sub.dim) + 1j * rng.normal(size=sub.dim)
        st = QuantumState(sub, amps / np.linalg.norm(amps))
        kind = k % 4
        if kind == 0:
            block = [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)]
            pair = block[int(rng.integers(len(block)))]
            out = apply_swap_rotation(st, pair, float(rng.uniform(-math.pi, math.pi)))
        elif kind == 1:
            mx = mixer_hamiltonian(inst133, int(rng.integers(1, 3)))
            out = apply_mixer(st, mx, float(rng.uniform(-math.pi, math.pi)))
        elif kind == 2:
            out = apply_phase_separator(st, sep, float(rng.uniform(-2 * math.pi, 2 * math.pi)))
        else:
            out = apply_simultaneous_mixer(st, fam, float(rng.uniform(-math.pi, math.pi)))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12
        trials += 1
    assert trials == 1000
    print("criterion 5 PASS: swap identities hold; 1000 random gates unitary "
          "within 1e-12")


def test_criterion_06_engine_equivalence():
    rng = np.random.default_rng(6)
    for preset, depth in [("ossp224", 6), ("ossp133", 3)]:
        instance, objective, run = resolve_preset(preset)
        z0 = run["initial_state"]
        circuit = build_circuit(instance, objective, depth)
        full0 = basis_state(instance, z0, "full")
        sub0 = basis_state(instance, z0, "subspace")
        strings = [int_to_bits(v, instance.n_bits) for v in sub0.basis.values().tolist()]
        for _ in range(100):
            params = ParameterVector(
                rng.uniform(0, math.pi / 2, circuit.n_beta),
                rng.uniform(0, 2 * math.pi, circuit.n_gamma),
            )
            full = apply_circuit(circuit, params, full0)
            sub = apply_circuit(circuit, params, sub0)
            embedded = np.array([amplitude(full, z) for z in strings])
            fid = abs(np.vdot(embedded, sub.amps))
            assert abs(fid - 1.0) < 1e-10
    print("criterion 6 PASS: engines agree within 1e-10 fidelity on "
          "100 random parameter vectors per preset circuit")


def test_criterion_07_exhaustive_reachability():
    t0 = time.perf_counter()
    for preset, max_slots in [("ossp224", 18), ("ossp133", 6)]:
        instance, _, _ = resolve_preset(preset)
        j = instance.jobs
        assert max_slots == j * (j - 1) ** 2 // 2
        sols = enumerate_solutions(instance)
        for src in sols:
            for tgt in sols:
                plan = compile_reach(instance, src, tgt)
                assert plan.circuit.n_beta <= max_slots
                assert abs(plan.fidelity - 1.0) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 7 PASS: 576 + 36 pairs reached exactly ({elapsed:.2f}s)")


def test_criterion_08_grid_feasibility():
    instance, objective, _ = resolve_preset("ossp133")
    circuit = build_circuit(instance, objective, 1)
    start = basis_state(instance, "100010001", "subspace")
    reached = set()
    for corner in itertools.product([0.0, math.pi / 2], repeat=circuit.n_beta):
        params = ParameterVector(np.array(corner), np.zeros(circuit.n_gamma))
        out = apply_circuit(circuit, params, start)
        probs = probabilities(out)
        assert len(probs) == 1
        (z, p), = probs.items()
        assert abs(p - 1.0) < 1e-12
        assert is_feasible(instance, z)
        reached.add(z)
    assert reached == REACHABLE_133
    print("criterion 8 PASS: every grid corner lands on one feasible string; "
          "the reachable set is the expected four")


def test_criterion_09_trust_region_reproduction():
    t0 = time.perf_counter()
    records = preset_runs("ossp224")
    hits = sum(1 for r in records if r.mode in OPTIMA_224)
    best = max(r.dominant_fraction for r in records if r.mode in OPTIMA_224)
    elapsed = time.perf_counter() - t0
    assert hits >= 7
    assert best >= 0.5
    assert elapsed < 600.0
    print(f"criterion 9 PASS: {hits}/10 seeds mode in the two optima; best "
          f"dominant fraction {best:.3f} ({elapsed:.1f}s)")


def test_criterion_10_sampled_descent_reproduction():
    t0 = time.perf_counter()
    records = preset_runs("ossp133-restricted")
    ok = 0
    for r in records:
        trace = [it["expectation"] for it in r.iterations]
        monotone = all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        if monotone and trace[-1] <= 6.05 and r.mode == "010001100":
            ok += 1
    elapsed = time.perf_counter() - t0
    assert ok >= 7
    assert elapsed < 120.0
    print(f"criterion 10 PASS: {ok}/10 seeds descend to the accessible "
          f"optimum ({elapsed:.1f}s)")


def test_criterion_11_mixing_family_verdicts():
    instance, _, _ = resolve_preset("ossp224")
    sols = enumerate_solutions(instance)

    # independent route: full subgroup closure, then one orbit of solutions
    def closure_orbit_connected(family):
        from ossvqa.groups import job_transposition_element

        perms = [
            vertex_permutation(instance, job_transposition_element(instance, i))
            for i in family
        ]
        group = generate_group(perms)
        start = set(k for k, c in enumerate(sols[0]) if c == "1")
        images = set()
        for g in group:
            images.add(frozenset(g[v] for v in start))
        return len(images) == len(sols)

    assert check_mixing_family(instance, [1, 2, 3]) is True
    assert closure_orbit_connected([1, 2, 3]) is True
    for i in (1, 2, 3):
        assert check_mixing_family(instance, [i]) is False
        assert closure_orbit_connected([i]) is False
    assert check_mixing_family(instance, [1, 2]) == closure_orbit_connected([1, 2])
    assert check_mixing_family(instance, [2, 3]) == closure_orbit_connected([2, 3])
    assert check_mixing_family(instance, [1, 3]) == closure_orbit_connected([1, 3])
    print("criterion 11 PASS: full family mixes, singletons do not; verdicts "
          "match the subgroup-closure brute force")


def test_criterion_12_oracle_consistency():
    for name in ("ossp224", "ossp133-restricted"):
        for r in preset_runs(name):
            assert r.best_feasible is not None
            assert r.best_feasible["value"] >= r.classical_optimum["value"] - 1e-12

    for preset in ("ossp224", "ossp133"):
        instance, objective, run = resolve_preset(preset)
        z0 = run["initial_state"]
        circuit = build_circuit(instance, objective, run["depth"])
        state = basis_state(instance, z0, "subspace")
        zeros = ParameterVector(np.zeros(circuit.n_beta), np.zeros(circuit.n_gamma))
        got = objective_value(circuit, zeros, state)
        assert got == pytest.approx(evaluate_objective(objective, instance, z0), abs=1e-12)
    print("criterion 12 PASS: sampled feasible values never beat the "
          "brute-force optimum; zero-parameter expectation equals f(initial)")
