"""Optimizer, reach-compilation, and run-record tests."""

import json
import math

import numpy as np
import pytest

from ossvqa import instances, simulator, vqa
from ossvqa.errors import CapabilityError, DomainError
from ossvqa.groups import decompose_job_permutation
from ossvqa.instances import (
    OsspInstance,
    enumerate_solutions,
    evaluate_objective,
    int_to_bits,
    linear_from_rows,
)
from ossvqa.presets import list_presets, resolve_preset
from ossvqa.simulator import (
    ParameterVector,
    apply_circuit,
    basis_state,
    build_circuit,
    probabilities,
)
from ossvqa.vqa import (
    OptimizerConfig,
    compile_reach,
    initial_parameters,
    objective_value,
    run_experiment,
    run_optimizer,
    sgd_minimize,
    trust_region_minimize,
)

OSSP224 = OsspInstance(2, 2, 4)
OSSP133 = OsspInstance(1, 3, 3)
OBJ224 = linear_from_rows(OSSP224, [[3, 2, 2, 3], [2, 2, 3, 0], [2, 2, 4, 2], [1, 1, 4, 2]])
OBJ133 = linear_from_rows(OSSP133, [[3, 2, 2], [2, 2, 3], [1, 2, 3]])
Z0_224 = "1000010000100001"
Z0_133 = "100010001"


def restricted_config(seed=0, **kw):
    args = dict(kind="sgd", seed=seed, max_iters=5, shots=0, sample_size=40,
                gamma_box=(0.0, math.pi / 2))
    args.update(kw)
    return OptimizerConfig(**args)


def test_objective_value_zero_params():
    c133 = build_circuit(OSSP133, OBJ133, 1)
    zeros133 = ParameterVector(np.zeros(c133.n_beta), np.zeros(c133.n_gamma))
    st = basis_state(OSSP133, Z0_133, "subspace")
    assert objective_value(c133, zeros133, st) == pytest.approx(8.0)
    c224 = build_circuit(OSSP224, OBJ224, 6)
    st224 = basis_state(OSSP224, Z0_224, "subspace")
    zeros224 = ParameterVector(np.zeros(c224.n_beta), np.zeros(c224.n_gamma))
    assert objective_value(c224, zeros224, st224) == pytest.approx(11.0)
    # a deterministic distribution gives the same sampled mean
    assert objective_value(c133, zeros133, st, shots=64, seed=5) == pytest.approx(8.0)
    # every feasible start reproduces its classical value
    for z in enumerate_solutions(OSSP133):
        sz = basis_state(OSSP133, z, "subspace")
        got = objective_value(c133, zeros133, sz)
        assert got == pytest.approx(evaluate_objective(OBJ133, OSSP133, z))


def test_objective_value_sampled_agrees_with_exact():
    circuit = build_circuit(OSSP133, OBJ133, 1)
    st = basis_state(OSSP133, Z0_133, "subspace")
    params = ParameterVector([math.pi / 4, math.pi / 3], [0.9])
    exact = objective_value(circuit, params, st)
    final = apply_circuit(circuit, params, st)
    probs = probabilities(final)
    values = np.array([evaluate_objective(OBJ133, OSSP133, z) for z in probs])
    weights = np.array(list(probs.values()))
    var = float(weights @ (values - exact) ** 2)
    shots = 1_000_000
    sampled = objective_value(circuit, params, st, shots=shots, seed=7)
    assert abs(sampled - exact) <= 3 * math.sqrt(var / shots)


def string_scored_value(circuit, params, state, shots, seed):
    """The sampled objective as it was computed before sampling returned basis
    indices: a histogram keyed by string, each string scored on its own."""
    final = apply_circuit(circuit, params, state)
    probs = np.clip((final.amps.conj() * final.amps).real, 0.0, None)
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    vals = final.basis.values()
    order = sorted(np.nonzero(counts)[0], key=lambda k: (-counts[k], int(vals[k])))
    hist = {int_to_bits(int(vals[k]), final.basis.n_bits): int(counts[k]) for k in order}
    total = sum(
        count * evaluate_objective(circuit.objective, circuit.instance, z)
        for z, count in hist.items()
    )
    return total / shots


def test_objective_value_shots_score_indices_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(23)
    cases = []
    for name in ("ossp224", "ossp133"):
        instance, objective, preset = resolve_preset(name)
        circuit = build_circuit(instance, objective, preset["depth"])
        state = basis_state(instance, preset["initial_state"], "subspace")
        for seed in range(6):
            params = ParameterVector(rng.uniform(0, math.pi / 2, size=circuit.n_beta),
                                     rng.uniform(0, 2 * math.pi, size=circuit.n_gamma))
            stream = np.random.SeedSequence(entropy=seed, spawn_key=(1, 0, 40))
            want = string_scored_value(circuit, params, state, 1024, stream)
            cases.append((circuit, params, state, stream, want))

    def refuse(*args, **kwargs):
        raise AssertionError("a sampled evaluation built or scored a string")

    for module in (instances, simulator, vqa):
        for name in ("evaluate_objective", "int_to_bits"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for circuit, params, state, stream, want in cases:
        assert objective_value(circuit, params, state, shots=1024, seed=stream) == want


def test_trust_region_quadratic_bowl():
    center = np.array([0.3, 0.7, 0.2])
    calls = {"n": 0}

    def bowl(x):
        calls["n"] += 1
        return float(np.sum((x - center) ** 2))

    best_x, best_f, _, _, trace, status, nfev = trust_region_minimize(
        bowl, np.array([0.9, 0.1, 0.5]), np.zeros(3), np.ones(3),
        max_iters=200, rhobeg=0.3, tol=1e-8,
    )
    assert best_f <= 1e-4 and calls["n"] <= 200 and nfev <= 200
    fs = [f for _, f in trace]
    assert all(b < a for a, b in zip(fs, fs[1:]))  # improvements only


def test_trust_region_zero_budget():
    circuit = build_circuit(OSSP133, OBJ133, 1)
    st = basis_state(OSSP133, Z0_133, "subspace")
    config = OptimizerConfig(kind="tr", seed=3, max_iters=0)
    rec = run_optimizer(circuit, st, config)
    start = initial_parameters(circuit, config)
    assert rec.status == "budget"
    assert rec.final_params["beta"] == pytest.approx(list(start.beta))
    assert rec.final_params["gamma"] == pytest.approx(list(start.gamma))


def test_trust_region_determinism_and_box():
    circuit = build_circuit(OSSP133, OBJ133, 1)
    st = basis_state(OSSP133, Z0_133, "subspace")
    config = OptimizerConfig(kind="tr", seed=11, max_iters=150, rhobeg=1.2, tol=0.15)
    rec1 = run_optimizer(circuit, st, config)
    rec2 = run_optimizer(circuit, st, config)
    assert rec1.to_dict() == rec2.to_dict()
    assert all(0 <= b <= math.pi / 2 + 1e-12 for b in rec1.best_params["beta"])
    assert rec1.best_expectation <= rec1.iterations[0]["expectation"] + 1e-12


def test_sgd_monotone_trace_and_determinism():
    circuit = build_circuit(OSSP133, OBJ133, 1)
    st = basis_state(OSSP133, Z0_133, "subspace")
    rec1 = run_optimizer(circuit, st, restricted_config(seed=1))
    rec2 = run_optimizer(circuit, st, restricted_config(seed=1))
    other = run_optimizer(circuit, st, restricted_config(seed=2))
    assert rec1.to_dict() == rec2.to_dict()
    assert rec1.to_dict() != other.to_dict()
    values = [it["expectation"] for it in rec1.iterations]
    assert len(values) == 6
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    radii = [it["radius"] for it in rec1.iterations]
    assert all(r > 0 for r in radii)
    assert all(a >= b - 1e-15 for a, b in zip(radii, radii[1:]))


def test_sgd_degenerate_ball_never_moves():
    def fun(x, rng):
        return float(np.sum(x**2))

    x0 = np.array([0.4, 0.9, 0.2])
    x, f, trace, nfev = sgd_minimize(
        fun, x0, np.zeros(3), np.full(3, math.pi / 2), seed=0, max_iters=4,
        sample_size=1, radius=1e-300, kappa=0.5, min_factor=0.25,
    )
    assert np.array_equal(x, x0)
    assert all(np.array_equal(xi, x0) for xi, _, _ in trace)
    assert nfev == 5


def test_config_validation():
    with pytest.raises(DomainError):
        OptimizerConfig(kind="newton")
    with pytest.raises(DomainError):
        OptimizerConfig(sample_size=0)
    with pytest.raises(DomainError):
        OptimizerConfig(radius=0.0)
    with pytest.raises(DomainError):
        OptimizerConfig(gamma_box=(1.0, 1.0))
    with pytest.raises(DomainError):
        OptimizerConfig(max_iters=-1)
    with pytest.raises(DomainError):
        OptimizerConfig(seed=-1)
    for bad in (dict(radius=math.inf), dict(rhobeg=math.inf), dict(tol=math.nan),
                dict(kappa=math.nan), dict(rhobeg=-1.0), dict(rhobeg=0.0), dict(tol=-1e-6),
                dict(gamma_box=(0.0, math.inf))):
        with pytest.raises(DomainError):
            OptimizerConfig(**bad)
    OptimizerConfig(tol=0.0)  # a zero tolerance is allowed


def test_config_integer_settings_and_gamma_box_pair():
    """seed, max_iters, shots and sample_size take what operator.index
    takes, except a bool, and are stored as int: seed=1.5 failed only when
    the run started, sgd's max_iters=1.5 raised TypeError, sample_size=2.5
    and seed=True were taken. A gamma_box that is not a pair raised
    ValueError or TypeError."""
    for name in ("seed", "max_iters", "shots", "sample_size"):
        for bad in (1.5, 2.0, True, "3", None):
            with pytest.raises(DomainError, match=f"{name} must be an integer"):
                OptimizerConfig(**{name: bad})
        config = OptimizerConfig(kind="sgd", **{name: np.int64(3)})
        assert type(getattr(config, name)) is int and getattr(config, name) == 3
    for bad in ((0.0,), (0.0, 1.0, 2.0), 1.0, None):
        with pytest.raises(DomainError, match="gamma_box must be a pair"):
            OptimizerConfig(gamma_box=bad)
    config = OptimizerConfig(gamma_box=[0.0, 1.0])
    assert config.to_dict() == {**OptimizerConfig().to_dict(), "gamma_box": [0.0, 1.0]}


def test_run_experiment_takes_integer_shots_and_depth():
    """shots=2.5 wrote counts summing to 2 and divided by 2.5
    (dominant_fraction 0.4); depth 1.5 built 3.0 beta slots."""
    kw = dict(initial_state=Z0_133, config=restricted_config(max_iters=0))
    for bad in (2.5, True, "8"):
        with pytest.raises(DomainError, match="shots must be an integer"):
            run_experiment(OSSP133, OBJ133, depth=1, shots=bad, **kw)
    with pytest.raises(DomainError, match="depth must be an integer"):
        run_experiment(OSSP133, OBJ133, depth=1.5, shots=8, **kw)
    rec = run_experiment(OSSP133, OBJ133, depth=np.int64(1), shots=np.int64(8), **kw)
    assert type(rec.shots) is int and type(rec.depth) is int
    assert sum(row["count"] for row in rec.histogram) == rec.shots == 8


def test_compile_reach_golden():
    plan = compile_reach(OSSP133, "100010001", "010001100")
    assert plan.word == [2, 1]
    assert plan.fidelity == pytest.approx(1.0, abs=1e-12)
    want = [0.0, math.pi / 2, math.pi / 2, 0.0, 0.0, 0.0]
    assert list(plan.params.beta) == pytest.approx(want)
    assert not plan.params.gamma.any()
    same = compile_reach(OSSP133, "100010001", "100010001")
    assert same.word == [] and not same.params.beta.any()


def test_compile_reach_all_pairs_133():
    sols = enumerate_solutions(OSSP133)
    for src in sols:
        for tgt in sols:
            plan = compile_reach(OSSP133, src, tgt)
            assert plan.fidelity >= 1 - 1e-10
            assert plan.circuit.n_beta <= 6
            assert len(plan.word) <= 3


def test_compile_reach_budget_224():
    plan = compile_reach(OSSP224, Z0_224, "0010000110000100")
    assert plan.circuit.n_beta == 18
    assert len(plan.word) <= 6
    assert plan.fidelity >= 1 - 1e-10


def test_compile_reach_shares_one_circuit_per_instance():
    sols = enumerate_solutions(OSSP224)
    first = compile_reach(OSSP224, sols[0], sols[-1])
    second = compile_reach(OsspInstance(2, 2, 4), sols[5], sols[17])
    assert first.circuit is second.circuit and first.word != second.word
    assert compile_reach(OSSP133, Z0_133, "010001100").circuit is not first.circuit
    for plan, src, tgt in ((first, sols[0], sols[-1]), (second, sols[5], sols[17])):
        full = apply_circuit(plan.circuit, plan.params, basis_state(OSSP224, src, "full"))
        assert full.basis.engine == "full"
        assert simulator.fidelity(full, basis_state(OSSP224, tgt, "full")) == pytest.approx(
            1.0, abs=1e-12)
        reached = apply_circuit(plan.circuit, plan.params, basis_state(OSSP224, src, "subspace"))
        assert plan.fidelity == simulator.fidelity(
            reached, basis_state(OSSP224, tgt, "subspace"))


def test_compile_reach_errors():
    nonbusy = OsspInstance(1, 3, 2)
    with pytest.raises(CapabilityError):
        compile_reach(nonbusy, "100010", "010100")
    with pytest.raises(DomainError):
        compile_reach(OSSP133, "110000000", Z0_133)
    with pytest.raises(DomainError):
        compile_reach(OSSP133, Z0_133, "111000000")


def reference_assignment(instance, z):
    """job_assignment by the string-level reference: is_feasible, then the
    indices of the set bits."""
    if not instance.is_busy:
        raise DomainError("job assignments require a busy instance")
    if not instances.is_feasible(instance, z):
        raise DomainError(f"{z} is not a solution")
    assignment = [-1] * instance.positions
    for idx, c in enumerate(z):
        if c == "1":
            p, j = divmod(idx, instance.jobs)
            assignment[p] = j
    return tuple(assignment)


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def test_job_assignment_matches_the_string_reference():
    rng = np.random.default_rng(37)
    strings = [(OSSP133, int_to_bits(v, 9)) for v in range(512)]
    strings += [(OSSP224, z) for z in enumerate_solutions(OSSP224)]
    strings += [(OSSP224, int_to_bits(int(v), 16)) for v in rng.integers(0, 1 << 16, 2000)]
    strings += [
        (OSSP224, Z0_224[:-1]),  # too short
        (OSSP224, Z0_224 + "0"),  # too long
        (OSSP224, ""),
        (OSSP224, "2" + Z0_224[1:]),  # a "2"
        (OSSP224, "1000010000100002"),
        (OSSP224, "1000 10000100001"),
        (OSSP224, b"1000010000100001"),  # not a str
        (OSSP224, None),
        (OSSP224, 0b1000010000100001),
        (OSSP224, list(Z0_224)),
        (OSSP224, "1100" "0000" "0010" "0001"),  # two jobs in one block
        (OSSP224, "1000" "1000" "0010" "0001"),  # one job twice
        (OSSP224, "1000" "0100" "0010" "0000"),  # an empty block
        (OSSP224, "1000" "0100" "0011" "0000"),
        (OsspInstance(1, 3, 2), "100010"),  # not busy
    ]
    solutions = 0
    for inst, z in strings:
        want = outcome(reference_assignment, inst, z)
        assert outcome(vqa.job_assignment, inst, z) == want, (inst, z)
        solutions += not isinstance(want[0], type)
    assert solutions >= 6 + 24  # every solution of both instances passed


def reference_reach(instance, source, target):
    """compile_reach's word, beta grid and fidelity by the parent path:
    reference_assignment, and the target's index found in the basis's
    values()."""
    src = reference_assignment(instance, source)
    tgt = reference_assignment(instance, target)
    tau = [0] * instance.jobs
    for p in range(instance.positions):
        tau[src[p]] = tgt[p]
    word = decompose_job_permutation(tau)
    circuit = vqa._reach_circuit(instance)
    grid = np.zeros((circuit.depth, instance.jobs - 1))
    for r, w in enumerate(word):
        grid[r, w - 1] = math.pi / 2
    params = ParameterVector(grid.ravel(), np.zeros(circuit.depth))
    reached = apply_circuit(circuit, params, basis_state(instance, source, "subspace"))
    (index,) = np.flatnonzero(reached.basis.values() == int(target, 2))
    return word, params.beta.tobytes(), float(abs(reached.amps[index]))


def test_compile_reach_matches_the_parent_path_on_every_pair():
    for inst in (OSSP224, OSSP133):
        sols = enumerate_solutions(inst)
        for src in sols:
            for tgt in sols:
                plan = compile_reach(inst, src, tgt)
                got = plan.word, plan.params.beta.tobytes(), plan.fidelity
                assert got == reference_reach(inst, src, tgt)
                assert not plan.params.gamma.any()


def test_run_experiment_record():
    rec = run_experiment(
        OSSP133, OBJ133, depth=1, initial_state=Z0_133,
        config=restricted_config(seed=4), shots=1024, engine="subspace",
    )
    assert rec.shots == 1024 and rec.engine == "subspace"
    assert rec.initial_state == Z0_133
    counts = [row["count"] for row in rec.histogram]
    assert sum(counts) == 1024
    assert counts == sorted(counts, reverse=True)
    assert rec.mode == rec.histogram[0]["bitstring"]
    assert rec.histogram[0]["hamming_to_mode"] == 0
    assert rec.dominant_fraction == pytest.approx(counts[0] / 1024)
    assert rec.classical_optimum["value"] == pytest.approx(5.0)
    assert rec.classical_optimum["solutions"] == ["001010100"]
    assert rec.best_feasible["value"] >= rec.classical_optimum["value"] - 1e-12
    # sampled descent keeps one histogram per accepted iterate
    assert all("histogram" in it for it in rec.iterations)
    assert len(rec.iterations) == 6
    for it in rec.iterations:
        assert sum(it["histogram"].values()) == 1024
    assert set(rec.sidecar) == SIDECAR_KEYS


SIDECAR_KEYS = {"started_at", "wall_clock_seconds", "n_evaluations", "optimizer_seconds",
                "ms_per_evaluation", "readout_seconds", "oracle_seconds"}


def test_stage_timings_reach_the_sidecar_only(monkeypatch):
    kw = dict(depth=1, initial_state=Z0_133, shots=256, engine="subspace",
              config=OptimizerConfig(kind="tr", seed=3, max_iters=30))
    real = run_experiment(OSSP133, OBJ133, **kw).to_dict()
    # a clock whose steps grow, so that every stage reads a different time
    ticks = iter(range(1, 1000))
    monkeypatch.setattr(vqa.time, "perf_counter", lambda: 0.5 * next(ticks) ** 2)
    rec = run_experiment(OSSP133, OBJ133, **kw)
    side, doc = rec.sidecar, rec.to_dict()
    assert set(side) == SIDECAR_KEYS
    n = side["n_evaluations"]
    assert n == rec.n_evaluations > 1
    assert side["ms_per_evaluation"] == 1e3 * side["optimizer_seconds"] / n
    stages = [side[k] for k in ("optimizer_seconds", "readout_seconds", "oracle_seconds")]
    assert all(t > 0 for t in stages) and len(set(stages)) == 3
    assert sum(stages) < side["wall_clock_seconds"]
    # the clock reaches nothing outside the sidecar
    real.pop("sidecar"), doc.pop("sidecar")
    assert json.dumps(real, sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_run_experiment_exact_distribution():
    rec = run_experiment(
        OSSP133, OBJ133, depth=1, initial_state=Z0_133,
        config=restricted_config(seed=4), shots=0, engine="subspace",
    )
    probs = [row["probability"] for row in rec.histogram]
    assert sum(probs) == pytest.approx(1.0)
    assert rec.feasible_fraction == pytest.approx(
        sum(row["probability"] for row in rec.histogram if row["feasible"])
    )
    assert rec.best_feasible["value"] >= rec.classical_optimum["value"] - 1e-12


def test_run_experiment_determinism():
    kw = dict(depth=1, initial_state=Z0_133, shots=256, engine="subspace")
    rec1 = run_experiment(OSSP133, OBJ133, config=restricted_config(seed=9), **kw)
    rec2 = run_experiment(OSSP133, OBJ133, config=restricted_config(seed=9), **kw)
    d1, d2 = rec1.to_dict(), rec2.to_dict()
    d1.pop("sidecar"), d2.pop("sidecar")
    assert d1 == d2


def test_presets_resolve():
    assert list_presets() == ["ossp133", "ossp133-restricted", "ossp224"]
    inst, obj, run = resolve_preset("ossp224")
    assert (inst.machines, inst.time_slots, inst.jobs) == (2, 2, 4)
    assert run["depth"] == 6 and run["initial_state"] == Z0_224
    assert run["optimizer"]["kind"] == "tr"
    inst_r, _, run_r = resolve_preset("ossp133-restricted")
    assert inst_r.positions == 3
    assert run_r["depth"] == 1 and run_r["optimizer"]["kind"] == "sgd"
    assert run_r["optimizer"]["sample_size"] == 40
    with pytest.raises(DomainError):
        resolve_preset("nope")


def test_preset_runs_reach_published_behavior():
    # single-seed smoke versions of the two shipped experiments
    inst, obj, run = resolve_preset("ossp133-restricted")
    cfg = OptimizerConfig(seed=0, **run["optimizer"])
    rec = run_experiment(inst, obj, depth=run["depth"],
                         initial_state=run["initial_state"], config=cfg,
                         shots=run["shots"], engine=run["engine"])
    values = [it["expectation"] for it in rec.iterations]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert min(values) <= 6.05
    assert rec.mode == "010001100"

    inst4, obj4, run4 = resolve_preset("ossp224")
    cfg4 = OptimizerConfig(seed=0, **run4["optimizer"])
    rec4 = run_experiment(inst4, obj4, depth=run4["depth"],
                          initial_state=run4["initial_state"], config=cfg4,
                          shots=run4["shots"], engine=run4["engine"])
    assert rec4.mode in {"0010000110000100", "0010000101001000"}
    assert rec4.best_feasible["value"] >= 5.0 - 1e-12


def string_keyed_readout(instance, objective, state, shots, seed):
    """The measured histogram and its annotation as records built them
    before rows came from basis indices: weights keyed by bit string, sorted
    by (-weight, string), every string scored and checked on its own."""
    probs = (state.amps.conj() * state.amps).real
    vals, n = state.basis.values(), state.basis.n_bits
    if shots:
        p = np.clip(probs, 0.0, None)
        counts = np.random.default_rng(seed).multinomial(shots, p / p.sum())
        raw = {int_to_bits(int(vals[k]), n): int(counts[k]) for k in np.nonzero(counts)[0]}
        key, total = "count", float(shots)
    else:
        raw = {int_to_bits(int(vals[k]), n): float(probs[k])
               for k in np.nonzero(probs > 1e-14)[0]}
        key, total = "probability", 1.0
    order = sorted(raw, key=lambda z: (-raw[z], z))
    mode = order[0]
    rows = [{
        "bitstring": z,
        key: raw[z],
        "value": float(evaluate_objective(objective, instance, z)),
        "feasible": instances.is_feasible(instance, z),
        "hamming_to_mode": sum(a != b for a, b in zip(z, mode)),
    } for z in order]
    feas = [(row["value"], row["bitstring"]) for row in rows if row["feasible"]]
    return {
        "histogram": rows,
        "mode": mode,
        "dominant_fraction": raw[mode] / total,
        "feasible_fraction": sum(raw[z] for z in order if instances.is_feasible(instance, z)) / total,
        "best_feasible": {"bitstring": min(feas)[1], "value": min(feas)[0]} if feas else None,
        "by_string": {z: raw[z] for z in order},
    }


def refuse_string_scoring(patcher):
    def refuse(*args, **kwargs):
        raise AssertionError("the record path scored or checked a string")

    from ossvqa import cli

    for module in (instances, simulator, vqa, cli):
        for name in ("evaluate_objective", "is_feasible"):
            if hasattr(module, name):
                patcher.setattr(module, name, refuse)


def same(got, want):
    """Equal, and equal as JSON text, so that int/float/bool types agree."""
    return got == want and json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("shots", [0, 1024])
@pytest.mark.parametrize("name, engine", [
    ("ossp224", "subspace"), ("ossp133", "subspace"),
    ("ossp133-restricted", "subspace"), ("ossp133", "full"),
])
def test_run_record_readout_matches_string_keyed_annotation(name, engine, shots, monkeypatch):
    instance, objective, preset = resolve_preset(name)
    settings = dict(preset["optimizer"], seed=3)
    settings["max_iters"] = 3 if settings["kind"] == "sgd" else 30
    config = OptimizerConfig(**settings)
    with monkeypatch.context() as m:
        refuse_string_scoring(m)
        rec = run_experiment(instance, objective, depth=preset["depth"],
                             initial_state=preset["initial_state"], config=config,
                             shots=shots, engine=engine)
    circuit = build_circuit(instance, objective, preset["depth"])
    state = basis_state(instance, preset["initial_state"], engine)

    def reference(params, stream):
        final = apply_circuit(circuit, ParameterVector(params["beta"], params["gamma"]), state)
        return string_keyed_readout(instance, objective, final, shots, stream)

    want = reference(rec.best_params, vqa._stream(config.seed, vqa._STREAM_FINAL_HIST))
    for field in ("histogram", "mode", "dominant_fraction", "feasible_fraction", "best_feasible"):
        assert same(getattr(rec, field), want[field]), field
    if config.kind == "sgd":
        assert len(rec.iterations) == 4
        for i, entry in enumerate(rec.iterations):
            want_i = reference(entry["accepted_params"],
                               vqa._stream(config.seed, vqa._STREAM_ITER_HIST, i))
            assert same(entry["histogram"], want_i["by_string"])
            assert list(entry["histogram"]) == list(want_i["by_string"])


@pytest.mark.parametrize("shots", [0, 1024])
def test_simulate_readout_matches_string_keyed_annotation(shots, tmp_path, monkeypatch):
    from ossvqa.cli import main

    instance, objective, preset = resolve_preset("ossp224")
    beta, gamma = [0.3, 0.7, 1.1, 0.2, 0.5, 0.9], [0.4, 1.3]
    out = tmp_path / "sim.json"
    with monkeypatch.context() as m:
        refuse_string_scoring(m)
        assert main(["simulate", "--preset", "ossp224", "--depth", "2",
                     "--beta", ",".join(map(str, beta)), "--gamma", ",".join(map(str, gamma)),
                     "--shots", str(shots), "--seed", "6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    final = apply_circuit(build_circuit(instance, objective, 2), ParameterVector(beta, gamma),
                          basis_state(instance, preset["initial_state"], "subspace"))
    want = string_keyed_readout(instance, objective, final, shots, np.random.SeedSequence(6))
    assert same(doc["histogram"], want["histogram"])
    assert doc["mode"] == want["mode"]


def test_annotate_rows_reads_the_circuit_table_of_the_state_basis(monkeypatch):
    """On ossp133's two 27-string sectors, (1,1,1) and (2,2,2), a row's
    value is the entry of the circuit's table for the state's basis, bit
    for bit, and a table of the other sector is refused."""
    circuit = build_circuit(OSSP133, OBJ133, 1)
    params = ParameterVector([0.4, 1.1], [0.7])
    tables = {}
    for z, mode_value in (("100010001", 8.0), ("110110110", 12.0)):
        start = basis_state(OSSP133, z, "subspace")
        assert vqa.annotate_rows(circuit, start)[0]["value"] == mode_value
        state = apply_circuit(circuit, params, start)
        table = tables[z] = circuit.phase_for(state.basis)
        for shots in (0, 256):
            rows = vqa.annotate_rows(circuit, state, shots, 5)
            _, order = simulator.readout(state, shots, 5)
            assert len(rows) > 1
            assert np.array([row["value"] for row in rows]).tobytes() == table.diag[order].tobytes()
    state = basis_state(OSSP133, "110110110", "subspace")
    monkeypatch.setattr(circuit, "phase_for", lambda basis: tables["100010001"])
    with pytest.raises(DomainError, match="different basis"):
        vqa.annotate_rows(circuit, state)
