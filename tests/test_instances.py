"""Core encoding, enumeration, and objective tests against frozen goldens."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from ossvqa.errors import CapabilityError, DomainError
from ossvqa.instances import (
    LinearObjective,
    OsspInstance,
    TspObjective,
    bits_to_int,
    coordinate_to_index,
    enumerate_solutions,
    evaluate_objective,
    feasibility_mask,
    index_to_coordinate,
    instance_to_dict,
    int_to_bits,
    is_feasible,
    job_block,
    job_blocks,
    linear_from_rows,
    load_instance,
    load_instance_dict,
    objective_values,
    optimal_solutions,
    position_block,
    position_blocks,
    solution_count,
    solution_values,
)

OSSP224 = OsspInstance(2, 2, 4)
OSSP133 = OsspInstance(1, 3, 3)

# weight rows ordered by (m, t); machine 1 rows then machine 2 rows
WEIGHTS_224 = [[3, 2, 2, 3], [2, 2, 3, 0], [2, 2, 4, 2], [1, 1, 4, 2]]
WEIGHTS_133 = [[3, 2, 2], [2, 2, 3], [1, 2, 3]]

# frozen 24-solution score table for OSSP(2,2,4) under WEIGHTS_224
SCORES_224 = {
    "0010000110000100": 5,
    "0010000101001000": 5,
    "0010010000011000": 7,
    "0100000100101000": 7,
    "0010100000010100": 7,
    "0100001000011000": 8,
    "0100000110000010": 8,
    "0010100001000001": 8,
    "0010010010000001": 8,
    "1000000100100100": 8,
    "0001001010000100": 9,
    "0001001001001000": 9,
    "1000001000010100": 9,
    "1000000101000010": 9,
    "0100001010000001": 9,
    "0100100000100001": 10,
    "0100100000010010": 10,
    "0001010000101000": 10,
    "0001100000100100": 10,
    "1000001001000001": 10,
    "1000010000100001": 11,
    "1000010000010010": 11,
    "0001100001000010": 11,
    "0001010010000010": 11,
}

# frozen 6-solution score table for OSSP(1,3,3) under WEIGHTS_133
SCORES_133 = {
    "001010100": 5,
    "001100010": 6,
    "010001100": 6,
    "010100001": 7,
    "100001010": 8,
    "100010001": 8,
}


def objective_224():
    return linear_from_rows(OSSP224, WEIGHTS_224)


def objective_133():
    return linear_from_rows(OSSP133, WEIGHTS_133)


def test_instance_validation():
    with pytest.raises(DomainError):
        OsspInstance(0, 2, 1)
    with pytest.raises(DomainError):
        OsspInstance(1, 2, 3)  # 3 jobs, 2 positions
    inst = OsspInstance(2, 3, 4)
    assert inst.positions == 6 and inst.n_bits == 24 and not inst.is_busy
    assert OSSP224.is_busy and OSSP133.is_busy


def test_index_formula_goldens():
    assert coordinate_to_index(OSSP224, (1, 1, 1)) == 1
    assert coordinate_to_index(OSSP224, (2, 2, 2)) == 14
    assert coordinate_to_index(OSSP133, (1, 3, 3)) == 9
    # single-machine form reduces to J*(t-1) + j
    for t in range(1, 4):
        for j in range(1, 4):
            assert coordinate_to_index(OSSP133, (1, t, j)) == 3 * (t - 1) + j


def test_index_bijection():
    for inst in (OSSP224, OSSP133, OsspInstance(2, 3, 4)):
        seen = set()
        for m in range(1, inst.machines + 1):
            for t in range(1, inst.time_slots + 1):
                for j in range(1, inst.jobs + 1):
                    idx = coordinate_to_index(inst, (m, t, j))
                    assert 1 <= idx <= inst.n_bits
                    assert index_to_coordinate(inst, idx) == (m, t, j)
                    seen.add(idx)
        assert seen == set(range(1, inst.n_bits + 1))
    with pytest.raises(DomainError):
        coordinate_to_index(OSSP133, (2, 1, 1))
    with pytest.raises(DomainError):
        index_to_coordinate(OSSP133, 10)


def test_blocks():
    assert job_block(OSSP224, 1) == (1, 5, 9, 13)
    assert job_block(OSSP224, 4) == (4, 8, 12, 16)
    assert position_block(OSSP224, 1, 1) == (1, 2, 3, 4)
    assert position_block(OSSP224, 2, 2) == (13, 14, 15, 16)
    # blocks partition the index set, twice over
    for inst in (OSSP224, OSSP133, OsspInstance(2, 3, 2)):
        all_idx = set(range(1, inst.n_bits + 1))
        jb = [job_block(inst, j) for j in range(1, inst.jobs + 1)]
        pb = [
            position_block(inst, m, t)
            for m in range(1, inst.machines + 1)
            for t in range(1, inst.time_slots + 1)
        ]
        assert set().union(*jb) == all_idx and sum(len(b) for b in jb) == inst.n_bits
        assert set().union(*pb) == all_idx and sum(len(b) for b in pb) == inst.n_bits


def test_block_lists():
    for inst in (OSSP224, OSSP133, OsspInstance(2, 3, 2), OsspInstance(1, 1, 1)):
        assert job_blocks(inst) == [job_block(inst, j) for j in range(1, inst.jobs + 1)]
        assert position_blocks(inst) == [
            position_block(inst, m, t)
            for m in range(1, inst.machines + 1)
            for t in range(1, inst.time_slots + 1)
        ]


def _feasible_by_coordinates(inst, z):
    """One-hot per job, at most one per position, from the coordinate formula."""
    def weight(indices):
        return sum(z[i - 1] == "1" for i in indices)

    for j in range(1, inst.jobs + 1):
        job = [coordinate_to_index(inst, (m, t, j))
               for m in range(1, inst.machines + 1)
               for t in range(1, inst.time_slots + 1)]
        if weight(job) != 1:
            return False
    for m in range(1, inst.machines + 1):
        for t in range(1, inst.time_slots + 1):
            position = [coordinate_to_index(inst, (m, t, j)) for j in range(1, inst.jobs + 1)]
            if weight(position) > 1:
                return False
    return True


def test_is_feasible_matches_constraint_evaluation_on_full_basis():
    for inst in (OsspInstance(1, 3, 2), OSSP133, OsspInstance(2, 2, 2)):
        n = inst.n_bits
        verdicts = [is_feasible(inst, int_to_bits(v, n)) for v in range(2**n)]
        assert verdicts == [_feasible_by_coordinates(inst, int_to_bits(v, n))
                            for v in range(2**n)]
        assert sum(verdicts) == solution_count(inst)


def test_is_feasible():
    assert is_feasible(OSSP133, "001010100")
    assert not is_feasible(OSSP133, "000000000")
    assert not is_feasible(OSSP133, "011010100")
    for z in SCORES_224:
        assert is_feasible(OSSP224, z)
    with pytest.raises(DomainError):
        is_feasible(OSSP133, "0101")


def test_enumerate_solutions_goldens():
    sols224 = enumerate_solutions(OSSP224)
    assert len(sols224) == 24
    assert set(sols224) == set(SCORES_224)
    assert sols224 == sorted(sols224)
    sols133 = enumerate_solutions(OSSP133)
    assert set(sols133) == set(SCORES_133)
    assert enumerate_solutions(OsspInstance(1, 1, 1)) == ["1"]


def test_counting_law():
    for m in range(1, 7):
        for t in range(1, 7):
            if m * t > 6:
                continue
            for j in range(1, m * t + 1):
                inst = OsspInstance(m, t, j)
                sols = enumerate_solutions(inst)
                expected = math.factorial(m * t) // math.factorial(m * t - j)
                assert len(sols) == expected == solution_count(inst)
                assert all(is_feasible(inst, z) for z in sols)


def test_solution_structure():
    for inst in (OSSP224, OSSP133, OsspInstance(2, 3, 2)):
        for z in enumerate_solutions(inst):
            assert z.count("1") == inst.jobs
            assert is_feasible(inst, z)


def test_table_scores_224():
    obj = objective_224()
    for z, want in SCORES_224.items():
        assert evaluate_objective(obj, OSSP224, z) == pytest.approx(want)


def test_table_scores_133():
    obj = objective_133()
    for z, want in SCORES_133.items():
        assert evaluate_objective(obj, OSSP133, z) == pytest.approx(want)


def test_linear_additivity():
    obj = objective_224()
    rng = np.random.default_rng(7)
    for _ in range(50):
        bits = "".join(rng.choice(["0", "1"], size=16))
        per_bit = sum(
            w for w, c in zip(obj.weights, bits) if c == "1"
        )
        assert evaluate_objective(obj, OSSP224, bits) == pytest.approx(per_bit)
    assert evaluate_objective(obj, OSSP224, "0" * 16) == 0.0


def test_objective_values_vectorized_matches_scalar():
    obj = objective_224()
    sols = enumerate_solutions(OSSP224)
    vec = objective_values(obj, OSSP224, np.array([bits_to_int(z) for z in sols]))
    for z, v in zip(sols, vec):
        assert v == pytest.approx(evaluate_objective(obj, OSSP224, z))


def test_linear_values_agree_in_any_batch_for_real_weights():
    # a BLAS product rounds by batch size; each string must keep one value
    from ossvqa.simulator import phase_separator, subspace_basis

    rng = np.random.default_rng(31)
    for inst, z0 in ((OSSP224, "1000010000100001"), (OSSP133, "100010001")):
        basis = subspace_basis(inst, z0)
        strings = [format(int(v), f"0{inst.n_bits}b") for v in basis.values()]
        for _ in range(5):
            obj = LinearObjective(tuple(rng.uniform(-10, 10, size=inst.n_bits)))
            diagonal = phase_separator(obj, inst, basis)
            for z, d in zip(strings, diagonal.tolist()):
                python_sum = sum(w for w, c in zip(obj.weights, z) if c == "1")
                assert d == evaluate_objective(obj, inst, z) == python_sum


def bit_matrix_tour_values(obj, instance, ints):
    """Reference: the tour diagonal from a (rows x bits) float matrix."""
    n, jobs = instance.n_bits, instance.jobs
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    cols = ((np.asarray(ints, dtype=np.int64)[:, None] >> shifts[None, :]) & 1).astype(np.float64)
    col = lambda t, j: cols[:, jobs * (t - 1) + (j - 1)]  # noqa: E731
    total = np.zeros(len(cols))
    for u in range(1, jobs + 1):
        for v in range(u + 1, jobs + 1):
            d = obj.distances[u - 1][v - 1]
            if d == 0:
                continue
            for j in range(1, jobs + 1):
                jn = j % jobs + 1
                total += d * (col(u, j) * col(v, jn) + col(v, j) * col(u, jn))
    return total


def test_tour_diagonal_matches_bit_matrix_formula():
    from ossvqa.simulator import subspace_basis

    inst = OsspInstance(1, 6, 6)
    schedule = "".join("1" if j == t else "0" for t in range(6) for j in range(6))
    rng = np.random.default_rng(17)
    # the restricted basis of a schedule, and arbitrary strings, where both
    # terms of a pair can be set at once
    for ints in (subspace_basis(inst, schedule).values(),
                 rng.integers(0, 1 << inst.n_bits, 20_000)):
        for _ in range(3):
            d = rng.uniform(0.1, 9.9, (6, 6))
            d = np.triu(d, 1) + np.triu(d, 1).T
            obj = TspObjective(tuple(map(tuple, d.tolist())))
            assert np.array_equal(objective_values(obj, inst, ints),
                                  bit_matrix_tour_values(obj, inst, ints))


def test_feasibility_mask_matches_is_feasible():
    from ossvqa.simulator import full_basis

    values = full_basis(OSSP133.n_bits).values()
    mask = feasibility_mask(OSSP133, values)
    strings = [format(int(v), "09b") for v in values]
    assert mask.tolist() == [is_feasible(OSSP133, z) for z in strings]
    assert mask.sum() == len(enumerate_solutions(OSSP133))


def test_feasible_mass_reads_bits_without_a_bit_matrix():
    # a (rows x bits) matrix on 46,656 rows and 36 bits takes over 25 MB
    from ossvqa.simulator import basis_state, feasible_mass

    inst = OsspInstance(1, 6, 6)
    schedule = "".join("1" if j == t else "0" for t in range(6) for j in range(6))
    state = basis_state(inst, schedule, "subspace")
    tracemalloc.start()
    try:
        assert feasible_mass(inst, state) == pytest.approx(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_optimal_solutions():
    best224, argmin224 = optimal_solutions(OSSP224, objective_224())
    assert best224 == pytest.approx(5)
    assert argmin224 == {"0010000110000100", "0010000101001000"}
    best133, argmin133 = optimal_solutions(OSSP133, objective_133())
    assert best133 == pytest.approx(5)
    assert argmin133 == {"001010100"}
    # all-equal weights make every solution optimal with value J*w
    inst = OsspInstance(1, 3, 2)
    obj = LinearObjective((2.5,) * inst.n_bits)
    best, argmin = optimal_solutions(inst, obj)
    assert best == pytest.approx(2 * 2.5)
    assert argmin == set(enumerate_solutions(inst))


def string_oracle(instance, obj):
    """The classical oracle on strings: every solution string scored, the
    strings within 1e-12 of the minimum kept."""
    sols = enumerate_solutions(instance)
    values = objective_values(obj, instance, np.array([bits_to_int(z) for z in sols]))
    best = float(values.min())
    return best, {z for z, v in zip(sols, values) if abs(v - best) < 1e-12}


def test_solution_values_are_the_solutions():
    # reference: every string of the full basis that is_feasible accepts
    for shape in ((1, 1, 1), (1, 2, 1), (1, 3, 2), (1, 3, 3), (2, 2, 2), (2, 3, 2), (2, 2, 4)):
        inst = OsspInstance(*shape)
        n = inst.n_bits
        want = [v for v in range(1 << n) if is_feasible(inst, int_to_bits(v, n))]
        values = solution_values(inst)
        assert values.dtype == np.int64 and len(values) == solution_count(inst)
        assert np.sort(values).tolist() == want
        assert enumerate_solutions(inst) == [int_to_bits(v, n) for v in want]
    assert solution_values(OsspInstance(1, 63, 1)).tolist() == [1 << k for k in range(62, -1, -1)]
    with pytest.raises(CapabilityError, match="63-bit"):
        solution_values(OsspInstance(1, 64, 1))


def permutation_values(instance):
    """Reference: the strings of itertools.permutations(range(P), J), in
    its order, with job j at the position the tuple gives it."""
    n, jobs = instance.n_bits, instance.jobs
    return [sum(1 << (n - (jobs * p + j + 1)) for j, p in enumerate(perm))
            for perm in itertools.permutations(range(instance.positions), jobs)]


def per_bit_value(obj, instance, z):
    """Reference f(z): a Python float sum from +0.0, w * bit per bit in index
    order, or every (u, v, j) tour term, zero distances included."""
    total = 0.0
    if isinstance(obj, LinearObjective):
        for w, c in zip(obj.weights, z):
            total += w * int(c)
        return total
    jobs = instance.jobs
    bit = lambda t, j: int(z[jobs * (t - 1) + j - 1])  # noqa: E731
    for u in range(1, jobs + 1):
        for v in range(u + 1, jobs + 1):
            for j in range(1, jobs + 1):
                jn = j % jobs + 1
                total += obj.distances[u - 1][v - 1] * (bit(u, j) * bit(v, jn) + bit(v, j) * bit(u, jn))
    return total


def test_phase_diagonal_matches_the_per_string_reference(monkeypatch):
    """phase_separator against per_bit_value, byte for byte, on full bases
    of at most 12 bits and on sectors of block weights 0, 1 and 2: linear
    objectives with integer, real, negative, -0.0 and tied weights, and
    tours with J = 2, 3 and 4 and zero distances. Every case runs with
    groups built whole and, with STACK_CAP = 0, one term at a time."""
    from ossvqa import instances
    from ossvqa.simulator import full_basis, phase_separator, subspace_basis

    rng = np.random.default_rng(61)
    cases = []  # (instance, objective, block weights or None for the full basis)
    for shape, weights in (((1, 2, 2), None), ((1, 3, 3), None), ((2, 2, 3), None),
                           ((3, 2, 2), None), ((2, 2, 4), (1, 1, 1, 1)), ((2, 2, 4), (2, 1, 0, 1)),
                           ((2, 3, 4), (2, 0, 1, 2, 1, 0)), ((3, 3, 3), (1, 0, 2, 1, 1, 0, 0, 2, 1))):
        inst = OsspInstance(*shape)
        n = inst.n_bits
        signed = rng.uniform(-2, 2, n)
        signed[rng.random(n) < 0.4] = -0.0
        for w in (rng.integers(0, 10, n), rng.uniform(-5, 5, n), -rng.integers(0, 4, n).astype(float),
                  rng.choice([0.1, 0.2, 0.3], n), signed):
            cases.append((inst, LinearObjective(tuple(w.tolist())), weights))
    for cities, sectors in ((2, (None, (1, 1), (2, 0))), (3, (None, (1, 1, 1), (2, 1, 0), (2, 2, 2))),
                            (4, ((1, 1, 1, 1), (2, 1, 0, 1), (2, 2, 2, 2)))):
        inst = OsspInstance(1, cities, cities)
        for d in (rng.integers(0, 4, (cities, cities)), rng.choice([0.0, 0.1, 0.2, 0.3], (cities, cities))):
            d = np.triu(d, 1)
            tour = TspObjective(tuple(map(tuple, (d + d.T).tolist())))
            cases.extend((inst, tour, weights) for weights in sectors)
    for inst, obj, weights in cases:
        if weights is None:
            basis = full_basis(inst.n_bits)
        else:
            basis = subspace_basis(inst, "".join("1" * w + "0" * (inst.jobs - w) for w in weights))
        strings = [int_to_bits(v, inst.n_bits) for v in basis.values().tolist()]
        want = np.array([per_bit_value(obj, inst, z) for z in strings]).tobytes()
        assert phase_separator(obj, inst, basis).tobytes() == want
        with monkeypatch.context() as patch:
            patch.setattr(instances, "STACK_CAP", 0)
            assert phase_separator(obj, inst, basis).tobytes() == want


def test_solution_values_follow_itertools_permutations():
    # J = 1, P = J and P > J
    for shape in ((1, 1, 1), (1, 4, 1), (3, 2, 1), (1, 3, 3), (2, 2, 4), (1, 5, 5),
                  (1, 3, 2), (2, 3, 4), (3, 3, 2), (2, 4, 3)):
        inst = OsspInstance(*shape)
        assert solution_values(inst).tolist() == permutation_values(inst)


def test_oracle_matches_per_bit_brute_force():
    rng = np.random.default_rng(53)
    cases = [(OsspInstance(1, 2, 2), LinearObjective((0.1, 0.3, 0.0, 0.2)))]
    for shape in ((1, 3, 3), (2, 2, 3), (1, 4, 2), (2, 2, 4), (3, 2, 3)):
        inst = OsspInstance(*shape)
        n = inst.n_bits
        # near-ties: sums of tenths that differ in the last bits, and pairs
        # of weights 5e-13 (tied) and 5e-11 (not tied) apart
        tenths = rng.choice([0.1, 0.2, 0.3, 0.6, 0.7], n)
        nudged = rng.integers(0, 3, n) + rng.choice([0.0, 5e-13, 5e-11], n)
        for w in (rng.integers(-3, 4, n), rng.uniform(-1, 1, n), tenths, nudged):
            cases.append((inst, LinearObjective(tuple(w.tolist()))))
    for cities in (2, 3, 4, 5):
        for d in (rng.integers(0, 3, (cities, cities)), rng.choice([0.1, 0.2, 0.3], (cities, cities))):
            d = np.triu(d, 1)
            cases.append((OsspInstance(1, cities, cities), TspObjective(tuple(map(tuple, (d + d.T).tolist())))))
    near = 0
    for inst, obj in cases:
        strings = [int_to_bits(v, inst.n_bits) for v in permutation_values(inst)]
        values = [per_bit_value(obj, inst, z) for z in strings]
        best = min(values)
        tied = {z for z, v in zip(strings, values) if abs(v - best) < 1e-12}
        assert optimal_solutions(inst, obj) == (best, tied)
        near += any(v != best for z, v in zip(strings, values) if z in tied)
    assert near >= 3  # some tied sets hold values that differ in the last bits


def test_enumerate_solutions_stops_at_63_bits():
    # OSSP(1,8,8): 64 bits, though only 8! = 40,320 schedules
    with pytest.raises(CapabilityError, match="63-bit"):
        enumerate_solutions(OsspInstance(1, 8, 8))
    assert len(enumerate_solutions(OsspInstance(1, 7, 7))) == math.factorial(7)


def test_optimal_solutions_match_the_string_oracle():
    rng = np.random.default_rng(37)
    cases = []
    for shape in ((1, 3, 2), (2, 2, 4), (1, 4, 4), (2, 3, 3), (3, 3, 2), (3, 3, 6)):
        inst = OsspInstance(*shape)
        rows = (inst.positions, inst.jobs)
        spread = [rng.permutation(np.linspace(0.1, 0.7, inst.jobs)) for _ in range(rows[0])]
        for weights in (rng.integers(0, 3, rows), rng.uniform(-1, 1, rows), spread):
            cases.append((inst, linear_from_rows(inst, np.asarray(weights).tolist())))
    for cities in (4, 5, 6):
        d = np.triu(rng.uniform(1, 3, (cities, cities)).round(1), 1)
        tour = TspObjective(tuple(map(tuple, (d + d.T).tolist())))
        cases.append((OsspInstance(1, cities, cities), tour))
    n_tied = []
    for inst, obj in cases:
        got = optimal_solutions(inst, obj)
        assert got == string_oracle(inst, obj)
        n_tied.append(len(got[1]))
    # integer weights tie; real weights tie within 1e-12 where rows permute
    # the same values; a tour ties with its rotations and its reversal
    linear, tours = n_tied[:-3], n_tied[-3:]
    assert max(linear[0::3]) > 1 and max(linear[2::3]) > 1
    assert [n % (2 * cities) for cities, n in zip((4, 5, 6), tours)] == [0, 0, 0]


def test_oracle_keeps_no_string_per_schedule():
    # the 60,480 schedules of OSSP(3,3,6) as 54-character strings alone take
    # over 6 MB
    inst = OsspInstance(3, 3, 6)
    obj = linear_from_rows(inst, np.random.default_rng(41).integers(0, 10, (9, 6)).tolist())
    tracemalloc.start()
    try:
        optimal_solutions(inst, obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_tsp_objective():
    inst = OSSP133
    d = ((0.0, 1.0, 2.0), (1.0, 0.0, 4.0), (2.0, 4.0, 0.0))
    obj = TspObjective(d)
    # 100010001: city 1 at step 1, city 2 at step 2, city 3 at step 3
    # closed tour 1 -> 2 -> 3 -> 1 has length 1 + 4 + 2
    assert evaluate_objective(obj, inst, "100010001") == pytest.approx(7.0)
    # every closed 3-city tour has the same length
    for z in enumerate_solutions(inst):
        assert evaluate_objective(obj, inst, z) == pytest.approx(7.0)
    with pytest.raises(DomainError):
        TspObjective(((0.0, 1.0), (2.0, 0.0)))  # asymmetric
    with pytest.raises(DomainError):
        TspObjective(((0.0, math.inf), (math.inf, 0.0)))  # no NaN "optimum"
    with pytest.raises(DomainError):
        evaluate_objective(obj, OsspInstance(1, 3, 2), "100010")  # not TSP-shaped


def test_tsp_four_cities_distinguishes_tours():
    inst = OsspInstance(1, 4, 4)
    d = [[0, 1, 9, 1], [1, 0, 1, 9], [9, 1, 0, 1], [1, 9, 1, 0]]
    obj = TspObjective(tuple(tuple(float(x) for x in row) for row in d))
    values = {
        z: evaluate_objective(obj, inst, z) for z in enumerate_solutions(inst)
    }
    assert min(values.values()) == pytest.approx(4.0)  # tour 1-2-3-4
    assert max(values.values()) == pytest.approx(20.0)  # tours crossing a diagonal twice
    best, argmin = optimal_solutions(inst, obj)
    assert best == pytest.approx(4.0)
    assert len(argmin) == 8  # 4 rotations x 2 directions


def test_bitstring_helpers():
    assert bits_to_int("0101") == 5


def test_linear_from_rows_validation():
    with pytest.raises(DomainError):
        linear_from_rows(OSSP224, [[1, 2, 3, 4]])  # wrong row count
    with pytest.raises(DomainError):
        linear_from_rows(OSSP133, [[1, 2], [3, 4], [5, 6]])  # wrong row width
    with pytest.raises(DomainError):
        linear_from_rows(OSSP133, [[1, 2, math.nan], [3, 4, 5], [6, 7, 8]])


def test_instance_json_round_trip(tmp_path):
    doc = {
        "machines": 2,
        "time_slots": 2,
        "jobs": 4,
        "objective": {"linear": {"weights": WEIGHTS_224}},
    }
    inst, obj = load_instance_dict(doc)
    assert inst == OSSP224
    assert obj == objective_224()
    assert instance_to_dict(inst, obj) == {
        "machines": 2,
        "time_slots": 2,
        "jobs": 4,
        "objective": {"linear": {"weights": [[float(w) for w in r] for r in WEIGHTS_224]}},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    inst2, obj2 = load_instance(path)
    assert inst2 == inst and obj2 == obj

    tsp_doc = {
        "machines": 1,
        "time_slots": 3,
        "jobs": 3,
        "objective": {"tsp": {"distances": [[0, 1, 2], [1, 0, 4], [2, 4, 0]]}},
    }
    inst3, obj3 = load_instance_dict(tsp_doc)
    assert isinstance(obj3, TspObjective)
    assert evaluate_objective(obj3, inst3, "100010001") == pytest.approx(7.0)


def test_instance_json_errors(tmp_path):
    with pytest.raises(DomainError):
        load_instance_dict({"machines": 1, "time_slots": 3, "jobs": 3})
    with pytest.raises(DomainError):
        load_instance_dict(
            {"machines": 1, "time_slots": 3, "jobs": 3, "objective": {}}
        )
    bad = tmp_path / "bad.json"
    bad.write_text('{"machines": 1,')
    with pytest.raises(DomainError, match="line"):
        load_instance(bad)
