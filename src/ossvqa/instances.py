"""Open-shop scheduling instances, bit-string encodings, feasibility, objectives.

An OSSP(M, T, J) instance distributes J jobs over P = M*T machine/time
positions. Each assignment is encoded in N = M*T*J bits, where bit (m, t, j)
is 1 iff job j runs on machine m at time t. A bit string is feasible when
every job block (one bit per position, fixed job) has Hamming weight exactly 1
and every position block (the J bits of one machine/time pair) has weight at
most 1.

Conventions used throughout the package:
- bit indices are 1-based; bit i is character i-1 of the printed string, so
  index 1 is the leftmost character;
- the coordinate (m, t, j) maps to index J*(T*(m-1) + (t-1)) + j;
- bit strings are plain Python strings of '0'/'1'.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError

Coordinate = tuple[int, int, int]


@dataclass(frozen=True)
class OsspInstance:
    """Problem sizes for an open-shop scheduling instance."""

    machines: int
    time_slots: int
    jobs: int

    def __post_init__(self) -> None:
        for name in ("machines", "time_slots", "jobs"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise DomainError(f"{name} must be a positive integer, got {v!r}")
        if self.positions < self.jobs:
            raise DomainError(
                f"infeasible instance: {self.jobs} jobs cannot fit into "
                f"{self.machines}*{self.time_slots} = {self.positions} positions"
            )

    @property
    def positions(self) -> int:
        return self.machines * self.time_slots

    @property
    def n_bits(self) -> int:
        return self.machines * self.time_slots * self.jobs

    @property
    def is_busy(self) -> bool:
        """True when every position must be filled (P == J)."""
        return self.positions == self.jobs


def coordinate_to_index(instance: OsspInstance, coord: Coordinate) -> int:
    """Map (m, t, j) to its 1-based bit index J*(T*(m-1) + (t-1)) + j."""
    m, t, j = coord
    if not (1 <= m <= instance.machines and 1 <= t <= instance.time_slots and 1 <= j <= instance.jobs):
        raise DomainError(f"coordinate {coord} out of bounds for {instance}")
    return instance.jobs * (instance.time_slots * (m - 1) + (t - 1)) + j


def index_to_coordinate(instance: OsspInstance, index: int) -> Coordinate:
    """Inverse of coordinate_to_index."""
    if not (1 <= index <= instance.n_bits):
        raise DomainError(f"bit index {index} out of range 1..{instance.n_bits}")
    pos, j = divmod(index - 1, instance.jobs)
    m, t = divmod(pos, instance.time_slots)
    return (m + 1, t + 1, j + 1)


def job_block(instance: OsspInstance, j: int) -> tuple[int, ...]:
    """Indices of job j across all positions: {j, j+J, ..., j+(P-1)J}."""
    if not (1 <= j <= instance.jobs):
        raise DomainError(f"job {j} out of range 1..{instance.jobs}")
    return tuple(j + p * instance.jobs for p in range(instance.positions))


def position_block(instance: OsspInstance, m: int, t: int) -> tuple[int, ...]:
    """The J consecutive indices of position (m, t)."""
    base = coordinate_to_index(instance, (m, t, 1))
    return tuple(range(base, base + instance.jobs))


def job_blocks(instance: OsspInstance) -> list[tuple[int, ...]]:
    """The job blocks: a feasible string is one-hot on each."""
    return [job_block(instance, j) for j in range(1, instance.jobs + 1)]


def position_blocks(instance: OsspInstance) -> list[tuple[int, ...]]:
    """The position blocks by (m, t): a feasible string has at most one set bit in each."""
    return [
        position_block(instance, m, t)
        for m in range(1, instance.machines + 1)
        for t in range(1, instance.time_slots + 1)
    ]


# ---------------------------------------------------------------------------
# bit-string helpers


def check_bitstring(z: str, n_bits: int) -> str:
    if not isinstance(z, str) or len(z) != n_bits or set(z) - {"0", "1"}:
        raise DomainError(f"expected a bit string of length {n_bits}, got {z!r}")
    return z


def bits_to_int(z: str) -> int:
    """Integer value of the string with index-1 bit most significant."""
    return int(z, 2) if z else 0


def int_to_bits(v: int, n_bits: int) -> str:
    return format(v, f"0{n_bits}b")


INT_BITS = 63  # vectorized code holds strings as int64 values


def as_int64(ints, n_bits: int) -> np.ndarray:
    """n_bits-bit strings given as integers (bit 1 = MSB), as an int64 array;
    CapabilityError past INT_BITS bits, where the values would not fit."""
    if n_bits > INT_BITS:
        raise CapabilityError(f"{n_bits}-bit strings exceed the {INT_BITS}-bit integer range")
    return np.asarray(ints, dtype=np.int64)


def as_integer(name: str, value) -> int:
    """value as a Python int, when operator.index accepts it and it is not
    a bool, the rule OsspInstance keeps for its sizes; DomainError
    otherwise, so 1.5 is refused rather than read as a count."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# feasible strings


def is_feasible(instance: OsspInstance, z: str) -> bool:
    """True iff every job block of z is one-hot and every position block holds
    at most one set bit; the string-level reference for feasibility_mask."""
    check_bitstring(z, instance.n_bits)
    weight = lambda block: sum(z[i - 1] == "1" for i in block)  # noqa: E731
    return all(weight(b) == 1 for b in job_blocks(instance)) and all(
        weight(b) <= 1 for b in position_blocks(instance)
    )


def enumerate_solutions(instance: OsspInstance) -> list[str]:
    """All P!/(P-J)! feasible strings, sorted lexicographically: the
    strings of the sorted solution_values, so past 63 bits it raises
    CapabilityError before anything is enumerated."""
    values = np.sort(solution_values(instance)).tolist()
    return [int_to_bits(v, instance.n_bits) for v in values]


def solution_count(instance: OsspInstance) -> int:
    p, j = instance.positions, instance.jobs
    return math.factorial(p) // math.factorial(p - j)


# ---------------------------------------------------------------------------
# objectives


@dataclass(frozen=True)
class LinearObjective:
    """f(z) = sum_n w_n z_n with w indexed by bit (weights[i-1] is bit i)."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            weights = tuple(float(w) for w in self.weights)
        except (TypeError, ValueError):
            raise DomainError("linear weights must be a list of numbers") from None
        if not all(math.isfinite(w) for w in weights):
            raise DomainError("linear weights must be finite")
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class TspObjective:
    """Closed-tour length for the travelling-salesman shape (M = 1, T = J).

    Time slots play the role of cities and the job coordinate orders the tour:
    f(z) = sum_{u<v} d_uv sum_j (z_{u,j} z_{v,j+1} + z_{v,j} z_{u,j+1}),
    with j+1 taken cyclically (J+1 -> 1).
    """

    distances: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        try:
            d = tuple(tuple(float(x) for x in row) for row in self.distances)
        except (TypeError, ValueError):
            raise DomainError("distance matrix must be a list of rows of numbers") from None
        n = len(d)
        if any(len(row) != n for row in d):
            raise DomainError("distance matrix must be square")
        for u in range(n):
            for v in range(n):
                if not 0 <= d[u][v] < math.inf:
                    raise DomainError("distances must be finite and nonnegative")
                if abs(d[u][v] - d[v][u]) > 1e-12:
                    raise DomainError("distance matrix must be symmetric")
        object.__setattr__(self, "distances", d)


Objective = LinearObjective | TspObjective


def linear_from_rows(instance: OsspInstance, rows) -> LinearObjective:
    """Build a LinearObjective from P rows of J weights, rows ordered by (m, t)."""
    try:
        rows = [list(r) for r in rows]
    except TypeError:
        raise DomainError("linear weights must be a list of rows") from None
    if len(rows) != instance.positions or any(len(r) != instance.jobs for r in rows):
        raise DomainError(
            f"expected {instance.positions} weight rows of {instance.jobs} entries, "
            f"got {len(rows)} rows"
        )
    return LinearObjective(tuple(w for row in rows for w in row))


def _check_objective(obj: Objective, instance: OsspInstance) -> None:
    if isinstance(obj, LinearObjective):
        if len(obj.weights) != instance.n_bits:
            raise DomainError(
                f"linear objective has {len(obj.weights)} weights, instance has {instance.n_bits} bits"
            )
    elif isinstance(obj, TspObjective):
        if instance.machines != 1 or instance.time_slots != instance.jobs:
            raise DomainError("tour objective requires M = 1 and T = J")
        if len(obj.distances) != instance.time_slots:
            raise DomainError(
                f"distance matrix is {len(obj.distances)}x{len(obj.distances)}, "
                f"instance has {instance.time_slots} cities"
            )
    else:
        raise DomainError(f"unknown objective type {type(obj).__name__}")


def _bit(ints: np.ndarray, n_bits: int, i: int) -> np.ndarray:
    """0/1 int64 array: bit index i (1-based, MSB first) of each integer."""
    return (ints >> (n_bits - i)) & 1


STACK_CAP = 1 << 16  # largest group, terms times elements, built as one array


def _add(total: np.ndarray, term: np.ndarray) -> np.ndarray:
    """total + term, in place when total already spans term's axes."""
    if all(t in (1, s) for s, t in zip(total.shape, term.shape)):
        total += term
        return total
    return total + term


def block_axes(instance: OsspInstance, masks) -> list[int]:
    """The amplitude axis of each position block: the index of the mask in
    masks (disjoint, together the bits of a basis) that holds all the
    block's bits. DomainError when the masks do not cover exactly the
    instance's n_bits bits, or when a position block does not lie on one
    axis: an instance read on a basis of other blocks would pair bits
    wrongly."""
    n = instance.n_bits
    if sum(masks) != (1 << n) - 1:
        raise DomainError(f"a basis of {sum(masks).bit_length()} bits is not over {n} bits")
    owner = []
    for block in position_blocks(instance):
        block_mask = sum(1 << (n - i) for i in block)
        owner.append(next((a for a, m in enumerate(masks) if m & block_mask == block_mask), None))
        if owner[-1] is None:
            raise DomainError(f"position block {block} does not lie on one axis")
    return owner


def tensor_objective_values(obj: Objective, instance: OsspInstance, sectors, masks) -> np.ndarray:
    """f over the tensor product of sectors, flattened in C order: axis k
    holds the bit patterns sectors[k] (integers, bit 1 = MSB) on the bits
    of masks[k], a string is the sum of one pattern per axis, and each
    position block lies on one axis: block_axes raises DomainError when
    the masks are not over the instance's bits or a block spans two.

    Every element is the left-to-right float sum of the objective's terms,
    starting at +0.0, as objective_values adds them string by string: w *
    bit per bit in index order for a linear objective, and for a tour the
    (u, v, j) terms, u < v and then j, of each nonzero d_uv. The terms come
    in groups of J: a linear objective's bits of one position block, or a
    tour's cyclic terms of one d_uv. A group is built on its own axes only
    and added to a running total that broadcasts one axis at a time, so
    its cost is the size of the total so far, not of the basis.

    A group of at most STACK_CAP terms times elements is built as one
    array. Where at most one of its terms is nonzero per element, as on an
    axis of weight 0 or 1 and for every d_uv of a tour with J >= 3 over
    such axes, it is added as one table, its sum; otherwise term by term
    (a tour with J = 2, an axis of weight 2 or more, the full basis). A
    larger group, on a long single axis, is built and added one term at a
    time. The tables are exact: the other terms add +-0.0 to a total that
    starts at +0.0 and so is never -0.0, which leaves it unchanged. Float
    + and * are commutative to the bit, so each element gets the same
    products and sums in the same order, and the result equals the
    per-string sum to the bit. On one CPU of a shared 2-CPU x86_64 host
    the 823,543-amplitude diagonals of OSSP(3,3,7) (linear) and
    OSSP(1,7,7) (tour) took 3.8 and 18 ms, against 0.28 and 1.9 s bit by
    bit (BENCH_12.json)."""
    _check_objective(obj, instance)
    n, jobs = instance.n_bits, instance.jobs
    shape = tuple(len(s) for s in sectors)
    lead = (-1,) + (1,) * len(shape)  # a leading term axis
    cols = [as_int64(s, n).reshape([-1 if k == a else 1 for k in range(len(shape))])
            for a, s in enumerate(sectors)]
    owner = block_axes(instance, masks)

    def bits(p, js):
        """Bit j of position block p, for the 0-based jobs js, stacked."""
        return (cols[owner[p]] >> (n - jobs * p - 1 - js).reshape(lead)) & 1

    groups = []  # (axes, terms): terms(js) stacks the group's terms js
    if isinstance(obj, LinearObjective):
        weights = np.array(obj.weights).reshape(-1, jobs)
        for p in range(instance.positions):
            groups.append(({owner[p]}, lambda js, p=p: weights[p, js].reshape(lead) * bits(p, js)))
    else:
        for u, v in itertools.combinations(range(jobs), 2):  # slot t is block t
            if d := obj.distances[u][v]:
                groups.append(({owner[u], owner[v]}, lambda js, u=u, v=v, d=d: d * (
                    (bits(u, js) & bits(v, (js + 1) % jobs))
                    + (bits(v, js) & bits(u, (js + 1) % jobs)))))
    total = np.zeros((1,) * len(shape))
    every = np.arange(jobs)
    for axes, terms in groups:
        if jobs * math.prod(shape[a] for a in axes) <= STACK_CAP:
            stack = terms(every)
            if np.all((stack != 0).sum(axis=0) <= 1):
                stack = stack.sum(axis=0, keepdims=True)
        else:
            stack = (terms(np.array([j]))[0] for j in range(jobs))
        for term in stack:
            total = _add(total, term)
    if total.shape != shape:
        total = np.broadcast_to(total, shape).copy()
    return total.ravel()


def objective_values(obj: Objective, instance: OsspInstance, ints: np.ndarray) -> np.ndarray:
    """Vectorized objective over basis states given as integers (bit 1 = MSB):
    the one-axis case of tensor_objective_values. Rows are scored
    independently, so a value does not depend on the batch; a linear value
    adds the set bits' weights in index order, like Python's sum. A long
    batch is read one bit at a time, so no (rows x bits) matrix is built."""
    return tensor_objective_values(obj, instance, (np.ravel(ints),), ((1 << instance.n_bits) - 1,))


def feasibility_mask(instance: OsspInstance, ints: np.ndarray) -> np.ndarray:
    """Vectorized feasibility over basis states given as integers (bit 1 = MSB):
    each block's weight is counted bit by bit."""
    n = instance.n_bits
    ints = as_int64(ints, n)
    weight = lambda block: sum(_bit(ints, n, i) for i in block)  # noqa: E731
    ok = np.ones(len(ints), dtype=bool)
    for block in job_blocks(instance):
        ok &= weight(block) == 1
    for block in position_blocks(instance):
        ok &= weight(block) <= 1
    return ok


def evaluate_objective(obj: Objective, instance: OsspInstance, z: str) -> float:
    check_bitstring(z, instance.n_bits)
    return float(objective_values(obj, instance, np.array([bits_to_int(z)]))[0])


def _assignments(instance: OsspInstance) -> np.ndarray:
    """(count, J) uint8 array: the position of each job in every injective
    job-to-position assignment, in itertools.permutations(range(P), J)
    order. Built one job at a time: each row repeats once per free
    position, and np.nonzero lists the free positions row by row in
    ascending order, which is the lexicographic order of the tuples. The
    63-bit bound is applied first."""
    as_int64((), instance.n_bits)
    assigned = np.zeros((1, 0), dtype=np.uint8)  # positions <= n_bits <= 63
    for _ in range(instance.jobs):
        free = np.ones((len(assigned), instance.positions), dtype=bool)
        free[np.arange(len(assigned))[:, None], assigned] = False
        rows, cols = np.nonzero(free)
        assigned = np.concatenate([assigned[rows], cols[:, None].astype(np.uint8)], axis=1)
    return assigned


def _values_of(instance: OsspInstance, assigned: np.ndarray) -> np.ndarray:
    """The int64 strings (bit 1 = MSB) of _assignments' rows: each job's
    column selects its bit values, which are ORed together."""
    n, jobs, positions = instance.n_bits, instance.jobs, instance.positions
    bits = as_int64([[1 << (n - jobs * p - j0 - 1) for p in range(positions)]
                     for j0 in range(jobs)], n)
    values = np.zeros(len(assigned), dtype=np.int64)
    for j0 in range(jobs):
        values |= bits[j0][assigned[:, j0]]
    return values


def solution_values(instance: OsspInstance) -> np.ndarray:
    """Every feasible string as an int64 value (bit 1 = MSB), one per
    injective job-to-position assignment, in itertools.permutations order.

    The 63-bit bound is applied first, so a larger instance raises
    CapabilityError before anything is enumerated; within it an instance
    has at most 9!/2! = 181,440 solutions. The assignments are built with
    numpy as one (count, J) array of positions, and each job's column
    selects its bit values, so no tuple or string is kept per solution."""
    return _values_of(instance, _assignments(instance))


def scored_solutions(instance: OsspInstance, obj: Objective) -> tuple[np.ndarray, np.ndarray]:
    """(values, scores): solution_values and the objective of each, equal
    to objective_values(obj, instance, values) to the bit. The oracle and
    ossvqa enumerate both read it.

    A linear objective is scored per position: a schedule has at most one
    set bit in each position block, so its value is +0.0 plus, position by
    position in index order, the weight of the job placed there. The bit
    by bit sum also adds w * 0 = +-0.0 for every other bit, which leaves a
    total that starts at +0.0, and so is never -0.0, unchanged; the sums
    are the same. That reads P gathers instead of N bits. A tour is scored
    by objective_values."""
    assigned = _assignments(instance)
    _check_objective(obj, instance)
    values = _values_of(instance, assigned)
    if isinstance(obj, TspObjective):
        return values, objective_values(obj, instance, values)
    jobs, positions = instance.jobs, instance.positions
    table = np.zeros((positions, jobs + 1))  # column J: no job, adds +0.0
    table[:, :jobs] = np.reshape(obj.weights, (positions, jobs))
    job_at = np.full((positions, len(assigned)), jobs, dtype=np.uint8)
    rows = np.arange(len(assigned))
    for j0 in range(jobs):
        job_at[assigned[:, j0], rows] = j0
    del assigned, rows  # not held while scoring, which sets the oracle's peak memory
    scores = np.zeros(job_at.shape[1])
    for p in range(positions):
        scores += table[p][job_at[p]]
    return values, scores


TIE_TOL = 1e-12  # scores within it of the minimum are optimal


def optimum(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """(best, tied): the minimum score and the mask of scores within
    TIE_TOL of it, the one tie rule of the oracle and ossvqa enumerate."""
    best = float(scores.min())
    return best, np.abs(scores - best) < TIE_TOL


def optimal_solutions(instance: OsspInstance, obj: Objective) -> tuple[float, set[str]]:
    """Brute-force minimum objective over all feasible strings (the classical
    oracle), with every string within TIE_TOL = 1e-12 of it. The solutions
    are scored by scored_solutions, to the bit as objective_values would;
    only the tied optima become strings. On the 60,480 schedules of
    OSSP(3,3,6) it took 11 ms on one CPU of a shared 2-CPU x86_64 host,
    against 47 ms for the itertools walk and bit-by-bit scores
    (BENCH_12.json)."""
    values, scores = scored_solutions(instance, obj)
    best, tied = optimum(scores)
    return best, {int_to_bits(v, instance.n_bits) for v in values[tied].tolist()}


# ---------------------------------------------------------------------------
# JSON instance files


def load_instance_dict(data: dict) -> tuple[OsspInstance, Objective]:
    """Parse {"machines", "time_slots", "jobs", "objective": {...}}."""
    if not isinstance(data, dict):
        raise DomainError("instance document must be a JSON object")
    for field in ("machines", "time_slots", "jobs", "objective"):
        if field not in data:
            raise DomainError(f"instance file missing required field {field!r}")
    instance = OsspInstance(data["machines"], data["time_slots"], data["jobs"])
    spec = data["objective"]
    if not isinstance(spec, dict) or len(spec.keys() & {"linear", "tsp"}) != 1:
        raise DomainError("objective must contain exactly one of 'linear' or 'tsp'")
    if "linear" in spec:
        try:
            rows = spec["linear"]["weights"]
        except (TypeError, KeyError) as exc:
            raise DomainError("objective.linear must contain 'weights'") from exc
        obj: Objective = linear_from_rows(instance, rows)
    else:
        try:
            distances = spec["tsp"]["distances"]
        except (TypeError, KeyError) as exc:
            raise DomainError("objective.tsp must contain 'distances'") from exc
        obj = TspObjective(distances)
    _check_objective(obj, instance)
    return instance, obj


def read_json(path):
    """The JSON document at path; DomainError when the file cannot be read
    (missing, a directory, not UTF-8) or does not parse."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None


def load_instance(path) -> tuple[OsspInstance, Objective]:
    return load_instance_dict(read_json(path))


def instance_to_dict(instance: OsspInstance, obj: Objective) -> dict:
    _check_objective(obj, instance)
    if isinstance(obj, LinearObjective):
        w = obj.weights
        rows = [
            list(w[p * instance.jobs : (p + 1) * instance.jobs])
            for p in range(instance.positions)
        ]
        objective = {"linear": {"weights": rows}}
    else:
        objective = {"tsp": {"distances": [list(r) for r in obj.distances]}}
    return {
        "machines": instance.machines,
        "time_slots": instance.time_slots,
        "jobs": instance.jobs,
        "objective": objective,
    }
