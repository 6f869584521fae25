"""Open-shop scheduling instances, bit-string encodings, constraints, objectives.

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
    return [job_block(instance, j) for j in range(1, instance.jobs + 1)]


def position_blocks(instance: OsspInstance) -> list[tuple[int, ...]]:
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


def hamming_distance(a: str, b: str) -> int:
    if len(a) != len(b):
        raise DomainError("bit strings differ in length")
    return sum(x != y for x, y in zip(a, b))


def indices_of_ones(z: str) -> tuple[int, ...]:
    """1-based indices of the set bits."""
    return tuple(i + 1 for i, c in enumerate(z) if c == "1")


def bitstring_from_indices(n_bits: int, indices) -> str:
    chars = ["0"] * n_bits
    for i in indices:
        if not (1 <= i <= n_bits):
            raise DomainError(f"bit index {i} out of range 1..{n_bits}")
        chars[i - 1] = "1"
    return "".join(chars)


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


# ---------------------------------------------------------------------------
# constraints


@dataclass(frozen=True)
class Constraint:
    """Hamming-weight constraint over an index set: '= 1' or '<= 1'."""

    kind: str  # 'one-hot' | 'at-most-one'
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("one-hot", "at-most-one"):
            raise DomainError(f"unknown constraint kind {self.kind!r}")
        if not self.indices:
            raise DomainError("constraint index set must be nonempty")


def constraints(instance: OsspInstance) -> list[Constraint]:
    """One one-hot constraint per job block, one at-most-one per position block."""
    out = [Constraint("one-hot", b) for b in job_blocks(instance)]
    out += [Constraint("at-most-one", b) for b in position_blocks(instance)]
    return out


def evaluate_constraint(constraint: Constraint, z: str) -> int:
    """1 if satisfied, 0 otherwise."""
    if max(constraint.indices) > len(z):
        raise DomainError(
            f"constraint touches index {max(constraint.indices)} but string has length {len(z)}"
        )
    w = sum(z[i - 1] == "1" for i in constraint.indices)
    return int(w == 1 if constraint.kind == "one-hot" else w <= 1)


def is_feasible(instance: OsspInstance, z: str) -> bool:
    """True iff z satisfies every job and position constraint."""
    check_bitstring(z, instance.n_bits)
    return all(evaluate_constraint(c, z) for c in constraints(instance))


def enumerate_solutions(instance: OsspInstance) -> list[str]:
    """All feasible strings, sorted lexicographically.

    Each solution assigns every job an injective position choice, so there are
    exactly P!/(P-J)! of them.
    """
    n, jobs = instance.n_bits, instance.jobs
    out = []
    for assignment in itertools.permutations(range(instance.positions), jobs):
        chars = ["0"] * n
        for j0, p in enumerate(assignment):
            chars[jobs * p + j0] = "1"
        out.append("".join(chars))
    out.sort()
    return out


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
        weights = tuple(float(w) for w in self.weights)
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
        d = tuple(tuple(float(x) for x in row) for row in self.distances)
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
    rows = [list(r) for r in rows]
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


def objective_values(obj: Objective, instance: OsspInstance, ints: np.ndarray) -> np.ndarray:
    """Vectorized objective over basis states given as integers (bit 1 = MSB).
    Rows are scored independently, so a value does not depend on the batch; a
    linear value adds the set bits' weights in index order, like Python's sum.
    Bits are read one index at a time, so no (rows x bits) matrix is built."""
    _check_objective(obj, instance)
    n = instance.n_bits
    ints = as_int64(ints, n)
    total = np.zeros(len(ints))
    if isinstance(obj, LinearObjective):
        for k, w in enumerate(obj.weights):
            total += w * _bit(ints, n, k + 1)
        return total
    jobs = instance.jobs
    bit = lambda t, j: _bit(ints, n, jobs * (t - 1) + j)  # noqa: E731
    for u in range(1, jobs + 1):
        for v in range(u + 1, jobs + 1):
            d = obj.distances[u - 1][v - 1]
            if d == 0:
                continue
            for j in range(1, jobs + 1):
                jn = j % jobs + 1
                total += d * ((bit(u, j) & bit(v, jn)) + (bit(v, j) & bit(u, jn)))
    return total


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


def optimal_solutions(instance: OsspInstance, obj: Objective) -> tuple[float, set[str]]:
    """Brute-force minimum objective over all feasible strings (the classical oracle)."""
    sols = enumerate_solutions(instance)
    values = objective_values(obj, instance, np.array([bits_to_int(z) for z in sols]))
    best = float(values.min())
    return best, {z for z, v in zip(sols, values) if abs(v - best) < 1e-12}


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
        obj = TspObjective(tuple(tuple(row) for row in distances))
    _check_objective(obj, instance)
    return instance, obj


def load_instance(path) -> tuple[OsspInstance, Objective]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(
                f"parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    return load_instance_dict(data)


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
