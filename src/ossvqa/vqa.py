"""Variational driver: objective evaluation, classical optimizers, reach compilation.

Two derivative-free optimizers are provided.  The trust-region route wraps
scipy's COBYLA (linear-approximation trust region) with the beta box enforced
by clamping before every evaluation.  The sampled-descent route draws a fixed
number of uniform candidates from a shrinking ball intersected with the
parameter box and accepts the candidate minimizer; the incumbent value is part
of the candidate set, so the accepted-value trace is non-increasing by
construction.

All randomness flows from a single integer seed through named substreams
(one per candidate index, histogram, and so on), so a run is a pure function
of its configuration and results do not depend on evaluation order.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import CapabilityError, DomainError, VerificationError
from .groups import decompose_job_permutation
from .instances import (
    OsspInstance,
    as_integer,
    bits_to_int,
    check_bitstring,
    feasibility_mask,
    instance_to_dict,
    int_to_bits,
    is_finite_real,
    linear_from_rows,
    optimal_solutions,
)
from .simulator import (
    BETA_HI,
    BETA_LO,
    Circuit,
    ParameterVector,
    QuantumState,
    apply_circuit,
    basis_state,
    build_circuit,
    expectation,
    readout,
)

# named substreams hanging off the run seed
_STREAM_INIT = 0
_STREAM_EVAL = 1
_STREAM_ITER_HIST = 2
_STREAM_FINAL_HIST = 3

_REL_EPS = 1e-12


def _stream(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))


@dataclass
class OptimizerConfig:
    """Knobs for both optimizers.

    max_iters counts objective evaluations for kind 'tr' and accept/update
    steps for kind 'sgd'.  For kind 'tr' it is 0 (one evaluation, at the
    start) or at least n + 2 for n circuit parameters, COBYLA's smallest
    budget; trust_region_minimize refuses anything in between.  shots = 0
    evaluates the exact expectation.  seed, max_iters, shots and
    sample_size are integers (as_integer), gamma_box a pair (lo, hi).
    Every float setting must be a finite real number (is_finite_real), kept
    as given, radius and rhobeg positive, tol nonnegative.
    """

    kind: str = "tr"
    seed: int = 0
    max_iters: int = 400
    shots: int = 0
    sample_size: int = 40
    radius: float = math.pi / 8
    kappa: float = 0.5
    min_factor: float = 0.25
    gamma_box: tuple[float, float] = (0.0, 2 * math.pi)
    rhobeg: float = 0.4
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in ("tr", "sgd"):
            raise DomainError(f"unknown optimizer kind {self.kind!r}")
        for name in ("seed", "max_iters", "shots", "sample_size"):
            setattr(self, name, as_integer(name, getattr(self, name)))
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.max_iters < 0 or self.shots < 0:
            raise DomainError("max_iters and shots must be nonnegative")
        if self.sample_size < 1:
            raise DomainError("sample_size must be at least 1")
        try:
            lo, hi = self.gamma_box
        except (TypeError, ValueError):
            raise DomainError(f"gamma_box must be a pair (lo, hi), got {self.gamma_box!r}") from None
        settings = (self.radius, self.kappa, self.min_factor, self.rhobeg, self.tol, lo, hi)
        if not all(map(is_finite_real, settings)):
            raise DomainError(f"optimizer settings must be finite real numbers, got {settings!r}")
        if not self.radius > 0:
            raise DomainError("radius must be positive")
        if not self.rhobeg > 0:
            raise DomainError("rhobeg must be positive")
        if not self.tol >= 0:
            raise DomainError("tol must be nonnegative")
        if not 0 < self.min_factor <= 1:
            raise DomainError("min_factor must lie in (0, 1]")
        if not lo < hi:
            raise DomainError("gamma_box must be a nonempty interval")

    def to_dict(self) -> dict:
        return {**asdict(self), "gamma_box": list(self.gamma_box)}


@dataclass
class RunRecord:
    """Everything needed to reproduce and audit one optimization run."""

    instance: dict
    config: dict
    seed: int
    depth: int
    status: str
    n_evaluations: int
    iterations: list
    best_params: dict
    best_expectation: float
    final_params: dict
    final_expectation: float
    engine: str | None = None
    initial_state: str | None = None
    shots: int | None = None
    histogram: list | None = None
    mode: str | None = None
    dominant_fraction: float | None = None
    feasible_fraction: float | None = None
    best_feasible: dict | None = None
    classical_optimum: dict | None = None
    sidecar: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def parameter_bounds(circuit: Circuit, config: OptimizerConfig):
    """Componentwise box: beta in [BETA_LO, BETA_HI] = [0, pi/2] (the box
    clamp_beta keeps), gamma in config.gamma_box."""
    lo, hi = config.gamma_box
    lower = np.array([BETA_LO] * circuit.n_beta + [lo] * circuit.n_gamma)
    upper = np.array([BETA_HI] * circuit.n_beta + [hi] * circuit.n_gamma)
    return lower, upper


def initial_parameters(circuit: Circuit, config: OptimizerConfig) -> ParameterVector:
    """Uniform draw from the parameter box, seeded by the run seed."""
    rng = np.random.default_rng(_stream(config.seed, _STREAM_INIT))
    lower, upper = parameter_bounds(circuit, config)
    x = rng.uniform(lower, upper)
    return _split(circuit, x)


def _split(circuit: Circuit, x: np.ndarray) -> ParameterVector:
    return ParameterVector(x[: circuit.n_beta], x[circuit.n_beta :])


def _params_dict(circuit: Circuit, x: np.ndarray) -> dict:
    return {
        "beta": [float(v) for v in x[: circuit.n_beta]],
        "gamma": [float(v) for v in x[circuit.n_beta :]],
    }


def objective_value(circuit, params, state, shots=0, seed=None) -> float:
    """Expectation of the objective after the circuit; exact when shots = 0,
    otherwise the empirical mean over a seeded measurement sample.

    Both read f from the circuit's PhaseTable for the final state's basis
    (circuit.phase_for), the table annotate_rows reads a row's value from.
    A sample is scored on basis indices: each sampled index's count times
    its entry in the table's diag, so no bit string is built. The terms
    are summed in readout order, the order of the record's histogram,
    which fixes the rounding of the sum."""
    final = apply_circuit(circuit, params, state)
    table = circuit.phase_for(final.basis)
    if shots == 0:
        return expectation(final, table)
    counts, order = readout(final, shots, seed)
    return sum((counts[order] * table.diag[order]).tolist()) / shots


def trust_region_minimize(fun, x0, lower, upper, max_iters, rhobeg, tol):
    """COBYLA with box clamping; returns (best_x, best_f, final_x, final_f,
    trace, status, nfev).  The trace records each best-so-far improvement.
    max_iters = 0 evaluates x0 once; COBYLA needs n + 2 evaluations for n
    parameters (scipy silently raises a smaller budget), so
    0 < max_iters < n + 2 raises DomainError."""
    if 0 < max_iters < len(x0) + 2:
        raise DomainError(
            f"max_iters {max_iters} is below COBYLA's minimum of n + 2 = "
            f"{len(x0) + 2} evaluations for {len(x0)} parameters"
        )
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    trace: list[tuple[np.ndarray, float]] = []
    best = {"x": x0.copy(), "f": math.inf}

    def wrapped(x):
        xc = np.clip(x, lower, upper)
        f = fun(xc)
        if f < best["f"]:
            best["x"], best["f"] = xc.copy(), f
            trace.append((xc.copy(), f))
        return f

    if max_iters == 0:
        f0 = wrapped(x0)
        return x0, f0, x0, f0, trace, "budget", 1
    from scipy.optimize import minimize  # costly import, needed by COBYLA only

    res = minimize(
        wrapped,
        x0,
        method="COBYLA",
        tol=tol,
        options={"maxiter": max_iters, "rhobeg": rhobeg},
    )
    final_x = np.clip(np.asarray(res.x, dtype=float), lower, upper)
    status = "budget" if res.nfev >= max_iters else "converged"
    return best["x"], best["f"], final_x, float(res.fun), trace, status, res.nfev


def _ball_point(rng, center, radius, lower, upper, tries=64):
    """Uniform point in the radius-ball around center, intersected with the
    box; rejection sampling with a componentwise clamp as last resort."""
    d = len(center)
    pt = center
    for _ in range(tries):
        v = rng.normal(size=d)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        pt = center + radius * rng.uniform() ** (1.0 / d) * v / norm
        if np.all(pt >= lower) and np.all(pt <= upper):
            return pt
    return np.clip(pt, lower, upper)


def sgd_minimize(fun, x0, lower, upper, *, seed, max_iters, sample_size,
                 radius, kappa, min_factor):
    """Sampled descent over a shrinking ball.

    fun(x, rng) -> float; each candidate owns the substream derived from
    (seed, iteration, candidate index), so evaluations are order-independent.
    Acceptance keeps the incumbent unless a candidate is strictly better,
    making the returned trace non-increasing.  Returns (x, f, trace, nfev)
    where trace entries are (x, f, radius_used_next).
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f = fun(x, np.random.default_rng(_stream(seed, _STREAM_EVAL, 0, sample_size)))
    trace = [(x.copy(), f, radius)]
    nfev = 1
    for i in range(1, max_iters + 1):
        best_f, best_x = math.inf, None
        for k in range(sample_size):
            rng = np.random.default_rng(_stream(seed, _STREAM_EVAL, i, k))
            pt = _ball_point(rng, x, radius, lower, upper)
            fk = fun(pt, rng)
            nfev += 1
            if fk < best_f:
                best_f, best_x = fk, pt
        new_f = f
        if best_f < f:
            x, new_f = best_x, best_f
        factor = 1.0 - kappa * (f - new_f) / max(abs(f), _REL_EPS)
        radius *= min(1.0, max(min_factor, factor))
        f = new_f
        trace.append((x.copy(), f, radius))
    return x, f, trace, nfev


def run_optimizer(circuit: Circuit, state: QuantumState,
                  config: OptimizerConfig) -> RunRecord:
    """Search from a seeded uniform start in the parameter box and return
    the run's record. Kind 'tr' runs trust_region_minimize with only beta
    boxed (gamma enters a periodic phase), tracing each best-so-far value;
    kind 'sgd' runs sgd_minimize, tracing every accepted step."""
    lower, upper = parameter_bounds(circuit, config)
    start = initial_parameters(circuit, config)
    x0 = np.concatenate([start.beta, start.gamma])

    def fun(x, seed):  # seed: the stream of a sampled evaluation
        return objective_value(circuit, _split(circuit, x), state, config.shots, seed)

    if config.kind == "tr":
        lower[circuit.n_beta :] = -math.inf
        upper[circuit.n_beta :] = math.inf
        evaluations = itertools.count()
        best_x, best_f, final_x, final_f, trace, status, nfev = trust_region_minimize(
            lambda x: fun(x, _stream(config.seed, _STREAM_EVAL, next(evaluations))),
            x0, lower, upper, config.max_iters, config.rhobeg, config.tol,
        )
        trace = [(x, f, None) for x, f in trace]
    else:
        best_x, best_f, trace, nfev = sgd_minimize(
            fun, x0, lower, upper, seed=config.seed, max_iters=config.max_iters,
            sample_size=config.sample_size, radius=config.radius,
            kappa=config.kappa, min_factor=config.min_factor,
        )
        final_x, final_f, status = best_x, best_f, "budget"
    return RunRecord(
        instance=instance_to_dict(circuit.instance, circuit.objective),
        config=config.to_dict(),
        seed=config.seed,
        depth=circuit.depth,
        status=status,
        n_evaluations=int(nfev),
        iterations=[
            {"accepted_params": _params_dict(circuit, x), "expectation": float(f),
             "radius": None if r is None else float(r)}
            for x, f, r in trace
        ],
        best_params=_params_dict(circuit, best_x),
        best_expectation=float(best_f),
        final_params=_params_dict(circuit, final_x),
        final_expectation=float(final_f),
    )


# ---------------------------------------------------------------------------
# Exact reachability compilation


@dataclass
class ReachPlan:
    """A parameter assignment steering one solution onto another. circuit
    is the instance's one zero-objective reach circuit (_reach_circuit),
    shared by every plan on that instance; word and params are the plan's
    own."""

    word: list[int]
    circuit: Circuit
    params: ParameterVector
    fidelity: float


def job_assignment(instance: OsspInstance, z: str) -> tuple[int, ...]:
    """The job in each position of a busy solution, both zero-based.

    z is read once: one str.find per position block of J characters gives
    the block's first set bit, and the counts of '1' and '0' over the whole
    string close the check. z is a solution exactly when it has length N,
    holds only '0' and '1', has one set bit in every block (each block has
    one and there are P = J in all) and no job twice, which is
    is_feasible on a busy instance. Otherwise DomainError: the message of
    check_bitstring for a malformed string, else "<z> is not a solution"."""
    if not instance.is_busy:
        raise DomainError("job assignments require a busy instance")
    n, jobs = instance.n_bits, instance.jobs
    if isinstance(z, str) and len(z) == n:
        assignment = tuple(z.find("1", k, k + jobs) - k for k in range(0, n, jobs))
        if (min(assignment) >= 0 and len(set(assignment)) == jobs
                and z.count("1") == jobs and z.count("0") == n - jobs):
            return assignment
    check_bitstring(z, n)
    raise DomainError(f"{z} is not a solution")


@functools.lru_cache(maxsize=16)
def _reach_circuit(instance: OsspInstance) -> Circuit:
    """The circuit every reach plan on instance runs: J(J-1)/2 rounds (at
    least one) over an all-zero linear objective, whose phase layer is
    never run since gamma stays zero. It depends on the instance alone, so
    it is built once per instance and shared, as _product_basis shares
    bases; a plan's angles live in its params."""
    jobs = instance.jobs
    zero = linear_from_rows(instance, [[0] * jobs] * instance.positions)
    return build_circuit(instance, zero, max(1, jobs * (jobs - 1) // 2))


def compile_reach(instance: OsspInstance, source: str, target: str) -> ReachPlan:
    """Build a grid parameter assignment with |<target|U(beta)|source>| = 1.

    Busy instances only: the job permutation linking the two solutions is
    unique, and entry w_r of its adjacent-transposition word turns B_{w_r}
    to pi/2 in round r of the beta grid of the instance's shared reach
    circuit (_reach_circuit). Gamma stays zero throughout, so no objective
    enters. Every plan is re-run from |source> on the restricted-basis
    engine, through apply_circuit, before being returned: its fidelity is
    |amplitude| of the result on target, read at the target's position
    on the basis axes (Basis.position_of), and below 1 - 1e-10 it raises
    VerificationError. Both schedules are checked by job_assignment, so a
    string that is not a solution raises DomainError before anything runs.
    """
    if not instance.is_busy:
        raise CapabilityError(
            "reach compilation covers busy instances only; position "
            "permutations are not compiled"
        )
    src = job_assignment(instance, source)
    tgt = job_assignment(instance, target)
    tau = [0] * instance.jobs
    for p in range(instance.positions):
        tau[src[p]] = tgt[p]
    word = decompose_job_permutation(tau)
    circuit = _reach_circuit(instance)
    grid = np.zeros((circuit.depth, instance.jobs - 1))
    for r, w in enumerate(word):
        grid[r, w - 1] = math.pi / 2
    params = ParameterVector(grid.ravel(), np.zeros(circuit.depth))
    reached = apply_circuit(circuit, params, basis_state(instance, source, "subspace"))
    basis = reached.basis
    fid = float(abs(reached.amps.reshape(basis.shape)[basis.position_of(bits_to_int(target))]))
    if fid < 1 - 1e-10:
        raise VerificationError(
            f"reach plan fidelity {fid:.12f} for {source} -> {target}"
        )
    return ReachPlan(word=word, circuit=circuit, params=params, fidelity=fid)


# ---------------------------------------------------------------------------
# Experiment orchestration


def annotate_rows(circuit: Circuit, state: QuantumState, shots: int = 0, seed=None) -> list[dict]:
    """The readout of state as record rows: bit string, probability (shots =
    0) or count, value, feasibility and Hamming distance to the first row,
    the mode. A value is the entry of the circuit's PhaseTable for the
    state's basis (circuit.phase_for), read through diag_for, which raises
    DomainError unless the table is over that basis; feasibility is read
    against circuit.instance. Rows are built from basis indices; a
    record's bit strings are made here and nowhere else."""
    diag = circuit.phase_for(state.basis).diag_for(state)
    weights, order = readout(state, shots, seed)
    values = state.basis.values()[order]
    key = "count" if shots else "probability"
    mode = int(values[0])
    return [
        {
            "bitstring": int_to_bits(v, state.basis.n_bits),
            key: w,
            "value": f,
            "feasible": ok,
            "hamming_to_mode": (v ^ mode).bit_count(),
        }
        for v, w, f, ok in zip(
            values.tolist(), weights[order].tolist(), diag[order].tolist(),
            feasibility_mask(circuit.instance, values).tolist(),
        )
    ]


def run_experiment(instance: OsspInstance, objective, *, depth: int,
                   initial_state: str, config: OptimizerConfig, shots: int,
                   engine: str = "subspace") -> RunRecord:
    """Optimize, then measure at the best parameters and annotate the result.

    The returned record is a pure function of the arguments; wall-clock data
    lives in the sidecar field only: the start time, the total seconds, and
    per stage the evaluation count, the optimizer's seconds and milliseconds
    per evaluation, the final readout's seconds and the classical oracle's
    seconds. DomainError when shots or depth is not an integer
    (as_integer) or is out of range.
    """
    shots = as_integer("shots", shots)
    if shots < 0:
        raise DomainError("shots must be nonnegative")
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    circuit = build_circuit(instance, objective, depth)
    state = basis_state(instance, initial_state, engine)
    t_optimizer = time.perf_counter()
    record = run_optimizer(circuit, state, config)
    t_readout = time.perf_counter()
    record.engine = engine
    record.initial_state = initial_state
    record.shots = shots

    key, total = ("count", float(shots)) if shots else ("probability", 1.0)

    def histogram(params: dict, stream) -> list[dict]:
        pv = ParameterVector(params["beta"], params["gamma"])
        final = apply_circuit(circuit, pv, state)
        return annotate_rows(circuit, final, shots, stream)

    rows = record.histogram = histogram(record.best_params,
                                        _stream(config.seed, _STREAM_FINAL_HIST))
    record.mode = rows[0]["bitstring"]
    record.dominant_fraction = rows[0][key] / total
    record.feasible_fraction = sum(row[key] for row in rows if row["feasible"]) / total
    feas = [(row["value"], row["bitstring"]) for row in rows if row["feasible"]]
    record.best_feasible = (
        {"bitstring": min(feas)[1], "value": min(feas)[0]} if feas else None
    )
    t_oracle = time.perf_counter()
    opt_value, opt_solutions = optimal_solutions(instance, objective)
    t_oracle_done = time.perf_counter()
    record.classical_optimum = {
        "value": opt_value,
        "solutions": sorted(opt_solutions),
    }
    if config.kind == "sgd":
        for i, entry in enumerate(record.iterations):
            rows_i = histogram(entry["accepted_params"],
                               _stream(config.seed, _STREAM_ITER_HIST, i))
            entry["histogram"] = {row["bitstring"]: row[key] for row in rows_i}
    optimizer_seconds = t_readout - t_optimizer
    record.sidecar = {
        "started_at": started,
        "wall_clock_seconds": time.perf_counter() - t0,
        "n_evaluations": record.n_evaluations,
        "optimizer_seconds": optimizer_seconds,
        "ms_per_evaluation": 1e3 * optimizer_seconds / record.n_evaluations,
        "readout_seconds": t_oracle - t_readout,
        "oracle_seconds": t_oracle_done - t_oracle,
    }
    return record
