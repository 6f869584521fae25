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
    feasibility_mask,
    indices_of_ones,
    instance_to_dict,
    int_to_bits,
    is_feasible,
    linear_from_rows,
    optimal_solutions,
)
from .simulator import (
    Circuit,
    ParameterVector,
    QuantumState,
    apply_circuit,
    basis_state,
    build_circuit,
    expectation,
    fidelity,
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
    steps for kind 'sgd'.  shots = 0 evaluates the exact expectation.
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
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.max_iters < 0 or self.shots < 0:
            raise DomainError("max_iters and shots must be nonnegative")
        if self.sample_size < 1:
            raise DomainError("sample_size must be at least 1")
        if not self.radius > 0:
            raise DomainError("radius must be positive")
        if not 0 < self.min_factor <= 1:
            raise DomainError("min_factor must lie in (0, 1]")
        lo, hi = self.gamma_box
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
    """Componentwise box: beta in [0, pi/2], gamma in config.gamma_box."""
    lo, hi = config.gamma_box
    lower = np.array([0.0] * circuit.n_beta + [lo] * circuit.n_gamma)
    upper = np.array([math.pi / 2] * circuit.n_beta + [hi] * circuit.n_gamma)
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

    A sample is scored on basis indices: each sampled index's count times
    its entry in the circuit's phase diagonal, so no bit string is built.
    The terms are summed in readout order, the order of the record's
    histogram, which fixes the rounding of the sum."""
    final = apply_circuit(circuit, params, state)
    diag = circuit.phase_for(final.basis)
    if shots == 0:
        return expectation(final, diag)
    counts, order = readout(final, shots, seed)
    return sum((counts[order] * diag[order]).tolist()) / shots


def trust_region_minimize(fun, x0, lower, upper, max_iters, rhobeg, tol):
    """COBYLA with box clamping; returns (best_x, best_f, final_x, final_f,
    trace, status, nfev).  The trace records each best-so-far improvement."""
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
    """A parameter assignment steering one solution onto another."""

    word: list[int]
    circuit: Circuit
    params: ParameterVector
    fidelity: float


def job_assignment(instance: OsspInstance, z: str) -> tuple[int, ...]:
    """Busy solutions are bijections position -> job (both zero-based)."""
    if not instance.is_busy:
        raise DomainError("job assignments require a busy instance")
    if not is_feasible(instance, z):
        raise DomainError(f"{z} is not a solution")
    assignment = [-1] * instance.positions
    for idx in indices_of_ones(z):
        p, j = divmod(idx - 1, instance.jobs)
        assignment[p] = j
    return tuple(assignment)


def compile_reach(instance: OsspInstance, source: str, target: str) -> ReachPlan:
    """Build a grid parameter assignment with |<target|U(beta)|source>| = 1.

    Busy instances only: the job permutation linking the two solutions is
    unique, and entry w_r of its adjacent-transposition word turns B_{w_r}
    to pi/2 in round r of the Circuit's beta grid. Gamma stays zero
    throughout, so no objective enters. The plan is verified on the
    restricted-basis engine before being returned.
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
    jobs = instance.jobs
    depth = max(1, jobs * (jobs - 1) // 2)
    zero = linear_from_rows(instance, [[0] * jobs] * instance.positions)
    circuit = build_circuit(instance, zero, depth)
    grid = np.zeros((depth, jobs - 1))
    for r, w in enumerate(word):
        grid[r, w - 1] = math.pi / 2
    params = ParameterVector(grid.ravel(), np.zeros(depth))
    reached = apply_circuit(circuit, params, basis_state(instance, source, "subspace"))
    fid = fidelity(reached, basis_state(instance, target, reached.basis))
    if fid < 1 - 1e-10:
        raise VerificationError(
            f"reach plan fidelity {fid:.12f} for {source} -> {target}"
        )
    return ReachPlan(word=word, circuit=circuit, params=params, fidelity=fid)


# ---------------------------------------------------------------------------
# Experiment orchestration


def annotate_rows(instance: OsspInstance, state: QuantumState, diag: np.ndarray,
                  shots: int = 0, seed=None) -> list[dict]:
    """The readout of state as record rows: bit string, probability (shots =
    0) or count, value from the phase diagonal diag, feasibility and Hamming
    distance to the first row, the mode. Rows are built from basis indices;
    a record's bit strings are made here and nowhere else."""
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
            feasibility_mask(instance, values).tolist(),
        )
    ]


def run_experiment(instance: OsspInstance, objective, *, depth: int,
                   initial_state: str, config: OptimizerConfig, shots: int,
                   engine: str = "subspace") -> RunRecord:
    """Optimize, then measure at the best parameters and annotate the result.

    The returned record is a pure function of the arguments; wall-clock data
    lives in the sidecar field only.
    """
    if shots < 0:
        raise DomainError("shots must be nonnegative")
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    circuit = build_circuit(instance, objective, depth)
    state = basis_state(instance, initial_state, engine)
    record = run_optimizer(circuit, state, config)
    record.engine = engine
    record.initial_state = initial_state
    record.shots = shots

    key, total = ("count", float(shots)) if shots else ("probability", 1.0)

    def histogram(params: dict, stream) -> list[dict]:
        pv = ParameterVector(params["beta"], params["gamma"])
        final = apply_circuit(circuit, pv, state)
        return annotate_rows(instance, final, circuit.phase_for(final.basis), shots, stream)

    rows = record.histogram = histogram(record.best_params,
                                        _stream(config.seed, _STREAM_FINAL_HIST))
    record.mode = rows[0]["bitstring"]
    record.dominant_fraction = rows[0][key] / total
    record.feasible_fraction = sum(row[key] for row in rows if row["feasible"]) / total
    feas = [(row["value"], row["bitstring"]) for row in rows if row["feasible"]]
    record.best_feasible = (
        {"bitstring": min(feas)[1], "value": min(feas)[0]} if feas else None
    )
    opt_value, opt_solutions = optimal_solutions(instance, objective)
    record.classical_optimum = {
        "value": opt_value,
        "solutions": sorted(opt_solutions),
    }
    if config.kind == "sgd":
        for i, entry in enumerate(record.iterations):
            rows_i = histogram(entry["accepted_params"],
                               _stream(config.seed, _STREAM_ITER_HIST, i))
            entry["histogram"] = {row["bitstring"]: row[key] for row in rows_i}
    record.sidecar = {
        "started_at": started,
        "wall_clock_seconds": time.perf_counter() - t0,
    }
    return record
