"""Exact noiseless simulation of SWAP-rotation circuits.

Two interchangeable engines hold the amplitudes:

- full: the complete 2^N computational basis, indexed by the integer value of
  the bit string (bit 1, the leftmost printed character, is the most
  significant bit);
- subspace: the strings sharing a reference string's Hamming weight inside
  every position block. Mixers act inside position blocks and phase
  separators are diagonal, so these weights are conserved and the
  restriction is exact. The subspace is a tensor product of one sector per
  block (the C(J, w) patterns of weight w on its J bits); amplitudes reshape
  to one axis per block, and block 1 holds the most significant bits, so the
  flat order is ascending string value. Started from a schedule of a busy
  instance it holds J^P strings, of which J! are schedules.

A swap rotation by angle beta multiplies basis states with equal bits on the
pair by e^{i beta} and mixes unequal pairs as cos(beta)|z> + i sin(beta)
|z_swapped>; at beta = pi/2 it acts as i * SWAP, at 0 as the identity. A
mixer applies the rotation to one adjacent job pair inside every position
block; the rotations commute. Only the angles 0 and pi/2 map schedules onto
schedules: in between, a mixer puts amplitude on infeasible strings.
A circuit runs rounds of one phase separator e^{i gamma f(z)} followed by
the mixers B_{J-1}, ..., B_1.

All state comparisons in tests use fidelity |<phi|psi>| since pi/2 rotations
introduce global phases of i per swapped pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError
from .instances import (
    Objective,
    OsspInstance,
    as_int64,
    bits_to_int,
    check_bitstring,
    feasibility_mask,
    int_to_bits,
    objective_values,
    position_blocks,
)

DIM_CAP = 1 << 20
PROB_FLOOR = 1e-14  # Born probabilities at or below it are not read out
BETA_LO, BETA_HI = 0.0, math.pi / 2


# ---------------------------------------------------------------------------
# bases and states


@dataclass(eq=False)
class Basis:
    """A tensor product of per-block sectors: sectors[k] holds block k's
    allowed bit patterns in ascending order and masks[k] holds its bits.
    The full 2^N basis is the single sector of all N-bit values."""

    n_bits: int
    sectors: tuple[np.ndarray, ...]
    masks: tuple[int, ...]
    _partners: dict = field(default_factory=dict, repr=False)

    @property
    def engine(self) -> str:
        # a sector basis fixes the weight of every block of J >= 1 bits, and
        # C(J, w) < 2^J, so only the full basis holds all 2^N strings
        return "full" if self.dim == 1 << self.n_bits else "subspace"

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sectors)

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    def values(self) -> np.ndarray:
        """Integer value of every basis string in amplitude order (ascending)."""
        return functools.reduce(np.add.outer, self.sectors).ravel()

    def index_of(self, value: int) -> int:
        patterns = [value & m for m in self.masks]
        pos = [int(np.searchsorted(s, p)) for s, p in zip(self.sectors, patterns)]
        if sum(patterns) == value and all(
            i < len(s) and s[i] == p for s, i, p in zip(self.sectors, pos, patterns)
        ):
            return int(np.ravel_multi_index(pos, self.shape))
        raise DomainError(f"string {int_to_bits(value, self.n_bits)} is not in the basis")


@dataclass(eq=False)
class QuantumState:
    basis: Basis
    amps: np.ndarray

    @property
    def engine(self) -> str:
        return self.basis.engine

    def copy(self) -> "QuantumState":
        return QuantumState(self.basis, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def full_basis(n_bits: int) -> Basis:
    if (1 << n_bits) > DIM_CAP:
        raise CapabilityError(f"full basis of 2^{n_bits} states would exceed {DIM_CAP} states")
    values = np.arange(1 << n_bits, dtype=np.int64)
    values.setflags(write=False)  # values() hands it out
    return Basis(n_bits, (values,), ((1 << n_bits) - 1,))


def subspace_basis(instance: OsspInstance, z: str) -> Basis:
    """All strings sharing z's Hamming weight in every position block."""
    check_bitstring(z, instance.n_bits)
    weights = tuple(sum(z[i - 1] == "1" for i in block) for block in position_blocks(instance))
    return _sector_basis(instance, weights)


@functools.lru_cache(maxsize=64)
def _sector_basis(instance: OsspInstance, weights: tuple[int, ...]) -> Basis:
    """Shared by all starts with these block weights, so they share its swap
    partner memo; it holds no basis-sized array, so keeping it is cheap."""
    n = instance.n_bits
    sectors, masks = [], []
    dim = 1
    for block, weight in zip(position_blocks(instance), weights):
        bit_masks = [1 << (n - i) for i in block]
        patterns = sorted(sum(c) for c in itertools.combinations(bit_masks, weight))
        sector = as_int64(patterns, n)
        sector.setflags(write=False)  # shared between callers
        dim *= len(sector)
        if dim > DIM_CAP:
            raise CapabilityError(f"restricted basis would exceed {DIM_CAP} states")
        sectors.append(sector)
        masks.append(sum(bit_masks))
    return Basis(n, tuple(sectors), tuple(masks))


def basis_state(instance: OsspInstance, z: str, engine="full") -> QuantumState:
    """Unit amplitude on |z>. engine is 'full', 'subspace', or an explicit Basis."""
    check_bitstring(z, instance.n_bits)
    if isinstance(engine, Basis):
        basis = engine
    elif engine == "full":
        basis = full_basis(instance.n_bits)
    elif engine == "subspace":
        basis = subspace_basis(instance, z)
    else:
        raise DomainError(f"unknown engine {engine!r}")
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index_of(bits_to_int(z))] = 1.0
    return QuantumState(basis, amps)


def pure_state(n_bits: int, z: str) -> QuantumState:
    """Full-engine basis state without an instance (gate-level testing)."""
    check_bitstring(z, n_bits)
    basis = full_basis(n_bits)
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[bits_to_int(z)] = 1.0
    return QuantumState(basis, amps)


def amplitude(state: QuantumState, z: str) -> complex:
    """Amplitude on |z>; 0 for strings outside a restricted basis."""
    check_bitstring(z, state.basis.n_bits)
    try:
        return complex(state.amps[state.basis.index_of(bits_to_int(z))])
    except DomainError:
        return 0.0


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>| for states over the identical basis."""
    if a.basis is not b.basis and (
        a.basis.n_bits != b.basis.n_bits
        or not np.array_equal(a.basis.values(), b.basis.values())
    ):
        raise DomainError("fidelity requires states over the same basis")
    return float(abs(np.vdot(a.amps, b.amps)))


def basis_strings(basis: Basis) -> list[str]:
    return [int_to_bits(int(v), basis.n_bits) for v in basis.values()]


# ---------------------------------------------------------------------------
# gates


def _run(idx: np.ndarray):
    """idx as a slice when it is an ascending arithmetic run, so that
    indexing with it gives a view instead of a copy."""
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if len(idx) and step > 0 and np.all(np.diff(idx) == step):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _swap_partners(basis: Basis, pair) -> tuple:
    """(axis, d10, p01, i10, i01): the axis whose block holds both bits of
    the 1-based pair, the indices along it of patterns with bits (1, 0) on
    the pair, those of their swapped partners (present, as a sector holds
    every pattern of its weight), and both as index tuples into the
    reshaped amplitudes. Memoised on the basis."""
    pair = tuple(pair)
    if pair not in basis._partners:
        a, b = pair
        n = basis.n_bits
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise DomainError(f"invalid bit pair {pair!r} for {n} bits")
        ma, mb = 1 << (n - a), 1 << (n - b)
        axis = next((k for k, m in enumerate(basis.masks) if m & ma and m & mb), None)
        if axis is None:
            raise DomainError(f"swap on pair {pair} leaves the restricted basis")
        patterns = basis.sectors[axis]
        d10 = np.nonzero(((patterns & ma) != 0) & ((patterns & mb) == 0))[0]
        p01 = np.searchsorted(patterns, patterns[d10] ^ (ma | mb))
        lead = (slice(None),) * axis
        basis._partners[pair] = (axis, d10, p01, lead + (_run(d10),), lead + (_run(p01),))
    return basis._partners[pair]


def _rotate(amps: np.ndarray, basis: Basis, pairs, beta: float) -> np.ndarray:
    """The swap rotations on the given pairs, one after another, on a flat
    amplitude array; returns a new array."""
    ph = np.exp(1j * beta)
    c, js = math.cos(beta), 1j * math.sin(beta)
    amps = amps.reshape(basis.shape)
    for pair in pairs:
        _, d10, _, i10, i01 = _swap_partners(basis, pair)
        out = amps * ph  # equal-bit states pick up the phase
        if len(d10):
            a10, a01 = amps[i10], amps[i01]
            out[i10] = c * a10 + js * a01
            out[i01] = c * a01 + js * a10
        amps = out
    return amps.ravel()


def apply_swap_rotation(state: QuantumState, pair, beta: float) -> QuantumState:
    """e^{i beta SWAP} on the two given 1-based bit indices."""
    return QuantumState(state.basis, _rotate(state.amps, state.basis, (pair,), beta))


@dataclass(frozen=True)
class MixerHamiltonian:
    """Sum of disjoint SWAPs realizing one adjacent job transposition: one
    (job i, job i+1) bit pair inside every position block."""

    generator: int
    pairs: tuple[tuple[int, int], ...]


def mixer_hamiltonian(instance: OsspInstance, i: int) -> MixerHamiltonian:
    if not (1 <= i <= instance.jobs - 1):
        raise DomainError(
            f"mixer index {i} out of range 1..{instance.jobs - 1}"
        )
    pairs = tuple(
        (block[i - 1], block[i]) for block in position_blocks(instance)
    )
    return MixerHamiltonian(i, pairs)


def mixers(instance: OsspInstance) -> list[MixerHamiltonian]:
    return [mixer_hamiltonian(instance, i) for i in range(1, instance.jobs)]


def apply_mixer(state: QuantumState, mixer: MixerHamiltonian, beta: float) -> QuantumState:
    """Product of the P commuting swap rotations at the same angle."""
    return QuantumState(state.basis, _rotate(state.amps, state.basis, mixer.pairs, beta))


def phase_separator(objective: Objective, instance: OsspInstance, basis: Basis) -> np.ndarray:
    """The phase separator's diagonal: f(z) per basis state in amplitude
    order, as float64. The separator acts as z -> e^{i gamma f(z)} z."""
    return objective_values(objective, instance, basis.values())


def apply_phase_separator(state: QuantumState, diag: np.ndarray, gamma: float) -> QuantumState:
    if len(diag) != len(state.amps):
        raise DomainError("phase separator was built for a different basis")
    return QuantumState(state.basis, state.amps * np.exp(1j * gamma * diag))


def apply_simultaneous_mixer(state: QuantumState, mixer_list, beta: float) -> QuantumState:
    """e^{-i beta sum_i B_i} on the restricted engine.

    Every SWAP term acts inside one position block, so the sum splits into
    commuting per-block terms and the exponential into one small matrix per
    amplitude axis. A single-member family therefore equals apply_mixer with
    beta -> -beta.
    """
    basis = state.basis
    if basis.engine == "full":
        raise CapabilityError("the simultaneous mixer needs the restricted engine")
    from scipy.linalg import expm

    h = [np.zeros((len(s), len(s))) for s in basis.sectors]
    for mixer in mixer_list:
        for pair in mixer.pairs:
            axis, d10, p01, _, _ = _swap_partners(basis, pair)
            perm = np.arange(len(h[axis]))
            perm[d10], perm[p01] = p01, d10
            h[axis] += np.eye(len(perm))[perm]
    gates = {}  # busy blocks share one generator: exponentiate it once
    amps = state.amps.reshape(basis.shape)
    for axis, hk in enumerate(h):
        key = (hk.shape, hk.tobytes())
        if key not in gates:
            gates[key] = expm(-1j * beta * hk)
        amps = np.moveaxis(np.tensordot(gates[key], amps, axes=(1, axis)), 0, axis)
    return QuantumState(basis, amps.ravel())


# ---------------------------------------------------------------------------
# measurement

def _born(state: QuantumState) -> np.ndarray:
    """|amplitude|^2 per basis index."""
    return (state.amps.conj() * state.amps).real


def expectation(state: QuantumState, diag: np.ndarray) -> float:
    """<state| f |state> = sum_z f(z) |amp(z)|^2, f given as the phase diagonal."""
    if len(diag) != len(state.amps):
        raise DomainError("diagonal was built for a different basis")
    return float(_born(state) @ diag)


def sample_counts(state: QuantumState, shots: int, seed) -> np.ndarray:
    """Multinomial measurement counts per basis index, in amplitude order;
    identical seed gives identical counts."""
    if shots < 1:
        raise DomainError("shots must be >= 1")
    probs = np.clip(_born(state), 0.0, None)
    probs = probs / probs.sum()
    return np.random.default_rng(seed).multinomial(shots, probs)


def readout(state: QuantumState, shots: int = 0, seed=None,
            threshold: float = PROB_FLOOR) -> tuple[np.ndarray, np.ndarray]:
    """(weights, order): the measured histogram of state on basis indices.

    With shots = 0 the weights are the Born probabilities and order keeps
    those above threshold; otherwise they are the seeded sample_counts and
    order keeps the sampled indices. order runs by descending weight, ties
    by ascending string value: amplitude order is ascending string value
    and the sort is stable."""
    if shots == 0:
        weights = _born(state)
        keep = np.flatnonzero(weights > threshold)
    else:
        weights = sample_counts(state, shots, seed)
        keep = np.flatnonzero(weights)
    return weights, keep[np.argsort(-weights[keep], kind="stable")]


def _by_string(state: QuantumState, weights: np.ndarray, order: np.ndarray) -> dict:
    """weights[order] keyed by bit string, in order."""
    strings = (int_to_bits(v, state.basis.n_bits) for v in state.basis.values()[order].tolist())
    return dict(zip(strings, weights[order].tolist()))


def probabilities(state: QuantumState, threshold: float = PROB_FLOOR) -> dict[str, float]:
    """The readout's Born probabilities keyed by bit string, in its order."""
    return _by_string(state, *readout(state, threshold=threshold))


def sample(state: QuantumState, shots: int, seed) -> dict[str, int]:
    """The readout's counts keyed by bit string, most frequent first (ties
    by ascending string). Records and sampled evaluations use readout
    directly and key nothing by string."""
    if shots < 1:
        raise DomainError("shots must be >= 1")
    return _by_string(state, *readout(state, shots, seed))


def feasible_mass(instance: OsspInstance, state: QuantumState) -> float:
    """Total Born probability carried by feasible strings."""
    mask = feasibility_mask(instance, state.basis.values())
    return float(_born(state)[mask].sum())


# ---------------------------------------------------------------------------
# circuits


@dataclass(eq=False)
class Circuit:
    """depth rounds of the phase separator, then the mixers B_{J-1}, ...,
    B_1, which mixers holds in this application order.

    beta is a (depth, J-1) grid: beta[r(J-1)+i-1] drives B_i in round r
    (0-based), after e^{i gamma[r] f}. At beta = (pi/2, ..., pi/2) and
    gamma = 0 one round realizes the job permutation tau_1 o tau_2 o ...
    (tau_{J-1} acting first).
    """

    instance: OsspInstance
    objective: Objective
    depth: int
    n_beta: int
    n_gamma: int
    mixers: tuple[MixerHamiltonian, ...] = field(repr=False)
    _sep_cache: dict = field(default_factory=dict, repr=False)

    def phase_for(self, basis: Basis) -> np.ndarray:
        """The phase diagonal over basis, built once per basis."""
        if basis not in self._sep_cache:  # bases hash by identity
            self._sep_cache[basis] = phase_separator(self.objective, self.instance, basis)
        return self._sep_cache[basis]


@dataclass(eq=False)
class ParameterVector:
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        self.beta = np.asarray(self.beta, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)


def zero_params(circuit: Circuit) -> ParameterVector:
    return ParameterVector(np.zeros(circuit.n_beta), np.zeros(circuit.n_gamma))


def build_circuit(instance: OsspInstance, objective: Objective, depth: int) -> Circuit:
    """depth rounds of [phase, mixers]; (J-1) beta slots and 1 gamma slot per round."""
    if depth < 1:
        raise DomainError("circuit depth must be >= 1")
    return Circuit(
        instance=instance,
        objective=objective,
        depth=depth,
        n_beta=depth * (instance.jobs - 1),
        n_gamma=depth,
        mixers=tuple(reversed(mixers(instance))),
    )


def clamp_beta(beta: np.ndarray) -> np.ndarray:
    """Force mixer angles into [0, pi/2], warning when anything moved."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta < BETA_LO - 1e-12) or np.any(beta > BETA_HI + 1e-12):
        warnings.warn(
            "mixer angles outside [0, pi/2] were clamped", stacklevel=3
        )
    return np.clip(beta, BETA_LO, BETA_HI)


def apply_circuit(circuit: Circuit, params: ParameterVector, state: QuantumState) -> QuantumState:
    """The circuit round by round, with beta clamped into [0, pi/2] and read
    as the (depth, J-1) grid of the Circuit docstring.

    A gate whose angle is exactly 0 (beta after clamping, gamma as given) is
    the identity e^{i 0 H} = I and is skipped; the phase diagonal is built
    on the first round with nonzero gamma. Running a skipped gate would
    change at most the sign of zero real or imaginary parts."""
    if len(params.beta) != circuit.n_beta or len(params.gamma) != circuit.n_gamma:
        raise DomainError(
            f"parameter shape ({len(params.beta)} beta, {len(params.gamma)} gamma) "
            f"does not match circuit slots ({circuit.n_beta}, {circuit.n_gamma})"
        )
    grid = clamp_beta(params.beta).reshape(circuit.depth, circuit.instance.jobs - 1)
    diag = None
    for gamma, row in zip(params.gamma, grid):
        if gamma != 0.0:
            if diag is None:
                diag = circuit.phase_for(state.basis)
            state = apply_phase_separator(state, diag, gamma)
        for mixer, beta in zip(circuit.mixers, row[::-1]):
            if beta != 0.0:
                state = apply_mixer(state, mixer, beta)
    return state
