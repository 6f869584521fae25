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

A start is one basis state and a swap moves amplitude only between
partner patterns along one block's axis, so amplitude spreads one block
pattern at a time. A state therefore carries a support: per amplitude
axis, the [lo, hi) index range outside which every amplitude is exactly
zero, and None is the whole basis. basis_state sets it, the phase layer
passes it through, and on bases larger than GATHER_DIM a mixer widens it
to the swap partners and runs only on that box. Two kernels apply the
swaps: a flat gather on bases of at most GATHER_DIM amplitudes, and
strided views on the support box past it. Both read one table per swap
pair, memoised on the basis. Results equal those of the per-pair formula
to the bit, apart from the sign of zeros outside the box.

All state comparisons in tests use fidelity |<phi|psi>| since pi/2 rotations
introduce global phases of i per swapped pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

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
    position_blocks,
    tensor_objective_values,
)

DIM_CAP = 1 << 20
GATHER_DIM = 4096  # largest basis whose mixers run the flat-gather kernel (see _rotate)
PROB_FLOOR = 1e-14  # Born probabilities at or below it are not read out
BETA_LO, BETA_HI = 0.0, math.pi / 2


# ---------------------------------------------------------------------------
# bases and states


@dataclass(eq=False)
class Basis:
    """A tensor product of per-block sectors: sectors[k] holds block k's
    allowed bit patterns in ascending order and masks[k] holds its bits.
    The full 2^N basis is the single sector of all N-bit values. _plans
    memoises the mixer kernels' bookkeeping: each swap pair's table
    (_pair_axis) and, past GATHER_DIM, its plan per axis range (_box_plan)."""

    n_bits: int
    sectors: tuple[np.ndarray, ...]
    masks: tuple[int, ...]
    _plans: dict = field(default_factory=dict, repr=False)

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

    def position_of(self, value: int) -> tuple[int, ...]:
        """The string's index along each amplitude axis."""
        patterns = [value & m for m in self.masks]
        pos = tuple(int(np.searchsorted(s, p)) for s, p in zip(self.sectors, patterns))
        if sum(patterns) == value and all(
            i < len(s) and s[i] == p for s, i, p in zip(self.sectors, pos, patterns)
        ):
            return pos
        raise DomainError(f"string {int_to_bits(value, self.n_bits)} is not in the basis")

    def index_of(self, value: int) -> int:
        return int(np.ravel_multi_index(self.position_of(value), self.shape))


@dataclass(eq=False)
class QuantumState:
    """Amplitudes over a basis, in its order.

    support is derived, not a setting: one [lo, hi) index range per
    amplitude axis (basis.shape) outside which every amplitude is exactly
    zero, and None is the whole basis. basis_state sets it to the start's
    index on each axis, the phase layer passes it through, and a mixer past
    GATHER_DIM widens it (see _rotate). Whoever builds a state by hand and
    gives it a support vouches for the zeros."""

    basis: Basis
    amps: np.ndarray
    support: tuple[tuple[int, int], ...] | None = None

    @property
    def engine(self) -> str:
        return self.basis.engine

    def copy(self) -> "QuantumState":
        return QuantumState(self.basis, self.amps.copy(), self.support)

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
    """Shared by all starts with these block weights, so they share its plan
    memo. That memo holds per-axis indices (one table per swap pair, and
    past GATHER_DIM one box plan per pair and axis range a start's boxes
    reach) and, up to GATHER_DIM, two flat index arrays per pair, so
    keeping it is cheap. Past 63 bits, or past DIM_CAP strings
    (prod_k C(J, w_k)), it raises CapabilityError before any pattern is
    listed."""
    n = instance.n_bits
    as_int64((), n)
    if math.prod(math.comb(instance.jobs, w) for w in weights) > DIM_CAP:
        raise CapabilityError(f"restricted basis would exceed {DIM_CAP} states")
    sectors, masks = [], []
    for block, weight in zip(position_blocks(instance), weights):
        bit_masks = [1 << (n - i) for i in block]
        patterns = sorted(sum(c) for c in itertools.combinations(bit_masks, weight))
        sector = as_int64(patterns, n)
        sector.setflags(write=False)  # shared between callers
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
    pos = basis.position_of(bits_to_int(z))
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps.reshape(basis.shape)[pos] = 1.0
    return QuantumState(basis, amps, tuple((i, i + 1) for i in pos))


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


def _pair_axis(basis: Basis, pair) -> tuple:
    """The table of the 1-based bit pair, memoised on the basis by pair:
    (axis, d10, p01, partner, flat).

    axis is the amplitude axis whose block holds both bits; d10 holds the
    indices along it of patterns with bits (1, 0) on the pair and p01
    those of their swapped partners (present, as a sector holds every
    pattern of its weight); partner maps each index along the axis to its
    swap partner, and to itself where the bits are equal. On a basis of at
    most GATHER_DIM amplitudes, flat is the gather kernel's plan: the flat
    indices of the (1, 0) entries followed by those of their (0, 1)
    partners, and the same two halves swapped; it is () on larger bases
    and where d10 is empty. Keeping it in the table gives the gather
    kernel one lookup per pair and no key to build."""
    pair = tuple(pair)
    table = basis._plans.get(pair)
    if table is None:
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
        partner = np.arange(len(patterns))
        partner[d10], partner[p01] = p01, d10
        flat = ()
        if len(d10) and basis.dim <= GATHER_DIM:
            lead = (slice(None),) * axis
            index = np.arange(basis.dim).reshape(basis.shape)
            i10, i01 = index[lead + (d10,)].ravel(), index[lead + (p01,)].ravel()
            flat = np.concatenate([i10, i01]), np.concatenate([i01, i10])
            for half in flat:
                half.setflags(write=False)  # shared between callers
        table = basis._plans[pair] = axis, d10, p01, partner, flat
    return table


def _run(idx: np.ndarray):
    """idx as a slice when it is an ascending arithmetic run, so that
    indexing with it gives a view instead of a copy."""
    step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
    if len(idx) and step > 0 and np.all(np.diff(idx) == step):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _box_plan(basis: Basis, pair, support) -> tuple:
    """(axis, span, plan) for the pair on a basis past GATHER_DIM, given a
    support box (one [lo, hi) range per axis).

    span is the smallest range that holds the box's range on the pair's
    axis and the swap partner of each index in it; plan is the view
    kernel's (i10, i01) index tuples into a box of that span along the
    axis, counted from its lo (views where the indices form a run), or ()
    when no unequal pattern lies in it. Memoised on the basis by pair and
    range: a start's boxes repeat from one evaluation to the next."""
    axis, d10, p01, partner, _ = _pair_axis(basis, pair)
    key = tuple(pair) + support[axis]
    if key not in basis._plans:
        lo, hi = support[axis]
        while True:
            seg = partner[lo:hi]
            span = min(lo, int(seg.min())), max(hi, int(seg.max()) + 1)
            if span == (lo, hi):
                break
            lo, hi = span
        plan = ()
        if np.any(keep := (d10 >= lo) & (d10 < hi)):
            lead = (slice(None),) * axis
            plan = lead + (_run(d10[keep] - lo),), lead + (_run(p01[keep] - lo),)
        basis._plans[key] = span, plan
    return axis, *basis._plans[key]


def _rotate(state: QuantumState, pairs, beta: float) -> QuantumState:
    """The swap rotations on the given pairs, one after another; returns a
    new state and never writes to state.amps. DomainError when beta is not
    finite.

    One output array serves every pair. Per pair, the rotated values
    c*a10 + i s*a01 and c*a01 + i s*a10 are read off the current array
    first; then every amplitude is multiplied by e^{i beta} (the first pair
    copies the input into the output this way, later pairs multiply in
    place); then the rotated values are scattered over their phased
    entries.

    Two kernels do this, chosen once per basis by its size. Up to
    GATHER_DIM amplitudes a pair is one stacked flat gather: r = c *
    x[sel]; r += js * x[partner]; then the phase; then x[sel] = r, seven
    numpy calls where the two halves take eleven, and on small states the
    calls, not the data, are the cost. Past GATHER_DIM the per-element cost
    of a flat gather dominates and the halves are read as strided views
    along the pair's axis (index arrays where the axis indices form no
    run). The switch sits where best-of-5 timings of both kernels on one
    CPU crossed: the gather took about half the views' time on 27 and 256
    amplitudes and two thirds on 3,125, tied with them from 4,096 to
    7,776, and took 1.1 to 1.6 times their time from 16,384 up (46,656
    and 65,536 included).

    Past GATHER_DIM the view kernel runs on the state's support box, the
    whole basis when the support is None. Each pair widens its axis's
    range to hold the swap partners of the range, and the pairs are gone
    over again until no range grows, so the box holds the partner of every
    index in it. The kernel then runs on that box, as a view of the input.
    A box smaller than the basis goes into one fresh full-size array, zero
    outside it, that keeps the box as its support; a box of the whole
    basis is the result, with support None. The gather kernel ignores the
    support and returns a state without one: on its bases the cost is
    numpy calls, not amplitudes.

    Each amplitude sees the same operations in the same order under both
    kernels, inside any box, and as with a new array per pair, so the
    result is the same to the bit; outside a box only the sign of a zero
    can differ. The scalars stay where they were: c and js on the left of
    their products and ph on the right, since numpy can round a product
    differently when its operands are swapped. A one-element array takes
    the phase out of place: numpy runs an in-place product of one element
    as a reduction, which rounds differently."""
    if not math.isfinite(beta):
        raise DomainError("mixer angles must be finite")
    basis = state.basis
    ph = np.exp(1j * beta)
    c, js = math.cos(beta), 1j * math.sin(beta)
    gather = basis.dim <= GATHER_DIM
    if gather:
        out = state.amps
        plans = [_pair_axis(basis, pair)[4] for pair in pairs]
    else:
        support = list(state.support or ((0, n) for n in basis.shape))
        while True:
            steps = []
            for pair in pairs:
                axis, span, plan = _box_plan(basis, pair, support)
                support[axis] = span
                steps.append((axis, span, plan))
            if all(support[axis] == span for axis, span, _ in steps):
                break
        plans = [plan for *_, plan in steps]
        box = tuple(slice(lo, hi) for lo, hi in support)
        out = state.amps.reshape(basis.shape)[box]
    for k, plan in enumerate(plans):
        if plan and gather:
            sel, partner = plan
            r = c * out[sel]
            r += js * out[partner]
        elif plan:
            i10, i01 = plan
            a10, a01 = out[i10], out[i01]  # views when the index is a run
            r10 = c * a10
            r10 += js * a01
            r01 = c * a01
            r01 += js * a10
        # equal-bit states pick up the phase
        if k == 0 or out.size == 1:
            # the first pair's copy, so the input is never written; a
            # one-element array too, as the docstring says
            out = out * ph
        else:
            out *= ph
        if plan and gather:
            out[sel] = r
        elif plan:
            out[i10] = r10
            out[i01] = r01
    if gather or out.shape == basis.shape:
        return QuantumState(basis, out.ravel())
    amps = np.zeros(basis.shape, dtype=out.dtype)
    amps[box] = out
    return QuantumState(basis, amps.ravel(), tuple(support))


def apply_swap_rotation(state: QuantumState, pair, beta: float) -> QuantumState:
    """e^{i beta SWAP} on the two given 1-based bit indices."""
    return _rotate(state, (pair,), beta)


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
    """Product of the P commuting swap rotations at the same angle;
    DomainError when beta is not finite.

    Up to GATHER_DIM amplitudes the gather kernel runs on every amplitude
    and returns no support, since there the cost is numpy calls, not
    amplitudes. On a larger basis the view kernel runs on the state's
    support box, the whole basis when the support is None: each pair's
    axis range grows to hold the swap partners of its indices, and the
    result is zero outside the grown box, which becomes its support.
    Amplitudes, expectations and samples are the same to the bit whatever
    the support; only the sign of zeros outside the box can differ. See
    _rotate for the kernels and the numpy rounding trap a one-element box
    meets. From the identity schedule, apply_circuit on the ladder's
    46,656-amplitude rungs fell from 8.06 to 2.48 ms (tour OSSP(1,6,6),
    depth 2) and from 4.51 to 0.89 ms (OSSP(3,3,6), depth 1) on one thread
    of a shared 2-CPU x86_64 host (BENCH_11.json, with a support)."""
    return _rotate(state, mixer.pairs, beta)


def phase_separator(objective: Objective, instance: OsspInstance, basis: Basis) -> np.ndarray:
    """The phase separator's diagonal: f(z) per basis state in amplitude
    order, as float64. The separator acts as z -> e^{i gamma f(z)} z.

    Built on the basis's sectors and masks by tensor_objective_values, so
    no per-string value is decoded. Terms are added to a total that
    broadcasts one axis at a time: a block's J linear terms as one table on
    its axis, and a tour's d_uv as one table on the axes of slots u and v,
    wherever at most one of the J terms is nonzero per string; term by term
    otherwise (a tour with J = 2, sectors of weight 2 or more, the full
    basis). Each entry equals objective_values on the string to the bit. The
    823,543-amplitude diagonals of OSSP(3,3,7) and of the tour OSSP(1,7,7)
    take milliseconds, not seconds (tensor_objective_values)."""
    return tensor_objective_values(objective, instance, basis.sectors, basis.masks)


class PhaseTable(NamedTuple):
    """A phase diagonal as its distinct values: levels ascending, and
    diag == levels[inverse]. Integer weights leave few levels (tens on
    46,656 amplitudes), so the phase layer exponentiates only those."""

    levels: np.ndarray
    inverse: np.ndarray


def phase_table(diag: np.ndarray) -> PhaseTable:
    return PhaseTable(*np.unique(diag, return_inverse=True))


def apply_phase_separator(state: QuantumState, table: PhaseTable, gamma: float) -> QuantumState:
    """e^{i gamma f} from the diagonal's table: one exponential per level,
    gathered onto the amplitudes. An amplitude gets the factor
    exp(1j * gamma * f(z)) of its own value, so the result equals
    amps * exp(1j * gamma * diag) to the bit. DomainError when some
    gamma * f(z) is not finite, as its phase would be NaN.

    A finite phase keeps a zero zero, so the support passes through. The
    product still runs on the whole array: its bits depend on the form of
    the expression (see the comment below), and a product over a box
    would be a different form."""
    if len(table.inverse) != len(state.amps):
        raise DomainError("phase separator was built for a different basis")
    # levels ascend, so the extremes bound every |gamma * f(z)|; Python
    # floats overflow to inf without a warning
    g, lo, hi = float(gamma), float(table.levels[0]), float(table.levels[-1])
    if not (math.isfinite(g * lo) and math.isfinite(g * hi)):
        raise DomainError(f"phase angle gamma = {g} times the objective is not finite")
    # keep the form amps * <temporary> of amps * exp(1j * gamma * diag):
    # numpy writes a product into a large temporary right operand with the
    # operands swapped, and a swapped complex product can round differently
    phases = np.exp(1j * gamma * table.levels)
    return QuantumState(state.basis, state.amps * phases[table.inverse], state.support)


def apply_simultaneous_mixer(state: QuantumState, mixer_list, beta: float) -> QuantumState:
    """e^{-i beta sum_i B_i} on the restricted engine.

    Every SWAP term acts inside one position block, so the sum splits into
    commuting per-block terms and the exponential into one small matrix per
    amplitude axis: the sum of the axis's SWAP permutation matrices, read
    off the pair tables. A single-member family therefore equals apply_mixer
    with beta -> -beta. DomainError when beta is not finite.
    """
    basis = state.basis
    if basis.engine == "full":
        raise CapabilityError("the simultaneous mixer needs the restricted engine")
    if not math.isfinite(beta):
        raise DomainError("mixer angles must be finite")
    from scipy.linalg import expm

    h = [np.zeros((len(s), len(s))) for s in basis.sectors]
    for mixer in mixer_list:
        for pair in mixer.pairs:
            axis, _, _, partner, _ = _pair_axis(basis, pair)
            h[axis] += np.eye(len(partner))[partner]
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


def readout(state: QuantumState, shots: int = 0, seed=None) -> tuple[np.ndarray, np.ndarray]:
    """(weights, order): the measured histogram of state on basis indices.

    With shots = 0 the weights are the Born probabilities and order keeps
    those above PROB_FLOOR; otherwise they are multinomial counts of the
    Born probabilities, identical for an identical seed, and order keeps
    the sampled indices. order runs by descending weight, ties by
    ascending string value: amplitude order is ascending string value and
    the sort is stable. Negative shots raise DomainError."""
    if shots < 0:
        raise DomainError("shots must be nonnegative")
    if shots == 0:
        weights = _born(state)
        keep = np.flatnonzero(weights > PROB_FLOOR)
    else:
        probs = np.clip(_born(state), 0.0, None)
        weights = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
        keep = np.flatnonzero(weights)
    return weights, keep[np.argsort(-weights[keep], kind="stable")]


def _by_string(state: QuantumState, weights: np.ndarray, order: np.ndarray) -> dict:
    """weights[order] keyed by bit string, in order."""
    strings = (int_to_bits(v, state.basis.n_bits) for v in state.basis.values()[order].tolist())
    return dict(zip(strings, weights[order].tolist()))


def probabilities(state: QuantumState) -> dict[str, float]:
    """The readout's Born probabilities keyed by bit string, in its order."""
    return _by_string(state, *readout(state))


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
    (tau_{J-1} acting first). n_beta = depth (J-1) and n_gamma = depth
    follow from depth and the instance.
    """

    instance: OsspInstance
    objective: Objective
    depth: int
    mixers: tuple[MixerHamiltonian, ...] = field(repr=False)
    _sep_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_beta(self) -> int:
        return self.depth * (self.instance.jobs - 1)

    @property
    def n_gamma(self) -> int:
        return self.depth

    def phase_for(self, basis: Basis) -> np.ndarray:
        """The phase diagonal over basis, built once per basis together
        with its PhaseTable."""
        if basis not in self._sep_cache:  # bases hash by identity
            diag = phase_separator(self.objective, self.instance, basis)
            self._sep_cache[basis] = diag, phase_table(diag)
        return self._sep_cache[basis][0]

    def phase_table_for(self, basis: Basis) -> PhaseTable:
        """The PhaseTable of phase_for(basis), which the phase layer reads;
        phase_for builds and caches both."""
        self.phase_for(basis)
        return self._sep_cache[basis][1]


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
        mixers=tuple(reversed(mixers(instance))),
    )


def clamp_beta(beta: np.ndarray) -> np.ndarray:
    """Force mixer angles into [0, pi/2], warning when anything moved;
    DomainError when one is not finite."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise DomainError("mixer angles must be finite")
    if np.any(beta < BETA_LO - 1e-12) or np.any(beta > BETA_HI + 1e-12):
        warnings.warn(
            "mixer angles outside [0, pi/2] were clamped", stacklevel=3
        )
    return np.clip(beta, BETA_LO, BETA_HI)


def apply_circuit(circuit: Circuit, params: ParameterVector, state: QuantumState) -> QuantumState:
    """The circuit round by round, with beta clamped into [0, pi/2] and read
    as the (depth, J-1) grid of the Circuit docstring. DomainError when the
    slot counts do not match or an angle is not finite: a NaN or infinite
    beta is refused before clamping, and a gamma whose phase would not be
    finite by the phase layer.

    A gate whose angle is exactly 0 (beta after clamping, gamma as given) is
    the identity e^{i 0 H} = I and is skipped; the phase diagonal and its
    PhaseTable are built on the first round with nonzero gamma. Running a
    skipped gate would change at most the sign of zero real or imaginary
    parts.

    A start from basis_state carries its support, so on bases larger than
    GATHER_DIM the first rounds' mixers run on the box amplitude has
    reached (apply_mixer); a state without one runs on the box of the whole
    basis. That too changes at most the sign of zeros, so the result's
    amplitudes, expectation and samples do not depend on the support."""
    if len(params.beta) != circuit.n_beta or len(params.gamma) != circuit.n_gamma:
        raise DomainError(
            f"parameter shape ({len(params.beta)} beta, {len(params.gamma)} gamma) "
            f"does not match circuit slots ({circuit.n_beta}, {circuit.n_gamma})"
        )
    grid = clamp_beta(params.beta).reshape(circuit.depth, circuit.instance.jobs - 1)
    table = None
    for gamma, row in zip(params.gamma, grid):
        if gamma != 0.0:
            if table is None:
                table = circuit.phase_table_for(state.basis)
            state = apply_phase_separator(state, table, gamma)
        for mixer, beta in zip(circuit.mixers, row[::-1]):
            if beta != 0.0:
                state = apply_mixer(state, mixer, beta)
    return state
